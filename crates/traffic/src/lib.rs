//! # p4lru-traffic
//!
//! Workload substrate for the P4LRU evaluation.
//!
//! The paper drives its testbed and simulations with the CAIDA 2018
//! anonymized traces, sliced into `CAIDA_n` variants: take the first `n`
//! one-minute datasets and splice `1/n` minutes from each, holding packet
//! count roughly constant (≈2.6×10⁷) while the flow count climbs from
//! 1.3×10⁶ to 2.4×10⁶ and peak flow concurrency from 1.5×10⁵ to 5.8×10⁵.
//!
//! CAIDA traces are license-gated, so this crate generates *synthetic*
//! equivalents reproducing the three properties the experiments actually
//! exercise (see DESIGN.md §2):
//!
//! 1. **Zipf-skewed flow sizes** — a few elephant flows carry most packets
//!    ([`zipf`]);
//! 2. **temporal locality** — a flow's packets cluster in bursts inside a
//!    bounded active window ([`caida`]);
//! 3. **controllable concurrency** — the `CAIDA_n` splicing knob is
//!    reproduced by generating `n` segments with fresh flow populations
//!    ([`caida::CaidaConfig::segments`]).
//!
//! [`ycsb`] provides the Zipf(α = 0.9) key-request workload used for the
//! LruIndex experiments, [`adversarial`] the hot-key-flip pattern used to
//! stress the two-tier deployment, and [`stats`] computes the trace
//! statistics used to calibrate the generator against the paper's quoted
//! numbers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversarial;
pub mod caida;
pub mod packet;
pub mod stats;
pub mod ycsb;
pub mod zipf;

pub use adversarial::HotFlipConfig;
pub use caida::{CaidaConfig, Trace};
pub use packet::{FiveTuple, Packet};
pub use zipf::Zipf;
