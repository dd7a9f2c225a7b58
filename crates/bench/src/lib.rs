//! # p4lru-bench
//!
//! The benchmark harness regenerating **every table and figure** of the
//! paper's evaluation (§4). Each figure has a module under [`figures`]
//! exposing `run(scale) -> FigureResult`, a name `all_figures --only`
//! selects it by, and a row in DESIGN.md's experiment index.
//!
//! ```text
//! cargo run --release -p p4lru-bench --bin all_figures -- --only fig09
//! cargo run --release -p p4lru-bench --bin all_figures -- --scale full
//! ```
//!
//! `--scale quick` (default) runs in seconds per figure with scaled-down
//! traces; `--scale full` uses multi-million-packet traces for the numbers
//! recorded in EXPERIMENTS.md. Absolute values differ from the paper's
//! testbed (our substrate is a simulator — see DESIGN.md §2); the *shape*
//! (who wins, by how much, where crossovers fall) is the reproduction
//! target.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
pub mod harness;
pub mod report;

pub use harness::{FigureResult, Scale, Series};
