//! The repo's benchmark: drives the release daemons from outside and
//! reports end-to-end and per-layer metrics (see `benchmark/README.md`).

#![warn(missing_docs)]

pub mod conn;
pub mod loadgen;
pub mod phases;
pub mod procs;
pub mod report;
pub mod sched;
pub mod span;
pub mod stats;
pub mod sys;
pub mod tape;
pub mod traced;
pub mod untraced;
pub mod walk;
