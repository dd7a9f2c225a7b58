//! Event-driven connection engine for the P4LRU cache service.
//!
//! One pump thread per client caps a single process at hundreds of
//! connections. This crate is the machinery past that wall: a small pool of
//! I/O threads, each owning one epoll instance, multiplexing thousands of
//! nonblocking connections through per-connection state machines
//! ([`Driver`]s).
//!
//! The crate is deliberately protocol-agnostic — it knows nothing about
//! frames, shards, or caches. `p4lru-server` layers its resumable
//! `FrameReader`/`FrameWriter` and reorder-buffer machinery on top as a
//! [`Driver`] implementation: its only connection front-end.
//!
//! Layers, bottom up:
//!
//! - [`sys`] — the only module with `unsafe`: thin checked wrappers over the
//!   vendored `libc` shim (epoll, eventfd, rlimit).
//! - [`poll`] — [`poll::Epoll`]: safe edge- or level-triggered registration
//!   and readiness harvesting.
//! - [`wake`] — [`wake::Waker`]: an eventfd that other threads write to pull
//!   an I/O thread out of `epoll_wait` (used when shard replies land).
//! - [`reactor`] — [`Reactor`]: the I/O thread pool, per-connection message
//!   mailboxes, deadline scheduling, and loop statistics.
//! - [`stream`] — [`SharedStream`]: reader/writer handles over one socket
//!   without `try_clone`'s second file descriptor.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod poll;
pub mod reactor;
pub mod stream;
pub mod sys;
pub mod wake;

pub use poll::{Epoll, Event, Events, Interest};
pub use reactor::{Ctl, Driver, LoopStats, Mailbox, Reactor, Ready, Status};
pub use stream::SharedStream;
pub use sys::{nofile_limit, raise_nofile_limit};
pub use wake::Waker;
