//! Logical-clock substrate for conjunctive-predicate detection.
//!
//! This crate provides the timestamping machinery that the detection
//! algorithms of Garg & Chase (*Distributed Algorithms for Detecting
//! Conjunctive Predicates*, ICDCS 1995) are built on:
//!
//! - [`ProcessId`] and [`StateId`] — identifiers for processes and for the
//!   communication intervals ("states") of a process execution,
//! - [`VectorClock`] — Fidge/Mattern vector clocks, used by the paper's
//!   vector-clock token algorithm (Section 3),
//! - [`ClockArena`] and [`ClockRow`] — flat stride-`n` storage for large
//!   sets of same-width clocks (one allocation for a whole snapshot run
//!   instead of one per clock), with the same comparison API,
//! - [`ScalarClock`] and [`Dependence`] — the per-process logical counter and
//!   direct-dependence records used by the direct-dependence algorithm
//!   (Section 4),
//! - [`Cut`] — a global cut: one interval index per process, with `0`
//!   denoting "no state selected yet" exactly as in the paper's `G` vector,
//! - [`scoped_workers`] and [`strided`] ([`par`]) — the deterministic
//!   scoped worker-pool / strided-partition recipe shared by the one-shot
//!   parallel paths built on this substrate.
//!
//! # Example
//!
//! ```rust
//! use wcp_clocks::{ProcessId, VectorClock, CausalOrder};
//!
//! let p0 = ProcessId::new(0);
//! let p1 = ProcessId::new(1);
//!
//! // Two processes; p0 sends to p1.
//! let mut a = VectorClock::new(2); // clock at p0
//! let mut b = VectorClock::new(2); // clock at p1
//! a.init_process(p0);
//! b.init_process(p1);
//!
//! let msg = a.clone(); // timestamp carried by the message
//! a.tick(p0);          // p0 advances past the send
//! b.merge(&msg);       // p1 receives
//! b.tick(p1);
//!
//! assert_eq!(msg.causal_order(&b), CausalOrder::Before);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
mod cut;
mod dependence;
pub mod par;
mod process;
mod scalar;
mod vector;

pub use arena::{slice_causal_order, ClockArena, ClockRow};
pub use cut::Cut;
pub use dependence::{Dependence, DependenceList};
pub use par::{scoped_workers, strided};
pub use process::{ProcessId, StateId};
pub use scalar::ScalarClock;
pub use vector::{CausalOrder, VectorClock};
