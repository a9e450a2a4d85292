//! End-to-end and per-layer benchmark of the wcp detection stack. See
//! `README.md` in this directory for the workloads, the metrics and the
//! layer → end-to-end map.

pub mod alloc;
pub mod harness;
pub mod host;
pub mod stats;
pub mod trace;
pub mod workloads;
