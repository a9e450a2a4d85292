//! The four workloads. Each generates its inputs from the seed, builds
//! its reference during set-up, and drives the program from one client
//! thread that blocks while at most two worker threads run.

pub mod offline;
pub mod online;
pub mod session;
pub mod wire;

use wcp_net::NetStats;

use crate::harness::Layers;

/// Transport counters summed over the traced ops (high-watermarks
/// maxed), reported as the `net.*` layer metrics.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct NetTotals(NetStats);

impl NetTotals {
    /// Adds one op's counters.
    pub(crate) fn add(&mut self, s: &NetStats) {
        let t = &mut self.0;
        t.frames_sent += s.frames_sent;
        t.bytes_sent += s.bytes_sent;
        t.retransmits += s.retransmits;
        t.duplicates_dropped += s.duplicates_dropped;
        t.batch_flushes += s.batch_flushes;
        t.max_ready_depth = t.max_ready_depth.max(s.max_ready_depth);
        t.acks_sent += s.acks_sent;
        t.pool_allocs += s.pool_allocs;
        t.telemetry_bytes += s.telemetry_bytes;
        t.wire_bytes_v1_equiv += s.wire_bytes_v1_equiv;
        t.delta_frames_sent += s.delta_frames_sent;
        t.keyframes_sent += s.keyframes_sent;
    }

    /// Counters accrued between two snapshots of one counter block.
    pub(crate) fn delta(before: &NetStats, after: &NetStats) -> NetStats {
        NetStats {
            frames_sent: after.frames_sent - before.frames_sent,
            bytes_sent: after.bytes_sent - before.bytes_sent,
            retransmits: after.retransmits - before.retransmits,
            duplicates_dropped: after.duplicates_dropped - before.duplicates_dropped,
            batch_flushes: after.batch_flushes - before.batch_flushes,
            max_ready_depth: after.max_ready_depth,
            acks_sent: after.acks_sent - before.acks_sent,
            pool_allocs: after.pool_allocs - before.pool_allocs,
            telemetry_bytes: after.telemetry_bytes - before.telemetry_bytes,
            wire_bytes_v1_equiv: after.wire_bytes_v1_equiv - before.wire_bytes_v1_equiv,
            delta_frames_sent: after.delta_frames_sent - before.delta_frames_sent,
            keyframes_sent: after.keyframes_sent - before.keyframes_sent,
            ..NetStats::default()
        }
    }

    /// The `net.*` metrics over `ops` traced ops: ratios over the totals,
    /// event counts per op.
    pub(crate) fn report(&self, ops: usize, out: &mut Layers) {
        let t = &self.0;
        let per_op = |v: u64| v as f64 / ops.max(1) as f64;
        let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;
        out.set(
            "net.frames_per_flush",
            ratio(t.frames_sent, t.batch_flushes),
            ops,
        );
        out.set(
            "net.pool_allocs_per_frame",
            ratio(t.pool_allocs, t.frames_sent),
            ops,
        );
        out.set("net.max_ready_depth", t.max_ready_depth as f64, ops);
        out.set("net.acks_sent", per_op(t.acks_sent), ops);
        out.set("net.retransmits", per_op(t.retransmits), ops);
        out.set("net.duplicates_dropped", per_op(t.duplicates_dropped), ops);
        out.set(
            "net.delta_hit_rate",
            ratio(t.delta_frames_sent, t.delta_frames_sent + t.keyframes_sent),
            ops,
        );
        out.set(
            "net.v1_equiv_ratio",
            ratio(t.bytes_sent, t.wire_bytes_v1_equiv),
            ops,
        );
    }

    /// Telemetry body bytes summed over the ops.
    pub(crate) fn telemetry_bytes(&self) -> u64 {
        self.0.telemetry_bytes
    }
}
