//! The closed-loop harness shared by every workload: set-up, warm-up,
//! timed ops checked against their reference, and the metric report.

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use crate::stats::{chunked, Summary};
use crate::trace::Tracer;

/// An op slower than this counts as failed even if its result is right.
pub(crate) const OP_DEADLINE: Duration = Duration::from_secs(20);

/// Fewest timed ops per run: at least ten samples beyond the p90.
pub const MIN_SAMPLES: usize = 110;

/// What one op delivered.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpResult {
    /// Events completed (each workload defines its event).
    pub events: u64,
    /// Bytes per the workload's `bytes_per_event` definition.
    pub bytes: u64,
    /// Why the result differs from the reference, if it does.
    pub mismatch: Option<String>,
}

/// One closed-loop workload over inputs generated at set-up.
pub trait Workload {
    /// Ops in one pass over the inputs; one pass is the warm-up.
    fn pass_len(&self) -> usize;

    /// Untimed work before op `i` (e.g. starting the next epoch).
    fn prepare(&mut self, _i: u64, _tr: &mut Tracer) {}

    /// Runs op `i` on the user path, checked against the reference.
    fn op(&mut self, i: u64, tr: &mut Tracer) -> OpResult;

    /// Traced runs only: the single-threaded or reference baselines on
    /// op `i`'s input, run after the op and outside its latency.
    fn baseline(&mut self, i: u64, tr: &mut Tracer);

    /// Traced runs only: fills in the per-layer metrics this workload
    /// exercises, from the recorded spans and the counters the calls
    /// returned. `ops` is the number of traced ops.
    fn layers(&mut self, tr: &Tracer, ops: usize, out: &mut Layers);
}

/// A finished op as the harness saw it.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Wall latency, seconds.
    pub latency_s: f64,
    /// Events completed.
    pub events: u64,
    /// Bytes (see [`OpResult::bytes`]).
    pub bytes: u64,
    /// Why the op failed: a panic, a missed deadline or a mismatch.
    pub failure: Option<String>,
}

/// Runs op `i` once. A panic, a missed deadline or a result differing
/// from the reference is a failed op, never a crash of the benchmark.
pub(crate) fn run_op(w: &mut dyn Workload, i: u64, tr: &mut Tracer) -> Outcome {
    w.prepare(i, tr);
    tr.set_op(i);
    let start = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| w.op(i, tr)));
    let elapsed = start.elapsed();
    let (events, bytes, mut failure) = match result {
        Ok(r) => (r.events, r.bytes, r.mismatch),
        Err(panic) => {
            tr.unwind();
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic".to_string());
            (0, 0, Some(format!("panicked: {msg}")))
        }
    };
    if failure.is_none() && elapsed > OP_DEADLINE {
        failure = Some(format!("missed the {OP_DEADLINE:?} deadline"));
    }
    Outcome {
        latency_s: elapsed.as_secs_f64(),
        events,
        bytes,
        failure,
    }
}

/// Shortest measurement window. A window runs whole passes over the
/// inputs, so every window sees the same mix of ops.
const WINDOW: Duration = Duration::from_millis(250);

/// A window is quiet when the hypervisor stole at most this share of the
/// host's CPU time during it.
const QUIET_STEAL: f64 = 0.02;

/// Quiet wall time a run collects, as a share of its `--seconds`.
const QUIET_SHARE: f64 = 0.5;

/// On a noisy host a run keeps going, up to this multiple of its
/// `--seconds`, until it has collected its quiet share.
const MAX_EXTENSION: f64 = 2.5;

/// Consecutive whole passes of a measured phase.
#[derive(Debug, Clone, PartialEq)]
pub struct Window {
    /// Indices of the window's ops in [`Phase::outcomes`].
    pub ops: Range<usize>,
    /// Wall time of the window, seconds.
    pub wall_s: f64,
    /// Share of the host's CPU time the hypervisor stole during the
    /// window (`None` where the host does not report it).
    pub steal: Option<f64>,
    /// Peak live heap during the window, bytes.
    pub peak_heap: usize,
}

impl Window {
    fn quiet(&self) -> bool {
        self.steal.is_none_or(|s| s <= QUIET_STEAL)
    }
}

/// The ops of a measured phase, grouped into windows.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Phase {
    /// Every op, in order.
    pub outcomes: Vec<Outcome>,
    /// The windows the ops ran in.
    pub windows: Vec<Window>,
}

impl Phase {
    /// The windows the end-to-end metrics are computed from, and their
    /// ops: every quiet window, topped up with the least disturbed others
    /// until at least `min_ops` ops are in. On a
    /// shared host, other tenants' load arrives in bursts lasting seconds
    /// and only ever slows a window, so quiet windows are what repeats
    /// from run to run. Windows are chosen by the host's steal counter,
    /// never by the measured times.
    pub fn quiet(&self, min_ops: usize) -> (Vec<&Window>, Vec<Outcome>) {
        let mut order: Vec<&Window> = self.windows.iter().collect();
        order.sort_by(|a, b| a.steal.unwrap_or(0.0).total_cmp(&b.steal.unwrap_or(0.0)));
        let mut kept = Vec::new();
        let mut ops = Vec::new();
        for w in order {
            if !w.quiet() && ops.len() >= min_ops {
                break;
            }
            ops.extend(self.outcomes[w.ops.clone()].iter().cloned());
            kept.push(w);
        }
        (kept, ops)
    }

    /// Share of the phase's host CPU time the hypervisor stole.
    pub fn steal_share(&self) -> f64 {
        let stolen: f64 = self
            .windows
            .iter()
            .map(|w| w.steal.unwrap_or(0.0) * w.wall_s)
            .sum();
        stolen / self.wall_s().max(1e-9)
    }

    /// Total wall time of the windows.
    pub fn wall_s(&self) -> f64 {
        self.windows.iter().map(|w| w.wall_s).sum()
    }

    fn quiet_wall_s(&self) -> f64 {
        self.windows
            .iter()
            .filter(|w| w.quiet())
            .map(|w| w.wall_s)
            .sum()
    }
}

/// Runs windows of whole passes, from op `first` on, for `seconds` and
/// at least `min_ops` ops; a noisy host extends the phase (up to
/// [`MAX_EXTENSION`]) until [`QUIET_SHARE`] of `seconds` ran in quiet
/// windows. With `baseline`, each op is followed by its baselines
/// (counted in the window's wall time, not in op latency).
pub fn measure(
    w: &mut dyn Workload,
    first: u64,
    seconds: f64,
    min_ops: usize,
    baseline: bool,
    tr: &mut Tracer,
) -> Phase {
    let pass = w.pass_len().max(1) as u64;
    let start = Instant::now();
    let mut phase = Phase::default();
    let mut i = first;
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let short = elapsed < seconds || phase.outcomes.len() < min_ops;
        let noisy = phase.quiet_wall_s() < QUIET_SHARE * seconds;
        if !short && (!noisy || elapsed >= MAX_EXTENSION * seconds) {
            return phase;
        }
        crate::alloc::reset_peak();
        let opened = Instant::now();
        let steal = crate::host::Steal::now();
        let from = phase.outcomes.len();
        while opened.elapsed() < WINDOW {
            for _ in 0..pass {
                phase.outcomes.push(run_op(w, i, tr));
                if baseline {
                    let _ = catch_unwind(AssertUnwindSafe(|| w.baseline(i, tr)));
                    tr.unwind();
                }
                i += 1;
            }
        }
        let wall_s = opened.elapsed().as_secs_f64();
        phase.windows.push(Window {
            ops: from..phase.outcomes.len(),
            wall_s,
            steal: steal.and_then(|s| s.share_since(wall_s)),
            peak_heap: crate::alloc::peak_bytes(),
        });
    }
}

/// Runs the untimed warm-up pass; returns the next op id.
pub fn warm_up(w: &mut dyn Workload) -> u64 {
    let mut tr = Tracer::off();
    let n = w.pass_len() as u64;
    for i in 0..n {
        run_op(w, i, &mut tr);
    }
    n
}

/// A reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples the value summarises.
    pub n: usize,
    /// Interquartile range over the median within the run (0 for a
    /// single sample).
    pub spread: f64,
}

/// The end-to-end metrics of the kept windows of a measured phase:
/// latencies, rates and bytes over their `outcomes`, and the median of
/// their peak heaps (a single peak would hinge on one scheduling accident).
pub fn end_to_end(outcomes: &[Outcome], windows: &[&Window], setup_s: &[f64]) -> Vec<Metric> {
    let lat_ms: Vec<f64> = outcomes.iter().map(|o| o.latency_s * 1e3).collect();
    let lat = Summary::of(&lat_ms);
    let setup = Summary::of(setup_s);
    let rate = |os: &[Outcome]| {
        os.iter().map(|o| o.events).sum::<u64>() as f64
            / os.iter().map(|o| o.latency_s).sum::<f64>().max(1e-12)
    };
    let per_event = |os: &[Outcome]| {
        os.iter().map(|o| o.bytes).sum::<u64>() as f64
            / os.iter().map(|o| o.events).sum::<u64>().max(1) as f64
    };
    let rates = Summary::of(&chunked(outcomes, 10, rate));
    let bytes = Summary::of(&chunked(outcomes, 10, per_event));
    let mib: Vec<f64> = windows
        .iter()
        .map(|w| w.peak_heap as f64 / (1024.0 * 1024.0))
        .collect();
    let heap = Summary::of(&mib);
    vec![
        Metric {
            name: "setup_s",
            value: setup.p50,
            unit: "s",
            n: setup.n,
            spread: setup.spread,
        },
        Metric {
            name: "latency_p50_ms",
            value: lat.p50,
            unit: "ms",
            n: lat.n,
            spread: lat.spread,
        },
        Metric {
            name: "latency_p90_ms",
            value: lat.p90,
            unit: "ms",
            n: lat.n,
            spread: lat.spread,
        },
        Metric {
            name: "events_per_s",
            value: rate(outcomes),
            unit: "1/s",
            n: rates.n,
            spread: rates.spread,
        },
        Metric {
            name: "bytes_per_event",
            value: per_event(outcomes),
            unit: "B",
            n: bytes.n,
            spread: bytes.spread,
        },
        Metric {
            name: "peak_heap_mb",
            value: heap.p50,
            unit: "MiB",
            n: heap.n,
            spread: heap.spread,
        },
    ]
}

/// Every per-layer metric, with its unit, in report order. A workload
/// that never enters a layer reports that layer's metrics as 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("trace.overhead_ratio", "ratio"),
    ("trace.generate_ms", "ms"),
    ("trace.annotate_ms", "ms"),
    ("snapshot.build_us", "us"),
    ("snapshot.clock_allocs", "count"),
    ("detect.parallel_us", "us"),
    ("detect.parallel_self_us", "us"),
    ("detect.total_work", "count"),
    ("detect.parallel_time", "count"),
    ("detect.work_ratio", "ratio"),
    ("detect.token_us", "us"),
    ("online.sim_ms", "ms"),
    ("online.wire_share", "ratio"),
    ("online.token_hops", "count"),
    ("online.control_messages", "count"),
    ("net.run_ms", "ms"),
    ("net.frames_per_flush", "count"),
    ("net.pool_allocs_per_frame", "ratio"),
    ("net.max_ready_depth", "count"),
    ("net.acks_sent", "count"),
    ("net.retransmits", "count"),
    ("net.duplicates_dropped", "count"),
    ("net.delta_hit_rate", "ratio"),
    ("net.v1_equiv_ratio", "ratio"),
    ("endpoint.send_ns", "ns"),
    ("endpoint.recv_ns", "ns"),
    ("codec.encode_v2_ns", "ns"),
    ("codec.decode_v2_ns", "ns"),
    ("codec.encode_v1_ns", "ns"),
    ("codec.decode_v1_ns", "ns"),
    ("telemetry.overhead_ratio", "ratio"),
    ("telemetry.bytes", "B"),
    ("telemetry.events_collected", "count"),
    ("telemetry.merge_ms", "ms"),
    ("session.register_us", "us"),
    ("session.unregister_us", "us"),
    ("session.ingest_ns", "ns"),
    ("session.pump_ms", "ms"),
    ("session.pump_serial_ms", "ms"),
    ("session.routed_events", "count"),
    ("session.detections", "count"),
    ("session.stored_bytes", "B"),
];

/// Per-layer metric values of a traced run, keyed by [`PER_LAYER`] name.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    values: Vec<(&'static str, f64, usize)>,
}

impl Layers {
    /// Sets `name` to `value`, summarising `n` samples.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64, n: usize) {
        assert!(
            PER_LAYER.iter().any(|(m, _)| *m == name),
            "unknown per-layer metric {name}"
        );
        self.values.retain(|(m, _, _)| *m != name);
        self.values.push((name, value, n));
    }

    /// Sets `name` to the median of the `span` durations, scaled by
    /// `1/div` (unit conversion or per-item division).
    pub fn set_span_median(&mut self, name: &'static str, tr: &Tracer, span: &str, div: f64) {
        let d = tr.durations_ns(span);
        self.set(name, Summary::of(&d).p50 / div, d.len());
    }

    /// The value recorded for `name`, if any.
    pub(crate) fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(m, _, _)| *m == name).map(|v| v.1)
    }

    /// Every [`PER_LAYER`] metric, 0 where unset.
    pub fn metrics(&self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let (value, n) = self
                    .values
                    .iter()
                    .find(|(m, _, _)| *m == name)
                    .map_or((0.0, 0), |&(_, v, n)| (v, n));
                Metric {
                    name,
                    value,
                    unit,
                    n,
                    spread: 0.0,
                }
            })
            .collect()
    }
}

/// The final result line: `correct`, `attempted`, `failed`, `metrics`.
pub fn result_json(attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fixed {
        panic_on: u64,
        wrong_on: u64,
    }

    impl Workload for Fixed {
        fn pass_len(&self) -> usize {
            1
        }
        fn op(&mut self, i: u64, _tr: &mut Tracer) -> OpResult {
            assert!(i != self.panic_on, "planted panic");
            OpResult {
                events: 2,
                bytes: 8,
                mismatch: (i == self.wrong_on).then(|| "planted mismatch".to_string()),
            }
        }
        fn baseline(&mut self, _i: u64, _tr: &mut Tracer) {}
        fn layers(&mut self, _tr: &Tracer, _ops: usize, _out: &mut Layers) {}
    }

    #[test]
    fn panics_and_mismatches_are_failed_ops() {
        let mut w = Fixed {
            panic_on: 1,
            wrong_on: 2,
        };
        let mut tr = Tracer::off();
        assert_eq!(run_op(&mut w, 0, &mut tr).failure, None);
        let panicked = run_op(&mut w, 1, &mut tr).failure.unwrap();
        assert!(panicked.contains("planted panic"), "{panicked}");
        assert_eq!(
            run_op(&mut w, 2, &mut tr).failure.as_deref(),
            Some("planted mismatch")
        );
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let window = Window {
            ops: 0..1,
            wall_s: 0.3,
            steal: None,
            peak_heap: 3 << 20,
        };
        let m = end_to_end(
            &[Outcome {
                latency_s: 0.002,
                events: 4,
                bytes: 40,
                failure: None,
            }],
            &[&window],
            &[0.5, 0.7, 0.6],
        );
        let line = result_json(1, 0, &m);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.contains("\"setup_s\": {\"value\": 0.6, \"unit\": \"s\"}"));
        assert!(line.contains("\"bytes_per_event\": {\"value\": 10.0, \"unit\": \"B\"}"));
        assert!(line.contains("\"peak_heap_mb\": {\"value\": 3.0, \"unit\": \"MiB\"}"));
    }
}
