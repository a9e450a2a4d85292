//! `offline_detect`: post-mortem detection of one recorded trace, the job
//! of `wcp detect --algorithm parallel:2`. The only workload where the
//! clock substrate's worker pool and the work-optimal parallel detector
//! do most of the work; no wire, session or actor code runs.

use wcp_detect::{Detection, Detector, ParallelDetector, TokenDetector, VcSnapshotQueues};
use wcp_obs::rng::Rng;
use wcp_trace::generate::{generate, GeneratorConfig};
use wcp_trace::{Computation, Wcp};

use crate::harness::{Layers, OpResult, Workload};
use crate::stats::Summary;
use crate::trace::Tracer;

/// Traces in the corpus, replayed in a fixed order.
const TRACES: usize = 48;
/// Process counts, with the share of traces at each. Every predicate
/// ranges over all processes. Three quarters small, one quarter large:
/// the median op is then well inside the small traces and the 90th
/// percentile inside the large ones, never at the gap between the two.
const SIZES: [(usize, usize); 2] = [(32, 3), (128, 1)];
/// Events per process: each (size, planted) class spans this range on
/// an even grid, so every seed has the same mix of trace lengths and
/// only the traces' structure varies with the seed.
const EVENTS: std::ops::RangeInclusive<usize> = 24..=64;
/// Worker threads of the detector under test (`parallel:2`).
const THREADS: usize = 2;
/// Regeneration budget when drawing a never-true trace.
const NEVER_TRUE_ATTEMPTS: usize = 64;

/// One recorded trace and its reference verdict.
struct Case {
    computation: Computation,
    wcp: Wcp,
    reference: Detection,
    /// Local snapshots (true intervals) in the predicate's scope.
    snapshots: u64,
}

/// Paper-unit counts of one traced op and its token baseline.
#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    parallel_work: u64,
    parallel_time: u64,
    token_work: u64,
    clock_allocs: u64,
}

/// The `offline_detect` workload.
pub struct OfflineDetect {
    cases: Vec<Case>,
    counts: Vec<Counts>,
}

/// Generates the corpus: half the traces carry a cut planted at 80 % of
/// the run, half are never true, at both sizes. Each reference is the
/// single-token detector's verdict.
pub fn setup(seed: u64, tr: &mut Tracer) -> OfflineDetect {
    let mut rng = Rng::seed_from_u64(seed);
    let parts: usize = SIZES.iter().map(|&(_, share)| share).sum();
    let (lo, hi) = (*EVENTS.start(), *EVENTS.end());
    let mut classes = Vec::new();
    for &(n, share) in &SIZES {
        let per_class = TRACES * share / parts / 2;
        for planted in [true, false] {
            for k in 0..per_class {
                classes.push((n, planted, lo + (hi - lo) * k / (per_class - 1)));
            }
        }
    }
    // Interleave sizes and kinds so every stretch of the replay mixes them.
    rng.shuffle(&mut classes);
    let cases = classes
        .into_iter()
        .map(|(n, planted, m)| draw_case(&mut rng, n, m, planted, tr))
        .collect();
    OfflineDetect {
        cases,
        counts: Vec::new(),
    }
}

/// A planted trace (predicate noise at 20 %, satisfying cut at 80 %), or
/// a never-true one: noise at 15 % and no plant, redrawn until the
/// reference is `Undetected`, so detection runs until a queue is dry.
fn draw_case(rng: &mut Rng, n: usize, m: usize, planted: bool, tr: &mut Tracer) -> Case {
    for _ in 0..NEVER_TRUE_ATTEMPTS {
        let mut config = GeneratorConfig::new(n, m).with_seed(rng.next_u64());
        config = if planted {
            config.with_predicate_density(0.2).with_plant(0.8)
        } else {
            config.with_predicate_density(0.15)
        };
        let computation = tr.span("trace.generate", || generate(&config).computation);
        let wcp = Wcp::over_all(&computation);
        let annotated = computation.annotate();
        let reference = TokenDetector::new().detect(&annotated, &wcp).detection;
        if reference.is_detected() != planted {
            continue;
        }
        let snapshots = wcp
            .scope()
            .iter()
            .map(|&p| annotated.true_intervals(p).len() as u64)
            .sum();
        drop(annotated);
        return Case {
            computation,
            wcp,
            reference,
            snapshots,
        };
    }
    panic!("no never-true trace at n = {n}, m = {m} in {NEVER_TRUE_ATTEMPTS} draws");
}

impl OfflineDetect {
    fn case(&self, i: u64) -> &Case {
        &self.cases[i as usize % self.cases.len()]
    }

    /// Replaces trace `i`'s reference with a wrong verdict.
    #[cfg(test)]
    fn plant_wrong_reference(&mut self, i: usize) {
        let case = &mut self.cases[i];
        case.reference = match case.reference {
            Detection::Undetected => Detection::Detected {
                cut: wcp_clocks::Cut::new(case.computation.process_count()),
            },
            Detection::Detected { .. } => Detection::Undetected,
        };
    }
}

impl Workload for OfflineDetect {
    fn pass_len(&self) -> usize {
        self.cases.len()
    }

    fn op(&mut self, i: u64, tr: &mut Tracer) -> OpResult {
        let case = self.case(i);
        let annotated = tr.span("trace.annotate", || case.computation.annotate());
        let report = tr.span("detect.parallel", || {
            ParallelDetector::new()
                .with_threads(THREADS)
                .detect(&annotated, &case.wcp)
        });
        let result = OpResult {
            events: case.snapshots,
            bytes: report.metrics.total_bytes(),
            mismatch: (report.detection != case.reference).then(|| {
                format!(
                    "trace {}: parallel:{THREADS} says {}, reference {}",
                    i as usize % self.cases.len(),
                    report.detection,
                    case.reference
                )
            }),
        };
        if tr.enabled() {
            self.counts.push(Counts {
                parallel_work: report.metrics.total_work(),
                parallel_time: report.metrics.parallel_time,
                ..Counts::default()
            });
        }
        result
    }

    fn baseline(&mut self, i: u64, tr: &mut Tracer) {
        let case = &self.cases[i as usize % self.cases.len()];
        let annotated = case.computation.annotate();
        // The queue build the detector runs inside `detect` at THREADS > 1.
        let queues = tr.span("snapshot.build", || {
            VcSnapshotQueues::build_parallel(&annotated, &case.wcp)
        });
        let token = tr.span("detect.token", || {
            TokenDetector::new().detect(&annotated, &case.wcp)
        });
        if let Some(c) = self.counts.last_mut() {
            c.token_work = token.metrics.total_work();
            c.clock_allocs = queues.clock_allocations();
        }
    }

    fn layers(&mut self, tr: &Tracer, _ops: usize, out: &mut Layers) {
        out.set_span_median("trace.annotate_ms", tr, "trace.annotate", 1e6);
        out.set_span_median("snapshot.build_us", tr, "snapshot.build", 1e3);
        out.set_span_median("detect.parallel_us", tr, "detect.parallel", 1e3);
        out.set_span_median("detect.token_us", tr, "detect.token", 1e3);
        // Self time of the detector call: the call minus the queue build
        // of the same op (the build runs inside the call, out of reach
        // of a benchmark-side span).
        let build: std::collections::HashMap<u64, u64> = tr
            .spans()
            .iter()
            .filter(|s| s.name == "snapshot.build")
            .map(|s| (s.op, s.duration_ns()))
            .collect();
        let own: Vec<f64> = tr
            .spans()
            .iter()
            .filter(|s| s.name == "detect.parallel")
            .filter_map(|s| {
                build
                    .get(&s.op)
                    .map(|b| s.duration_ns().saturating_sub(*b) as f64 / 1e3)
            })
            .collect();
        out.set("detect.parallel_self_us", Summary::of(&own).p50, own.len());
        let n = self.counts.len();
        let median = |f: &dyn Fn(&Counts) -> f64| {
            Summary::of(&self.counts.iter().map(f).collect::<Vec<_>>()).p50
        };
        out.set("detect.total_work", median(&|c| c.parallel_work as f64), n);
        out.set(
            "detect.parallel_time",
            median(&|c| c.parallel_time as f64),
            n,
        );
        out.set(
            "detect.work_ratio",
            median(&|c| c.parallel_work as f64 / c.token_work.max(1) as f64),
            n,
        );
        out.set(
            "snapshot.clock_allocs",
            median(&|c| c.clock_allocs as f64),
            n,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::run_op;

    #[test]
    fn seed_program_matches_every_reference() {
        let mut w = setup(7, &mut Tracer::off());
        let mut tr = Tracer::off();
        for i in 0..w.pass_len() as u64 {
            let out = run_op(&mut w, i, &mut tr);
            assert_eq!(out.failure, None);
            assert!(out.events > 0);
        }
    }

    #[test]
    fn a_wrong_reference_is_a_failed_op_not_a_panic() {
        let mut w = setup(7, &mut Tracer::off());
        w.plant_wrong_reference(3);
        let mut tr = Tracer::off();
        assert_eq!(run_op(&mut w, 2, &mut tr).failure, None);
        let failed = run_op(&mut w, 3, &mut tr);
        assert!(failed.failure.unwrap().contains("reference"));
    }
}
