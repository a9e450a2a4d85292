//! Satellite property: the recorded event stream is a *lossless* account of
//! a detector run — folding it back through [`wcp::detect::replay_metrics`]
//! reconstructs the exact [`wcp::detect::DetectionMetrics`] the run
//! reported, for every offline detector family, on detecting and
//! non-detecting runs alike.

use std::sync::Arc;

use wcp::detect::{
    replay_metrics, CentralizedChecker, DetectionReport, Detector, DirectDependenceDetector,
    HierarchicalChecker, LatticeDetector, MultiTokenDetector, TokenDetector,
};
use wcp::obs::rng::Rng;
use wcp::obs::{RingRecorder, RunReport};
use wcp::trace::generate::{generate, GeneratorConfig};
use wcp::trace::Wcp;

const RING_CAPACITY: usize = 1 << 16;

/// Runs `make` with a fresh ring recorder and checks the replay property.
fn assert_replay_exact(
    label: &str,
    make: impl FnOnce(Arc<RingRecorder>) -> DetectionReport,
) -> DetectionReport {
    let ring = Arc::new(RingRecorder::new(RING_CAPACITY));
    let report = make(ring.clone());
    assert_eq!(ring.dropped(), 0, "{label}: ring overflowed, test is moot");
    let events = ring.events();
    let replayed = replay_metrics(report.metrics.per_process_work.len(), &events);
    assert_eq!(replayed, report.metrics, "{label}: replay diverged");
    report
}

fn cases(seed: u64, count: usize) -> Vec<GeneratorConfig> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let n = rng.gen_range(2usize..6);
            let m = rng.gen_range(3usize..12);
            let mut cfg = GeneratorConfig::new(n, m)
                .with_seed(rng.next_u64())
                .with_predicate_density(0.1 + rng.gen_f64() * 0.5);
            if rng.gen_bool(0.5) {
                cfg = cfg.with_plant(0.3 + rng.gen_f64() * 0.7);
            }
            cfg
        })
        .collect()
}

#[test]
fn token_detector_replays_exactly() {
    for cfg in cases(61, 24) {
        let g = generate(&cfg);
        let a = g.computation.annotate();
        let wcp = Wcp::over_all(&g.computation);
        assert_replay_exact(&format!("token {cfg:?}"), |ring| {
            TokenDetector::new().with_recorder(ring).detect(&a, &wcp)
        });
    }
}

#[test]
fn checker_replays_exactly() {
    for cfg in cases(62, 24) {
        let g = generate(&cfg);
        let a = g.computation.annotate();
        let wcp = Wcp::over_all(&g.computation);
        assert_replay_exact(&format!("checker {cfg:?}"), |ring| {
            CentralizedChecker::new()
                .with_recorder(ring)
                .detect(&a, &wcp)
        });
    }
}

#[test]
fn direct_detector_replays_exactly() {
    for cfg in cases(63, 24) {
        let g = generate(&cfg);
        let a = g.computation.annotate();
        let wcp = Wcp::over_all(&g.computation);
        assert_replay_exact(&format!("direct {cfg:?}"), |ring| {
            DirectDependenceDetector::new()
                .with_recorder(ring)
                .detect(&a, &wcp)
        });
    }
}

#[test]
fn multi_token_detector_replays_exactly() {
    // One extra input: a never-true trace, on which group 0 exhausts its
    // queue in the first round while every later group is still active.
    let never_true = GeneratorConfig::new(4, 8)
        .with_seed(2)
        .with_predicate_density(0.0);
    for cfg in cases(64, 16).into_iter().chain([never_true]) {
        let g = generate(&cfg);
        let a = g.computation.annotate();
        let wcp = Wcp::over_all(&g.computation);
        for groups in 1..=wcp.n() {
            let report = assert_replay_exact(&format!("multi:{groups} {cfg:?}"), |ring| {
                MultiTokenDetector::new(groups)
                    .with_recorder(ring)
                    .detect(&a, &wcp)
            });
            // The concurrent variant tracks its critical path explicitly;
            // the replay must preserve it rather than fall back to
            // sequential totals.
            assert!(report.metrics.parallel_time <= report.metrics.total_work());
        }
    }
}

#[test]
fn lattice_detector_replays_exactly() {
    for cfg in cases(65, 12) {
        let g = generate(&cfg);
        let a = g.computation.annotate();
        let wcp = Wcp::over_all(&g.computation);
        assert_replay_exact(&format!("lattice {cfg:?}"), |ring| {
            LatticeDetector::new().with_recorder(ring).detect(&a, &wcp)
        });
    }
}

#[test]
fn hierarchical_checker_replays_exactly() {
    for cfg in cases(66, 12) {
        let g = generate(&cfg);
        let a = g.computation.annotate();
        let wcp = Wcp::over_all(&g.computation);
        for groups in [1usize, 2] {
            assert_replay_exact(&format!("hier:{groups} {cfg:?}"), |ring| {
                HierarchicalChecker::new(groups)
                    .with_recorder(ring)
                    .detect(&a, &wcp)
            });
        }
    }
}

/// The event stream also folds into a coherent [`RunReport`]: token
/// movement, candidate verdicts and the final cut all line up with the
/// detection report.
#[test]
fn token_run_report_matches_detection() {
    for cfg in cases(67, 16) {
        let g = generate(&cfg);
        let a = g.computation.annotate();
        let wcp = Wcp::over_all(&g.computation);
        let ring = Arc::new(RingRecorder::new(RING_CAPACITY));
        let report = TokenDetector::new()
            .with_recorder(ring.clone())
            .detect(&a, &wcp);
        let run = RunReport::from_events(&ring.events());
        assert_eq!(run.token_hops(), report.metrics.token_hops, "{cfg:?}");
        assert_eq!(
            run.eliminations.len() as u64,
            report.metrics.candidates_consumed,
            "{cfg:?}"
        );
        assert_eq!(
            run.detected_cut.as_deref(),
            report.detection.cut().map(|c| c.as_slice()),
            "{cfg:?}"
        );
        assert!(run.finished_at.is_some(), "{cfg:?}");
    }
}

/// A disabled recorder must not change any metric: detectors behave
/// identically with and without observation.
#[test]
fn recording_is_metrics_neutral() {
    for cfg in cases(68, 12) {
        let g = generate(&cfg);
        let a = g.computation.annotate();
        let wcp = Wcp::over_all(&g.computation);
        let plain = TokenDetector::new().detect(&a, &wcp);
        let ring = Arc::new(RingRecorder::new(RING_CAPACITY));
        let recorded = TokenDetector::new().with_recorder(ring).detect(&a, &wcp);
        assert_eq!(plain.detection, recorded.detection, "{cfg:?}");
        assert_eq!(plain.metrics, recorded.metrics, "{cfg:?}");
    }
}
