//! Adversarial-shape and equivalence coverage for the work-optimal
//! [`ParallelDetector`]: degenerate scopes, worst-case skew, and the
//! bit-identity property (`Detection` + `DetectionMetrics` equal at
//! threads ∈ {1, 2, 4, 8}) against the sequential reference.

use wcp_clocks::ProcessId;
use wcp_detect::{Detection, Detector, ParallelDetector, TokenDetector};
use wcp_trace::generate::{generate, GeneratorConfig, Topology};
use wcp_trace::{ComputationBuilder, Wcp};

fn p(i: u32) -> ProcessId {
    ProcessId::new(i)
}

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Runs the detector at every thread count and asserts the reports are
/// bit-identical to the threads = 1 reference; returns the reference.
fn pinned_across_threads(
    annotated: &wcp_trace::AnnotatedComputation<'_>,
    wcp: &Wcp,
) -> wcp_detect::DetectionReport {
    let reference = ParallelDetector::new().detect(annotated, wcp);
    for threads in THREAD_COUNTS {
        let r = ParallelDetector::new()
            .with_threads(threads)
            .detect(annotated, wcp);
        assert_eq!(r.detection, reference.detection, "threads {threads}");
        assert_eq!(r.metrics, reference.metrics, "threads {threads}");
    }
    reference
}

#[test]
fn n1_single_position_scope() {
    let mut b = ComputationBuilder::new(1);
    b.mark_true(p(0));
    b.mark_true(p(0));
    let c = b.build().unwrap();
    let a = c.annotate();
    let report = pinned_across_threads(&a, &Wcp::over_first(1));
    // First true interval wins; no other position can refute it.
    assert_eq!(report.detection.cut().unwrap().as_slice(), &[1]);
}

#[test]
fn m0_empty_computation_is_undetected() {
    let c = ComputationBuilder::new(3).build().unwrap();
    let a = c.annotate();
    let report = pinned_across_threads(&a, &Wcp::over_first(3));
    assert_eq!(report.detection, Detection::Undetected);
    assert_eq!(report.metrics.snapshot_messages, 0);
}

#[test]
fn all_true_predicates_detect_the_initial_cut() {
    let g = generate(
        &GeneratorConfig::new(6, 10)
            .with_seed(21)
            .with_predicate_density(1.0),
    );
    let a = g.computation.annotate();
    let wcp = Wcp::over_first(6);
    let report = pinned_across_threads(&a, &wcp);
    let expected = a.first_satisfying_cut(&wcp).unwrap();
    assert_eq!(report.detection.cut().unwrap(), &expected);
}

#[test]
fn never_true_predicates_are_undetected() {
    let g = generate(
        &GeneratorConfig::new(6, 10)
            .with_seed(22)
            .with_predicate_density(0.0),
    );
    let a = g.computation.annotate();
    let report = pinned_across_threads(&a, &Wcp::over_first(6));
    assert_eq!(report.detection, Detection::Undetected);
}

#[test]
fn single_hot_process_worst_case_skew() {
    // One position holds almost every candidate, the rest are nearly dry:
    // the worst case for balancing sweeps across blocks. A server-centred
    // topology concentrates the causality (and eliminations) there too.
    let mut b = ComputationBuilder::new(4);
    for _ in 0..60 {
        b.mark_true(p(0));
        let msg = b.send(p(0), p(1));
        b.receive(p(1), msg);
    }
    b.mark_true(p(1));
    b.mark_true(p(2));
    b.mark_true(p(3));
    let c = b.build().unwrap();
    let a = c.annotate();
    let wcp = Wcp::over_first(4);
    let report = pinned_across_threads(&a, &wcp);
    assert_eq!(
        report.detection.cut().cloned(),
        a.first_satisfying_cut(&wcp),
        "hot-process run must still find the first satisfying cut"
    );
}

#[test]
fn property_matches_sequential_reference_across_workloads() {
    // The satellite property test: over a seeded workload sweep, the
    // parallel detector's Detection AND DetectionMetrics are identical at
    // every thread count, and the verdict equals both the token walk's and
    // the Theorem 3.2 oracle's.
    let mut checked = 0usize;
    for seed in 0..25u64 {
        for topology in [
            Topology::Uniform,
            Topology::Ring,
            Topology::ClientServer { servers: 1 },
        ] {
            let cfg = GeneratorConfig::new(6, 12)
                .with_seed(seed)
                .with_topology(topology)
                .with_predicate_density(0.25);
            let g = generate(&cfg);
            let a = g.computation.annotate();
            let wcp = Wcp::over_first(5);
            let reference = pinned_across_threads(&a, &wcp);
            let truth = a.first_satisfying_cut(&wcp);
            assert_eq!(reference.detection.cut().cloned(), truth, "seed {seed}");
            let token = TokenDetector::new().detect(&a, &wcp);
            assert_eq!(reference.detection, token.detection, "seed {seed}");
            checked += 1;
        }
    }
    assert_eq!(checked, 75);
}
