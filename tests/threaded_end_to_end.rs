//! End-to-end runs on real OS threads: the full stack (application actors,
//! monitors, token/poll protocols) over `wcp-net` loopback sockets, one
//! peer per process, with genuine concurrency — repeated to shake out
//! races and checked against the offline emulation.

use wcp::detect::{Detection, Detector, DirectDependenceDetector, TokenDetector};
use wcp::net::{run_direct_net, run_vc_token_net, NetConfig};
use wcp::trace::generate::{generate, GeneratorConfig, Topology};
use wcp::trace::{Computation, Wcp};

fn vc_token(computation: &Computation, wcp: &Wcp) -> Detection {
    run_vc_token_net(computation, wcp, NetConfig::loopback())
        .report
        .detection
}

fn direct(computation: &Computation, wcp: &Wcp, parallel: bool) -> Detection {
    run_direct_net(computation, wcp, parallel, NetConfig::loopback())
        .report
        .detection
}

#[test]
fn threaded_vc_token_stable_across_repetitions() {
    let cfg = GeneratorConfig::new(6, 12)
        .with_seed(41)
        .with_predicate_density(0.25)
        .with_plant(0.7);
    let g = generate(&cfg);
    let wcp = Wcp::over_first(5);
    let expected = TokenDetector::new()
        .detect(&g.computation.annotate(), &wcp)
        .detection;
    for round in 0..20 {
        let got = vc_token(&g.computation, &wcp);
        assert_eq!(got, expected, "round {round}");
    }
}

#[test]
fn threaded_direct_stable_across_repetitions() {
    let cfg = GeneratorConfig::new(5, 10)
        .with_seed(17)
        .with_predicate_density(0.3);
    let g = generate(&cfg);
    let wcp = Wcp::over_first(4);
    let expected = DirectDependenceDetector::new()
        .detect(&g.computation.annotate(), &wcp)
        .detection;
    for round in 0..20 {
        for parallel in [false, true] {
            let got = direct(&g.computation, &wcp, parallel);
            assert_eq!(got, expected, "round {round} parallel {parallel}");
        }
    }
}

#[test]
fn threaded_runs_across_topologies_and_seeds() {
    for (i, topology) in [
        Topology::Uniform,
        Topology::Ring,
        Topology::ClientServer { servers: 2 },
        Topology::Neighbors { degree: 2 },
    ]
    .into_iter()
    .enumerate()
    {
        for seed in 0..4u64 {
            let cfg = GeneratorConfig::new(6, 8)
                .with_seed(seed * 31 + i as u64)
                .with_topology(topology)
                .with_predicate_density(0.3);
            let g = generate(&cfg);
            let wcp = Wcp::over_first(6);
            let annotated = g.computation.annotate();
            let vc_expected = TokenDetector::new().detect(&annotated, &wcp).detection;
            let dd_expected = DirectDependenceDetector::new()
                .detect(&annotated, &wcp)
                .detection;
            assert_eq!(
                vc_token(&g.computation, &wcp),
                vc_expected,
                "vc {topology:?} seed {seed}"
            );
            assert_eq!(
                direct(&g.computation, &wcp, true),
                dd_expected,
                "dd {topology:?} seed {seed}"
            );
        }
    }
}

#[test]
fn threaded_undetected_terminates() {
    // No predicate is ever true: every substrate must terminate with
    // Undetected rather than hang.
    let cfg = GeneratorConfig::new(4, 10)
        .with_seed(3)
        .with_predicate_density(0.0);
    let g = generate(&cfg);
    let wcp = Wcp::over_first(4);
    assert!(!vc_token(&g.computation, &wcp).is_detected());
    assert!(!direct(&g.computation, &wcp, false).is_detected());
    assert!(!direct(&g.computation, &wcp, true).is_detected());
}
