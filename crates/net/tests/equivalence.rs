//! Acceptance tests for the net subsystem: a detection run over real TCP
//! sockets on localhost yields a `Detection` bit-identical to the
//! discrete-event simulator's for the same computation — for both the
//! vector-clock token and direct-dependence detectors, on clean links and
//! under a tolerated delay + duplicate + reorder fault schedule.
//!
//! This is the paper's uniqueness property made operational: the first
//! consistent cut satisfying a WCP is a function of the computation alone,
//! so no amount of (masked) transport nondeterminism may change it.

use std::sync::Arc;
use std::time::Duration;

use wcp_detect::online::{run_direct, run_vc_token};
use wcp_detect::{audit_bounds, BoundLimits, Detection, Detector, TokenDetector};
use wcp_net::{run_direct_net, run_vc_token_net, run_vc_token_net_recorded, NetConfig};
use wcp_obs::{merge_streams, split_by_monitor, RingRecorder, StampedEvent};
use wcp_sim::{FaultConfig, SimConfig};
use wcp_trace::generate::{generate, GeneratorConfig};
use wcp_trace::{Computation, Wcp};

fn workload(seed: u64) -> Computation {
    generate(
        &GeneratorConfig::new(4, 10)
            .with_seed(seed)
            .with_predicate_density(0.3)
            .with_plant(0.6),
    )
    .computation
}

fn deadline() -> Duration {
    Duration::from_secs(30)
}

#[test]
fn tcp_vc_token_matches_simulator() {
    let mut detected = 0;
    for seed in 0..6u64 {
        let computation = workload(seed);
        let wcp = Wcp::over_first(3);
        let sim = run_vc_token(&computation, &wcp, SimConfig::seeded(1));
        let net = run_vc_token_net(
            &computation,
            &wcp,
            NetConfig::tcp().with_deadline(deadline()),
        );
        assert_eq!(net.report.detection, sim.report.detection, "seed {seed}");
        assert!(net.net.frames_sent > 0 && net.net.bytes_sent > 0);
        if matches!(net.report.detection, Detection::Detected { .. }) {
            detected += 1;
        }
    }
    assert!(detected > 0, "workloads never detect — test is vacuous");
}

#[test]
fn tcp_direct_matches_simulator() {
    for seed in 0..6u64 {
        let computation = workload(seed);
        let wcp = Wcp::over_first(3);
        let sim = run_direct(&computation, &wcp, SimConfig::seeded(1), false);
        let net = run_direct_net(
            &computation,
            &wcp,
            false,
            NetConfig::tcp().with_deadline(deadline()),
        );
        assert_eq!(net.report.detection, sim.report.detection, "seed {seed}");
    }
}

#[test]
fn loopback_matches_simulator_for_both_detectors() {
    for seed in 0..8u64 {
        let computation = workload(seed);
        let wcp = Wcp::over_first(3);
        let vc_sim = run_vc_token(&computation, &wcp, SimConfig::seeded(2));
        let vc_net = run_vc_token_net(&computation, &wcp, NetConfig::loopback());
        assert_eq!(
            vc_net.report.detection, vc_sim.report.detection,
            "vc {seed}"
        );
        let dd_sim = run_direct(&computation, &wcp, SimConfig::seeded(2), true);
        let dd_net = run_direct_net(&computation, &wcp, true, NetConfig::loopback());
        assert_eq!(
            dd_net.report.detection, dd_sim.report.detection,
            "dd {seed}"
        );
    }
}

#[test]
fn loopback_recording_stamps_wall_clock() {
    // One wall-clock ring shared by every peer's threads: every event is
    // stamped, and the stamps are monotone in `seq` order.
    let cfg = GeneratorConfig::new(3, 6)
        .with_seed(4)
        .with_predicate_density(0.4)
        .with_plant(0.8);
    let g = generate(&cfg);
    let wcp = Wcp::over_first(3);
    let ring = Arc::new(RingRecorder::new(1 << 16).with_wall_clock());
    let net = run_vc_token_net_recorded(&g.computation, &wcp, NetConfig::loopback(), ring.clone());
    let offline = TokenDetector::new().detect(&g.computation.annotate(), &wcp);
    assert_eq!(net.report.detection, offline.detection);
    assert_eq!(ring.dropped(), 0, "ring overflowed, test is moot");
    let events = ring.events();
    assert!(!events.is_empty());
    assert!(events.iter().all(|e| e.wall_nanos.is_some()));
    assert!(events
        .windows(2)
        .all(|w| w[0].seq < w[1].seq && w[0].wall_nanos <= w[1].wall_nanos));
}

#[test]
fn tcp_vc_token_survives_delay_duplicate_reorder() {
    for seed in 0..4u64 {
        let computation = workload(seed);
        let wcp = Wcp::over_first(3);
        let sim = run_vc_token(&computation, &wcp, SimConfig::seeded(1));
        let faults = FaultConfig::delay_duplicate_reorder(seed);
        let net = run_vc_token_net(
            &computation,
            &wcp,
            NetConfig::tcp()
                .with_faults(faults)
                .with_deadline(deadline()),
        );
        assert_eq!(
            net.report.detection, sim.report.detection,
            "seed {seed}: verdict changed under tolerated faults"
        );
    }
}

#[test]
fn tcp_direct_survives_delay_duplicate_reorder() {
    for seed in 0..4u64 {
        let computation = workload(seed);
        let wcp = Wcp::over_first(3);
        let sim = run_direct(&computation, &wcp, SimConfig::seeded(1), false);
        let faults = FaultConfig::delay_duplicate_reorder(100 + seed);
        let net = run_direct_net(
            &computation,
            &wcp,
            false,
            NetConfig::tcp()
                .with_faults(faults)
                .with_deadline(deadline()),
        );
        assert_eq!(
            net.report.detection, sim.report.detection,
            "seed {seed}: verdict changed under tolerated faults"
        );
    }
}

#[test]
fn loopback_survives_drops_and_resets_via_recovery() {
    for seed in 0..3u64 {
        let computation = workload(seed);
        let wcp = Wcp::over_first(3);
        let sim = run_vc_token(&computation, &wcp, SimConfig::seeded(1));
        let faults = FaultConfig::seeded(seed).with_drop(0.15).with_reset(0.05);
        let net = run_vc_token_net(
            &computation,
            &wcp,
            NetConfig::loopback()
                .with_faults(faults)
                .with_deadline(deadline()),
        );
        assert_eq!(net.report.detection, sim.report.detection, "seed {seed}");
    }
}

#[test]
fn wire_mode_never_changes_the_verdict_under_faults() {
    // Batched (default) and per-frame writes must be indistinguishable at
    // the verdict level, even under an injected fault schedule: the
    // fault layer draws one decision per frame regardless of how frames
    // are grouped into writes, so both modes consume the same schedule.
    for seed in 0..3u64 {
        let computation = workload(seed);
        let wcp = Wcp::over_first(3);
        let sim = run_vc_token(&computation, &wcp, SimConfig::seeded(1));
        let faults = FaultConfig::delay_duplicate_reorder(seed);
        let batched = run_vc_token_net(
            &computation,
            &wcp,
            NetConfig::loopback()
                .with_faults(faults.clone())
                .with_deadline(deadline()),
        );
        let per_frame = run_vc_token_net(
            &computation,
            &wcp,
            NetConfig::loopback()
                .with_per_frame_writes()
                .with_faults(faults)
                .with_deadline(deadline()),
        );
        assert_eq!(
            batched.report.detection, sim.report.detection,
            "seed {seed}"
        );
        assert_eq!(
            per_frame.report.detection, sim.report.detection,
            "seed {seed}: per-frame path diverged"
        );
        assert!(
            batched.net.batch_flushes < batched.net.frames_sent,
            "seed {seed}: batched run never coalesced"
        );
    }
}

#[test]
fn telemetry_never_perturbs_verdicts_metrics_or_fault_schedules() {
    // The tentpole property of the telemetry plane: turning it on changes
    // nothing observable about detection. Verdict AND paper-unit metrics
    // are bit-identical, and the injected fault schedule is untouched
    // (telemetry frames ride the un-faulted recovery path, so the fault
    // layer draws exactly the same decisions) — across clean links and
    // drop + delay + duplicate + reorder + reset schedules.
    let schedules: Vec<Option<FaultConfig>> = vec![
        None,
        Some(FaultConfig::delay_duplicate_reorder(7)),
        Some(FaultConfig::seeded(9).with_drop(0.15).with_reset(0.05)),
    ];
    for (which, faults) in schedules.into_iter().enumerate() {
        for seed in 0..3u64 {
            let computation = workload(seed);
            let wcp = Wcp::over_first(3);
            let mut config = NetConfig::loopback().with_deadline(deadline());
            if let Some(f) = &faults {
                config = config.with_faults(f.clone());
            }
            let off = run_vc_token_net(&computation, &wcp, config);
            let on = run_vc_token_net(&computation, &wcp, config.with_telemetry());
            assert_eq!(
                on.report.detection, off.report.detection,
                "schedule {which} seed {seed}: telemetry changed the verdict"
            );
            // The metrics a threaded run determines (the shutdown
            // broadcast races with the application tail, so the snapshot
            // counters vary run-to-run with telemetry entirely off — see
            // `fault::tests::telemetry_resends_consume_no_fault_schedule`
            // for the per-frame proof that telemetry adds nothing to
            // that pre-existing variance).
            assert_eq!(
                on.report.metrics.token_hops, off.report.metrics.token_hops,
                "schedule {which} seed {seed}: telemetry changed the token path"
            );
            assert_eq!(
                (
                    on.report.metrics.control_messages,
                    on.report.metrics.control_bytes,
                ),
                (
                    off.report.metrics.control_messages,
                    off.report.metrics.control_bytes,
                ),
                "schedule {which} seed {seed}: telemetry changed control accounting"
            );
            let collector = on.telemetry.expect("telemetry run returns its collector");
            assert!(off.telemetry.is_none(), "off run must not collect");
            assert!(
                collector.events_collected() > 0,
                "schedule {which} seed {seed}: sidecar collected nothing"
            );
            assert_eq!(collector.malformed(), 0);
        }
    }
}

#[test]
fn telemetry_collector_merges_every_peer_over_tcp() {
    let computation = workload(1);
    let wcp = Wcp::over_first(3);
    let net = run_vc_token_net(
        &computation,
        &wcp,
        NetConfig::tcp().with_deadline(deadline()).with_telemetry(),
    );
    let collector = net.telemetry.expect("collector");
    let sources = collector.source_stats();
    assert_eq!(sources.len(), 3, "one telemetry stream per peer");
    assert!(net.net.telemetry_sent > 0, "peers 1,2 framed deltas");
    assert_eq!(collector.malformed(), 0);
    let merged = collector.merged();
    assert!(!merged.is_empty());
    // The merged timeline is causally ordered: effective times never
    // decrease (TELEMETRY frames carry each stream in recording order and
    // the merge sorts by effective logical time).
    let dashboard = collector.dashboard("tcp run");
    assert!(dashboard.contains("wcp top"));
    assert!(dashboard.contains("source"));
}

#[test]
fn wire_v1_and_v2_agree_with_the_simulator_under_every_fault_schedule() {
    // The wire-v2 acceptance pin: the same computation under the same
    // fault schedule yields the simulator's verdict on both wire
    // versions, while v2 measurably compresses (within one run,
    // `bytes_sent` vs the v1-equivalent accounting — cross-run byte
    // comparisons would race the shutdown broadcast).
    let schedules: Vec<Option<FaultConfig>> = vec![
        None,
        Some(FaultConfig::delay_duplicate_reorder(5)),
        Some(FaultConfig::seeded(13).with_drop(0.15).with_reset(0.05)),
    ];
    for (which, faults) in schedules.into_iter().enumerate() {
        for seed in 0..3u64 {
            let computation = workload(seed);
            let wcp = Wcp::over_first(3);
            let sim = run_vc_token(&computation, &wcp, SimConfig::seeded(1));
            // Real sockets on the clean schedule; loopback under injected
            // faults (the fault layer is substrate-independent and the
            // TCP fault runs above already cover that axis).
            let mut config = if which == 0 {
                NetConfig::tcp()
            } else {
                NetConfig::loopback()
            }
            .with_deadline(deadline());
            if let Some(f) = &faults {
                config = config.with_faults(f.clone());
            }
            let v2 = run_vc_token_net(&computation, &wcp, config);
            let v1 = run_vc_token_net(&computation, &wcp, config.with_wire_v1());
            assert_eq!(
                v2.report.detection, sim.report.detection,
                "schedule {which} seed {seed}: v2 diverged from the simulator"
            );
            assert_eq!(
                v1.report.detection, sim.report.detection,
                "schedule {which} seed {seed}: v1 diverged from the simulator"
            );
            assert!(
                v2.net.bytes_sent < v2.net.wire_bytes_v1_equiv,
                "schedule {which} seed {seed}: v2 did not compress ({:?})",
                v2.net
            );
            assert!(
                v2.net.keyframes_sent > 0,
                "schedule {which} seed {seed}: v2 links never negotiated"
            );
            assert_eq!(
                v1.net.bytes_sent, v1.net.wire_bytes_v1_equiv,
                "schedule {which} seed {seed}: v1 accounting must be exact"
            );
            assert_eq!(
                v1.net.delta_frames_sent + v1.net.keyframes_sent,
                0,
                "schedule {which} seed {seed}: v1 run sent v2 frames"
            );
        }
    }
}

#[test]
fn paper_unit_accounting_is_wire_version_invariant() {
    // Satellite of the wire-v2 change: `DetectionMetrics` and the bound
    // audit count paper units via `wire_size()`, never actual encoded
    // bytes — so switching the wire version must leave every audited
    // quantity untouched. Only the schedule-independent counters are
    // pinned across runs (the shutdown broadcast races the application
    // tail, so raw snapshot counts vary run-to-run even on one version).
    for seed in 0..3u64 {
        let computation = workload(seed);
        let wcp = Wcp::over_first(3);
        let audit_run = |config: NetConfig| {
            let ring = Arc::new(RingRecorder::new(1 << 16));
            let net = run_vc_token_net_recorded(&computation, &wcp, config, ring.clone());
            assert_eq!(ring.dropped(), 0, "ring too small for the audit");
            let events = ring.events();
            let streams = split_by_monitor(&events);
            let borrowed: Vec<(u32, &[StampedEvent])> =
                streams.iter().map(|(m, s)| (*m, s.as_slice())).collect();
            let merged = merge_streams(&borrowed);
            let m1 = computation.max_events_per_process() as u64 + 1;
            let audit = audit_bounds(wcp.n(), m1, &merged, &BoundLimits::exact());
            (net, audit)
        };
        let base = NetConfig::loopback().with_deadline(deadline());
        let (v1, a1) = audit_run(base.with_wire_v1());
        let (v2, a2) = audit_run(base);
        assert_eq!(
            v1.report.detection, v2.report.detection,
            "seed {seed}: wire version changed the verdict"
        );
        assert!(a1.ok(), "seed {seed} v1: {:?}", a1.violations);
        assert!(a2.ok(), "seed {seed} v2: {:?}", a2.violations);
        assert_eq!(
            v1.report.metrics.token_hops, v2.report.metrics.token_hops,
            "seed {seed}: wire version changed the token path"
        );
        assert_eq!(
            (
                v1.report.metrics.control_messages,
                v1.report.metrics.control_bytes,
            ),
            (
                v2.report.metrics.control_messages,
                v2.report.metrics.control_bytes,
            ),
            "seed {seed}: wire version changed paper-unit accounting"
        );
        assert_eq!(
            (a1.n, a1.m1, a1.token_hops, a1.hop_limit),
            (a2.n, a2.m1, a2.token_hops, a2.hop_limit),
            "seed {seed}: wire version changed the audited bounds"
        );
        // And the v2 run really ran v2: it compressed below its own
        // v1-equivalent accounting while the audit stayed identical.
        assert!(
            v2.net.bytes_sent < v2.net.wire_bytes_v1_equiv,
            "seed {seed}: audit run never exercised compression"
        );
    }
}

#[test]
fn faulty_runs_actually_exercise_the_fault_machinery() {
    // Guard against a silently quiet schedule making the fault tests
    // vacuous: over a few seeds, the delay+duplicate+reorder schedule must
    // produce receiver-side dedup or resequencing work.
    let mut dups = 0;
    let mut reordered = 0;
    for seed in 0..4u64 {
        let computation = workload(seed);
        let wcp = Wcp::over_first(3);
        let net = run_vc_token_net(
            &computation,
            &wcp,
            NetConfig::loopback()
                .with_faults(FaultConfig::delay_duplicate_reorder(seed))
                .with_deadline(deadline()),
        );
        dups += net.net.duplicates_dropped;
        reordered += net.net.reordered;
    }
    assert!(
        dups > 0 && reordered > 0,
        "fault schedule injected nothing (dups {dups}, reordered {reordered})"
    );
}
