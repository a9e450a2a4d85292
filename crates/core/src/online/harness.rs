//! Wiring: build a simulation hosting application and monitor actors, run
//! it, and translate the outcome into a [`DetectionReport`].

use std::sync::Arc;

use std::sync::Mutex;
use wcp_clocks::{Cut, ProcessId};
use wcp_obs::{NullRecorder, Recorder};
use wcp_sim::{ActorId, SimConfig, SimOutcome, Simulation};
use wcp_trace::{Computation, Wcp};

use crate::detector::{Detection, DetectionReport};
use crate::metrics::DetectionMetrics;
use crate::online::app::{AppProcess, ClockMode};
use crate::online::dd_monitor::DdMonitor;
use crate::online::messages::DetectMsg;
use crate::online::vc_monitor::{OnlineDetection, OnlineStats, VcMonitor};

/// A [`DetectionReport`] plus the simulation outcome (notably the simulated
/// end time — the online detection-latency measure).
#[derive(Debug, Clone)]
pub struct OnlineReport {
    /// Detection result and paper-unit metrics.
    pub report: DetectionReport,
    /// Raw simulation outcome.
    pub outcome: SimOutcome,
}

/// Runs the Section 3 single-token algorithm online.
///
/// Builds one application actor per process and one monitor per scope
/// process, with FIFO application→monitor channels (the paper's only FIFO
/// requirement), runs the simulation to quiescence, and reports.
///
/// # Panics
///
/// Panics if the scope is empty or the computation is invalid.
pub fn run_vc_token(computation: &Computation, wcp: &Wcp, sim_config: SimConfig) -> OnlineReport {
    run_vc_token_recorded(computation, wcp, sim_config, Arc::new(NullRecorder))
}

/// [`run_vc_token`] with an attached [`Recorder`]: the simulator streams
/// [`wcp_obs::TraceEvent::MessageDelivered`] hops and each monitor streams
/// its protocol events (token moves, candidate verdicts, buffered
/// snapshots), all stamped with simulated time.
///
/// # Panics
///
/// Panics if the scope is empty or the computation is invalid.
pub fn run_vc_token_recorded(
    computation: &Computation,
    wcp: &Wcp,
    sim_config: SimConfig,
    recorder: Arc<dyn Recorder>,
) -> OnlineReport {
    let n_total = computation.process_count();
    let n = wcp.n();
    assert!(n >= 1, "WCP scope must name at least one process");

    // Actor layout: apps at 0..N, monitors at N..N+n (scope order).
    let apps: Vec<ActorId> = (0..n_total as u32).map(ActorId::new).collect();
    let monitors: Vec<ActorId> = (0..n as u32)
        .map(|i| ActorId::new(n_total as u32 + i))
        .collect();

    let mut config = sim_config;
    for (pos, &p) in wcp.scope().iter().enumerate() {
        config = config.with_fifo_channel(apps[p.index()], monitors[pos]);
    }

    let result = Arc::new(Mutex::new(None));
    let stats = Arc::new(Mutex::new(OnlineStats::default()));
    let mut sim = Simulation::new(config);
    sim.set_recorder(recorder.clone());
    for p in ProcessId::all(n_total) {
        let monitor = wcp.position(p).map(|pos| monitors[pos]);
        sim.add_actor(Box::new(AppProcess::new(
            computation,
            wcp,
            p,
            ClockMode::Vector,
            apps.clone(),
            monitor,
        )));
    }
    for pos in 0..n {
        sim.add_actor(Box::new(
            VcMonitor::new(
                pos,
                n,
                monitors.clone(),
                pos == 0,
                result.clone(),
                stats.clone(),
            )
            .with_recorder(recorder.clone()),
        ));
    }

    let outcome = sim.run();
    let detection = match result.lock().unwrap().take() {
        Some(OnlineDetection::Detected(g)) => {
            let mut cut = Cut::new(n_total);
            for (pos, &p) in wcp.scope().iter().enumerate() {
                cut.set(p, g[pos]);
            }
            Detection::Detected { cut }
        }
        Some(OnlineDetection::Undetected) => Detection::Undetected,
        None => panic!(
            "simulation quiesced without a verdict (protocol stalled)\n{}",
            stats.lock().unwrap().stall_report()
        ),
    };
    let metrics = collect_metrics(
        &sim,
        computation,
        &apps,
        &monitors,
        &stats.lock().unwrap(),
        &outcome,
        8 + 8 * n as u64, // MsgId + scope-width vector
    );
    OnlineReport {
        report: DetectionReport { detection, metrics },
        outcome,
    }
}

/// Runs the Section 4 direct-dependence algorithm online; `parallel`
/// enables the Section 4.5 proactive red-chain variant.
///
/// All `N` processes get monitors.
///
/// # Panics
///
/// Panics if the computation has no processes or is invalid.
pub fn run_direct(
    computation: &Computation,
    wcp: &Wcp,
    sim_config: SimConfig,
    parallel: bool,
) -> OnlineReport {
    run_direct_recorded(
        computation,
        wcp,
        sim_config,
        parallel,
        Arc::new(NullRecorder),
    )
}

/// [`run_direct`] with an attached [`Recorder`]: the simulator streams
/// message-delivery hops and each monitor streams its protocol events
/// (polls, red-chain hops, candidate verdicts), stamped with simulated
/// time.
///
/// # Panics
///
/// Panics if the computation has no processes or is invalid.
pub fn run_direct_recorded(
    computation: &Computation,
    wcp: &Wcp,
    sim_config: SimConfig,
    parallel: bool,
    recorder: Arc<dyn Recorder>,
) -> OnlineReport {
    let n_total = computation.process_count();
    assert!(n_total >= 1, "computation must have at least one process");

    let apps: Vec<ActorId> = (0..n_total as u32).map(ActorId::new).collect();
    let monitors: Vec<ActorId> = (0..n_total as u32)
        .map(|i| ActorId::new(n_total as u32 + i))
        .collect();

    let mut config = sim_config;
    for p in ProcessId::all(n_total) {
        config = config.with_fifo_channel(apps[p.index()], monitors[p.index()]);
    }

    let result = Arc::new(Mutex::new(None));
    let stats = Arc::new(Mutex::new(OnlineStats::default()));
    let g_board = Arc::new(Mutex::new(vec![0u64; n_total]));
    let mut sim = Simulation::new(config);
    sim.set_recorder(recorder.clone());
    for p in ProcessId::all(n_total) {
        sim.add_actor(Box::new(AppProcess::new(
            computation,
            wcp,
            p,
            ClockMode::Scalar,
            apps.clone(),
            Some(monitors[p.index()]),
        )));
    }
    for p in ProcessId::all(n_total) {
        sim.add_actor(Box::new(
            DdMonitor::new(
                p,
                n_total,
                monitors.clone(),
                parallel,
                g_board.clone(),
                result.clone(),
                stats.clone(),
            )
            .with_recorder(recorder.clone()),
        ));
    }

    let outcome = sim.run();
    let detection = match result.lock().unwrap().take() {
        Some(OnlineDetection::Detected(g)) => Detection::Detected {
            cut: Cut::from_indices(g),
        },
        Some(OnlineDetection::Undetected) => Detection::Undetected,
        None => panic!(
            "simulation quiesced without a verdict (protocol stalled)\n{}",
            stats.lock().unwrap().stall_report()
        ),
    };
    let metrics = collect_metrics(
        &sim,
        computation,
        &apps,
        &monitors,
        &stats.lock().unwrap(),
        &outcome,
        16, // MsgId + scalar tag
    );
    OnlineReport {
        report: DetectionReport { detection, metrics },
        outcome,
    }
}

/// Translates simulator counters into paper-unit [`DetectionMetrics`].
///
/// Application actors send script messages, snapshots, and end-of-trace
/// markers; the script traffic (whose size per message is fixed by the
/// clock mode) and the 1-byte markers are subtracted to isolate snapshot
/// traffic.
fn collect_metrics(
    sim: &Simulation<DetectMsg>,
    computation: &Computation,
    apps: &[ActorId],
    monitors: &[ActorId],
    stats: &OnlineStats,
    outcome: &SimOutcome,
    app_payload_bytes: u64,
) -> DetectionMetrics {
    let mut metrics = DetectionMetrics::new(monitors.len());
    let sim_metrics = sim.metrics();
    for (i, &m) in monitors.iter().enumerate() {
        let a = sim_metrics.actor(m);
        metrics.per_process_work[i] = a.work;
        metrics.control_messages += a.sent;
        metrics.control_bytes += a.bytes_sent;
    }
    let mut app_sent = 0u64;
    let mut app_bytes = 0u64;
    for &a in apps {
        let m = sim_metrics.actor(a);
        app_sent += m.sent;
        app_bytes += m.bytes_sent;
    }
    let script_msgs = computation.total_messages() as u64;
    let eot_count = monitors.len() as u64; // one marker per monitored process
    metrics.snapshot_messages = app_sent.saturating_sub(script_msgs + eot_count);
    metrics.snapshot_bytes = app_bytes.saturating_sub(script_msgs * app_payload_bytes + eot_count);
    metrics.token_hops = stats.token_hops;
    metrics.max_buffered_snapshots = stats.max_buffered;
    metrics.parallel_time = outcome.time.0;
    metrics
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Detector, DirectDependenceDetector, TokenDetector};
    use wcp_trace::generate::{generate, GeneratorConfig};
    use wcp_trace::ComputationBuilder;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn vc_online_detects_simple_cut() {
        let mut b = ComputationBuilder::new(2);
        let m = b.send(p(0), p(1));
        b.mark_true(p(0));
        b.receive(p(1), m);
        b.mark_true(p(1));
        let c = b.build().unwrap();
        let r = run_vc_token(&c, &Wcp::over_first(2), SimConfig::seeded(1));
        assert_eq!(
            r.report.detection.cut().unwrap().as_slice(),
            &[2, 2],
            "{:?}",
            r.report
        );
        assert!(r.report.metrics.token_hops >= 1);
    }

    #[test]
    fn vc_online_reports_undetected() {
        let mut b = ComputationBuilder::new(2);
        b.mark_true(p(0));
        let m = b.send(p(0), p(1));
        b.receive(p(1), m);
        b.mark_true(p(1));
        let c = b.build().unwrap();
        let r = run_vc_token(&c, &Wcp::over_first(2), SimConfig::seeded(1));
        assert_eq!(r.report.detection, Detection::Undetected);
    }

    #[test]
    fn vc_online_matches_offline_across_seeds_and_jitter() {
        for seed in 0..25 {
            let cfg = GeneratorConfig::new(5, 10)
                .with_seed(seed)
                .with_predicate_density(0.3);
            let g = generate(&cfg);
            let a = g.computation.annotate();
            let wcp = Wcp::over_first(4);
            let offline = TokenDetector::new().detect(&a, &wcp);
            for sim_seed in [0u64, 1, 99] {
                let online = run_vc_token(&g.computation, &wcp, SimConfig::seeded(sim_seed));
                assert_eq!(
                    online.report.detection, offline.detection,
                    "seed {seed} sim_seed {sim_seed}"
                );
            }
        }
    }

    #[test]
    fn dd_online_matches_offline_across_seeds_and_jitter() {
        for seed in 0..25 {
            let cfg = GeneratorConfig::new(5, 10)
                .with_seed(seed)
                .with_predicate_density(0.3);
            let g = generate(&cfg);
            let a = g.computation.annotate();
            let wcp = Wcp::over_first(3);
            let offline = DirectDependenceDetector::new().detect(&a, &wcp);
            for sim_seed in [0u64, 7] {
                let online = run_direct(&g.computation, &wcp, SimConfig::seeded(sim_seed), false);
                assert_eq!(
                    online.report.detection, offline.detection,
                    "seed {seed} sim_seed {sim_seed}"
                );
            }
        }
    }

    #[test]
    fn dd_parallel_detects_same_cut() {
        for seed in 0..25 {
            let cfg = GeneratorConfig::new(5, 10)
                .with_seed(seed)
                .with_predicate_density(0.3);
            let g = generate(&cfg);
            let a = g.computation.annotate();
            let wcp = Wcp::over_first(5);
            let offline = DirectDependenceDetector::new().detect(&a, &wcp);
            let online = run_direct(&g.computation, &wcp, SimConfig::seeded(3), true);
            assert_eq!(online.report.detection, offline.detection, "seed {seed}");
        }
    }

    #[test]
    fn parallel_chain_reduces_latency_on_average() {
        let mut faster = 0usize;
        let total = 15usize;
        for seed in 0..total as u64 {
            let cfg = GeneratorConfig::new(6, 15)
                .with_seed(seed)
                .with_predicate_density(0.2)
                .with_plant(0.8);
            let g = generate(&cfg);
            let wcp = Wcp::over_first(6);
            let seq = run_direct(&g.computation, &wcp, SimConfig::seeded(5), false);
            let par = run_direct(&g.computation, &wcp, SimConfig::seeded(5), true);
            assert_eq!(seq.report.detection, par.report.detection, "seed {seed}");
            if par.outcome.time <= seq.outcome.time {
                faster += 1;
            }
        }
        assert!(
            faster * 3 >= total * 2,
            "parallel chain faster only {faster}/{total} runs"
        );
    }
}

/// [`Detector`](crate::Detector)-trait adapters over the online runners, so experiment code
/// can mix offline emulations and online simulations behind one interface.
pub mod adapters {
    use wcp_trace::{AnnotatedComputation, Wcp};

    use crate::detector::{DetectionReport, Detector};
    use crate::online::harness::{run_direct, run_vc_token};
    use crate::online::multi_token::run_multi_token;
    use wcp_sim::SimConfig;

    /// The Section 3 token algorithm over the simulated network.
    #[derive(Debug, Clone)]
    pub struct OnlineTokenDetector {
        config: SimConfig,
    }

    impl OnlineTokenDetector {
        /// Online token detector over the given network.
        pub fn new(config: SimConfig) -> Self {
            OnlineTokenDetector { config }
        }
    }

    impl Detector for OnlineTokenDetector {
        fn name(&self) -> &str {
            "token(sim)"
        }
        fn detect(&self, annotated: &AnnotatedComputation<'_>, wcp: &Wcp) -> DetectionReport {
            run_vc_token(annotated.computation(), wcp, self.config.clone()).report
        }
    }

    /// The Section 4 direct-dependence algorithm over the simulated
    /// network, optionally with the §4.5 parallel red chain.
    #[derive(Debug, Clone)]
    pub struct OnlineDirectDetector {
        config: SimConfig,
        parallel: bool,
    }

    impl OnlineDirectDetector {
        /// Online direct-dependence detector over the given network.
        pub fn new(config: SimConfig, parallel: bool) -> Self {
            OnlineDirectDetector { config, parallel }
        }
    }

    impl Detector for OnlineDirectDetector {
        fn name(&self) -> &str {
            if self.parallel {
                "direct∥(sim)"
            } else {
                "direct(sim)"
            }
        }
        fn detect(&self, annotated: &AnnotatedComputation<'_>, wcp: &Wcp) -> DetectionReport {
            run_direct(
                annotated.computation(),
                wcp,
                self.config.clone(),
                self.parallel,
            )
            .report
        }
    }

    /// The Section 3.5 multi-token algorithm over the simulated network.
    #[derive(Debug, Clone)]
    pub struct OnlineMultiTokenDetector {
        config: SimConfig,
        groups: usize,
    }

    impl OnlineMultiTokenDetector {
        /// Online multi-token detector with `groups` tokens.
        ///
        /// # Panics
        ///
        /// Panics if `groups == 0`.
        pub fn new(config: SimConfig, groups: usize) -> Self {
            assert!(groups >= 1, "need at least one group");
            OnlineMultiTokenDetector { config, groups }
        }
    }

    impl Detector for OnlineMultiTokenDetector {
        fn name(&self) -> &str {
            "multi-token(sim)"
        }
        fn detect(&self, annotated: &AnnotatedComputation<'_>, wcp: &Wcp) -> DetectionReport {
            run_multi_token(
                annotated.computation(),
                wcp,
                self.config.clone(),
                self.groups,
            )
            .report
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use crate::{Detector, TokenDetector};
        use wcp_trace::generate::{generate, GeneratorConfig};

        #[test]
        fn adapters_run_behind_the_trait() {
            let g = generate(
                &GeneratorConfig::new(4, 8)
                    .with_seed(2)
                    .with_predicate_density(0.3)
                    .with_plant(0.7),
            );
            let annotated = g.computation.annotate();
            let wcp = wcp_trace::Wcp::over_first(4);
            let expected = TokenDetector::new().detect(&annotated, &wcp).detection;
            let detectors: Vec<Box<dyn Detector>> = vec![
                Box::new(OnlineTokenDetector::new(SimConfig::seeded(1))),
                Box::new(OnlineDirectDetector::new(SimConfig::seeded(1), false)),
                Box::new(OnlineDirectDetector::new(SimConfig::seeded(1), true)),
                Box::new(OnlineMultiTokenDetector::new(SimConfig::seeded(1), 2)),
            ];
            for d in &detectors {
                let r = d.detect(&annotated, &wcp);
                assert_eq!(r.detection, expected, "{}", d.name());
                assert!(!d.name().is_empty());
            }
        }
    }
}
