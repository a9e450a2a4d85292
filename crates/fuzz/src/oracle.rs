//! The differential oracle: runs one [`FuzzCase`] through every detector
//! family and cross-checks each verdict against the ground truth.
//!
//! Theorem 3.2 makes this possible: the first satisfying consistent cut of
//! a WCP is *unique*, so every correct detector — offline emulation, online
//! actor stack, streaming checker, socket peer — must report the same scope
//! projection. The truth is read straight off the annotated computation
//! ([`AnnotatedComputation::first_satisfying_cut`]); the Cooper–Marzullo
//! lattice baseline is additionally cross-checked on instances small enough
//! to enumerate.

use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

use wcp_clocks::ProcessId;
use wcp_detect::online::{
    run_checker, run_direct, run_multi_token, run_vc_token, run_vc_token_recorded,
};
use wcp_detect::{
    audit_bounds, replay_metrics, vc_snapshot_queues, BoundLimits, CentralizedChecker, Detection,
    DetectionReport, Detector, DirectDependenceDetector, HierarchicalChecker, LatticeDetector,
    MultiTokenDetector, ParallelDetector, StreamingChecker, StreamingStatus, TokenDetector,
};
use wcp_net::{run_direct_net, run_multi_net, run_vc_token_net, NetConfig};
use wcp_obs::rng::Rng;
use wcp_obs::{merge_streams, split_by_monitor, RingRecorder, StampedEvent};
use wcp_session::{run_multi_offline, run_multi_offline_with, run_single_offline, SessionVerdict};
use wcp_sim::SimConfig;
use wcp_trace::generate::generate;
use wcp_trace::{AnnotatedComputation, Wcp};

use crate::case::FuzzCase;

/// Ring capacity for replay-lockstep checks; sized so generated cases
/// never overflow (overflow skips the metrics check, it is not a bug).
const RING_CAPACITY: usize = 1 << 16;

/// Lattice-enumeration budget: mirror `tests/agreement.rs` — only explore
/// small instances exhaustively.
const LATTICE_MAX_PROCESSES: usize = 4;
const LATTICE_MAX_EVENTS: usize = 6;

/// Wall-clock budget for one socket loopback run.
const NET_DEADLINE: Duration = Duration::from_secs(20);

/// Worker count the parallel-pump cross-check leg drives — enough to
/// partition the shard space several ways while staying cheap per case.
const PUMP_PARALLEL_WORKERS: usize = 4;

/// Worker count of the work-optimal detector's multi-thread cross-check
/// leg — several blocks of scope positions, uneven ones included, without
/// per-case thread spam.
const PARALLEL_DETECT_WORKERS: usize = 4;

/// How a detector deviated from the oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DivergenceKind {
    /// Wrong verdict or wrong cut projection.
    Verdict,
    /// Verdict right, but `replay_metrics` over the recorded event stream
    /// does not reconstruct the reported `DetectionMetrics`.
    Metrics,
    /// The merged telemetry timeline exceeds a paper bound (§3.4:
    /// `O(nm)` messages, `O(n²m)` bits, hop-bounded detection latency).
    Bounds,
    /// The detector panicked.
    Crash,
}

/// One detector's deviation on one case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Battery label of the deviating detector (e.g. `"multi-token(2)+par"`).
    pub detector: String,
    /// Deviation class.
    pub kind: DivergenceKind,
    /// Human-readable expected-vs-got (or panic payload).
    pub detail: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match self.kind {
            DivergenceKind::Verdict => "verdict",
            DivergenceKind::Metrics => "metrics",
            DivergenceKind::Bounds => "bounds",
            DivergenceKind::Crash => "crash",
        };
        write!(f, "[{kind}] {}: {}", self.detector, self.detail)
    }
}

/// Knobs for [`check_case`].
#[derive(Debug, Clone)]
pub struct CheckOptions {
    /// Run the real-socket loopback stacks for cases with `net = true`.
    /// Campaigns enable this; the shrinker's inner loop may disable it.
    pub include_net: bool,
    /// Test-only: add a [`SabotagedDetector`] to the battery so the
    /// shrinker self-test has a known planted bug to reduce.
    pub sabotage: bool,
    /// Force coalesced (batched) writes on every net run, overriding the
    /// case's own `net_batch` draw — the `wcp fuzz --net-batch` smoke knob.
    pub force_net_batch: bool,
    /// Force the delta-compressed wire v2 on every net run, overriding
    /// the case's own `wire_v2` draw — the `wcp fuzz --wire-v2` smoke
    /// knob.
    pub force_wire_v2: bool,
    /// Force the multi-tenant session cross-check to run its socket
    /// loopback leg even when the case's `net` draw is false — the
    /// `wcp fuzz --multi` smoke knob. (The offline engine cross-check
    /// runs on every case regardless.)
    pub force_multi: bool,
    /// Force the sharded parallel-pump leg of the multi-tenant
    /// cross-check even when the case's `pump_parallel` draw is false —
    /// the `wcp fuzz --pump-parallel` smoke knob.
    pub force_pump_parallel: bool,
    /// Force the work-optimal detector's multi-thread bit-identity leg
    /// even when the case's `parallel_detect` draw is false — the
    /// `wcp fuzz --parallel-detect` smoke knob. (The single-thread
    /// detector runs in the offline battery on every case regardless.)
    pub force_parallel_detect: bool,
    /// Audit the merged telemetry timeline of a recorded online vc-token
    /// run against the paper's §3.4 bounds (`wcp fuzz --audit-bounds`).
    pub audit_bounds: bool,
    /// Test-only: audit against [`BoundLimits::sabotaged`] (every limit
    /// zero) instead of the Theorem limits, so the self-test can assert
    /// the auditor actually reports violations.
    pub sabotage_bounds: bool,
}

impl Default for CheckOptions {
    fn default() -> Self {
        CheckOptions {
            include_net: true,
            sabotage: false,
            force_net_batch: false,
            force_wire_v2: false,
            force_multi: false,
            force_pump_parallel: false,
            force_parallel_detect: false,
            audit_bounds: false,
            sabotage_bounds: false,
        }
    }
}

/// Test-only wrapper that mis-reports `Undetected` whenever the true cut
/// selects any interval `>= 2` — a planted mutation the shrinker self-test
/// must find and reduce to a minimal repro.
pub struct SabotagedDetector<D: Detector>(pub D);

impl<D: Detector> Detector for SabotagedDetector<D> {
    fn name(&self) -> &str {
        "sabotaged"
    }

    fn detect(&self, annotated: &AnnotatedComputation<'_>, wcp: &Wcp) -> DetectionReport {
        let mut report = self.0.detect(annotated, wcp);
        if let Detection::Detected { cut } = &report.detection {
            if wcp.project(cut).iter().any(|&k| k >= 2) {
                report.detection = Detection::Undetected;
            }
        }
        report
    }
}

/// Runs `f`, converting a panic into `Err(payload)`.
fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    match panic::catch_unwind(AssertUnwindSafe(f)) {
        Ok(v) => Ok(v),
        Err(payload) => Err(payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "opaque panic payload".to_string())),
    }
}

fn fmt_proj(p: &Option<Vec<u64>>) -> String {
    match p {
        Some(v) => format!("Detected{v:?}"),
        None => "Undetected".to_string(),
    }
}

/// Runs the full battery on `case`, returning every deviation found.
///
/// An empty result means all detector families agreed with the oracle on
/// both verdict and (where applicable) replayed metrics.
pub fn check_case(case: &FuzzCase, opts: &CheckOptions) -> Vec<Divergence> {
    let mut out = Vec::new();
    let generated = match guarded(|| generate(&case.gen)) {
        Ok(g) => g,
        Err(p) => {
            out.push(Divergence {
                detector: "generator".to_string(),
                kind: DivergenceKind::Crash,
                detail: p,
            });
            return out;
        }
    };
    let computation = &generated.computation;
    let wcp = case.wcp(computation);
    let annotated = computation.annotate();
    let truth = annotated
        .first_satisfying_cut(&wcp)
        .map(|c| wcp.project(&c));

    let mut diverge = |detector: &str, kind: DivergenceKind, detail: String| {
        out.push(Divergence {
            detector: detector.to_string(),
            kind,
            detail,
        });
    };

    // ---- offline detectors, with replay-lockstep metrics checks --------
    // `replay_exact` marks the families whose recorded event stream is a
    // lossless account of their metrics (the `tests/replay.rs` contract);
    // the sabotaged control records nothing and is verdict-checked only.
    struct Offline<'a> {
        label: &'static str,
        build: Box<dyn Fn(Arc<RingRecorder>) -> Box<dyn Detector> + 'a>,
        replay_exact: bool,
    }
    let groups = case.groups.max(1);
    let scope_n = wcp.n();
    let mut battery: Vec<Offline<'_>> = vec![
        Offline {
            label: "centralized",
            build: Box::new(|r| Box::new(CentralizedChecker::new().with_recorder(r))),
            replay_exact: true,
        },
        Offline {
            label: "token",
            build: Box::new(|r| {
                Box::new(
                    TokenDetector::new()
                        .with_invariant_checks()
                        .with_recorder(r),
                )
            }),
            replay_exact: true,
        },
        Offline {
            label: "token+start",
            build: Box::new(move |r| {
                Box::new(
                    TokenDetector::new()
                        .with_start(scope_n - 1)
                        .with_recorder(r),
                )
            }),
            replay_exact: true,
        },
        Offline {
            label: "multi-token",
            build: Box::new(move |r| Box::new(MultiTokenDetector::new(groups).with_recorder(r))),
            replay_exact: true,
        },
        Offline {
            label: "parallel",
            build: Box::new(|r| Box::new(ParallelDetector::new().with_recorder(r))),
            replay_exact: true,
        },
        Offline {
            label: "direct",
            build: Box::new(|r| {
                Box::new(
                    DirectDependenceDetector::new()
                        .with_invariant_checks()
                        .with_recorder(r),
                )
            }),
            replay_exact: true,
        },
        Offline {
            label: "hierarchical",
            build: Box::new(move |r| Box::new(HierarchicalChecker::new(groups).with_recorder(r))),
            replay_exact: true,
        },
    ];
    if opts.sabotage {
        battery.push(Offline {
            label: "sabotaged",
            build: Box::new(|_| Box::new(SabotagedDetector(ParallelDetector::new()))),
            replay_exact: false,
        });
    }
    for entry in &battery {
        let ring = Arc::new(RingRecorder::new(RING_CAPACITY));
        let detector = (entry.build)(ring.clone());
        match guarded(|| detector.detect(&annotated, &wcp)) {
            Ok(report) => {
                let got = report.detection.cut().map(|c| wcp.project(c));
                if got != truth {
                    diverge(
                        entry.label,
                        DivergenceKind::Verdict,
                        format!("expected {}, got {}", fmt_proj(&truth), fmt_proj(&got)),
                    );
                } else if entry.replay_exact && ring.dropped() == 0 {
                    let replayed =
                        replay_metrics(report.metrics.per_process_work.len(), &ring.events());
                    if replayed != report.metrics {
                        diverge(
                            entry.label,
                            DivergenceKind::Metrics,
                            format!(
                                "replayed metrics diverge: reported [{}], replayed [{}]",
                                report.metrics, replayed
                            ),
                        );
                    }
                }
            }
            Err(p) => diverge(entry.label, DivergenceKind::Crash, p),
        }
    }

    // ---- work-optimal detector: thread-count bit-identity --------------
    // When the case drew `parallel_detect` (or `--parallel-detect` forced
    // it), rerun the work-optimal detector with a real worker pool and pin
    // the whole report — verdict, `DetectionMetrics`, recorded event
    // stream — bit-identical to a fresh single-thread run. The oracle
    // check itself already happened in the battery above.
    if case.parallel_detect || opts.force_parallel_detect {
        let seq_ring = Arc::new(RingRecorder::new(RING_CAPACITY));
        let par_ring = Arc::new(RingRecorder::new(RING_CAPACITY));
        let run = |threads: usize, ring: Arc<RingRecorder>| {
            ParallelDetector::new()
                .with_threads(threads)
                .with_recorder(ring)
                .detect(&annotated, &wcp)
        };
        match guarded(|| {
            (
                run(1, seq_ring.clone()),
                run(PARALLEL_DETECT_WORKERS, par_ring.clone()),
            )
        }) {
            Ok((seq, par)) => {
                if par.detection != seq.detection {
                    diverge(
                        "parallel+par",
                        DivergenceKind::Verdict,
                        format!(
                            "multi-thread verdict diverged from single-thread: \
                             sequential {:?}, parallel {:?}",
                            seq.detection, par.detection
                        ),
                    );
                } else if par.metrics != seq.metrics {
                    diverge(
                        "parallel+par",
                        DivergenceKind::Metrics,
                        format!(
                            "multi-thread metrics diverged from single-thread: \
                             sequential [{}], parallel [{}]",
                            seq.metrics, par.metrics
                        ),
                    );
                } else if seq_ring.dropped() == 0
                    && par_ring.dropped() == 0
                    && par_ring.events() != seq_ring.events()
                {
                    diverge(
                        "parallel+par",
                        DivergenceKind::Metrics,
                        "multi-thread event stream diverged from single-thread".to_string(),
                    );
                }
            }
            Err(p) => diverge("parallel+par", DivergenceKind::Crash, p),
        }
    }

    // ---- lattice ground truth (budgeted) -------------------------------
    if computation.process_count() <= LATTICE_MAX_PROCESSES
        && computation.max_events_per_process() <= LATTICE_MAX_EVENTS
    {
        match guarded(|| LatticeDetector::new().detect(&annotated, &wcp)) {
            Ok(report) => {
                let got = report.detection.cut().map(|c| wcp.project(c));
                if got != truth {
                    diverge(
                        "lattice",
                        DivergenceKind::Verdict,
                        format!("expected {}, got {}", fmt_proj(&truth), fmt_proj(&got)),
                    );
                }
            }
            Err(p) => diverge("lattice", DivergenceKind::Crash, p),
        }
    }

    // ---- streaming checker under a seeded push/close interleave --------
    match guarded(|| run_streaming(case, &annotated, &wcp)) {
        Ok(outcome) => {
            if outcome.detected != truth {
                diverge(
                    "streaming",
                    DivergenceKind::Verdict,
                    format!(
                        "expected {}, got {}",
                        fmt_proj(&truth),
                        fmt_proj(&outcome.detected)
                    ),
                );
            } else if let Some(violation) = outcome.contract_violation {
                diverge("streaming", DivergenceKind::Verdict, violation);
            } else if truth.is_none() && !outcome.settled {
                // Once every position is closed, a checker that has not
                // detected must report Impossible — staying Pending
                // forever is the close-order liveness bug.
                diverge(
                    "streaming",
                    DivergenceKind::Verdict,
                    "all positions closed without detection, yet the checker never \
                     reported Impossible"
                        .to_string(),
                );
            }
        }
        Err(p) => diverge("streaming", DivergenceKind::Crash, p),
    }

    // ---- online simulated actor stacks ---------------------------------
    let sim = SimConfig::seeded(case.sim_seed).with_latency(case.latency.clone());
    struct Online<'a> {
        label: &'a str,
        run: Box<dyn Fn() -> Detection + 'a>,
    }
    let online: Vec<Online<'_>> = vec![
        Online {
            label: "online:vc-token",
            run: Box::new(|| {
                run_vc_token(computation, &wcp, sim.clone())
                    .report
                    .detection
            }),
        },
        Online {
            label: "online:multi-token",
            run: Box::new(|| {
                run_multi_token(computation, &wcp, sim.clone(), groups)
                    .report
                    .detection
            }),
        },
        Online {
            label: "online:checker",
            run: Box::new(|| run_checker(computation, &wcp, sim.clone()).report.detection),
        },
        Online {
            label: "online:direct",
            run: Box::new(|| {
                run_direct(computation, &wcp, sim.clone(), false)
                    .report
                    .detection
            }),
        },
        Online {
            label: "online:direct+par",
            run: Box::new(|| {
                run_direct(computation, &wcp, sim.clone(), true)
                    .report
                    .detection
            }),
        },
    ];
    for entry in &online {
        match guarded(&entry.run) {
            Ok(detection) => {
                let got = detection.cut().map(|c| wcp.project(c));
                if got != truth {
                    diverge(
                        entry.label,
                        DivergenceKind::Verdict,
                        format!("expected {}, got {}", fmt_proj(&truth), fmt_proj(&got)),
                    );
                }
            }
            Err(p) => diverge(entry.label, DivergenceKind::Crash, p),
        }
    }

    // ---- paper-bound audit over the merged telemetry pipeline ----------
    if opts.audit_bounds || opts.sabotage_bounds {
        let ring = Arc::new(RingRecorder::new(RING_CAPACITY));
        match guarded(|| {
            run_vc_token_recorded(computation, &wcp, sim.clone(), ring.clone())
                .report
                .detection
        }) {
            Ok(detection) => {
                let got = detection.cut().map(|c| wcp.project(c));
                if got != truth {
                    diverge(
                        "audit:vc-token",
                        DivergenceKind::Verdict,
                        format!("expected {}, got {}", fmt_proj(&truth), fmt_proj(&got)),
                    );
                } else if ring.dropped() == 0 {
                    // Exactly the collector pipeline: split the recording
                    // into per-monitor streams (what each peer's private
                    // ring would hold), causally merge them back, and
                    // audit paper units over the merged timeline.
                    let events = ring.events();
                    let streams = split_by_monitor(&events);
                    let borrowed: Vec<(u32, &[StampedEvent])> =
                        streams.iter().map(|(m, s)| (*m, s.as_slice())).collect();
                    let merged = merge_streams(&borrowed);
                    let limits = if opts.sabotage_bounds {
                        BoundLimits::sabotaged()
                    } else {
                        BoundLimits::exact()
                    };
                    let m1 = computation.max_events_per_process() as u64 + 1;
                    let audit = audit_bounds(wcp.n(), m1, &merged, &limits);
                    if !audit.ok() {
                        diverge(
                            "audit:bounds",
                            DivergenceKind::Bounds,
                            audit.violations.join("; "),
                        );
                    }
                }
            }
            Err(p) => diverge("audit:vc-token", DivergenceKind::Crash, p),
        }
    }

    // ---- multi-tenant session engine ------------------------------------
    // Serve `multi_predicates` predicates with diverse scopes over the
    // shared stream and cross-check **predicate by predicate**: each
    // verdict against the Theorem 3.2 oracle for *that* predicate, and
    // each session's `DetectionMetrics` against a run of the same
    // predicate alone (the bit-identity claim of DESIGN.md S25).
    {
        let n = computation.process_count().max(1);
        let k = case.multi_predicates.max(1);
        let predicates: Vec<Wcp> = (0..k)
            .map(|j| {
                let width = 1 + (j % n);
                Wcp::over((0..width).map(|i| ProcessId::new(((j * 3 + i) % n) as u32)))
            })
            .collect();
        let mut engine_clean = true;
        let serial_report = match guarded(|| run_multi_offline(computation, &predicates)) {
            Ok(report) => {
                for outcome in &report.outcomes {
                    let session_truth = annotated
                        .first_satisfying_cut(&outcome.wcp)
                        .map(|c| outcome.wcp.project(&c));
                    let got = match &outcome.verdict {
                        SessionVerdict::Detected(g) => Some(g.clone()),
                        SessionVerdict::Impossible => None,
                    };
                    if got != session_truth {
                        engine_clean = false;
                        diverge(
                            &format!("multi:engine#{}", outcome.id),
                            DivergenceKind::Verdict,
                            format!(
                                "expected {}, got {}",
                                fmt_proj(&session_truth),
                                fmt_proj(&got)
                            ),
                        );
                        continue;
                    }
                    let (alone_verdict, alone_metrics) =
                        run_single_offline(computation, &outcome.wcp);
                    if outcome.verdict != alone_verdict {
                        engine_clean = false;
                        diverge(
                            &format!("multi:alone#{}", outcome.id),
                            DivergenceKind::Verdict,
                            format!("alone {alone_verdict}, multi {}", outcome.verdict),
                        );
                    } else if outcome.metrics != alone_metrics {
                        engine_clean = false;
                        diverge(
                            &format!("multi:alone#{}", outcome.id),
                            DivergenceKind::Metrics,
                            format!(
                                "multi-tenant metrics diverged from the alone baseline: \
                                 alone {alone_metrics:?}, multi {:?}",
                                outcome.metrics
                            ),
                        );
                    }
                }
                Some(report)
            }
            Err(p) => {
                engine_clean = false;
                diverge("multi:engine", DivergenceKind::Crash, p);
                None
            }
        };
        // Parallel-pump leg: the same predicates fanned out by the
        // sharded parallel pump, when the case drew `pump_parallel` (or
        // `--pump-parallel` forced it). The whole report — every verdict,
        // every `DetectionMetrics`, the engine counters — must be
        // bit-identical to the serial engine the offline leg just vetted.
        if engine_clean && (case.pump_parallel || opts.force_pump_parallel) {
            if let Some(serial) = &serial_report {
                match guarded(|| {
                    run_multi_offline_with(computation, &predicates, PUMP_PARALLEL_WORKERS)
                }) {
                    Ok(par) => {
                        if par.stats != serial.stats {
                            diverge(
                                "multi:pump-par",
                                DivergenceKind::Metrics,
                                format!(
                                    "parallel-pump engine counters diverged: serial {:?}, \
                                     parallel {:?}",
                                    serial.stats, par.stats
                                ),
                            );
                        }
                        for (p, s) in par.outcomes.iter().zip(&serial.outcomes) {
                            if p.verdict != s.verdict {
                                diverge(
                                    &format!("multi:pump-par#{}", s.id),
                                    DivergenceKind::Verdict,
                                    format!("serial {}, parallel {}", s.verdict, p.verdict),
                                );
                            } else if p.metrics != s.metrics {
                                diverge(
                                    &format!("multi:pump-par#{}", s.id),
                                    DivergenceKind::Metrics,
                                    "parallel-pump metrics diverged from the serial pump's"
                                        .to_string(),
                                );
                            }
                        }
                    }
                    Err(p) => diverge("multi:pump-par", DivergenceKind::Crash, p),
                }
            }
        }
        // Socket leg: the same predicates through loopback peers, when
        // the case drew net (or `--multi` forced it). Pins the wire
        // against the engine the offline leg just vetted.
        if engine_clean && ((case.net && opts.include_net) || opts.force_multi) {
            let mut config = NetConfig::loopback().with_deadline(NET_DEADLINE);
            if let Some(f) = &case.fault {
                config = config.with_faults(f.clone());
            }
            if !(case.net_batch || opts.force_net_batch) {
                config = config.with_per_frame_writes();
            }
            if !(case.wire_v2 || opts.force_wire_v2) {
                config = config.with_wire_v1();
            }
            match guarded(|| run_multi_net(computation, &predicates, config)) {
                Ok(net) => {
                    for outcome in &net.report.outcomes {
                        let session_truth = annotated
                            .first_satisfying_cut(&outcome.wcp)
                            .map(|c| outcome.wcp.project(&c));
                        let got = match &outcome.verdict {
                            SessionVerdict::Detected(g) => Some(g.clone()),
                            SessionVerdict::Impossible => None,
                        };
                        if got != session_truth {
                            diverge(
                                &format!("multi:net#{}", outcome.id),
                                DivergenceKind::Verdict,
                                format!(
                                    "expected {}, got {}",
                                    fmt_proj(&session_truth),
                                    fmt_proj(&got)
                                ),
                            );
                        } else if net.report.wire_verdicts.get(&outcome.id)
                            != Some(&outcome.verdict.cut().map(<[u64]>::to_vec))
                        {
                            diverge(
                                &format!("multi:net#{}", outcome.id),
                                DivergenceKind::Verdict,
                                "controller saw a different verdict on the wire".to_string(),
                            );
                        } else {
                            let (_, alone_metrics) = run_single_offline(computation, &outcome.wcp);
                            if outcome.metrics != alone_metrics {
                                diverge(
                                    &format!("multi:net#{}", outcome.id),
                                    DivergenceKind::Metrics,
                                    "socket session metrics diverged from the alone baseline"
                                        .to_string(),
                                );
                            }
                        }
                    }
                }
                Err(p) => diverge("multi:net", DivergenceKind::Crash, p),
            }
        }
    }

    // ---- real-socket loopback peers (optional, slow) -------------------
    if case.net && opts.include_net {
        let net_config = || {
            let mut c = NetConfig::loopback().with_deadline(NET_DEADLINE);
            if let Some(f) = &case.fault {
                c = c.with_faults(f.clone());
            }
            if !(case.net_batch || opts.force_net_batch) {
                c = c.with_per_frame_writes();
            }
            if !(case.wire_v2 || opts.force_wire_v2) {
                c = c.with_wire_v1();
            }
            c
        };
        match guarded(|| {
            run_vc_token_net(computation, &wcp, net_config())
                .report
                .detection
        }) {
            Ok(detection) => {
                let got = detection.cut().map(|c| wcp.project(c));
                if got != truth {
                    diverge(
                        "net:vc-token",
                        DivergenceKind::Verdict,
                        format!("expected {}, got {}", fmt_proj(&truth), fmt_proj(&got)),
                    );
                }
            }
            Err(p) => diverge("net:vc-token", DivergenceKind::Crash, p),
        }
        match guarded(|| {
            run_direct_net(computation, &wcp, false, net_config())
                .report
                .detection
        }) {
            Ok(detection) => {
                let got = detection.cut().map(|c| wcp.project(c));
                if got != truth {
                    diverge(
                        "net:direct",
                        DivergenceKind::Verdict,
                        format!("expected {}, got {}", fmt_proj(&truth), fmt_proj(&got)),
                    );
                }
            }
            Err(p) => diverge("net:direct", DivergenceKind::Crash, p),
        }
    }

    out
}

/// What a full streaming drive ended with.
struct StreamingOutcome {
    /// The detected projection, if any.
    detected: Option<Vec<u64>>,
    /// Whether the checker reached a terminal verdict (`Detected` or
    /// `Impossible`) rather than hanging in `Pending` after full close.
    settled: bool,
    /// A per-operation contract breach: `close()` on a position that never
    /// had (and never will have) a snapshot must report `Impossible` on
    /// that very call, not linger `Pending` until a later operation.
    contract_violation: Option<String>,
}

/// Drives the [`StreamingChecker`] with the case's seeded interleave:
/// snapshots are pushed in a random cross-position merge (respecting each
/// position's queue order), and positions are closed in shuffled order as
/// their queues drain — closing early-dry positions first, which is
/// exactly the ordering that exposed the close-order bugs.
fn run_streaming(
    case: &FuzzCase,
    annotated: &AnnotatedComputation<'_>,
    wcp: &Wcp,
) -> StreamingOutcome {
    let queues = vc_snapshot_queues(annotated, wcp);
    let n = wcp.n();
    let mut rng = Rng::seed_from_u64(case.stream_seed);
    let mut checker = StreamingChecker::new(n);

    // Close order: positions with empty queues may close before any push.
    let mut close_order: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut close_order);

    let mut next: Vec<usize> = vec![0; n];
    let mut closed = vec![false; n];
    let mut detected: Option<Vec<u64>> = None;
    let mut settled = false;
    let mut contract_violation: Option<String> = None;

    // Interleave: close a random pre-drained position a third of the time,
    // otherwise push the head snapshot of a random position with pending
    // snapshots. Track the first Detected verdict; Impossible is terminal.
    loop {
        let closable: Vec<usize> = close_order
            .iter()
            .copied()
            .filter(|&i| !closed[i] && next[i] == queues[i].len())
            .collect();
        let pushable: Vec<usize> = (0..n).filter(|&i| next[i] < queues[i].len()).collect();
        if pushable.is_empty() && closable.is_empty() {
            break;
        }
        let do_close = !closable.is_empty() && (pushable.is_empty() || rng.gen_bool(0.34));
        let status = if do_close {
            let pos = closable[rng.gen_range(0usize..closable.len())];
            closed[pos] = true;
            let status = checker.close(pos);
            if queues[pos].is_empty() && status == StreamingStatus::Pending {
                contract_violation.get_or_insert_with(|| {
                    format!(
                        "close({pos}) on a snapshot-less position returned Pending; \
                         Impossible must be reported immediately"
                    )
                });
            }
            status
        } else {
            let pos = pushable[rng.gen_range(0usize..pushable.len())];
            let snap = queues[pos][next[pos]].clone();
            next[pos] += 1;
            checker.push(pos, snap)
        };
        match status {
            StreamingStatus::Detected(cut) => {
                detected = Some(cut);
                settled = true;
                break;
            }
            StreamingStatus::AlreadyDetected | StreamingStatus::Impossible => {
                settled = true;
                break;
            }
            StreamingStatus::Pending => {}
        }
    }
    if detected.is_none() {
        if let Some(cut) = checker.detected() {
            detected = Some(cut.to_vec());
            settled = true;
        }
    }
    StreamingOutcome {
        detected,
        settled,
        contract_violation,
    }
}
