//! `online_detect`: one online detection over the `wcp-net` loopback
//! stack, wire v2, batching and the telemetry plane on. Exercises the
//! runner's set-up, the peer event loop, the reliability layer, the
//! vector-clock monitor, the exit latch and the telemetry sidecar: the
//! fixed per-run costs.

use std::sync::Arc;

use wcp_clocks::ProcessId;
use wcp_detect::online::run_vc_token;
use wcp_detect::{Detection, Detector, TokenDetector};
use wcp_net::{run_vc_token_net, NetConfig, TelemetryCollector};
use wcp_obs::rng::Rng;
use wcp_sim::SimConfig;
use wcp_trace::generate::{generate, GeneratorConfig};
use wcp_trace::{Computation, Wcp};

use crate::harness::{Layers, OpResult, Workload, OP_DEADLINE};
use crate::stats::Summary;
use crate::trace::Tracer;
use crate::workloads::NetTotals;

/// Application processes; every one of them sends over the wire.
const PROCESSES: usize = 16;
/// The predicate names the first two processes, so a run hosts two peers.
const SCOPE: usize = 2;
/// Events per process.
const EVENTS: usize = 600;
/// Computations, replayed in a fixed order.
const COMPUTATIONS: usize = 16;

/// One computation and its reference verdict.
struct Case {
    computation: Computation,
    reference: Detection,
}

/// Counts read from one traced op's report.
#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    token_hops: u64,
    control_messages: u64,
    events_collected: u64,
}

/// The `online_detect` workload.
pub struct OnlineDetect {
    wcp: Wcp,
    sim_seed: u64,
    cases: Vec<Case>,
    counts: Vec<Counts>,
    net: NetTotals,
    /// Telemetry collector of the last traced op, merged by the baseline.
    collector: Option<Arc<TelemetryCollector>>,
}

fn config() -> NetConfig {
    NetConfig::loopback()
        .with_telemetry()
        .with_deadline(OP_DEADLINE)
}

/// Generates the computations, each with a consistent all-true cut
/// planted at the end of the run. Scope process 1's predicate then holds
/// only in its planted interval (even computations: detectable, at the
/// very end) or never (odd ones: never true). Either way the run executes
/// every application event before it can answer, so both kinds cost the
/// same and differ only in the verdict. The reference is the simulator's
/// verdict, which must equal the offline token detector's.
pub fn setup(seed: u64, tr: &mut Tracer) -> OnlineDetect {
    let mut rng = Rng::seed_from_u64(seed);
    let wcp = Wcp::over_first(SCOPE);
    let sim_seed = rng.next_u64();
    let cases = (0..COMPUTATIONS)
        .map(|j| {
            let detectable = j % 2 == 0;
            let config = GeneratorConfig::new(PROCESSES, EVENTS)
                .with_seed(rng.next_u64())
                .with_predicate_density(0.2)
                .with_plant(1.0);
            let generated = tr.span("trace.generate", || generate(&config));
            let planted = generated.planted.expect("plant requested");
            let mut traces = generated.computation.traces().to_vec();
            let keep = planted[ProcessId::new(1)];
            for (k, flag) in traces[1].pred.iter_mut().enumerate() {
                *flag = detectable && k as u64 + 1 == keep;
            }
            let computation = Computation::from_traces(traces);
            let sim = run_vc_token(&computation, &wcp, SimConfig::seeded(sim_seed))
                .report
                .detection;
            let token = TokenDetector::new()
                .detect(&computation.annotate(), &wcp)
                .detection;
            assert_eq!(sim, token, "simulator and token detector disagree");
            assert_eq!(sim.is_detected(), detectable, "planted cut not found");
            Case {
                computation,
                reference: sim,
            }
        })
        .collect();
    OnlineDetect {
        wcp,
        sim_seed,
        cases,
        counts: Vec::new(),
        net: NetTotals::default(),
        collector: None,
    }
}

impl OnlineDetect {
    /// Replaces computation `i`'s reference with a wrong verdict.
    #[cfg(test)]
    fn plant_wrong_reference(&mut self, i: usize) {
        self.cases[i].reference = match self.cases[i].reference {
            Detection::Undetected => Detection::Detected {
                cut: wcp_clocks::Cut::new(PROCESSES),
            },
            Detection::Detected { .. } => Detection::Undetected,
        };
    }
}

impl Workload for OnlineDetect {
    fn pass_len(&self) -> usize {
        self.cases.len()
    }

    fn op(&mut self, i: u64, tr: &mut Tracer) -> OpResult {
        let case = &self.cases[i as usize % self.cases.len()];
        let net = tr.span("net.run", || {
            run_vc_token_net(&case.computation, &self.wcp, config())
        });
        let result = OpResult {
            events: case.computation.total_events() as u64,
            bytes: net.net.bytes_sent + net.net.telemetry_bytes,
            mismatch: (net.report.detection != case.reference).then(|| {
                format!(
                    "computation {}: net run says {}, reference {}",
                    i as usize % self.cases.len(),
                    net.report.detection,
                    case.reference
                )
            }),
        };
        if tr.enabled() {
            self.net.add(&net.net);
            self.counts.push(Counts {
                token_hops: net.report.metrics.token_hops,
                control_messages: net.report.metrics.control_messages,
                events_collected: net
                    .telemetry
                    .as_ref()
                    .map_or(0, |c| c.events_collected() as u64),
            });
            self.collector = net.telemetry;
        }
        result
    }

    fn baseline(&mut self, i: u64, tr: &mut Tracer) {
        let case = &self.cases[i as usize % self.cases.len()];
        if let Some(collector) = self.collector.take() {
            tr.span("telemetry.merge", || collector.merged());
        }
        tr.span("online.sim", || {
            run_vc_token(
                &case.computation,
                &self.wcp,
                SimConfig::seeded(self.sim_seed),
            )
        });
        let mut plain = config();
        plain.telemetry = false;
        tr.span("net.run_plain", || {
            run_vc_token_net(&case.computation, &self.wcp, plain)
        });
    }

    fn layers(&mut self, tr: &Tracer, ops: usize, out: &mut Layers) {
        out.set_span_median("net.run_ms", tr, "net.run", 1e6);
        out.set_span_median("online.sim_ms", tr, "online.sim", 1e6);
        out.set_span_median("telemetry.merge_ms", tr, "telemetry.merge", 1e6);
        let net = out.get("net.run_ms").unwrap_or(0.0);
        let sim = out.get("online.sim_ms").unwrap_or(0.0);
        out.set("online.wire_share", (net - sim) / net.max(1e-12), ops);
        let plain = Summary::of(&tr.durations_ns("net.run_plain")).p50 / 1e6;
        out.set("telemetry.overhead_ratio", net / plain.max(1e-12), ops);
        let n = self.counts.len();
        let median = |f: &dyn Fn(&Counts) -> u64| {
            Summary::of(&self.counts.iter().map(|c| f(c) as f64).collect::<Vec<_>>()).p50
        };
        out.set("online.token_hops", median(&|c| c.token_hops), n);
        out.set(
            "online.control_messages",
            median(&|c| c.control_messages),
            n,
        );
        out.set(
            "telemetry.events_collected",
            median(&|c| c.events_collected),
            n,
        );
        out.set(
            "telemetry.bytes",
            self.net.telemetry_bytes() as f64 / n.max(1) as f64,
            n,
        );
        self.net.report(ops, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::run_op;

    #[test]
    fn a_wrong_reference_is_a_failed_op_not_a_panic() {
        let mut w = setup(3, &mut Tracer::off());
        let mut tr = Tracer::off();
        assert_eq!(run_op(&mut w, 0, &mut tr).failure, None);
        assert_eq!(run_op(&mut w, 1, &mut tr).failure, None);
        w.plant_wrong_reference(1);
        let failed = run_op(&mut w, 1, &mut tr);
        assert!(failed.failure.unwrap().contains("reference"));
    }
}
