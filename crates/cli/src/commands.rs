//! The CLI commands. Each is a pure function from parsed arguments to the
//! stdout text, so the suite below tests the full surface without spawning
//! processes.

use std::fs;
use std::io::Write as _;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use wcp_clocks::ProcessId;
use wcp_detect::lower_bound::run_optimal_algorithm;
use wcp_detect::online::{run_direct, run_direct_recorded, run_vc_token, run_vc_token_recorded};
use wcp_detect::{
    audit_bounds, BoundLimits, CentralizedChecker, ChannelPredicate, ChannelTerm, Detection,
    DetectionReport, Detector, DirectDependenceDetector, Gcp, GcpChecker, LatticeDetector,
    MultiTokenDetector, ParallelDetector, TokenDetector,
};
use wcp_net::{
    run_direct_net, run_multi_net, run_vc_token_net, run_vc_token_net_observed,
    run_vc_token_net_recorded, serve_multi_peer, serve_vc_peer, serve_vc_peer_observed, NetConfig,
    NetReport, NetStats, TelemetryCollector, TransportKind,
};
use wcp_obs::json::{FromJson, Json, ToJson};
use wcp_obs::{jsonl, NullRecorder, Recorder, RingRecorder, RunReport};
use wcp_session::{run_multi_sim, PredicateOutcome};
use wcp_sim::{FaultConfig, SimConfig};
use wcp_trace::channel::ChannelId;
use wcp_trace::generate::{generate as generate_workload, GeneratorConfig, Topology};
use wcp_trace::lattice::LatticeExplorer;
use wcp_trace::render::{self, DiagramOptions};
use wcp_trace::{Computation, Wcp};

use crate::args::Args;
use crate::CliError;

fn load(path: &str) -> Result<Computation, CliError> {
    let data = fs::read_to_string(path)
        .map_err(|e| CliError::runtime(format!("cannot read {path}: {e}")))?;
    let computation = Computation::from_json(&Json::parse(&data)?)?;
    computation
        .validate()
        .map_err(|e| CliError::runtime(format!("{path} is not a valid computation: {e}")))?;
    Ok(computation)
}

fn parse_scope(args: &Args, computation: &Computation) -> Result<Wcp, CliError> {
    match args.get("scope") {
        None => Ok(Wcp::over_all(computation)),
        Some(spec) => {
            let mut ids = Vec::new();
            for part in spec.split(',') {
                let idx: u32 = part
                    .trim()
                    .parse()
                    .map_err(|_| CliError::usage(format!("--scope: bad process id `{part}`")))?;
                if idx as usize >= computation.process_count() {
                    return Err(CliError::usage(format!(
                        "--scope: process {idx} out of range (N = {})",
                        computation.process_count()
                    )));
                }
                ids.push(ProcessId::new(idx));
            }
            if ids.is_empty() {
                return Err(CliError::usage("--scope: empty"));
            }
            Ok(Wcp::over(ids))
        }
    }
}

/// `wcp generate` — write a seeded random workload to a JSON file.
pub fn generate_cmd(args: &Args) -> Result<String, CliError> {
    let processes: usize = args.require("processes")?;
    let events: usize = args.require("events")?;
    let seed: u64 = args.get_or("seed", 0)?;
    let density: f64 = args.get_or("density", 0.1)?;
    let out: String = args.require("o")?;

    let mut cfg = GeneratorConfig::new(processes, events)
        .with_seed(seed)
        .with_predicate_density(density);
    if let Some(f) = args.get("plant") {
        let f: f64 = f
            .parse()
            .map_err(|_| CliError::usage("--plant: expected a fraction"))?;
        cfg = cfg.with_plant(f);
    }
    if let Some(topo) = args.get("topology") {
        cfg = cfg.with_topology(parse_topology(topo)?);
    }
    let generated = generate_workload(&cfg);
    fs::write(&out, generated.computation.to_json().pretty())?;
    let mut msg = format!("wrote {out}: {}", generated.computation.stats());
    if let Some(cut) = generated.planted {
        msg.push_str(&format!("\nplanted satisfying cut at {cut}"));
    }
    Ok(msg)
}

fn parse_topology(spec: &str) -> Result<Topology, CliError> {
    if spec == "uniform" {
        return Ok(Topology::Uniform);
    }
    if spec == "ring" {
        return Ok(Topology::Ring);
    }
    if let Some(k) = spec.strip_prefix("cs:") {
        let servers = k
            .parse()
            .map_err(|_| CliError::usage("--topology cs:K needs a count"))?;
        return Ok(Topology::ClientServer { servers });
    }
    if let Some(k) = spec.strip_prefix("nb:") {
        let degree = k
            .parse()
            .map_err(|_| CliError::usage("--topology nb:K needs a degree"))?;
        return Ok(Topology::Neighbors { degree });
    }
    Err(CliError::usage(format!("unknown topology `{spec}`")))
}

/// `wcp info` — validate and summarize a trace file.
pub fn info(raw: &[String]) -> Result<String, CliError> {
    let args = Args::parse(raw)?;
    let path = args.require_positional(0, "FILE")?;
    let computation = load(path)?;
    let stats = computation.stats();
    let mut out = format!("{path}: valid\n{stats}\n");
    let annotated = computation.annotate();
    for (p, _) in computation.iter() {
        out.push_str(&format!(
            "  {p}: {} events, {} true intervals\n",
            computation.process(p).event_count(),
            annotated.true_intervals(p).len()
        ));
    }
    Ok(out)
}

/// `wcp generate` entry point.
pub fn generate(raw: &[String]) -> Result<String, CliError> {
    generate_cmd(&Args::parse(raw)?)
}

/// Parses a `parallel` / `parallel:T` spec into a worker count.
fn parse_parallel_threads(spec: &str) -> Result<Option<usize>, CliError> {
    if spec == "parallel" {
        return Ok(Some(1));
    }
    match spec.strip_prefix("parallel:") {
        Some(t) => {
            let threads: usize =
                t.parse().ok().filter(|&t| t >= 1).ok_or_else(|| {
                    CliError::usage("--algorithm parallel:T needs a thread count")
                })?;
            Ok(Some(threads))
        }
        None => Ok(None),
    }
}

fn parse_detector(spec: &str) -> Result<Box<dyn Detector>, CliError> {
    Ok(match spec {
        "token" => Box::new(TokenDetector::new()),
        "checker" => Box::new(CentralizedChecker::new()),
        "direct" => Box::new(DirectDependenceDetector::new()),
        "lattice" => Box::new(LatticeDetector::new()),
        other => {
            if let Some(g) = other.strip_prefix("multi:") {
                let groups: usize = g
                    .parse()
                    .map_err(|_| CliError::usage("--algorithm multi:G needs a group count"))?;
                Box::new(MultiTokenDetector::new(groups))
            } else if let Some(threads) = parse_parallel_threads(other)? {
                Box::new(ParallelDetector::new().with_threads(threads))
            } else {
                return Err(CliError::usage(format!(
                    "unknown algorithm `{other}` \
                     (token|checker|direct|lattice|multi:G|parallel[:T])"
                )));
            }
        }
    })
}

/// Like [`parse_detector`], but attaches `recorder` so the run streams
/// [`wcp_obs::TraceEvent`]s.
fn parse_recorded_detector(
    spec: &str,
    recorder: Arc<dyn Recorder>,
) -> Result<Box<dyn Detector>, CliError> {
    Ok(match spec {
        "token" => Box::new(TokenDetector::new().with_recorder(recorder)),
        "checker" => Box::new(CentralizedChecker::new().with_recorder(recorder)),
        "direct" => Box::new(DirectDependenceDetector::new().with_recorder(recorder)),
        "lattice" => Box::new(LatticeDetector::new().with_recorder(recorder)),
        other => {
            if let Some(g) = other.strip_prefix("multi:") {
                let groups: usize = g
                    .parse()
                    .map_err(|_| CliError::usage("--algorithm multi:G needs a group count"))?;
                Box::new(MultiTokenDetector::new(groups).with_recorder(recorder))
            } else if let Some(threads) = parse_parallel_threads(other)? {
                Box::new(
                    ParallelDetector::new()
                        .with_threads(threads)
                        .with_recorder(recorder),
                )
            } else {
                return Err(CliError::usage(format!(
                    "unknown algorithm `{other}` \
                     (token|checker|direct|lattice|multi:G|parallel[:T])"
                )));
            }
        }
    })
}

fn describe(report: &DetectionReport, json: bool) -> Result<String, CliError> {
    if json {
        return Ok(report.to_json().pretty());
    }
    Ok(format!(
        "{}cost: {}\n",
        verdict_line(&report.detection),
        report.metrics
    ))
}

fn verdict_line(detection: &Detection) -> String {
    match detection {
        Detection::Detected { cut } => format!("DETECTED at cut {cut}\n"),
        Detection::Undetected => {
            "UNDETECTED: the predicate never held on a consistent cut\n".to_string()
        }
    }
}

/// `wcp detect` — run a WCP detector on a trace file.
pub fn detect(raw: &[String]) -> Result<String, CliError> {
    let args = Args::parse(raw)?;
    let path = args.require_positional(0, "FILE")?;
    let computation = load(path)?;
    let wcp = parse_scope(&args, &computation)?;
    let detector = parse_detector(args.get("algorithm").unwrap_or("token"))?;

    let annotated = computation.annotate();
    let report = detector.detect(&annotated, &wcp);
    let mut out = format!("algorithm: {}\npredicate: {wcp}\n", detector.name());
    out.push_str(&describe(&report, args.switch("json"))?);
    if let Some(slice_path) = args.get("slice") {
        if let Detection::Detected { cut } = &report.detection {
            // Scope-only cuts (zero entries elsewhere) are completed to the
            // least consistent extension before slicing.
            let full = if cut.is_complete() {
                cut.clone()
            } else {
                let states: Vec<_> = wcp
                    .scope()
                    .iter()
                    .map(|&p| {
                        cut.get(p)
                            .filter(|&k| k >= 1)
                            .map(|k| wcp_clocks::StateId::new(p, k))
                            .ok_or_else(|| {
                                CliError::runtime(format!(
                                    "detected cut {cut} selects no state for scope process {p}; \
                                     cannot slice"
                                ))
                            })
                    })
                    .collect::<Result<Vec<_>, CliError>>()?;
                annotated
                    .least_consistent_extension(&states)
                    .ok_or_else(|| CliError::runtime("no consistent extension for the cut"))?
            };
            let sliced = computation.truncate_at(&full);
            fs::write(slice_path, sliced.to_json().pretty())?;
            out.push_str(&format!(
                "sliced trace (prefix at {full}) written to {slice_path}\n"
            ));
        } else {
            out.push_str("no detection: nothing to slice\n");
        }
    }
    if args.switch("diagram") {
        let options = match &report.detection {
            Detection::Detected { cut } => DiagramOptions::with_cut(cut.clone()),
            Detection::Undetected => DiagramOptions {
                cut: None,
                show_predicates: true,
            },
        };
        out.push('\n');
        out.push_str(&render::ascii(&computation, &options));
    }
    Ok(out)
}

/// `wcp trace` — run an offline detector with a recorder attached and
/// write the event stream as JSONL.
pub fn trace(raw: &[String]) -> Result<String, CliError> {
    let args = Args::parse(raw)?;
    let path = args.require_positional(0, "FILE")?;
    let computation = load(path)?;
    let wcp = parse_scope(&args, &computation)?;
    let events_path: String = args.require("events")?;
    let capacity: usize = args.get_or("capacity", 1 << 20)?;

    let ring = Arc::new(RingRecorder::new(capacity));
    let detector = parse_recorded_detector(args.get("algorithm").unwrap_or("token"), ring.clone())?;
    let annotated = computation.annotate();
    let report = detector.detect(&annotated, &wcp);

    let events = ring.events();
    fs::write(&events_path, jsonl::to_string(&events))?;
    let mut out = format!(
        "algorithm: {}\npredicate: {wcp}\nwrote {} events to {events_path}",
        detector.name(),
        events.len()
    );
    if ring.dropped() > 0 {
        out.push_str(&format!(
            " ({} older events dropped; raise --capacity)",
            ring.dropped()
        ));
    }
    out.push('\n');
    out.push_str(&describe(&report, args.switch("json"))?);
    Ok(out)
}

/// `wcp stats` — run the paper's two online algorithms (Section 3 token,
/// Section 4 direct dependence) over the simulated network with recorders
/// attached and print their [`RunReport`]s: per-monitor token-hop counts,
/// queue-delay histograms and the candidate-elimination timeline.
pub fn stats(raw: &[String]) -> Result<String, CliError> {
    let args = Args::parse(raw)?;
    let path = args.require_positional(0, "FILE")?;
    let computation = load(path)?;
    let wcp = parse_scope(&args, &computation)?;
    let seed: u64 = args.get_or("seed", 0)?;
    let capacity: usize = args.get_or("capacity", 1 << 20)?;

    let mut out = String::new();
    let mut section = |title: &str, run: &dyn Fn(Arc<RingRecorder>) -> u64| {
        let ring = Arc::new(RingRecorder::new(capacity));
        let latency = run(ring.clone());
        out.push_str(&format!("== {title} (sim seed {seed}) ==\n"));
        if ring.dropped() > 0 {
            out.push_str(&format!(
                "({} oldest events dropped; raise --capacity)\n",
                ring.dropped()
            ));
        }
        out.push_str(&RunReport::from_events(&ring.events()).render());
        out.push_str(&format!("detection latency: {latency} ticks\n\n"));
    };
    section("section 3: vector-clock token algorithm", &|ring| {
        run_vc_token_recorded(&computation, &wcp, SimConfig::seeded(seed), ring)
            .outcome
            .time
            .0
    });
    section("section 4: direct-dependence algorithm", &|ring| {
        run_direct_recorded(&computation, &wcp, SimConfig::seeded(seed), false, ring)
            .outcome
            .time
            .0
    });
    // Multi-tenant section: the same trace served to a handful of
    // sessions with diverse scopes through the shared session layer,
    // surfacing the per-session counters the single-predicate runs
    // above have no notion of.
    let n = computation.process_count();
    let sessions = 2 * n;
    let multi = run_multi_net(
        &computation,
        &derived_predicates(n, sessions),
        NetConfig::loopback(),
    );
    out.push_str(&format!(
        "== multi-tenant session layer (loopback, {sessions} sessions) ==\n"
    ));
    out.push_str(&format!(
        "sessions      : {} active at end of run\n",
        multi.report.stats.sessions_active
    ));
    out.push_str(&format!(
        "routing       : {} routed events, {} detections\n",
        multi.report.stats.routed_events, multi.report.stats.detections
    ));
    out.push_str(&format!(
        "shared store  : {} B of snapshots ({:.1} B/session)\n",
        multi.report.stored_bytes,
        multi.report.stored_bytes as f64 / sessions as f64
    ));
    // Wire section: the same token run over the in-process loopback
    // transport, surfacing the transport-layer counters the simulator has
    // no notion of — batch coalescing, ready-queue watermark, buffer-pool
    // reuse. Every one of them depends on how the peers' threads were
    // scheduled (even the frame counts: the application tail races the
    // shutdown broadcast), so the section goes last, under the
    // scheduling-dependent header.
    let net = run_vc_token_net_recorded(
        &computation,
        &wcp,
        NetConfig::loopback(),
        Arc::new(NullRecorder),
    )
    .net;
    out.push_str(&format!("\n{SCHEDULING_DEPENDENT}\n"));
    out.push_str("-- wire transport (loopback, batched writes) --\n");
    out.push_str(&format!(
        "frames        : {} sent ({} B) / {} received ({} B)\n",
        net.frames_sent, net.bytes_sent, net.frames_received, net.bytes_received
    ));
    out.push_str(&format!(
        "recovery      : {} retransmits, {} reconnects, {} dups dropped, {} reordered\n",
        net.retransmits, net.reconnects, net.duplicates_dropped, net.reordered
    ));
    out.push_str(&format!(
        "batch flushes : {} (max batch {} B)\n",
        net.batch_flushes, net.max_batch_bytes
    ));
    out.push_str(&format!("ready depth   : ≤ {}\n", net.max_ready_depth));
    out.push_str(&format!(
        "buffer pool   : {} allocs / {} reuses\n",
        net.pool_allocs, net.pool_reuses
    ));
    out.push_str(&format!(
        "acks          : {} out / {} in\n",
        net.acks_sent, net.acks_received
    ));
    // Wire-v2 compression: actual bytes against what the same frames
    // would have cost under v1 full-width clock bodies (paper units are
    // unaffected — DetectionMetrics always counts `wire_size()`).
    let ratio = net.bytes_sent as f64 / net.wire_bytes_v1_equiv.max(1) as f64;
    out.push_str(&format!(
        "wire v2       : {} B sent vs {} B v1-equiv ({:.2}× ratio)\n",
        net.bytes_sent, net.wire_bytes_v1_equiv, ratio
    ));
    out.push_str(&format!(
        "clock chains  : {} keyframes / {} deltas\n",
        net.keyframes_sent, net.delta_frames_sent
    ));
    Ok(out.trim_end().to_string() + "\n")
}

fn parse_channel_term(spec: &str) -> Result<ChannelTerm, CliError> {
    let usage = || {
        CliError::usage(format!(
            "--channel: `{spec}` (want FROM-TO:empty|atmost:K|atleast:K)"
        ))
    };
    let (endpoints, predicate) = spec.split_once(':').ok_or_else(usage)?;
    let (from, to) = endpoints.split_once('-').ok_or_else(usage)?;
    let from: u32 = from.parse().map_err(|_| usage())?;
    let to: u32 = to.parse().map_err(|_| usage())?;
    let predicate = match predicate {
        "empty" => ChannelPredicate::Empty,
        other => {
            if let Some(k) = other.strip_prefix("atmost:") {
                ChannelPredicate::AtMost(k.parse().map_err(|_| usage())?)
            } else if let Some(k) = other.strip_prefix("atleast:") {
                ChannelPredicate::AtLeast(k.parse().map_err(|_| usage())?)
            } else {
                return Err(usage());
            }
        }
    };
    Ok(ChannelTerm {
        channel: ChannelId::new(ProcessId::new(from), ProcessId::new(to)),
        predicate,
    })
}

/// `wcp gcp` — detect a generalized conjunctive predicate with channel
/// terms.
pub fn gcp(raw: &[String]) -> Result<String, CliError> {
    let args = Args::parse(raw)?;
    let path = args.require_positional(0, "FILE")?;
    let computation = load(path)?;
    let wcp = parse_scope(&args, &computation)?;
    let mut terms = Vec::new();
    for spec in args.get_all("channel") {
        terms.push(parse_channel_term(spec)?);
    }
    for term in &terms {
        if !wcp.contains(term.channel.from) || !wcp.contains(term.channel.to) {
            return Err(CliError::usage(format!(
                "--channel {}: endpoints must be inside the scope",
                term.channel
            )));
        }
    }
    let gcp = Gcp::new(wcp, terms);
    let annotated = computation.annotate();
    let report = GcpChecker::new().detect(&annotated, &gcp);
    let mut out = format!("predicate: {gcp}\n");
    out.push_str(&describe(&report, args.switch("json"))?);
    Ok(out)
}

/// `wcp render` — print a space-time diagram (text or Graphviz DOT).
pub fn render(raw: &[String]) -> Result<String, CliError> {
    let args = Args::parse(raw)?;
    let path = args.require_positional(0, "FILE")?;
    let computation = load(path)?;
    // `--scope` is advertised in USAGE; out-of-range ids must be a proper
    // usage error, not silently ignored.
    parse_scope(&args, &computation)?;
    let options = DiagramOptions {
        cut: None,
        show_predicates: true,
    };
    if args.switch("dot") {
        Ok(render::dot(&computation, &options))
    } else {
        Ok(render::ascii(&computation, &options))
    }
}

/// `wcp lattice` — explore the global-state lattice of a trace.
pub fn lattice(raw: &[String]) -> Result<String, CliError> {
    let args = Args::parse(raw)?;
    let path = args.require_positional(0, "FILE")?;
    let computation = load(path)?;
    let wcp = parse_scope(&args, &computation)?;
    let max_states: usize = args.get_or("max-states", 1_000_000)?;
    let explorer = LatticeExplorer::new(&computation);
    let mut out = String::new();
    match explorer.count_states(max_states) {
        Ok(count) => out.push_str(&format!("consistent global states: {count}\n")),
        Err(e) => out.push_str(&format!("consistent global states: {e}\n")),
    }
    match explorer.first_satisfying_counted(&wcp, max_states) {
        Ok((Some(cut), visited)) => out.push_str(&format!(
            "first cut satisfying {wcp}: {cut} (after visiting {visited} states)\n"
        )),
        Ok((None, visited)) => out.push_str(&format!(
            "no consistent cut satisfies {wcp} (visited {visited} states)\n"
        )),
        Err(e) => out.push_str(&format!("search truncated: {e}\n")),
    }
    Ok(out)
}

fn parse_fault_config(args: &Args) -> Result<Option<FaultConfig>, CliError> {
    let faults = FaultConfig::seeded(args.get_or("fault-seed", 0)?)
        .with_drop(args.get_or("drop", 0.0)?)
        .with_delay(args.get_or("delay", 0.0)?)
        .with_duplicate(args.get_or("duplicate", 0.0)?)
        .with_reorder(args.get_or("reorder", 0.0)?)
        .with_reset(args.get_or("reset", 0.0)?);
    for (name, p) in [
        ("drop", faults.drop),
        ("delay", faults.delay),
        ("duplicate", faults.duplicate),
        ("reorder", faults.reorder),
        ("reset", faults.reset),
    ] {
        if !(0.0..=1.0).contains(&p) {
            return Err(CliError::usage(format!(
                "--{name}: probability {p} outside [0, 1]"
            )));
        }
    }
    Ok((!faults.is_quiet()).then_some(faults))
}

/// `wcp net-demo` — run a detection over real transport (in-process peers
/// over TCP localhost or loopback channels, optionally with injected
/// faults) and cross-check the verdict against the simulator.
pub fn net_demo(raw: &[String]) -> Result<String, CliError> {
    let args = Args::parse(raw)?;
    let path = args.require_positional(0, "FILE")?;
    let computation = load(path)?;
    let wcp = parse_scope(&args, &computation)?;
    let algorithm = args.get("algorithm").unwrap_or("token");
    let transport = match args.get("transport").unwrap_or("tcp") {
        "tcp" => TransportKind::Tcp,
        "loopback" => TransportKind::Loopback,
        other => {
            return Err(CliError::usage(format!(
                "--transport: `{other}` (want tcp|loopback)"
            )))
        }
    };
    let mut config = NetConfig {
        transport,
        ..NetConfig::default()
    }
    .with_deadline(Duration::from_secs(args.get_or("deadline", 60)?));
    if let Some(faults) = parse_fault_config(&args)? {
        config = config.with_faults(faults);
    }

    let (net, sim): (NetReport, DetectionReport) = match algorithm {
        "token" => (
            run_vc_token_net(&computation, &wcp, config),
            run_vc_token(&computation, &wcp, SimConfig::seeded(0)).report,
        ),
        "direct" => (
            run_direct_net(&computation, &wcp, false, config),
            run_direct(&computation, &wcp, SimConfig::seeded(0), false).report,
        ),
        other => {
            return Err(CliError::usage(format!(
                "--algorithm: `{other}` (want token|direct)"
            )))
        }
    };

    let transport_name = match transport {
        TransportKind::Tcp => "tcp (localhost sockets)",
        TransportKind::Loopback => "loopback (in-memory)",
    };
    let mut out = format!("algorithm: {algorithm} over {transport_name}\npredicate: {wcp}\n");
    if let Some(faults) = config.faults {
        out.push_str(&format!(
            "faults: drop {} delay {} duplicate {} reorder {} reset {} (seed {})\n",
            faults.drop, faults.delay, faults.duplicate, faults.reorder, faults.reset, faults.seed
        ));
    }
    if net.report.detection != sim.detection {
        return Err(CliError::runtime(format!(
            "net verdict {:?} disagrees with simulator verdict {:?}",
            net.report.detection, sim.detection
        )));
    }
    out.push_str(&verdict_line(&net.report.detection));
    out.push_str("simulator cross-check: identical verdict\n");
    // Peers stop at the verdict, and how many snapshots and frames were
    // sent before then depends on thread timing: the cost line and every
    // wire counter go under the header.
    out.push_str(&format!("{SCHEDULING_DEPENDENT}\n"));
    if args.switch("json") {
        out.push_str(&describe(&net.report, true)?);
    } else {
        out.push_str(&format!("cost: {}\n", net.report.metrics));
    }
    out.push_str(&format!("wire: {}\n", net.net));
    Ok(out)
}

/// `k` deterministic predicates with diverse scopes over `n` processes:
/// predicate `j` spans `1 + (j mod n)` processes starting at
/// `3·j mod n` — singletons, strided bands and full-width scopes all
/// appear, so the demo exercises routing fan-out, not one shared scope.
fn derived_predicates(n: usize, k: usize) -> Vec<Wcp> {
    (0..k)
        .map(|j| {
            let width = 1 + (j % n);
            Wcp::over((0..width).map(|i| ProcessId::new(((j * 3 + i) % n) as u32)))
        })
        .collect()
}

/// One row of a per-predicate verdict table.
fn outcome_row(outcome: &PredicateOutcome) -> String {
    let verdict = match outcome.verdict.cut() {
        Some(cut) => format!(
            "DETECTED at [{}]",
            cut.iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(", ")
        ),
        None => "impossible".to_string(),
    };
    format!("  {:>3} | {} | {verdict}\n", outcome.id, outcome.wcp)
}

/// `wcp multi-demo` — run `--predicates K` detection sessions with
/// diverse scopes over one shared event stream through the socket-backed
/// multi-tenant service ([`run_multi_net`]), print the per-predicate
/// verdict table and session counters, and cross-check every verdict and
/// every [`DetectionMetrics`](wcp_detect::DetectionMetrics) against the
/// simulator runner — Theorem 3.2 says transport must not matter.
/// `--pump-threads T` fans deliveries out over `T` sharded pump workers
/// (bit-identical to the serial pump either way).
pub fn multi_demo(raw: &[String]) -> Result<String, CliError> {
    let args = Args::parse(raw)?;
    let path = args.require_positional(0, "FILE")?;
    let computation = load(path)?;
    let n = computation.process_count();
    let k: usize = args.get_or("predicates", 8)?;
    if k == 0 {
        return Err(CliError::usage("multi-demo needs --predicates ≥ 1"));
    }
    let (transport, transport_name) = parse_transport(&args)?;
    let mut config = NetConfig {
        transport,
        ..NetConfig::default()
    }
    .with_deadline(Duration::from_secs(args.get_or("deadline", 60)?))
    .with_pump_threads(args.get_or("pump-threads", 1)?);
    if let Some(faults) = parse_fault_config(&args)? {
        config = config.with_faults(faults);
    }
    let predicates = derived_predicates(n, k);
    let net = run_multi_net(&computation, &predicates, config);
    let sim = run_multi_sim(&computation, &predicates, args.get_or("seed", 0)?);

    let mut out =
        format!("multi-tenant demo over {transport_name}\nprocesses: {n}, sessions: {k}\n");
    if let Some(faults) = config.faults {
        out.push_str(&format!(
            "faults: drop {} delay {} duplicate {} reorder {} reset {} (seed {})\n",
            faults.drop, faults.delay, faults.duplicate, faults.reorder, faults.reset, faults.seed
        ));
    }
    out.push_str("   id | scope | verdict\n");
    for outcome in &net.report.outcomes {
        out.push_str(&outcome_row(outcome));
    }
    let stats = &net.report.stats;
    out.push_str(&format!(
        "sessions: {} active, {} routed events, {} detections\n",
        stats.sessions_active, stats.routed_events, stats.detections
    ));
    out.push_str(&format!(
        "store: {} B shared snapshots ({:.1} B/session)\n",
        net.report.stored_bytes,
        net.report.stored_bytes as f64 / k as f64
    ));
    out.push_str(&format!("wire: {}\n", wire_counts(&net.net)));
    for (socket, simulated) in net.report.outcomes.iter().zip(&sim.outcomes) {
        if socket.verdict != simulated.verdict {
            return Err(CliError::runtime(format!(
                "session {}: socket verdict {:?} disagrees with simulator verdict {:?}",
                socket.id, socket.verdict, simulated.verdict
            )));
        }
        if socket.metrics != simulated.metrics {
            return Err(CliError::runtime(format!(
                "session {}: socket metrics diverge from the simulator's",
                socket.id
            )));
        }
    }
    out.push_str("simulator cross-check: identical verdicts and metrics\n");
    out.push_str(&format!(
        "{SCHEDULING_DEPENDENT}\nwire timing: {}\n",
        wire_timing(&net.net)
    ));
    Ok(out)
}

/// Header of the last part of a report: the counters below it depend on
/// how the OS scheduled the peers' threads and vary from run to run.
/// Everything above it is a function of the input alone.
const SCHEDULING_DEPENDENT: &str = "== scheduling-dependent (thread timing; varies run to run) ==";

/// The wire counters of a multi-tenant run that the input alone
/// determines: frames sent, their v1-equivalent size, and the
/// session-layer mirrors.
fn wire_counts(net: &NetStats) -> String {
    format!(
        "{} frames sent ({} B v1-equiv), \
         multi {} sessions / {} routed / {} detections",
        net.frames_sent,
        net.wire_bytes_v1_equiv,
        net.multi_sessions_active,
        net.multi_routed_events,
        net.multi_detections
    )
}

/// The wire counters that depend on thread timing: frames received (the
/// application tail races the shutdown broadcast), actual bytes and the
/// wire-v2 keyframe/delta split (both vary between TCP runs of one
/// input), how frames were coalesced into writes, ready-queue depth,
/// buffer recycling (split and total both move with the flush count), and
/// the timer-driven recovery, ack and telemetry traffic.
fn wire_timing(net: &NetStats) -> String {
    format!(
        "{} frames / {} B received, {} B sent ({} keyframes / {} deltas), \
         {} flushes (max {} B), ready depth ≤ {}, pool {} allocs / {} reuses, \
         {} retransmits, {} reconnects, {} dups dropped, {} reordered, \
         {} acks out / {} in, telemetry {} out / {} in ({} B)",
        net.frames_received,
        net.bytes_received,
        net.bytes_sent,
        net.keyframes_sent,
        net.delta_frames_sent,
        net.batch_flushes,
        net.max_batch_bytes,
        net.max_ready_depth,
        net.pool_allocs,
        net.pool_reuses,
        net.retransmits,
        net.reconnects,
        net.duplicates_dropped,
        net.reordered,
        net.acks_sent,
        net.acks_received,
        net.telemetry_sent,
        net.telemetry_received,
        net.telemetry_bytes
    )
}

/// Parses `--peer I --addrs HOST:PORT,...` against a session of `n`
/// peers (shared by `serve`, `top` and `obs-report`).
fn parse_peer_addrs(args: &Args, n: usize) -> Result<(usize, Vec<SocketAddr>), CliError> {
    let peer: usize = args.require("peer")?;
    let addrs_raw = args
        .get("addrs")
        .ok_or_else(|| CliError::usage("missing --addrs HOST:PORT,HOST:PORT,..."))?;
    let addrs = addrs_raw
        .split(',')
        .map(|a| {
            a.trim()
                .parse::<SocketAddr>()
                .map_err(|_| CliError::usage(format!("--addrs: bad address `{a}`")))
        })
        .collect::<Result<Vec<_>, CliError>>()?;
    if addrs.len() != n {
        return Err(CliError::usage(format!(
            "--addrs: {} addresses (this session needs {n})",
            addrs.len(),
        )));
    }
    if peer >= n {
        return Err(CliError::usage(format!(
            "--peer: {peer} out of range (this session has {n} peers)"
        )));
    }
    Ok((peer, addrs))
}

/// `wcp serve` — run one peer of a vector-clock token detection as a
/// standalone process, connected to the other peers over TCP. Every peer
/// must be started with the same trace, scope and address list. With
/// `--telemetry` the peer also runs the sidecar telemetry channel: it
/// streams its ring deltas to peer 0, and peer 0 (the collector) prints
/// the merged cross-peer summary. With `--multi` the peer instead joins
/// a multi-tenant session-layer deployment (see `serve_multi`).
pub fn serve(raw: &[String]) -> Result<String, CliError> {
    let args = Args::parse(raw)?;
    if args.switch("multi") {
        return serve_multi(&args);
    }
    let path = args.require_positional(0, "FILE")?;
    let computation = load(path)?;
    let wcp = parse_scope(&args, &computation)?;
    let (peer, addrs) = parse_peer_addrs(&args, wcp.n())?;
    let config = NetConfig::tcp().with_deadline(Duration::from_secs(args.get_or("deadline", 60)?));
    let telemetry = args.switch("telemetry").then(TelemetryCollector::shared);
    let report = match &telemetry {
        Some(collector) => serve_vc_peer_observed(
            &computation,
            &wcp,
            peer,
            &addrs,
            config,
            Arc::new(NullRecorder),
            collector.clone(),
        ),
        None => serve_vc_peer(
            &computation,
            &wcp,
            peer,
            &addrs,
            config,
            Arc::new(NullRecorder),
        ),
    };
    let mut out = format!(
        "peer {peer}/{} listening on {}\npredicate: {wcp}\n",
        wcp.n(),
        addrs[peer]
    );
    out.push_str(&verdict_line(&report.detection));
    // As in `net_demo`: peers stop at the verdict, so every wire counter
    // depends on thread timing.
    out.push_str(&format!("{SCHEDULING_DEPENDENT}\nwire: {}\n", report.net));
    if let Some(collector) = telemetry {
        out.push_str(&format!(
            "telemetry: {} events from {} sources ({} malformed deltas)\n",
            collector.events_collected(),
            collector.source_stats().len(),
            collector.malformed()
        ));
    }
    Ok(out)
}

/// `wcp serve --multi` — one peer of a standalone multi-tenant
/// deployment: application peers `0..N` replay the trace over TCP, peer
/// `N` hosts the shared session-layer service serving `--predicates K`
/// derived predicates, and peer 0 doubles as the verdict-collecting
/// controller. `--addrs` therefore lists `N + 1` addresses (one per
/// process, then the service peer's), and every peer must be started
/// with the same trace, predicate count and address list.
fn serve_multi(args: &Args) -> Result<String, CliError> {
    let path = args.require_positional(0, "FILE")?;
    let computation = load(path)?;
    let n = computation.process_count();
    let k: usize = args.get_or("predicates", 8)?;
    if k == 0 {
        return Err(CliError::usage("serve --multi needs --predicates ≥ 1"));
    }
    let (peer, addrs) = parse_peer_addrs(args, n + 1)?;
    let config = NetConfig::tcp()
        .with_deadline(Duration::from_secs(args.get_or("deadline", 60)?))
        .with_pump_threads(args.get_or("pump-threads", 1)?);
    let registrations: Vec<(u64, Wcp)> = derived_predicates(n, k)
        .into_iter()
        .enumerate()
        .map(|(i, w)| (i as u64, w))
        .collect();
    let report = serve_multi_peer(
        &computation,
        &registrations,
        peer,
        &addrs,
        config,
        Arc::new(NullRecorder),
    );
    let role = if peer == n { "service" } else { "app" };
    let mut out = format!(
        "peer {peer}/{} ({role}) listening on {}\nsessions: {k} over one shared {n}-process stream\n",
        n + 1,
        addrs[peer]
    );
    if !report.outcomes.is_empty() {
        out.push_str("   id | scope | verdict\n");
        for outcome in &report.outcomes {
            out.push_str(&outcome_row(outcome));
        }
    }
    if !report.verdicts.is_empty() {
        let detected = report.verdicts.values().filter(|v| v.is_some()).count();
        out.push_str(&format!(
            "controller: {} verdicts collected ({detected} detected)\n",
            report.verdicts.len()
        ));
    }
    out.push_str(&format!("wire: {}\n", wire_counts(&report.net)));
    out.push_str(&format!(
        "{SCHEDULING_DEPENDENT}\nwire timing: {}\n",
        wire_timing(&report.net)
    ));
    Ok(out)
}

fn parse_transport(args: &Args) -> Result<(TransportKind, &'static str), CliError> {
    match args.get("transport").unwrap_or("loopback") {
        "tcp" => Ok((TransportKind::Tcp, "tcp (localhost sockets)")),
        "loopback" => Ok((TransportKind::Loopback, "loopback (in-memory)")),
        other => Err(CliError::usage(format!(
            "--transport: `{other}` (want tcp|loopback)"
        ))),
    }
}

/// Spawns the observed detection for `top`/`obs-report` on a worker
/// thread and returns `(title, join handle)`. With `--peer`/`--addrs`
/// the run is one standalone TCP peer of a `wcp serve` session;
/// otherwise all peers run in-process over `--transport`.
fn spawn_observed(
    args: &Args,
    path: &str,
    computation: &Computation,
    wcp: &Wcp,
    collector: &Arc<TelemetryCollector>,
    done: &Arc<AtomicBool>,
) -> Result<(String, std::thread::JoinHandle<Detection>), CliError> {
    let deadline = Duration::from_secs(args.get_or("deadline", 60)?);
    let computation = computation.clone();
    let wcp = wcp.clone();
    let collector = collector.clone();
    let done = done.clone();
    if args.get("peer").is_some() {
        let (peer, addrs) = parse_peer_addrs(args, wcp.n())?;
        let title = format!("{path} — tcp peer {peer}/{}", wcp.n());
        let handle = std::thread::spawn(move || {
            let report = serve_vc_peer_observed(
                &computation,
                &wcp,
                peer,
                &addrs,
                NetConfig::tcp().with_deadline(deadline),
                Arc::new(NullRecorder),
                collector,
            );
            done.store(true, Ordering::Relaxed);
            report.detection
        });
        Ok((title, handle))
    } else {
        let (transport, name) = parse_transport(args)?;
        let title = format!("{path} — {name}");
        let config = NetConfig {
            transport,
            ..NetConfig::default()
        }
        .with_deadline(deadline);
        let handle = std::thread::spawn(move || {
            let report = run_vc_token_net_observed(
                &computation,
                &wcp,
                config,
                Arc::new(NullRecorder),
                collector,
            );
            done.store(true, Ordering::Relaxed);
            report.report.detection
        });
        Ok((title, handle))
    }
}

/// `wcp top` — live telemetry dashboard: runs a vector-clock token
/// detection with the sidecar telemetry plane on and refreshes the
/// collector's merged view every `--interval-ms` until the run finishes
/// (or `--frames` refreshes, whichever is first). In-process by default
/// (`--transport tcp|loopback`); with `--peer I --addrs ...` it joins a
/// real `wcp serve` session as one standalone peer — run it as peer 0 to
/// watch every peer's telemetry converge on the collector.
pub fn top(raw: &[String]) -> Result<String, CliError> {
    let args = Args::parse(raw)?;
    top_with_sink(&args, &mut |frame| {
        // ANSI clear + home so successive frames repaint in place.
        print!("\x1b[2J\x1b[H{frame}");
        let _ = std::io::stdout().flush();
    })
}

/// [`top`] with the intermediate frames routed to `sink` (tests collect
/// them instead of painting a terminal); the returned string is the final
/// frame plus a footer.
fn top_with_sink(args: &Args, sink: &mut dyn FnMut(&str)) -> Result<String, CliError> {
    let path = args.require_positional(0, "FILE")?;
    let computation = load(path)?;
    let wcp = parse_scope(args, &computation)?;
    let interval = Duration::from_millis(args.get_or("interval-ms", 200)?);
    let max_frames: usize = args.get_or("frames", 100)?;

    let collector = TelemetryCollector::shared();
    let done = Arc::new(AtomicBool::new(false));
    let (title, handle) = spawn_observed(args, path, &computation, &wcp, &collector, &done)?;

    let mut frames = 0usize;
    while frames < max_frames && !done.load(Ordering::Relaxed) {
        std::thread::sleep(interval);
        sink(&collector.dashboard(&title));
        frames += 1;
    }
    handle
        .join()
        .map_err(|_| CliError::runtime("detection thread panicked (peer deadline exceeded?)"))?;
    let mut out = collector.dashboard(&title);
    out.push_str(&format!(
        "{} refreshes, {} events collected, {} malformed deltas\n",
        frames + 1,
        collector.events_collected(),
        collector.malformed()
    ));
    Ok(out)
}

/// `wcp obs-report` — run a detection with the telemetry plane on, then
/// print the collector's causally merged global timeline as the full
/// [`RunReport`], the per-source wire counters, and the paper-bound audit
/// (Section 3.4 message/bit/latency limits). `--events OUT.jsonl` also
/// exports the merged timeline for replay tooling. Same run modes as
/// `wcp top`: in-process by default, `--peer I --addrs ...` for a real
/// TCP serve session.
pub fn obs_report(raw: &[String]) -> Result<String, CliError> {
    let args = Args::parse(raw)?;
    let path = args.require_positional(0, "FILE")?;
    let computation = load(path)?;
    let wcp = parse_scope(&args, &computation)?;

    let collector = TelemetryCollector::shared();
    let done = Arc::new(AtomicBool::new(false));
    let (title, handle) = spawn_observed(&args, path, &computation, &wcp, &collector, &done)?;
    let detection = handle
        .join()
        .map_err(|_| CliError::runtime("detection thread panicked (peer deadline exceeded?)"))?;

    let merged = collector.merged();
    let sources = collector.source_stats();
    let mut out = format!("telemetry report — {title}\npredicate: {wcp}\n");
    match &detection {
        Detection::Detected { cut } => out.push_str(&format!("DETECTED at cut {cut}\n")),
        Detection::Undetected => {
            out.push_str("UNDETECTED: the predicate never held on a consistent cut\n")
        }
    }
    out.push_str(&format!(
        "merged timeline: {} events from {} sources ({} malformed deltas)\n",
        merged.len(),
        sources.len(),
        collector.malformed()
    ));
    for (src, stats, events, deltas) in &sources {
        out.push_str(&format!(
            "  S{src}: {deltas} deltas, {events} events | {stats}\n"
        ));
    }
    out.push('\n');
    out.push_str(&RunReport::from_events(&merged).render());
    out.push('\n');
    let m1 = computation.max_events_per_process() as u64 + 1;
    out.push_str(&audit_bounds(wcp.n(), m1, &merged, &BoundLimits::exact()).render());
    if let Some(events_path) = args.get("events") {
        fs::write(events_path, jsonl::to_string(&merged))?;
        out.push_str(&format!(
            "wrote {} merged events to {events_path}\n",
            merged.len()
        ));
    }
    Ok(out)
}

/// `wcp fuzz` — seeded differential conformance campaign.
///
/// Draws `--cases` random cases from `--seed`, runs every detector family
/// on each, and cross-checks verdicts and replayed metrics against the
/// lattice oracle. Divergences exit nonzero, with repro JSON suitable for
/// `tests/corpus/` in the error output; `--shrink` first reduces each
/// repro to its minimal form. `--no-net` skips the (slower) real-socket
/// loopback stacks; `--net-batch` forces coalesced writes on every net
/// run (by default each case draws batched or per-frame at random);
/// `--wire-v2` likewise forces the delta-compressed wire format (each
/// case draws its wire version at random otherwise); `--multi` forces
/// the socket-backed multi-tenant session leg on every case (the
/// offline session cross-check runs on every case regardless);
/// `--pump-parallel` forces the sharded parallel-pump cross-check on
/// every case (each case otherwise draws that bit at random);
/// `--parallel-detect` forces the work-optimal detector's multi-thread
/// bit-identity leg on every case (also drawn per case at random);
/// `--audit-bounds` additionally audits every case's merged telemetry
/// timeline against the paper's §3.4 message/bit/latency bounds.
pub fn fuzz(raw: &[String]) -> Result<String, CliError> {
    let args = Args::parse(raw)?;
    let seed: u64 = args.get_or("seed", 1)?;
    let cases: usize = args.get_or("cases", 50)?;
    if cases == 0 {
        return Err(CliError::usage("fuzz needs --cases ≥ 1"));
    }
    let mut config = wcp_fuzz::CampaignConfig::new(seed, cases);
    config.shrink = args.switch("shrink");
    config.check.include_net = !args.switch("no-net");
    config.check.force_net_batch = args.switch("net-batch");
    config.check.force_wire_v2 = args.switch("wire-v2");
    config.check.force_multi = args.switch("multi");
    config.check.force_pump_parallel = args.switch("pump-parallel");
    config.check.force_parallel_detect = args.switch("parallel-detect");
    config.check.audit_bounds = args.switch("audit-bounds");
    let report = wcp_fuzz::run_campaign(&config);
    let mut out = report.summary_table();
    if report.bugs.is_empty() {
        out.push_str("\nall detector families agree: no divergences\n");
        return Ok(out);
    }
    out.push_str("\nrepro JSON (pin under tests/corpus/ once fixed):\n");
    for bug in &report.bugs {
        out.push_str(&bug.repro_json().to_string_compact());
        out.push('\n');
    }
    Err(CliError::runtime(out))
}

/// `wcp bound` — run the Theorem 5.1 adversary game.
pub fn bound(raw: &[String]) -> Result<String, CliError> {
    let args = Args::parse(raw)?;
    let n: usize = args.require("n")?;
    let m: u64 = args.require("m")?;
    if n < 2 || m < 1 {
        return Err(CliError::usage("bound needs --n ≥ 2 and --m ≥ 1"));
    }
    let stats = run_optimal_algorithm(n, m);
    Ok(format!(
        "adversary game n={n} m={m}: forced {} deletions in {} comparison rounds (bound nm−n = {})",
        stats.deletions, stats.comparisons, stats.bound
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(tokens: &[&str]) -> Vec<String> {
        tokens.iter().map(|s| s.to_string()).collect()
    }

    fn tmpfile(name: &str) -> String {
        let dir = std::env::temp_dir().join("wcp-cli-tests");
        fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    /// The part of a report above its [`SCHEDULING_DEPENDENT`] header.
    fn deterministic_part(report: &str) -> &str {
        report
            .split_once(SCHEDULING_DEPENDENT)
            .map_or(report, |(head, _)| head)
    }

    fn generated_trace(name: &str) -> String {
        let path = tmpfile(name);
        let out = generate(&argv(&[
            "--processes",
            "4",
            "--events",
            "8",
            "--seed",
            "5",
            "--plant",
            "0.7",
            "-o",
            &path,
        ]))
        .unwrap();
        assert!(out.contains("wrote"));
        assert!(out.contains("planted"));
        path
    }

    #[test]
    fn generate_info_roundtrip() {
        let path = generated_trace("roundtrip.json");
        let out = info(&argv(&[&path])).unwrap();
        assert!(out.contains("valid"));
        assert!(out.contains("N=4"));
        assert!(out.contains("P3:"));
    }

    #[test]
    fn detect_all_algorithms_agree() {
        let path = generated_trace("detect.json");
        let mut cuts = Vec::new();
        for alg in [
            "token",
            "checker",
            "direct",
            "lattice",
            "multi:2",
            "parallel",
            "parallel:4",
        ] {
            let out = detect(&argv(&[&path, "--algorithm", alg])).unwrap();
            assert!(out.contains("DETECTED"), "{alg}: {out}");
            let cut_line = out
                .lines()
                .find(|l| l.contains("DETECTED"))
                .unwrap()
                .to_string();
            cuts.push((alg, cut_line));
        }
        // token / checker / multi / parallel report identical scope cuts.
        assert_eq!(cuts[0].1, cuts[1].1);
        assert_eq!(cuts[0].1, cuts[4].1);
        assert_eq!(cuts[0].1, cuts[5].1);
        assert_eq!(cuts[0].1, cuts[6].1);
    }

    #[test]
    fn detect_with_diagram_and_json() {
        let path = generated_trace("diagram.json");
        let out = detect(&argv(&[&path, "--diagram"])).unwrap();
        assert!(out.contains('┊'), "diagram with cut markers: {out}");
        let out = detect(&argv(&[&path, "--json"])).unwrap();
        assert!(out.contains("\"detection\""));
    }

    #[test]
    fn detect_scope_subset() {
        let path = generated_trace("scope.json");
        let out = detect(&argv(&[&path, "--scope", "0,2"])).unwrap();
        assert!(out.contains("l(P0)"));
        assert!(out.contains("l(P2)"));
        assert!(!out.contains("l(P1)"));
    }

    #[test]
    fn gcp_command_runs() {
        let path = generated_trace("gcp.json");
        let out = gcp(&argv(&[&path, "--channel", "0-1:atmost:99"])).unwrap();
        assert!(out.contains("≤99"));
        assert!(out.contains("DETECTED"));
    }

    #[test]
    fn render_text_and_dot() {
        let path = generated_trace("render.json");
        let text = render(&argv(&[&path])).unwrap();
        assert!(text.contains("P0"));
        let dot = render(&argv(&[&path, "--dot"])).unwrap();
        assert!(dot.starts_with("digraph"));
    }

    #[test]
    fn detect_slice_writes_prefix() {
        let path = generated_trace("slice_src.json");
        let out_path = tmpfile("slice_out.json");
        let out = detect(&argv(&[&path, "--scope", "0,1", "--slice", &out_path])).unwrap();
        assert!(out.contains("sliced trace"), "{out}");
        // The slice is a valid computation that still detects the same cut.
        let sliced = load(&out_path).unwrap();
        let full = load(&path).unwrap();
        assert!(sliced.total_events() <= full.total_events());
        let wcp = parse_scope(&Args::parse(&argv(&["--scope", "0,1"])).unwrap(), &sliced).unwrap();
        let before = wcp_detect::TokenDetector::new()
            .detect(&full.annotate(), &wcp)
            .detection;
        let after = wcp_detect::TokenDetector::new()
            .detect(&sliced.annotate(), &wcp)
            .detection;
        assert_eq!(before, after);
    }

    #[test]
    fn lattice_command_counts_and_searches() {
        let path = generated_trace("lattice.json");
        let out = lattice(&argv(&[&path])).unwrap();
        assert!(out.contains("consistent global states:"));
        assert!(out.contains("first cut satisfying"));
        // Tiny budget triggers truncation reporting, not failure.
        let out = lattice(&argv(&[&path, "--max-states", "2"])).unwrap();
        assert!(out.contains("budget of 2"));
    }

    #[test]
    fn trace_writes_replayable_jsonl() {
        let path = generated_trace("trace_src.json");
        let events_path = tmpfile("trace_events.jsonl");
        let out = trace(&argv(&[&path, "--events", &events_path])).unwrap();
        assert!(out.contains("wrote"), "{out}");
        assert!(out.contains("DETECTED"), "{out}");
        // The JSONL round-trips and replays to the reported metrics.
        let text = fs::read_to_string(&events_path).unwrap();
        let events = jsonl::read_str(&text).unwrap();
        assert!(!events.is_empty());
        let computation = load(&path).unwrap();
        let wcp = Wcp::over_all(&computation);
        let report = TokenDetector::new().detect(&computation.annotate(), &wcp);
        assert_eq!(wcp_detect::replay_metrics(wcp.n(), &events), report.metrics);
    }

    #[test]
    fn trace_supports_every_offline_algorithm() {
        let path = generated_trace("trace_algos.json");
        for alg in [
            "token",
            "checker",
            "direct",
            "lattice",
            "multi:2",
            "parallel:2",
        ] {
            let events_path = tmpfile(&format!("trace_{}.jsonl", alg.replace(':', "_")));
            let out = trace(&argv(&[
                &path,
                "--algorithm",
                alg,
                "--events",
                &events_path,
            ]))
            .unwrap();
            assert!(out.contains("wrote"), "{alg}: {out}");
            let events = jsonl::read_str(&fs::read_to_string(&events_path).unwrap()).unwrap();
            assert!(!events.is_empty(), "{alg}");
        }
        assert!(trace(&argv(&[&path])).is_err(), "--events is required");
    }

    #[test]
    fn stats_reports_both_online_sections() {
        let path = generated_trace("stats.json");
        let out = stats(&argv(&[&path])).unwrap();
        assert!(
            out.contains("section 3: vector-clock token algorithm"),
            "{out}"
        );
        assert!(
            out.contains("section 4: direct-dependence algorithm"),
            "{out}"
        );
        assert!(out.contains("token timeline"), "{out}");
        assert!(out.contains("monitor | token_in"), "{out}");
        assert!(out.contains("queue delay"), "{out}");
        assert!(out.contains("detection latency:"), "{out}");
        assert!(out.contains("DETECTED"), "{out}");
        // The wire section surfaces the transport-layer counters.
        assert!(out.contains("wire transport"), "{out}");
        assert!(out.contains("batch flushes"), "{out}");
        assert!(out.contains("ready depth"), "{out}");
        assert!(out.contains("buffer pool"), "{out}");
        // Including the v2 compression accounting: the default loopback
        // run negotiates v2, so actual bytes land below the v1-equivalent.
        assert!(out.contains("B v1-equiv"), "{out}");
        assert!(out.contains("clock chains"), "{out}");
        let wire_line = out
            .lines()
            .find(|l| l.starts_with("wire v2"))
            .expect("wire v2 line");
        let nums: Vec<u64> = wire_line
            .split(|c: char| !c.is_ascii_digit())
            .filter(|s| !s.is_empty())
            .map(|s| s.parse().unwrap())
            .collect();
        assert!(
            nums[0] < nums[1],
            "v2 must compress below the v1-equivalent: {wire_line}"
        );
        // And the session-layer section surfaces per-session counters.
        assert!(out.contains("multi-tenant session layer"), "{out}");
        assert!(out.contains("routed events"), "{out}");
        assert!(out.contains("shared store"), "{out}");
        // The wire counters sit under the scheduling-dependent header;
        // everything above it repeats exactly.
        let (head, tail) = out.split_once(SCHEDULING_DEPENDENT).expect("header");
        assert!(tail.contains("buffer pool") && !head.contains("buffer pool"));
        let again = stats(&argv(&[&path])).unwrap();
        assert_eq!(deterministic_part(&again), head);
    }

    #[test]
    fn top_streams_frames_and_reports_the_verdict() {
        let path = generated_trace("top.json");
        let args = Args::parse(&argv(&[&path, "--interval-ms", "20", "--frames", "500"])).unwrap();
        let mut frames = Vec::new();
        let out = top_with_sink(&args, &mut |f| frames.push(f.to_string())).unwrap();
        // The final frame carries the merged dashboard and a settled verdict.
        assert!(out.contains("wcp top"), "{out}");
        assert!(out.contains("source | deltas"), "{out}");
        assert!(out.contains("verdict: DETECTED"), "{out}");
        assert!(out.contains("refreshes"), "{out}");
        assert!(out.contains("malformed"), "{out}");
        // Intermediate frames were streamed to the sink.
        assert!(!frames.is_empty());
        assert!(frames.iter().all(|f| f.contains("wcp top")));
    }

    #[test]
    fn obs_report_renders_timeline_audit_and_jsonl_export() {
        let path = generated_trace("obs_report.json");
        let events_path = tmpfile("obs_report_events.jsonl");
        let out = obs_report(&argv(&[&path, "--events", &events_path])).unwrap();
        assert!(out.contains("telemetry report"), "{out}");
        assert!(out.contains("merged timeline:"), "{out}");
        assert!(out.contains("token timeline"), "{out}");
        assert!(out.contains("paper-bound audit"), "{out}");
        assert!(out.contains("token hops"), "{out}");
        assert!(!out.contains("VIOLATED"), "{out}");
        assert!(out.contains("DETECTED"), "{out}");
        assert!(out.contains("wrote"), "{out}");
        // The export replays as a JSONL event stream.
        let events = jsonl::read_str(&fs::read_to_string(&events_path).unwrap()).unwrap();
        assert!(!events.is_empty());
    }

    /// `wcp top` / `wcp obs-report` joined to a real TCP `wcp serve`
    /// session: peer 0 watches (or reports) while peers 1 and 2 run
    /// `serve --telemetry` and stream their deltas over the wire.
    #[test]
    fn top_and_obs_report_join_a_tcp_serve_session() {
        for watcher in ["top", "obs-report"] {
            let path = generated_trace(&format!("tcp_{watcher}.json"));
            let ports: Vec<u16> = (0..3)
                .map(|_| {
                    std::net::TcpListener::bind("127.0.0.1:0")
                        .unwrap()
                        .local_addr()
                        .unwrap()
                        .port()
                })
                .collect();
            let addrs = ports
                .iter()
                .map(|p| format!("127.0.0.1:{p}"))
                .collect::<Vec<_>>()
                .join(",");
            let (watched, served): (String, Vec<String>) = std::thread::scope(|s| {
                let watch = {
                    let path = path.clone();
                    let addrs = addrs.clone();
                    s.spawn(move || {
                        let base = [
                            path.as_str(),
                            "--scope",
                            "0,1,2",
                            "--peer",
                            "0",
                            "--addrs",
                            &addrs,
                        ];
                        if watcher == "top" {
                            let mut raw = argv(&base);
                            raw.extend(argv(&["--interval-ms", "20", "--frames", "500"]));
                            let args = Args::parse(&raw).unwrap();
                            top_with_sink(&args, &mut |_| {}).unwrap()
                        } else {
                            obs_report(&argv(&base)).unwrap()
                        }
                    })
                };
                let peers: Vec<_> = (1..3)
                    .map(|peer: usize| {
                        let path = path.clone();
                        let addrs = addrs.clone();
                        s.spawn(move || {
                            serve(&argv(&[
                                &path,
                                "--scope",
                                "0,1,2",
                                "--peer",
                                &peer.to_string(),
                                "--addrs",
                                &addrs,
                                "--telemetry",
                            ]))
                            .unwrap()
                        })
                    })
                    .collect();
                (
                    watch.join().unwrap(),
                    peers.into_iter().map(|h| h.join().unwrap()).collect(),
                )
            });
            // Peer 0 collected telemetry from every peer in the session.
            for src in ["S0", "S1", "S2"] {
                assert!(watched.contains(src), "{watcher} missing {src}:\n{watched}");
            }
            for out in &served {
                assert!(out.contains("telemetry:"), "{out}");
            }
        }
    }

    #[test]
    fn net_demo_runs_over_tcp_and_loopback() {
        let path = generated_trace("net_demo.json");
        for transport in ["tcp", "loopback"] {
            for algorithm in ["token", "direct"] {
                let out = net_demo(&argv(&[
                    &path,
                    "--transport",
                    transport,
                    "--algorithm",
                    algorithm,
                ]))
                .unwrap();
                assert!(
                    out.contains("simulator cross-check: identical verdict"),
                    "{transport}/{algorithm}: {out}"
                );
                assert!(out.contains("wire:"), "{out}");
                // Thread timing moves only the counters under the header.
                let (head, tail) = out.split_once(SCHEDULING_DEPENDENT).expect("header");
                assert!(tail.contains("flushes") && !head.contains("flushes"));
                let again = net_demo(&argv(&[
                    &path,
                    "--transport",
                    transport,
                    "--algorithm",
                    algorithm,
                ]))
                .unwrap();
                assert_eq!(deterministic_part(&again), head, "{transport}/{algorithm}");
            }
        }
    }

    #[test]
    fn net_demo_with_faults_still_matches_simulator() {
        let path = generated_trace("net_demo_faults.json");
        let out = net_demo(&argv(&[
            &path,
            "--transport",
            "loopback",
            "--delay",
            "0.25",
            "--duplicate",
            "0.2",
            "--reorder",
            "0.2",
            "--fault-seed",
            "7",
        ]))
        .unwrap();
        assert!(out.contains("faults:"), "{out}");
        assert!(out.contains("identical verdict"), "{out}");
        assert!(net_demo(&argv(&[&path, "--drop", "1.5"])).is_err());
        assert!(net_demo(&argv(&[&path, "--transport", "carrier-pigeon"])).is_err());
    }

    #[test]
    fn serve_peers_agree_on_the_verdict() {
        let path = generated_trace("serve.json");
        // Reserve three localhost ports, then release them for the peers.
        let ports: Vec<u16> = (0..3)
            .map(|_| {
                std::net::TcpListener::bind("127.0.0.1:0")
                    .unwrap()
                    .local_addr()
                    .unwrap()
                    .port()
            })
            .collect();
        let addrs = ports
            .iter()
            .map(|p| format!("127.0.0.1:{p}"))
            .collect::<Vec<_>>()
            .join(",");
        let outputs: Vec<String> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..3)
                .map(|peer| {
                    let path = path.clone();
                    let addrs = addrs.clone();
                    s.spawn(move || {
                        serve(&argv(&[
                            &path,
                            "--scope",
                            "0,1,2",
                            "--peer",
                            &peer.to_string(),
                            "--addrs",
                            &addrs,
                        ]))
                        .unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let verdicts: Vec<&str> = outputs
            .iter()
            .map(|o| {
                o.lines()
                    .find(|l| l.starts_with("DETECTED") || l.starts_with("UNDETECTED"))
                    .unwrap()
            })
            .collect();
        assert!(verdicts.windows(2).all(|w| w[0] == w[1]), "{verdicts:?}");
        // The standalone run agrees with the in-process simulator too.
        let computation = load(&path).unwrap();
        let wcp = Wcp::over(vec![
            ProcessId::new(0),
            ProcessId::new(1),
            ProcessId::new(2),
        ]);
        let sim = run_vc_token(&computation, &wcp, SimConfig::seeded(0));
        let expects_detected = matches!(sim.report.detection, Detection::Detected { .. });
        assert_eq!(
            verdicts[0].starts_with("DETECTED"),
            expects_detected,
            "{verdicts:?}"
        );
        assert!(serve(&argv(&[&path, "--peer", "9", "--addrs", &addrs])).is_err());
    }

    #[test]
    fn multi_demo_tabulates_and_cross_checks() {
        let path = generated_trace("multi_demo.json");
        for transport in ["loopback", "tcp"] {
            let out = multi_demo(&argv(&[
                &path,
                "--transport",
                transport,
                "--predicates",
                "5",
            ]))
            .unwrap();
            assert!(out.contains("sessions: 5"), "{transport}: {out}");
            assert!(out.contains("id | scope | verdict"), "{out}");
            // One table row per predicate, each resolved one way or the other.
            let rows = out
                .lines()
                .filter(|l| l.contains("DETECTED at [") || l.contains("| impossible"))
                .count();
            assert_eq!(rows, 5, "{out}");
            assert!(out.contains("routed events"), "{out}");
            assert!(out.contains("B/session"), "{out}");
            assert!(
                out.contains("simulator cross-check: identical verdicts and metrics"),
                "{out}"
            );
        }
        assert!(multi_demo(&argv(&[&path, "--predicates", "0"])).is_err());
        assert!(multi_demo(&argv(&[&path, "--transport", "smoke-signal"])).is_err());
    }

    #[test]
    fn multi_demo_pump_threads_is_invisible_in_the_output() {
        // The sharded parallel pump must not change a single verdict, so
        // the serial and 4-worker runs print identical reports, up to the
        // thread-timing counters under the scheduling-dependent header.
        let path = generated_trace("multi_demo_pump.json");
        let serial = multi_demo(&argv(&[&path, "--predicates", "6"])).unwrap();
        let parallel =
            multi_demo(&argv(&[&path, "--predicates", "6", "--pump-threads", "4"])).unwrap();
        assert!(serial.contains(SCHEDULING_DEPENDENT), "{serial}");
        assert_eq!(deterministic_part(&serial), deterministic_part(&parallel));
        assert!(multi_demo(&argv(&[&path, "--pump-threads", "lots"])).is_err());
    }

    #[test]
    fn multi_demo_with_faults_still_matches_simulator() {
        let path = generated_trace("multi_demo_faults.json");
        let out = multi_demo(&argv(&[
            &path,
            "--transport",
            "loopback",
            "--predicates",
            "6",
            "--drop",
            "0.15",
            "--reorder",
            "0.2",
            "--fault-seed",
            "11",
        ]))
        .unwrap();
        assert!(out.contains("faults:"), "{out}");
        assert!(out.contains("identical verdicts and metrics"), "{out}");
    }

    #[test]
    fn serve_multi_peers_share_one_service() {
        let path = generated_trace("serve_multi.json");
        // 4 app peers + 1 service peer.
        let ports: Vec<u16> = (0..5)
            .map(|_| {
                std::net::TcpListener::bind("127.0.0.1:0")
                    .unwrap()
                    .local_addr()
                    .unwrap()
                    .port()
            })
            .collect();
        let addrs = ports
            .iter()
            .map(|p| format!("127.0.0.1:{p}"))
            .collect::<Vec<_>>()
            .join(",");
        let outputs: Vec<String> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..5)
                .map(|peer| {
                    let path = path.clone();
                    let addrs = addrs.clone();
                    s.spawn(move || {
                        serve(&argv(&[
                            &path,
                            "--multi",
                            "--predicates",
                            "4",
                            "--peer",
                            &peer.to_string(),
                            "--addrs",
                            &addrs,
                        ]))
                        .unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // The service peer (peer 4) prints the outcome table; peer 0 the
        // controller's collected verdicts; both agree with the offline
        // engine on the same derived predicates.
        assert!(outputs[4].contains("(service)"), "{}", outputs[4]);
        assert!(
            outputs[4].contains("id | scope | verdict"),
            "{}",
            outputs[4]
        );
        assert!(outputs[0].contains("verdicts collected"), "{}", outputs[0]);
        let computation = load(&path).unwrap();
        let offline = wcp_session::run_multi_offline(&computation, &derived_predicates(4, 4));
        for outcome in &offline.outcomes {
            assert!(
                outputs[4].contains(&outcome_row(outcome)),
                "session {} row missing:\n{}",
                outcome.id,
                outputs[4]
            );
        }
        let detected = offline
            .outcomes
            .iter()
            .filter(|o| o.verdict.cut().is_some())
            .count();
        assert!(
            outputs[0].contains(&format!("4 verdicts collected ({detected} detected)")),
            "{}",
            outputs[0]
        );
        // Address-count mismatch (5 addrs for scope-style n) is a usage error.
        assert!(serve(&argv(&[
            &path,
            "--multi",
            "--peer",
            "0",
            "--addrs",
            "127.0.0.1:1"
        ]))
        .is_err());
    }

    #[test]
    fn bound_reports_theorem() {
        let out = bound(&argv(&["--n", "4", "--m", "10"])).unwrap();
        assert!(out.contains("bound nm−n = 36"));
        assert!(bound(&argv(&["--n", "1", "--m", "5"])).is_err());
    }

    #[test]
    fn fuzz_smoke_campaign_is_clean_and_summarized() {
        let out = fuzz(&argv(&["--seed", "1", "--cases", "8", "--no-net"])).unwrap();
        assert!(out.contains("cases run   | 8"), "{out}");
        assert!(out.contains("divergences | 0"), "{out}");
        assert!(out.contains("no divergences"), "{out}");
        assert!(fuzz(&argv(&["--cases", "0"])).is_err());
        assert!(fuzz(&argv(&["--cases", "many"])).is_err());
    }

    #[test]
    fn errors_are_reported() {
        assert!(info(&argv(&["/nonexistent/file.json"])).is_err());
        assert!(detect(&argv(&[])).is_err());
        let path = generated_trace("errors.json");
        assert!(detect(&argv(&[&path, "--algorithm", "bogus"])).is_err());
        assert!(detect(&argv(&[&path, "--scope", "9"])).is_err());
        assert!(gcp(&argv(&[&path, "--channel", "nonsense"])).is_err());
        assert!(parse_topology("weird").is_err());
        assert!(parse_topology("cs:2").is_ok());
        assert!(parse_topology("nb:1").is_ok());
    }

    #[test]
    fn out_of_scope_process_ids_are_cli_errors_not_panics() {
        let path = generated_trace("scope_errors.json");
        // The trace has 4 processes; id 9 must be a usage error (exit 2)
        // with a message naming the offending id for every scoped command.
        for result in [
            detect(&argv(&[&path, "--scope", "0,9"])),
            detect(&argv(&[
                &path,
                "--scope",
                "9",
                "--slice",
                &tmpfile("never.json"),
            ])),
            render(&argv(&[&path, "--scope", "9"])),
            render(&argv(&[&path, "--dot", "--scope", "0,nine"])),
        ] {
            let err = result.expect_err("out-of-scope id must not succeed");
            assert_ne!(err.code, 0);
            assert!(
                err.message.contains("out of range") || err.message.contains("bad process id"),
                "{}",
                err.message
            );
        }
        // A valid scope still renders.
        assert!(render(&argv(&[&path, "--scope", "0,1"])).is_ok());
    }
}
