//! `wcpbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Sets up the workload from the seed (several times, reporting the
//! median of the least disturbed set-ups), runs one untimed warm-up pass,
//! then drives timed closed-loop ops for `--seconds`. With `--trace 0` it prints the
//! end-to-end metrics; with `--trace 1` it runs half the time untraced
//! and half traced, with the reference baselines beside each traced op,
//! and prints the per-layer metrics. The last stdout line is the JSON
//! result.

use std::fs;
use std::path::PathBuf;
use std::time::Instant;

use wcpbench::alloc::CountingAlloc;
use wcpbench::harness::{
    end_to_end, measure, result_json, warm_up, Layers, Metric, Outcome, Phase, Workload,
    MIN_SAMPLES,
};
use wcpbench::host::{Host, Steal};
use wcpbench::stats::Summary;
use wcpbench::trace::Tracer;
use wcpbench::workloads::{offline, online, session, wire};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Set-ups per untraced run.
const SETUP_REPEATS: usize = 5;
/// `setup_s` is the median of this many set-ups, the least disturbed by
/// other tenants (by the host's steal counter) of the [`SETUP_REPEATS`].
const SETUP_KEPT: usize = 3;
/// Span budget of a traced run.
const SPAN_CAP: usize = 200_000;
/// Fewest ops in the traced half of a traced run.
const MIN_TRACED_OPS: usize = 30;

const WORKLOADS: &[&str] = &[
    "offline_detect",
    "online_detect",
    "session_service",
    "wire_stream",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if seconds.is_nan() || seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn setup(name: &str, seed: u64, tr: &mut Tracer) -> Box<dyn Workload> {
    match name {
        "offline_detect" => Box::new(offline::setup(seed, tr)),
        "online_detect" => Box::new(online::setup(seed, tr)),
        "session_service" => Box::new(session::setup(seed, tr)),
        "wire_stream" => Box::new(wire::setup(seed, tr)),
        other => unreachable!("workload {other} passed argument checks"),
    }
}

fn failures(outcomes: &[Outcome]) -> usize {
    outcomes.iter().filter(|o| o.failure.is_some()).count()
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!(
            "metric {:<28} {:>14.6} {:<6} n={:<7} spread={:.4}",
            m.name, m.value, m.unit, m.n, m.spread
        );
    }
}

/// Prints a phase's window selection and its first failures.
fn print_phase(label: &str, phase: &Phase, kept: usize) {
    println!(
        "{label}: {} ops in {} windows over {:.1} s, {kept} windows kept, host steal {:.1}%",
        phase.outcomes.len(),
        phase.windows.len(),
        phase.wall_s(),
        100.0 * phase.steal_share()
    );
    for (i, why) in phase
        .outcomes
        .iter()
        .filter_map(|o| o.failure.as_deref())
        .enumerate()
        .take(5)
    {
        println!("failed op #{i}: {why}");
    }
}

/// Where the traced run's spans go: the build directory of the checkout.
fn spans_path(workload: &str, seed: u64) -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target
        .join("wcpbench-spans")
        .join(format!("{workload}-seed{seed}.jsonl"))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wcpbench: {e}");
            std::process::exit(2);
        }
    };
    let host = Host::probe();
    println!(
        "host nproc={} cpu={:?} rustc={:?} git={}",
        host.nproc, host.cpu, host.rustc, host.git
    );
    println!(
        "run workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );

    let origin = Instant::now();
    let mut tr = Tracer::new(args.trace, origin, SPAN_CAP);
    let repeats = if args.trace { 1 } else { SETUP_REPEATS };
    let mut setups: Vec<(f64, f64)> = Vec::with_capacity(repeats);
    let mut w: Option<Box<dyn Workload>> = None;
    for _ in 0..repeats {
        drop(w.take());
        let steal = Steal::now();
        let start = Instant::now();
        w = Some(setup(&args.workload, args.seed, &mut tr));
        let wall = start.elapsed().as_secs_f64();
        setups.push((steal.and_then(|s| s.share_since(wall)).unwrap_or(0.0), wall));
    }
    setups.sort_by(|a, b| a.0.total_cmp(&b.0));
    let setup_s: Vec<f64> = setups
        .iter()
        .take(SETUP_KEPT)
        .map(|&(_, wall)| wall)
        .collect();
    let mut w = w.expect("at least one set-up");
    tr.set_enabled(false);
    let first = warm_up(w.as_mut());

    let (attempted, failed, metrics) = if !args.trace {
        let phase = measure(w.as_mut(), first, args.seconds, MIN_SAMPLES, false, &mut tr);
        let (kept, quiet) = phase.quiet(MIN_SAMPLES);
        print_phase("measured", &phase, kept.len());
        let all = &phase.outcomes;
        (
            all.len(),
            failures(all),
            end_to_end(&quiet, &kept, &setup_s),
        )
    } else {
        let half = args.seconds / 2.0;
        let plain = measure(w.as_mut(), first, half, MIN_SAMPLES, false, &mut tr);
        tr.set_enabled(true);
        let next = first + plain.outcomes.len() as u64;
        let traced = measure(w.as_mut(), next, half, MIN_TRACED_OPS, true, &mut tr);
        tr.set_enabled(false);
        let (plain_kept, plain_quiet) = plain.quiet(MIN_SAMPLES);
        let (traced_kept, traced_quiet) = traced.quiet(MIN_TRACED_OPS);
        print_phase("untraced", &plain, plain_kept.len());
        print_phase("traced", &traced, traced_kept.len());
        let p50 =
            |os: &[Outcome]| Summary::of(&os.iter().map(|o| o.latency_s).collect::<Vec<_>>()).p50;
        let mut layers = Layers::default();
        layers.set(
            "trace.overhead_ratio",
            p50(&traced_quiet) / p50(&plain_quiet).max(1e-12),
            traced_quiet.len(),
        );
        layers.set_span_median("trace.generate_ms", &tr, "trace.generate", 1e6);
        w.layers(&tr, traced.outcomes.len(), &mut layers);
        let path = spans_path(&args.workload, args.seed);
        let written = path
            .parent()
            .map_or(Ok(()), fs::create_dir_all)
            .and_then(|()| fs::write(&path, tr.to_jsonl()));
        match written {
            Ok(()) => println!("spans {} -> {}", tr.spans().len(), path.display()),
            Err(e) => println!("spans not written to {}: {e}", path.display()),
        }
        let attempted = plain.outcomes.len() + traced.outcomes.len();
        let failed = failures(&plain.outcomes) + failures(&traced.outcomes);
        (attempted, failed, layers.metrics())
    };
    drop(w);
    print_metrics(&metrics);
    println!("ops attempted={attempted} failed={failed}");
    println!("{}", result_json(attempted, failed, &metrics));
}
