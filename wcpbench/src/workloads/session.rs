//! `session_service`: the multi-tenant service at saturation. The only
//! workload that uses the shared store, the registry and the pump; late
//! registrations write beside the pump's reads.

use wcp_clocks::{ProcessId, StateId};
use wcp_detect::{Detection, Detector, TokenDetector};
use wcp_obs::rng::Rng;
use wcp_session::{MultiEngine, PredicateId, SessionVerdict};
use wcp_trace::{Computation, ComputationBuilder, Wcp};

use crate::harness::{Layers, OpResult, Workload};
use crate::stats::Summary;
use crate::trace::Tracer;

/// Processes of each event stream.
const PROCESSES: usize = 16;
/// Processes per token ring of a stream.
const RING: usize = 4;
/// Token rounds per ring.
const ROUNDS: usize = 48;
/// Chance that a token holder also messages another ring member.
const EXTRA_MESSAGE: f64 = 0.3;
/// Intervals per tick: a tick carries every snapshot of the next
/// `TICK_INTERVALS` intervals of every process. Every process holds its
/// ring's token at least once in that span, so the engine's watermark
/// merge routes a similar share of the stream on every tick.
const TICK_INTERVALS: u64 = 4;
/// Streams, served one after another; each is one epoch.
const STREAMS: usize = 3;
/// Predicates registered before each stream's first tick.
const PREDICATES: usize = 10_000;
/// Distinct scopes the predicates draw from (each checked once).
const SCOPES: usize = 512;
/// Scope sizes.
const SCOPE_SIZE: std::ops::RangeInclusive<usize> = 2..=6;
/// One tick in `LATE_EVERY` carries late registrations and removals.
const LATE_EVERY: usize = 4;
/// Late registrations (and unregistrations) on such a tick.
const LATE_PER_TICK: usize = 4;
/// Fan-out workers of the pump under test.
const PUMP_THREADS: usize = 2;

/// What one tick hands the engine: every process's snapshots of the
/// tick's intervals, the end-of-stream marks on the last tick, then late
/// registrations and unregistrations.
#[derive(Debug, Clone, Default)]
struct Tick {
    ingest: Vec<(ProcessId, u64, Vec<u64>)>,
    close: Vec<ProcessId>,
    register: Vec<u64>,
    unregister: Vec<u64>,
}

/// One event stream with its reference verdicts.
struct Stream {
    ticks: Vec<Tick>,
    /// Per scope: the verdict of its predicate run alone on this stream.
    reference: Vec<SessionVerdict>,
}

/// Per-op counts of a traced run.
#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    ingest_ns_per_event: f64,
    routed: u64,
    detections: u64,
}

/// The `session_service` workload. Each epoch replays one stream into a
/// fresh engine holding the initial registrations; one pass serves every
/// stream once, so every pass sees the same per-tick mix.
pub struct SessionService {
    scopes: Vec<Wcp>,
    /// Scope index of every predicate id: initial ones, then late ones.
    scope_of: Vec<usize>,
    streams: Vec<Stream>,
    /// `(stream, tick)` of each op of a pass.
    schedule: Vec<(usize, usize)>,
    engine: Option<MultiEngine>,
    /// A serial-pump twin of `engine`, kept in step by traced runs.
    serial: Option<MultiEngine>,
    counts: Vec<Counts>,
    stored_bytes: u64,
}

/// Generates the streams, the scope pool with its references, and the
/// registration plan, then registers the initial predicates.
pub fn setup(seed: u64, tr: &mut Tracer) -> SessionService {
    let mut rng = Rng::seed_from_u64(seed);
    let scopes: Vec<Wcp> = (0..SCOPES)
        .map(|_| {
            let mut procs: Vec<u32> = (0..PROCESSES as u32).collect();
            rng.shuffle(&mut procs);
            let size = rng.gen_range(SCOPE_SIZE);
            Wcp::over(procs[..size].iter().map(|&p| ProcessId::new(p)))
        })
        .collect();
    let mut scope_of: Vec<usize> = (0..PREDICATES).map(|_| rng.gen_range(0..SCOPES)).collect();
    let streams: Vec<Stream> = (0..STREAMS)
        .map(|_| draw_stream(&mut rng, &scopes, &mut scope_of, tr))
        .collect();
    let schedule = streams
        .iter()
        .enumerate()
        .flat_map(|(s, stream)| (0..stream.ticks.len()).map(move |t| (s, t)))
        .collect();
    let mut w = SessionService {
        scopes,
        scope_of,
        streams,
        schedule,
        engine: None,
        serial: None,
        counts: Vec::new(),
        stored_bytes: 0,
    };
    w.engine = Some(w.fresh_engine(tr));
    w
}

/// A stream of independent token rings over randomly grouped
/// processes. A process's predicate holds while it has its ring's token,
/// so true states within a ring are causally chained: a predicate naming
/// two processes of one ring is never satisfied and its session stays
/// live, fed on every tick, until the stream closes. One naming a
/// process per ring is satisfied by the first tokens. Most sessions thus
/// stay live through the stream — the service at saturation — and the
/// verdicts mix both kinds.
fn ring_stream(rng: &mut Rng) -> Computation {
    let mut procs: Vec<u32> = (0..PROCESSES as u32).collect();
    rng.shuffle(&mut procs);
    let mut b = ComputationBuilder::new(PROCESSES);
    for _ in 0..ROUNDS {
        for ring in procs.chunks(RING) {
            for (i, &p) in ring.iter().enumerate() {
                let holder = ProcessId::new(p);
                b.mark_true(holder);
                if rng.gen_bool(EXTRA_MESSAGE) {
                    let other = ProcessId::new(ring[(i + rng.gen_range(1..RING)) % RING]);
                    let m = b.send(holder, other);
                    b.receive(other, m);
                }
                let next = ProcessId::new(ring[(i + 1) % RING]);
                let m = b.send(holder, next);
                b.receive(next, m);
            }
        }
    }
    b.build().expect("token rings form a valid computation")
}

/// Generates one stream, its per-scope references and its late
/// registration plan (late ids extend `scope_of` as needed).
fn draw_stream(
    rng: &mut Rng,
    scopes: &[Wcp],
    scope_of: &mut Vec<usize>,
    tr: &mut Tracer,
) -> Stream {
    let computation = tr.span("trace.generate", || ring_stream(rng));
    let annotated = computation.annotate();
    let reference = scopes
        .iter()
        .map(
            |wcp| match TokenDetector::new().detect(&annotated, wcp).detection {
                Detection::Detected { cut } => SessionVerdict::Detected(wcp.project(&cut)),
                Detection::Undetected => SessionVerdict::Impossible,
            },
        )
        .collect();
    let intervals = ProcessId::all(PROCESSES)
        .map(|p| annotated.interval_count(p))
        .max()
        .unwrap_or(1);
    let tick_count = intervals.div_ceil(TICK_INTERVALS) as usize;
    let mut removable: Vec<u64> = (0..PREDICATES as u64).collect();
    rng.shuffle(&mut removable);
    let mut late = PREDICATES;
    let ticks = (0..tick_count)
        .map(|t| {
            let mut tick = Tick::default();
            let window = t as u64 * TICK_INTERVALS + 1..=(t as u64 + 1) * TICK_INTERVALS;
            for p in ProcessId::all(PROCESSES) {
                for &k in annotated.true_intervals(p) {
                    if window.contains(&k) {
                        let clock = annotated.clock(StateId::new(p, k)).as_slice().to_vec();
                        tick.ingest.push((p, k, clock));
                    }
                }
                if t + 1 == tick_count {
                    tick.close.push(p);
                }
            }
            if t % LATE_EVERY == LATE_EVERY - 1 {
                for _ in 0..LATE_PER_TICK {
                    if late == scope_of.len() {
                        scope_of.push(rng.gen_range(0..SCOPES));
                    }
                    tick.register.push(late as u64);
                    late += 1;
                    tick.unregister.extend(removable.pop());
                }
            }
            tick
        })
        .collect();
    Stream { ticks, reference }
}

impl SessionService {
    /// A new engine with the initial predicates registered.
    fn fresh_engine(&self, tr: &mut Tracer) -> MultiEngine {
        let engine = MultiEngine::new(PROCESSES);
        tr.span("session.register_initial", || {
            for id in 0..PREDICATES {
                engine
                    .register(PredicateId::new(id as u64), &self.scopes[self.scope_of[id]])
                    .expect("initial registration");
            }
        });
        engine
    }

    fn wcp(&self, id: u64) -> &Wcp {
        &self.scopes[self.scope_of[id as usize]]
    }

    /// Compares a verdict of stream `s` with predicate `id`'s reference.
    fn check(&self, s: usize, id: u64, verdict: &SessionVerdict) -> Option<String> {
        let expected = &self.streams[s].reference[self.scope_of[id as usize]];
        (verdict != expected).then(|| format!("S{id}: engine says {verdict}, reference {expected}"))
    }

    /// Replaces every reference verdict of stream `s`.
    #[cfg(test)]
    fn plant_wrong_references(&mut self, s: usize) {
        for r in &mut self.streams[s].reference {
            *r = match r {
                SessionVerdict::Impossible => SessionVerdict::Detected(vec![u64::MAX]),
                SessionVerdict::Detected(_) => SessionVerdict::Impossible,
            };
        }
    }
}

impl Workload for SessionService {
    fn pass_len(&self) -> usize {
        self.schedule.len()
    }

    fn prepare(&mut self, i: u64, _tr: &mut Tracer) {
        let (_, t) = self.schedule[i as usize % self.schedule.len()];
        let used = self.engine.as_ref().is_some_and(|e| e.routed_log_len() > 0);
        if t == 0 && used {
            self.engine = Some(self.fresh_engine(&mut Tracer::off()));
        }
    }

    fn op(&mut self, i: u64, tr: &mut Tracer) -> OpResult {
        let (s, t) = self.schedule[i as usize % self.schedule.len()];
        let engine = self.engine.as_ref().expect("engine built at set-up");
        let tick = &self.streams[s].ticks[t];
        let before = engine.stats();
        let stored = engine.store().stored_bytes();
        let mut mismatch = None;

        let ingest = tr.begin("session.ingest");
        let ingest_start = std::time::Instant::now();
        for (p, k, clock) in &tick.ingest {
            engine.ingest(*p, *k, clock);
        }
        for &p in &tick.close {
            engine.close(p);
        }
        let ingest_ns = ingest_start.elapsed().as_nanos() as f64;
        tr.end(ingest);
        for &id in &tick.register {
            let registered = tr.span("session.register", || {
                engine.register(PredicateId::new(id), self.wcp(id))
            });
            match registered {
                Ok(Some(v)) => mismatch = mismatch.or_else(|| self.check(s, id, &v)),
                Ok(None) => {}
                Err(e) => mismatch = mismatch.or(Some(format!("late registration: {e}"))),
            }
        }
        for &id in &tick.unregister {
            if !tr.span("session.unregister", || {
                engine.unregister(PredicateId::new(id))
            }) {
                mismatch = mismatch.or(Some(format!("S{id} was not registered")));
            }
        }
        let resolved = tr.span("session.pump", || engine.pump_parallel(PUMP_THREADS));
        for (id, v) in &resolved {
            mismatch = mismatch.or_else(|| self.check(s, id.raw(), v));
        }
        if t + 1 == self.streams[s].ticks.len() && !engine.all_resolved() {
            mismatch = mismatch.or(Some("sessions unresolved after the stream closed".into()));
        }

        let after = engine.stats();
        let routed = after.routed_events - before.routed_events;
        let store_now = engine.store().stored_bytes();
        if tr.enabled() {
            self.counts.push(Counts {
                ingest_ns_per_event: ingest_ns / tick.ingest.len().max(1) as f64,
                routed,
                detections: after.detections - before.detections,
            });
            self.stored_bytes = self.stored_bytes.max(store_now);
        }
        OpResult {
            events: routed,
            bytes: store_now - stored,
            mismatch,
        }
    }

    fn baseline(&mut self, i: u64, tr: &mut Tracer) {
        let (s, t) = self.schedule[i as usize % self.schedule.len()];
        if t == 0 {
            self.serial = Some(self.fresh_engine(&mut Tracer::off()));
        }
        // The twin joins at a stream's first tick and follows it to the end.
        let Some(engine) = &self.serial else { return };
        let tick = &self.streams[s].ticks[t];
        for (p, k, clock) in &tick.ingest {
            engine.ingest(*p, *k, clock);
        }
        for &p in &tick.close {
            engine.close(p);
        }
        for &id in &tick.register {
            let _ = engine.register(PredicateId::new(id), self.wcp(id));
        }
        for &id in &tick.unregister {
            engine.unregister(PredicateId::new(id));
        }
        tr.span("session.pump_serial", || engine.pump());
    }

    fn layers(&mut self, tr: &Tracer, _ops: usize, out: &mut Layers) {
        out.set_span_median("session.register_us", tr, "session.register", 1e3);
        out.set_span_median("session.unregister_us", tr, "session.unregister", 1e3);
        out.set_span_median("session.pump_ms", tr, "session.pump", 1e6);
        out.set_span_median("session.pump_serial_ms", tr, "session.pump_serial", 1e6);
        let n = self.counts.len();
        let ingest: Vec<f64> = self.counts.iter().map(|c| c.ingest_ns_per_event).collect();
        out.set("session.ingest_ns", Summary::of(&ingest).p50, n);
        let mean = |f: &dyn Fn(&Counts) -> u64| {
            self.counts.iter().map(f).sum::<u64>() as f64 / n.max(1) as f64
        };
        out.set("session.routed_events", mean(&|c| c.routed), n);
        out.set("session.detections", mean(&|c| c.detections), n);
        out.set("session.stored_bytes", self.stored_bytes as f64, n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::run_op;

    #[test]
    fn a_wrong_reference_is_a_failed_op_not_a_panic() {
        let mut w = setup(5, &mut Tracer::off());
        let mut tr = Tracer::off();
        let pass = w.pass_len() as u64;
        for i in 0..pass {
            assert_eq!(run_op(&mut w, i, &mut tr).failure, None, "op {i}");
        }
        // Every predicate resolves within its stream; wrong references
        // fail the next pass's ops on that stream instead of panicking.
        w.plant_wrong_references(0);
        let failed: Vec<u64> = (pass..2 * pass)
            .filter(|&i| run_op(&mut w, i, &mut tr).failure.is_some())
            .collect();
        let first_stream = w.streams[0].ticks.len() as u64;
        assert!(!failed.is_empty());
        assert!(failed.iter().all(|&i| i < pass + first_stream));
    }
}
