//! Work-optimal round-parallel detection (Garg, *Fast and Work-Optimal
//! Parallel Algorithms for Predicate Detection*, arXiv:2008.12516).
//!
//! The single-token algorithm walks the candidate queues one elimination
//! at a time, paying `O(n)` per consumed candidate (Figure 3's `for` loop).
//! This detector restructures the same elimination rule into synchronous
//! rounds over a shared knowledge vector `M`:
//!
//! - `M[i]` is the most any **other** position's ever-selected candidate
//!   knows about scope position `i` — the running componentwise max of
//!   `row[i]` over every accepted candidate row of positions `j ≠ i`.
//!   Clocks are componentwise monotone along a process line, so knowledge
//!   from superseded candidates never has to be retracted: `M` only grows.
//! - A round sweeps every *dirty* position (one whose `M[i]` grew) against
//!   the **frozen** `M` of the previous round: candidate `(i, k)` is
//!   refuted iff `M[i] ≥ k` — one scalar compare, not an `n`-vector scan —
//!   and the position consumes its queue until a candidate survives.
//! - Newly selected candidates then merge their clocks into `M`
//!   (`O(n)` once per accepted candidate), marking the raised components
//!   dirty for the next round. A round with nothing dirty is the fixed
//!   point: every pair of selected candidates is mutually unknown, i.e.
//!   pairwise concurrent — the paper's all-green detection condition.
//!
//! Total work is `O(1)` per eliminated candidate plus `O(n)` per accepted
//! one — `O(nm + n·a)` for `a` acceptances instead of the token walk's
//! `O(n)` on every elimination.
//!
//! # One worker scope per detection, owner-computes
//!
//! A detection at `threads = t` opens one [`std::thread::scope`] with
//! `min(t, n) − 1` helper threads; the calling thread is worker 0. Worker
//! `w` owns a contiguous block of scope positions — their queue heads,
//! selected intervals and knowledge components `M[j]` — and every round
//! it
//!
//! 1. sweeps its own dirty positions and publishes the sweeps to its slot
//!    of a double buffer (round `r` writes buffer `r mod 2`),
//! 2. crosses the round's one barrier (spin briefly, yield a few times,
//!    then park),
//! 3. merges every published acceptance into its own `M` components —
//!    the `O(n)`-per-acceptance half of the work, split `t` ways — and
//!    computes its next dirty set.
//!
//! A worker rewrites a slot two rounds after publishing it, and every
//! reader of that slot has crossed the barrier in between, so one barrier
//! per round is the only synchronisation. Every worker makes the stop
//! decision from the same published sweeps — all slots empty is the fixed
//! point, any exhausted sweep ends the run — so no extra signal is sent.
//! A worker that panics poisons the barrier; the others abandon their
//! rounds and the panic comes out of `detect`.
//!
//! # Bit-identity at every thread count
//!
//! A sweep is a pure function of (frozen `M`, the position's queue and
//! head), so the block partition cannot change its outcome. Metering stays
//! on the calling thread: after the barrier it commits every published
//! sweep to the run's `Meter` in block order, which is position order, and
//! stops at the first exhausted sweep, exactly as a serial run would.
//! Keeping the one `Meter` on one thread is what makes `Detection`,
//! `DetectionMetrics` **and the recorded event stream** identical at
//! every thread count, and lets `replay_metrics` reconstruct the metrics
//! exactly (the fuzz battery checks this on every case). `threads = 1`
//! runs the same routine with one block and no barrier.

use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError, RwLock};

use wcp_clocks::Cut;
use wcp_obs::{NullRecorder, Recorder};
use wcp_trace::{AnnotatedComputation, Wcp};

use crate::detector::{Detection, DetectionReport, Detector};
use crate::meter::Meter;
use crate::snapshot::VcSnapshotQueues;

/// Busy polls of the barrier's generation before a waiter starts yielding.
/// Catches a partner arriving within microseconds; pure spinning would
/// starve the straggler when workers outnumber cores.
const BARRIER_SPINS: usize = 200;
/// Polls after the spin, each after yielding the core (to a straggler, if
/// workers outnumber cores), before the waiter parks.
const BARRIER_YIELDS: usize = 20;

/// Outcome of sweeping one dirty position in one round — what the calling
/// thread meters and every worker merges into its `M` components.
struct Sweep {
    /// Scope position swept.
    pos: usize,
    /// Previously selected interval this round's knowledge refuted, if any
    /// (timeline event only: it was counted as consumed at acceptance).
    invalidated: Option<u64>,
    /// Intervals consumed and refuted, in queue order.
    eliminated: Vec<u64>,
    /// Newly selected candidate: `(interval, arena row id)`.
    accepted: Option<(u64, usize)>,
    /// Queue index of the next unconsumed candidate after the sweep.
    new_head: usize,
    /// The queue ran dry while the position was still refuted.
    exhausted: bool,
}

impl Sweep {
    /// Paper-unit cost of the sweep: one threshold test, one unit per
    /// refuted candidate, and an `n`-vector merge if one was accepted.
    fn work(&self, n: usize) -> u64 {
        1 + self.eliminated.len() as u64 + if self.accepted.is_some() { n as u64 } else { 0 }
    }
}

/// Sweeps `pos` against the frozen knowledge `threshold = M[pos]`: refutes
/// the selected candidate if dominated, then consumes the queue until a
/// candidate survives. Pure — this is the part workers run concurrently.
fn sweep_position(
    queues: &VcSnapshotQueues,
    pos: usize,
    head: usize,
    selected: u64,
    threshold: u64,
) -> Sweep {
    let mut sweep = Sweep {
        pos,
        invalidated: None,
        eliminated: Vec::new(),
        accepted: None,
        new_head: head,
        exhausted: false,
    };
    if selected > 0 {
        if threshold < selected {
            // Still unrefuted: the raised knowledge stops short of the
            // selected interval.
            return sweep;
        }
        sweep.invalidated = Some(selected);
    }
    let len = queues.queue_len(pos);
    let mut h = head;
    loop {
        if h >= len {
            sweep.exhausted = true;
            break;
        }
        let interval = queues.interval(pos, h);
        h += 1;
        if interval > threshold {
            sweep.accepted = Some((interval, queues.row_id(pos, h - 1)));
            break;
        }
        sweep.eliminated.push(interval);
    }
    sweep.new_head = h;
    sweep
}

/// Meters one round's sweeps in position order, up to the first that
/// found its queue dry. Runs on the calling thread only.
fn commit<'s>(meter: &mut Meter, sweeps: impl Iterator<Item = &'s Sweep>, n: usize) {
    let mut round_max = 0u64;
    let mut lead = 0; // every sweep costs at least 1, so the first sets it
    for s in sweeps {
        if s.work(n) > round_max {
            round_max = s.work(n);
            lead = s.pos;
        }
        if let Some(old) = s.invalidated {
            meter.candidate_invalidated(s.pos, s.pos, old);
        }
        meter.work(s.pos, 1);
        for &interval in &s.eliminated {
            meter.candidate_eliminated(s.pos, s.pos, interval, 1);
        }
        if let Some((interval, _)) = s.accepted {
            meter.candidate_accepted(s.pos, s.pos, interval, n as u64);
        }
        if s.exhausted {
            // Account for the partial round before aborting; later
            // positions' sweeps are discarded uncommitted, exactly as a
            // serial run would never have started them.
            meter.parallel_advance(s.pos, round_max);
            meter.exhausted(s.pos);
            return;
        }
    }
    // Sweeps ran concurrently: the round's critical path is the costliest
    // position.
    meter.parallel_advance(lead, round_max);
}

/// Another worker panicked at or before the barrier.
struct Poisoned;

/// The workers' reusable round barrier: arrivals spin for
/// [`BARRIER_SPINS`] polls and yield for [`BARRIER_YIELDS`] more, then
/// park on a condition variable. A worker that panics poisons it, so
/// nobody waits forever for it.
struct RoundBarrier {
    parties: usize,
    arrived: AtomicUsize,
    generation: AtomicUsize,
    poisoned: AtomicBool,
    lock: Mutex<()>,
    wake: Condvar,
}

impl RoundBarrier {
    fn new(parties: usize) -> Self {
        RoundBarrier {
            parties,
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
            lock: Mutex::new(()),
            wake: Condvar::new(),
        }
    }

    /// Blocks until all parties have arrived. Everything a party wrote
    /// before arriving is visible to every party after it returns: each
    /// arrival's `AcqRel` increment extends the release sequence the last
    /// arrival acquires, and its `Release` bump of `generation` pairs with
    /// the waiters' `Acquire` loads.
    fn wait(&self) -> Result<(), Poisoned> {
        let generation = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.parties {
            // Reset before the bump: nobody arrives for the next round
            // until it has seen the new generation.
            self.arrived.store(0, Ordering::Relaxed);
            // Bump under the lock so a waiter between its last check and
            // `Condvar::wait` cannot miss the wake-up.
            let _guard = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
            self.generation
                .store(generation.wrapping_add(1), Ordering::Release);
            self.wake.notify_all();
            return Ok(());
        }
        let released = || {
            if self.generation.load(Ordering::Acquire) != generation {
                Some(Ok(()))
            } else if self.poisoned.load(Ordering::Acquire) {
                Some(Err(Poisoned))
            } else {
                None
            }
        };
        for attempt in 0..BARRIER_SPINS + BARRIER_YIELDS {
            if let Some(result) = released() {
                return result;
            }
            if attempt < BARRIER_SPINS {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        let mut guard = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(result) = released() {
                return result;
            }
            guard = self
                .wake
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn poison(&self) {
        let _guard = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
        self.poisoned.store(true, Ordering::Release);
        self.wake.notify_all();
    }
}

/// Poisons the barrier if its worker unwinds, releasing the others.
struct PoisonOnPanic<'a>(&'a RoundBarrier);

impl Drop for PoisonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poison();
        }
    }
}

/// What the workers of one detection share.
struct Pool<'a> {
    queues: &'a VcSnapshotQueues,
    workers: usize,
    /// Round `r`'s sweeps, one slot per worker, in buffer `r mod 2`.
    slots: [Vec<RwLock<Vec<Sweep>>>; 2],
    barrier: RoundBarrier,
}

/// How a worker's rounds ended.
enum Outcome {
    /// Fixed point; the selected intervals of the worker's block.
    FixedPoint(Vec<u64>),
    /// A queue ran dry.
    Exhausted,
    /// Another worker panicked.
    Abandoned,
}

impl<'a> Pool<'a> {
    fn new(queues: &'a VcSnapshotQueues, workers: usize) -> Self {
        let slots = || (0..workers).map(|_| RwLock::default()).collect();
        Pool {
            queues,
            workers,
            slots: [slots(), slots()],
            barrier: RoundBarrier::new(workers),
        }
    }

    /// Worker `w`'s contiguous block of scope positions.
    fn block(&self, w: usize) -> Range<usize> {
        let n = self.queues.scope_width();
        w * n / self.workers..(w + 1) * n / self.workers
    }

    /// Runs worker `w`'s rounds to the end of the detection. Only the
    /// calling thread passes the `meter`; every thread arms a
    /// [`PoisonOnPanic`] first.
    fn run(&self, w: usize, mut meter: Option<&mut Meter>) -> Outcome {
        let n = self.queues.scope_width();
        let block = self.block(w);
        let lo = block.start;
        let mut heads = vec![0usize; block.len()]; // next unconsumed queue index
        let mut selected = vec![0u64; block.len()]; // selected interval (0 = none yet)
        let mut m = vec![0u64; block.len()]; // others' knowledge about each position
        let mut raised = vec![false; block.len()];
        let mut dirty: Vec<usize> = block.clone().collect();
        let mut buffer = 0;
        loop {
            let slots = &self.slots[buffer];
            // ---- Sweep own dirty positions against frozen M. ------------
            let sweeps: Vec<Sweep> = dirty
                .iter()
                .map(|&pos| {
                    let i = pos - lo;
                    let s = sweep_position(self.queues, pos, heads[i], selected[i], m[i]);
                    heads[i] = s.new_head;
                    if let Some((interval, _)) = s.accepted {
                        selected[i] = interval;
                    }
                    s
                })
                .collect();
            *slots[w].write().unwrap_or_else(PoisonError::into_inner) = sweeps;
            if self.workers > 1 && self.barrier.wait().is_err() {
                return Outcome::Abandoned;
            }
            let published: Vec<_> = slots
                .iter()
                .map(|slot| slot.read().unwrap_or_else(PoisonError::into_inner))
                .collect();
            let round_sweeps = || published.iter().flat_map(|sweeps| sweeps.iter());
            if round_sweeps().next().is_none() {
                // Fixed point: nobody's knowledge reaches anybody's
                // selected interval.
                return Outcome::FixedPoint(selected);
            }
            // ---- Commit (calling thread): meter in position order. ------
            if let Some(meter) = meter.as_deref_mut() {
                commit(meter, round_sweeps(), n);
            }
            if round_sweeps().any(|s| s.exhausted) {
                return Outcome::Exhausted;
            }
            // ---- Merge accepted knowledge into own M, mark dirty. -------
            // Componentwise max is order independent, so each block
            // merging its own components equals one serial merge.
            for s in round_sweeps() {
                if let Some((_, row_id)) = s.accepted {
                    let row = &self.queues.arena().row(row_id)[block.clone()];
                    for (i, &k) in row.iter().enumerate() {
                        if lo + i != s.pos && k > m[i] {
                            m[i] = k;
                            raised[i] = true;
                        }
                    }
                }
            }
            dirty.clear();
            for (i, r) in raised.iter_mut().enumerate() {
                if std::mem::take(r) {
                    dirty.push(lo + i);
                }
            }
            buffer ^= 1;
        }
    }
}

/// The work-optimal round-parallel detector (see the [module docs](self)).
///
/// `threads = 1` (the default) runs the identical round routine on the
/// calling thread; higher counts split the scope positions into blocks,
/// each owned by one scoped worker for the whole detection. The verdict,
/// metrics and event stream are bit-identical at every thread count.
#[derive(Clone)]
pub struct ParallelDetector {
    threads: usize,
    recorder: Arc<dyn Recorder>,
}

impl fmt::Debug for ParallelDetector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ParallelDetector")
            .field("threads", &self.threads)
            .finish_non_exhaustive()
    }
}

impl ParallelDetector {
    /// Detector running its rounds on the calling thread (`threads = 1`).
    pub fn new() -> Self {
        ParallelDetector {
            threads: 1,
            recorder: Arc::new(NullRecorder),
        }
    }

    /// Splits the scope across `threads` scoped workers (at most one per
    /// scope position), the calling thread among them.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads >= 1, "need at least one worker thread");
        self.threads = threads;
        self
    }

    /// Configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Streams [`wcp_obs::TraceEvent`]s of the run to `recorder`. Monitor
    /// ids are scope positions.
    pub fn with_recorder(mut self, recorder: Arc<dyn Recorder>) -> Self {
        self.recorder = recorder;
        self
    }
}

impl Default for ParallelDetector {
    fn default() -> Self {
        ParallelDetector::new()
    }
}

impl Detector for ParallelDetector {
    fn name(&self) -> &str {
        "parallel"
    }

    /// Runs the round-parallel elimination to its fixed point.
    ///
    /// # Panics
    ///
    /// Panics if the predicate scope is empty.
    fn detect(&self, annotated: &AnnotatedComputation<'_>, wcp: &Wcp) -> DetectionReport {
        let n = wcp.n();
        assert!(n >= 1, "WCP scope must name at least one process");
        let queues = VcSnapshotQueues::build(annotated, wcp);

        let mut meter = Meter::new(n, self.recorder.clone());
        for i in 0..n {
            for pos in 0..queues.queue_len(i) {
                meter.snapshot_buffered(i, pos as u64 + 1, queues.clock(i, pos).wire_size() as u64);
            }
        }

        let pool = Pool::new(&queues, self.threads.min(n));
        let outcomes: Vec<Outcome> = std::thread::scope(|s| {
            let pool = &pool;
            // Armed before the first spawn: a failed spawn must release
            // the helpers already waiting at the barrier too.
            let _poison = PoisonOnPanic(&pool.barrier);
            let helpers: Vec<_> = (1..pool.workers)
                .map(|w| {
                    s.spawn(move || {
                        let _poison = PoisonOnPanic(&pool.barrier);
                        pool.run(w, None)
                    })
                })
                .collect();
            let mut outcomes = vec![pool.run(0, Some(&mut meter))];
            for helper in helpers {
                match helper.join() {
                    Ok(outcome) => outcomes.push(outcome),
                    Err(panic) => std::panic::resume_unwind(panic),
                }
            }
            outcomes
        });

        // Blocks are contiguous and in worker order, so concatenating
        // them gives the selected interval of every scope position.
        let mut selected = Vec::with_capacity(n);
        for outcome in outcomes {
            match outcome {
                Outcome::FixedPoint(block) => selected.extend(block),
                Outcome::Exhausted => {
                    return DetectionReport {
                        detection: Detection::Undetected,
                        metrics: meter.metrics,
                    }
                }
                Outcome::Abandoned => unreachable!("barrier poisoned but no worker panicked"),
            }
        }
        // Fixed point: the selected candidates are pairwise concurrent.
        let mut cut = Cut::new(annotated.process_count());
        for (&p, &interval) in wcp.scope().iter().zip(&selected) {
            cut.set(p, interval);
        }
        meter.found(0, cut.as_slice());
        DetectionReport {
            detection: Detection::Detected { cut },
            metrics: meter.metrics,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{replay_metrics, TokenDetector};
    use wcp_clocks::ProcessId;
    use wcp_obs::{RingRecorder, StampedEvent, TraceEvent};
    use wcp_trace::generate::{generate, GeneratorConfig};
    use wcp_trace::{Computation, ComputationBuilder};

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn detects_concurrent_true_states() {
        let mut b = ComputationBuilder::new(2);
        let msg = b.send(p(0), p(1));
        b.mark_true(p(0));
        b.receive(p(1), msg);
        b.mark_true(p(1));
        let c = b.build().unwrap();
        let report = ParallelDetector::new().detect(&c.annotate(), &Wcp::over_first(2));
        assert_eq!(report.detection.cut().unwrap().as_slice(), &[2, 2]);
    }

    #[test]
    fn agrees_with_token_and_ground_truth_on_random_runs() {
        for seed in 0..40 {
            let cfg = GeneratorConfig::new(5, 12)
                .with_seed(seed)
                .with_predicate_density(0.25);
            let g = generate(&cfg);
            let a = g.computation.annotate();
            let wcp = Wcp::over_first(4);
            let expected = a.first_satisfying_cut(&wcp);
            let token = TokenDetector::new().detect(&a, &wcp);
            let par = ParallelDetector::new().detect(&a, &wcp);
            assert_eq!(par.detection.cut().cloned(), expected, "seed {seed}");
            assert_eq!(par.detection, token.detection, "seed {seed}");
        }
    }

    /// A generated trace over `n` processes: a cut planted at 80 % of the
    /// run, or sparse predicates with none planted (mostly never true, so
    /// some queue runs dry mid-detection).
    fn trace(n: usize, m: usize, seed: u64, planted: bool) -> Computation {
        let cfg = GeneratorConfig::new(n, m).with_seed(seed);
        let cfg = if planted {
            cfg.with_predicate_density(0.2).with_plant(0.8)
        } else {
            cfg.with_predicate_density(0.15)
        };
        generate(&cfg).computation
    }

    /// One detection at `threads` and its complete recorded event stream.
    fn recorded(
        a: &AnnotatedComputation<'_>,
        wcp: &Wcp,
        threads: usize,
    ) -> (DetectionReport, Vec<StampedEvent>) {
        let ring = Arc::new(RingRecorder::new(1 << 16));
        let report = ParallelDetector::new()
            .with_threads(threads)
            .with_recorder(ring.clone())
            .detect(a, wcp);
        assert_eq!(ring.dropped(), 0, "ring too small to compare streams");
        (report, ring.events())
    }

    #[test]
    fn every_thread_count_is_bit_identical() {
        // Uneven blocks (n = 33), a wide scope (n = 128) and more threads
        // than positions (n = 5), on planted and never-true traces.
        let grid: [(usize, usize, u64, &[usize]); 4] = [
            (8, 15, 12, &[2, 3, 4, 8]),
            (33, 20, 8, &[2, 3, 4, 8]),
            (128, 12, 3, &[2, 3, 4, 8]),
            (5, 12, 8, &[6, 16]),
        ];
        let mut dry_past_first_block = 0;
        for (n, m, seeds, thread_counts) in grid {
            for seed in 0..seeds {
                for planted in [true, false] {
                    let c = trace(n, m, seed, planted);
                    let a = c.annotate();
                    let wcp = Wcp::over_first(n);
                    let (reference, events) = recorded(&a, &wcp, 1);
                    let dry = events
                        .iter()
                        .find(|e| e.event == TraceEvent::DetectionExhausted)
                        .map(|e| e.monitor as usize);
                    for &threads in thread_counts {
                        let first_block_end = n / threads.min(n);
                        if dry.is_some_and(|pos| pos >= first_block_end && pos + 1 < n) {
                            dry_past_first_block += 1;
                        }
                        let (r, e) = recorded(&a, &wcp, threads);
                        let at = format!("n {n} seed {seed} planted {planted} t{threads}");
                        assert_eq!(r.detection, reference.detection, "{at}");
                        assert_eq!(r.metrics, reference.metrics, "{at}");
                        assert_eq!(e, events, "{at}: event streams differ");
                    }
                }
            }
        }
        // Some queue ran dry inside a later block with positions after it,
        // whose sweeps the commit must discard.
        assert!(dry_past_first_block > 0);
    }

    #[test]
    fn repeated_runs_are_identical() {
        // Races on the round barrier (a slot rewritten while another
        // worker still reads it, a lost wake-up) would show as a differing
        // report or stream, or as a hang.
        let c = trace(64, 20, 3, true);
        let a = c.annotate();
        let wcp = Wcp::over_first(64);
        let (reference, events) = recorded(&a, &wcp, 1);
        for threads in [2usize, 3] {
            for run in 0..200 {
                let (r, e) = recorded(&a, &wcp, threads);
                assert_eq!(r, reference, "t{threads} run {run}");
                assert_eq!(e, events, "t{threads} run {run}: event streams differ");
            }
        }
    }

    #[test]
    fn a_panicking_worker_releases_the_barrier() {
        let barrier = RoundBarrier::new(3);
        std::thread::scope(|s| {
            let waiters: Vec<_> = (0..2).map(|_| s.spawn(|| barrier.wait())).collect();
            let failing = s.spawn(|| {
                let _poison = PoisonOnPanic(&barrier);
                panic!("worker failed before the barrier");
            });
            assert!(failing.join().is_err());
            for waiter in waiters {
                assert!(waiter.join().unwrap().is_err(), "waiter not released");
            }
        });
    }

    #[test]
    fn replay_reconstructs_metrics_exactly() {
        for (n, threads) in [(6, 1), (6, 4), (33, 4)] {
            let g = generate(
                &GeneratorConfig::new(n, 12)
                    .with_seed(5)
                    .with_predicate_density(0.3),
            );
            let a = g.computation.annotate();
            let (report, events) = recorded(&a, &Wcp::over_first(n), threads);
            let replayed = replay_metrics(n, &events);
            assert_eq!(replayed, report.metrics, "n {n} threads {threads}");
        }
    }

    #[test]
    fn single_process_scope() {
        let mut b = ComputationBuilder::new(1);
        b.mark_true(p(0));
        let c = b.build().unwrap();
        let report = ParallelDetector::new().detect(&c.annotate(), &Wcp::over_first(1));
        assert_eq!(report.detection.cut().unwrap().as_slice(), &[1]);
    }

    #[test]
    fn undetected_when_one_predicate_never_true() {
        let mut b = ComputationBuilder::new(2);
        b.mark_true(p(0));
        let c = b.build().unwrap();
        for threads in [1usize, 2, 8] {
            let report = ParallelDetector::new()
                .with_threads(threads)
                .detect(&c.annotate(), &Wcp::over_first(2));
            assert_eq!(report.detection, Detection::Undetected, "threads {threads}");
        }
    }

    #[test]
    fn undetected_when_only_ordered_true_states() {
        let mut b = ComputationBuilder::new(2);
        b.mark_true(p(0));
        let msg = b.send(p(0), p(1));
        b.receive(p(1), msg);
        b.mark_true(p(1));
        let c = b.build().unwrap();
        let report = ParallelDetector::new().detect(&c.annotate(), &Wcp::over_first(2));
        assert_eq!(report.detection, Detection::Undetected);
        assert_eq!(report.metrics.snapshot_messages, 2);
    }

    #[test]
    fn work_is_cheaper_than_token_on_elimination_heavy_runs() {
        // Dense queues with a late planted cut: the token pays n per
        // consumed candidate, the round sweep pays 1.
        let cfg = GeneratorConfig::new(8, 40)
            .with_seed(9)
            .with_predicate_density(0.6)
            .with_plant(0.9);
        let g = generate(&cfg);
        let a = g.computation.annotate();
        let wcp = Wcp::over_first(8);
        let token = TokenDetector::new().detect(&a, &wcp);
        let par = ParallelDetector::new().detect(&a, &wcp);
        assert_eq!(par.detection, token.detection);
        assert!(
            par.metrics.total_work() < token.metrics.total_work(),
            "parallel {} !< token {}",
            par.metrics.total_work(),
            token.metrics.total_work()
        );
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_panics() {
        let _ = ParallelDetector::new().with_threads(0);
    }

    #[test]
    #[should_panic(expected = "at least one process")]
    fn empty_scope_panics() {
        let c = ComputationBuilder::new(1).build().unwrap();
        let a = c.annotate();
        ParallelDetector::new().detect(&a, &Wcp::over([]));
    }
}
