//! The multi-tenant engine: shared ingest, deterministic routing, fan-out.
//!
//! One [`MultiEngine`] serves every registered predicate over a single
//! event stream. Three design decisions make per-session verdicts *and*
//! metrics independent of tenancy, timing and transport:
//!
//! 1. **Canonical routed log.** Per-process FIFO streams are merged by a
//!    watermark rule: an event is routed only when every still-open
//!    process has a pending event (so no unseen event can precede it),
//!    and the pending event with the smallest `(interval, process)` key
//!    is routed first. The resulting log is the unique `(interval,
//!    process)`-sorted merge of the streams — a pure function of the
//!    computation, whatever the arrival interleaving was.
//! 2. **Shared rows, private cursors.** Snapshots are appended to the
//!    [`SharedStore`] once at ingest; log entries and sessions reference
//!    rows by index. Session state is `O(scope)` cursors + counters.
//! 3. **Replay-from-origin registration.** A predicate registered
//!    mid-stream first replays the routed log from entry 0 (cheap: rows
//!    are already stored), so a late session is indistinguishable from
//!    one registered before the first event.
//!
//! Fan-out is driven by [`pump`](MultiEngine::pump) (serial, the order the
//! service actor uses) or [`pump_parallel`](MultiEngine::pump_parallel)
//! (sessions partitioned across threads; per-session delivery order is
//! unchanged, so results are bit-identical to serial).
//!
//! Fan-out is *sharded*: subscriber lists are kept per process **and per
//! pump shard** (`PUMP_SHARDS` fixed shards, session → shard via a
//! multiply-shift hash of its id, like `Registry::shard`). A parallel
//! worker owns every `threads`-th shard and iterates only its own lists —
//! work scales with the deliveries a worker owns, never with the whole
//! subscriber population — and client-chosen id patterns with common
//! factors (all even, multiples of 16, …) still spread evenly. Resolved
//! and unregistered sessions are skipped on one atomic load (their state
//! mutex is never locked again) and compacted out of the lists by a
//! threshold-triggered sweep at pump start.

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use wcp_clocks::{scoped_workers, strided, ProcessId};
use wcp_detect::DetectionMetrics;
use wcp_trace::Wcp;

use crate::registry::{PredicateId, Registry, SessionSlot};
use crate::session::SessionVerdict;
use crate::store::{SharedStore, StoreView};

/// Why a registration was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegisterError {
    /// The id is already registered.
    Duplicate(PredicateId),
    /// The predicate names a process outside `0..N`.
    ScopeOutOfRange {
        /// The offending process.
        process: ProcessId,
        /// The engine's process count.
        n: usize,
    },
    /// The predicate scope is empty.
    EmptyScope,
}

impl fmt::Display for RegisterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegisterError::Duplicate(id) => write!(f, "predicate {id} is already registered"),
            RegisterError::ScopeOutOfRange { process, n } => {
                write!(f, "scope process {process} out of range for N={n}")
            }
            RegisterError::EmptyScope => write!(f, "predicate scope is empty"),
        }
    }
}

impl std::error::Error for RegisterError {}

/// Monotonic / gauge counters surfaced through `wcp stats` and `wcp top`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Currently registered sessions.
    pub sessions_active: u64,
    /// Routed-log entries delivered to (unresolved) sessions, total.
    pub routed_events: u64,
    /// Sessions that resolved `Detected`, total.
    pub detections: u64,
}

#[derive(Debug, Default)]
struct EngineCounters {
    sessions_active: AtomicU64,
    routed_events: AtomicU64,
    detections: AtomicU64,
    unresolved: AtomicU64,
    /// Subscriber-list entries, one per (session, scope process).
    total_subs: AtomicU64,
    /// Entries whose session is resolved or unregistered — reclaimed by
    /// the next pump's sweep once they cross the compaction threshold.
    dead_subs: AtomicU64,
}

/// Per-worker delivery counters, folded into [`EngineCounters`] once per
/// pump — the hot path touches no shared atomics.
#[derive(Debug, Default, Clone, Copy)]
struct PumpTally {
    routed_events: u64,
    detections: u64,
    /// Sessions that reached a verdict during this pass.
    resolved_sessions: u64,
    /// Subscriber-list entries those sessions occupy (now dead).
    dead_entries: u64,
}

impl PumpTally {
    fn merge(&mut self, other: PumpTally) {
        self.routed_events += other.routed_events;
        self.detections += other.detections;
        self.resolved_sessions += other.resolved_sessions;
        self.dead_entries += other.dead_entries;
    }
}

/// Number of pump shards: fixed and independent of the worker count, so
/// the session → shard map never changes and any `threads ≤ PUMP_SHARDS`
/// partitions the same lists.
const PUMP_SHARD_BITS: u32 = 5;
const PUMP_SHARDS: usize = 1 << PUMP_SHARD_BITS;

/// Pump shard of a session id: multiply-shift hash (same scheme as
/// `Registry::shard`), so adversarial client-chosen id patterns — all
/// even, multiples of 16, one common factor — still spread across every
/// shard. A plain `raw % threads` degenerates on exactly those patterns.
fn pump_shard(id: PredicateId) -> usize {
    let h = id.raw().wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (h >> (64 - PUMP_SHARD_BITS)) as usize
}

/// One entry of the canonical routed log.
#[derive(Debug, Clone, Copy)]
struct RoutedEvent {
    process: ProcessId,
    /// `false`: the next dense arena row of `process`; `true`: end of
    /// `process`'s stream.
    close: bool,
}

/// Watermark-merge state over the per-process ingest queues.
#[derive(Debug)]
struct MergeState {
    /// Intervals of appended-but-unrouted snapshots, per process (their
    /// arena rows are implied by the routed count).
    pending: Vec<VecDeque<u64>>,
    /// End-of-stream submitted (the close is the queue's last item).
    close_pending: Vec<bool>,
    /// End-of-stream routed into the log.
    close_routed: Vec<bool>,
    /// Last ingested interval, for FIFO checking and the close sort key.
    last_interval: Vec<u64>,
}

impl MergeState {
    fn new(n: usize) -> Self {
        MergeState {
            pending: (0..n).map(|_| VecDeque::new()).collect(),
            close_pending: vec![false; n],
            close_routed: vec![false; n],
            last_interval: vec![0; n],
        }
    }

    /// Appends every currently-routable event to `log`, in canonical
    /// `(interval, process)` order.
    fn route_into(&mut self, log: &mut Vec<RoutedEvent>) {
        let n = self.pending.len();
        loop {
            // (sort key, process, is_close) of the best routable head.
            let mut best: Option<(u64, usize, bool)> = None;
            for p in 0..n {
                let head = if let Some(&interval) = self.pending[p].front() {
                    (interval, p, false)
                } else if self.close_pending[p] {
                    if self.close_routed[p] {
                        continue; // Fully routed; never blocks, never competes.
                    }
                    (self.last_interval[p] + 1, p, true)
                } else {
                    // Open process with nothing pending: a smaller-keyed
                    // event may still arrive — nothing can be routed yet.
                    return;
                };
                if best.is_none_or(|b| (head.0, head.1) < (b.0, b.1)) {
                    best = Some(head);
                }
            }
            let Some((_, p, close)) = best else { return };
            if close {
                self.close_routed[p] = true;
            } else {
                self.pending[p].pop_front();
            }
            log.push(RoutedEvent {
                process: ProcessId::new(p as u32),
                close,
            });
        }
    }
}

/// Verdict and paper-unit metrics of one session.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionReport {
    /// Final verdict, or `None` while the stream is still open.
    pub verdict: Option<SessionVerdict>,
    /// Metrics so far (frozen once resolved).
    pub metrics: DetectionMetrics,
}

/// The shared multi-tenant detection engine.
#[derive(Debug)]
pub struct MultiEngine {
    n: usize,
    store: SharedStore,
    merge: Mutex<MergeState>,
    log: RwLock<Vec<RoutedEvent>>,
    registry: Registry,
    /// `subscribers[p][shard]` = sessions whose scope names process `p`
    /// and whose id hashes to `shard` (see [`pump_shard`]). Only touched
    /// under the pump lock, which freezes the lists for a whole pass.
    subscribers: RwLock<Vec<Vec<Vec<Arc<SessionSlot>>>>>,
    /// Serializes fan-out and (un)registration; holds the log index every
    /// registered session has been delivered up to.
    pump_lock: Mutex<usize>,
    counters: EngineCounters,
}

impl MultiEngine {
    /// An empty engine over `n ≥ 1` application processes.
    pub fn new(n: usize) -> Self {
        MultiEngine {
            n,
            store: SharedStore::new(n),
            merge: Mutex::new(MergeState::new(n)),
            log: RwLock::new(Vec::new()),
            registry: Registry::new(),
            subscribers: RwLock::new((0..n).map(|_| vec![Vec::new(); PUMP_SHARDS]).collect()),
            pump_lock: Mutex::new(0),
            counters: EngineCounters::default(),
        }
    }

    /// Number of application processes.
    pub fn process_count(&self) -> usize {
        self.n
    }

    /// The shared snapshot store (bytes stored once, whatever the tenant
    /// count).
    pub fn store(&self) -> &SharedStore {
        &self.store
    }

    /// Registers predicate `id` over `wcp`'s scope. The new session first
    /// replays the already-routed log from entry 0, so its verdict and
    /// metrics are identical to having registered before the first event;
    /// if that replay already resolves it, the verdict is returned.
    pub fn register(
        &self,
        id: PredicateId,
        wcp: &Wcp,
    ) -> Result<Option<SessionVerdict>, RegisterError> {
        if wcp.n() == 0 {
            return Err(RegisterError::EmptyScope);
        }
        for &p in wcp.scope() {
            if p.index() >= self.n {
                return Err(RegisterError::ScopeOutOfRange {
                    process: p,
                    n: self.n,
                });
            }
        }
        let delivered = self.pump_lock.lock().expect("engine poisoned");
        let slot = SessionSlot::new(id, wcp.scope().to_vec());
        self.registry
            .insert(Arc::clone(&slot))
            .map_err(|()| RegisterError::Duplicate(id))?;
        // Catch up on everything already routed.
        let resolved = {
            let log = self.log.read().expect("engine poisoned");
            let view = self.store.read();
            let mut state = slot.state.lock().expect("engine poisoned");
            let mut verdict = None;
            for entry in &log[..*delivered] {
                if state.resolved() {
                    break;
                }
                let Some(pos) = state.position(entry.process) else {
                    continue;
                };
                self.counters.routed_events.fetch_add(1, Ordering::Relaxed);
                verdict = if entry.close {
                    state.on_close(pos, &view)
                } else {
                    state.on_snapshot(pos, &view)
                };
            }
            verdict
        };
        if resolved.is_some() {
            // Already resolved by the catch-up replay: never enters the
            // subscriber lists, so no pump ever revisits it.
            slot.mark_resolved();
        } else {
            let shard = pump_shard(id);
            let mut subs = self.subscribers.write().expect("engine poisoned");
            for &p in &slot.scope {
                subs[p.index()][shard].push(Arc::clone(&slot));
            }
            self.counters
                .total_subs
                .fetch_add(slot.scope.len() as u64, Ordering::Relaxed);
        }
        self.counters
            .sessions_active
            .fetch_add(1, Ordering::Relaxed);
        match &resolved {
            Some(SessionVerdict::Detected(_)) => {
                self.counters.detections.fetch_add(1, Ordering::Relaxed);
            }
            Some(SessionVerdict::Impossible) => {}
            None => {
                self.counters.unresolved.fetch_add(1, Ordering::Relaxed);
            }
        }
        drop(delivered);
        Ok(resolved)
    }

    /// Unregisters `id`, dropping its session state. Returns `false` if
    /// the id was not registered. `O(1)`: the slot is only marked dead
    /// here; its subscriber-list entries are reclaimed by a later pump's
    /// sweep (fan-out skips dead slots on an atomic load meanwhile).
    pub fn unregister(&self, id: PredicateId) -> bool {
        let _delivered = self.pump_lock.lock().expect("engine poisoned");
        let Some(slot) = self.registry.remove(id) else {
            return false;
        };
        slot.live.store(false, Ordering::Release);
        self.counters
            .sessions_active
            .fetch_sub(1, Ordering::Relaxed);
        if !slot.is_resolved() {
            self.counters.unresolved.fetch_sub(1, Ordering::Relaxed);
            // Resolved slots already counted their entries dead when the
            // verdict landed (or never entered the lists at all).
            self.counters
                .dead_subs
                .fetch_add(slot.scope.len() as u64, Ordering::Relaxed);
        }
        true
    }

    /// Ingests the interval-`interval` snapshot of `p` (full-width clock).
    /// Per-process calls must arrive in increasing interval order — the
    /// FIFO channel discipline the paper's Figure 2 assumes.
    pub fn ingest(&self, p: ProcessId, interval: u64, clock: &[u64]) {
        assert!(p.index() < self.n, "process {p} out of range");
        let mut merge = self.merge.lock().expect("engine poisoned");
        assert!(
            !merge.close_pending[p.index()],
            "snapshot from {p} after end of stream"
        );
        assert!(
            interval > merge.last_interval[p.index()],
            "snapshots must arrive in increasing interval order"
        );
        merge.last_interval[p.index()] = interval;
        merge.pending[p.index()].push_back(interval);
        self.store.append(p, clock);
    }

    /// Declares `p`'s stream finished (end of trace).
    pub fn close(&self, p: ProcessId) {
        assert!(p.index() < self.n, "process {p} out of range");
        let mut merge = self.merge.lock().expect("engine poisoned");
        merge.close_pending[p.index()] = true;
    }

    /// Routes every routable event into the log and, if enough dead
    /// (resolved or unregistered) entries accumulated, compacts them out
    /// of the subscriber lists. Called at pump start under the pump lock.
    /// Threshold-triggered (≥ a quarter of all entries) rather than
    /// per-pump: the service actor pumps after every message, and an
    /// unconditional sweep would rescan every list per event.
    fn route_and_sweep(&self) {
        {
            let mut log = self.log.write().expect("engine poisoned");
            self.merge
                .lock()
                .expect("engine poisoned")
                .route_into(&mut log);
        }
        let dead = self.counters.dead_subs.load(Ordering::Relaxed);
        if dead == 0 || dead * 4 < self.counters.total_subs.load(Ordering::Relaxed) {
            return;
        }
        let mut subs = self.subscribers.write().expect("engine poisoned");
        let mut total = 0u64;
        for per_process in subs.iter_mut() {
            for shard in per_process.iter_mut() {
                shard.retain(|s| s.is_live() && !s.is_resolved());
                total += shard.len() as u64;
            }
        }
        self.counters.total_subs.store(total, Ordering::Relaxed);
        self.counters.dead_subs.store(0, Ordering::Relaxed);
    }

    /// Delivers `log[from..]` to every session in shards `first`,
    /// `first + step`, `first + 2·step`, … — shard-major, so a shard's
    /// sessions stay hot across the whole slice. Each session sees the
    /// slice in log order whatever the shard schedule, which is all the
    /// bit-identity invariant needs. Returns resolutions + this worker's
    /// tally.
    fn deliver_shards(
        &self,
        first: usize,
        step: usize,
        from: usize,
        log: &[RoutedEvent],
        subs: &[Vec<Vec<Arc<SessionSlot>>>],
        view: &StoreView<'_>,
    ) -> (Vec<(PredicateId, SessionVerdict)>, PumpTally) {
        let mut out = Vec::new();
        let mut tally = PumpTally::default();
        for shard in strided(first, step, PUMP_SHARDS) {
            for entry in &log[from..] {
                for slot in &subs[entry.process.index()][shard] {
                    if let Some(v) = self.deliver(slot, entry, view, &mut tally) {
                        out.push((slot.id, v));
                    }
                }
            }
        }
        (out, tally)
    }

    /// Folds one worker's tally into the shared counters — once per pump,
    /// so `all_resolved` and `stats` are exact at pump boundaries.
    fn fold(&self, tally: PumpTally) {
        self.counters
            .routed_events
            .fetch_add(tally.routed_events, Ordering::Relaxed);
        self.counters
            .detections
            .fetch_add(tally.detections, Ordering::Relaxed);
        self.counters
            .unresolved
            .fetch_sub(tally.resolved_sessions, Ordering::Relaxed);
        self.counters
            .dead_subs
            .fetch_add(tally.dead_entries, Ordering::Relaxed);
    }

    /// Routes everything routable and fans it out to every session,
    /// serially, in canonical order. Returns the sessions that resolved
    /// during this pump, in resolution order.
    pub fn pump(&self) -> Vec<(PredicateId, SessionVerdict)> {
        let mut delivered = self.pump_lock.lock().expect("engine poisoned");
        self.route_and_sweep();
        let log = self.log.read().expect("engine poisoned");
        let view = self.store.read();
        // Registration holds the pump lock, so subscriber lists are frozen
        // for the whole pass — take the read guard once, not per entry.
        let subs = self.subscribers.read().expect("engine poisoned");
        let (resolved, tally) = self.deliver_shards(0, 1, *delivered, &log, &subs, &view);
        self.fold(tally);
        *delivered = log.len();
        resolved
    }

    /// [`pump`](Self::pump) with the pump shards partitioned across
    /// `threads` workers: worker `w` owns every `threads`-th shard and
    /// iterates only its own subscriber lists — no scanning and skipping
    /// other workers' sessions, so total work equals the serial pump's.
    /// Each session still sees its events in canonical order from a
    /// single worker, so verdicts, metrics and counter totals are
    /// bit-identical to the serial pump; only the resolution order
    /// differs, so the result is sorted by id.
    pub fn pump_parallel(&self, threads: usize) -> Vec<(PredicateId, SessionVerdict)> {
        let threads = threads.clamp(1, PUMP_SHARDS);
        let mut delivered = self.pump_lock.lock().expect("engine poisoned");
        self.route_and_sweep();
        let log = self.log.read().expect("engine poisoned");
        let view = self.store.read();
        let subs = self.subscribers.read().expect("engine poisoned");
        let from = *delivered;
        let (mut resolved, tally) = if threads == 1 || log.len() == from {
            // Nothing to partition: run on the calling thread.
            self.deliver_shards(0, 1, from, &log, &subs, &view)
        } else {
            let parts = scoped_workers(threads, |w| {
                self.deliver_shards(w, threads, from, &log, &subs, &view)
            });
            let mut resolved = Vec::new();
            let mut tally = PumpTally::default();
            for (out, t) in parts {
                resolved.extend(out);
                tally.merge(t);
            }
            (resolved, tally)
        };
        self.fold(tally);
        resolved.sort_by_key(|(id, _)| *id);
        *delivered = log.len();
        resolved
    }

    /// Delivers one routed entry to one session; returns its verdict iff
    /// this delivery resolved it.
    fn deliver(
        &self,
        slot: &SessionSlot,
        entry: &RoutedEvent,
        view: &StoreView<'_>,
        tally: &mut PumpTally,
    ) -> Option<SessionVerdict> {
        // Fast path: resolved or unregistered sessions are skipped on
        // atomic loads alone — their state mutex is never locked again.
        if slot.is_resolved() || !slot.is_live() {
            return None;
        }
        let mut state = slot.state.lock().expect("engine poisoned");
        let pos = state
            .position(entry.process)
            .expect("subscriber list routed a non-scope process");
        tally.routed_events += 1;
        let verdict = if entry.close {
            state.on_close(pos, view)
        } else {
            state.on_snapshot(pos, view)
        };
        if let Some(v) = &verdict {
            slot.mark_resolved();
            tally.resolved_sessions += 1;
            tally.dead_entries += slot.scope.len() as u64;
            if matches!(v, SessionVerdict::Detected(_)) {
                tally.detections += 1;
            }
        }
        verdict
    }

    /// Whether every registered session has a final verdict.
    pub fn all_resolved(&self) -> bool {
        self.counters.unresolved.load(Ordering::Relaxed) == 0
    }

    /// Number of registered sessions.
    pub fn session_count(&self) -> usize {
        self.registry.len()
    }

    /// Verdict + metrics of session `id`, if registered.
    pub fn report(&self, id: PredicateId) -> Option<SessionReport> {
        let slot = self.registry.get(id)?;
        let state = slot.state.lock().expect("engine poisoned");
        Some(SessionReport {
            verdict: state.verdict().cloned(),
            metrics: state.metrics(),
        })
    }

    /// Every session's report, sorted by id.
    pub fn reports(&self) -> Vec<(PredicateId, SessionReport)> {
        self.registry
            .all()
            .into_iter()
            .map(|slot| {
                let state = slot.state.lock().expect("engine poisoned");
                (
                    slot.id,
                    SessionReport {
                        verdict: state.verdict().cloned(),
                        metrics: state.metrics(),
                    },
                )
            })
            .collect()
    }

    /// Current counter values.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            sessions_active: self.counters.sessions_active.load(Ordering::Relaxed),
            routed_events: self.counters.routed_events.load(Ordering::Relaxed),
            detections: self.counters.detections.load(Ordering::Relaxed),
        }
    }

    /// Length of the canonical routed log so far.
    pub fn routed_log_len(&self) -> usize {
        self.log.read().expect("engine poisoned").len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;
    use wcp_trace::Wcp;

    #[test]
    fn pump_shard_spreads_adversarial_id_patterns() {
        // Client-chosen ids sharing a common factor must still hit most
        // shards — the regression `raw % threads` fails (all-even ids
        // land every session on the even workers only).
        for stride in [2u64, 16, 256, 4096] {
            let mut used = [false; PUMP_SHARDS];
            for i in 0..1000u64 {
                used[pump_shard(PredicateId::new(i * stride))] = true;
            }
            let hit = used.iter().filter(|&&u| u).count();
            assert!(
                hit > PUMP_SHARDS / 2,
                "stride {stride}: only {hit}/{PUMP_SHARDS} shards used"
            );
        }
    }

    /// The resolved fast-path: once a session has its verdict, subsequent
    /// pumps (serial and parallel) must never lock its state mutex again.
    /// The test *holds* the resolved session's mutex while pumping from
    /// another thread; a regression deadlocks that thread and trips the
    /// timeout instead of hanging the suite.
    #[test]
    fn resolved_sessions_mutex_is_never_locked_by_later_pumps() {
        let engine = Arc::new(MultiEngine::new(2));
        // Padding sessions that never resolve (p1's clock always claims
        // to be ahead of p0, so scope position 0 is eliminated every
        // round) — they keep the dead fraction under the sweep threshold,
        // so the resolved slot genuinely stays in the subscriber lists.
        for i in 0..8u64 {
            engine
                .register(PredicateId::new(i), &Wcp::over_first(2))
                .unwrap();
        }
        let id = PredicateId::new(100);
        engine.register(id, &Wcp::over_first(1)).unwrap();
        engine.ingest(ProcessId::new(0), 1, &[1, 0]);
        engine.ingest(ProcessId::new(1), 1, &[6, 1]);
        let resolved = engine.pump();
        assert_eq!(resolved.len(), 1, "only the singleton scope resolves");
        assert_eq!(resolved[0].0, id);

        let slot = engine.registry.get(id).expect("registered");
        let guard = slot.state.lock().expect("state poisoned");
        let (tx, rx) = mpsc::channel();
        let pumper = Arc::clone(&engine);
        std::thread::spawn(move || {
            pumper.ingest(ProcessId::new(0), 2, &[2, 0]);
            pumper.ingest(ProcessId::new(1), 2, &[7, 2]);
            pumper.pump();
            pumper.ingest(ProcessId::new(0), 3, &[3, 0]);
            pumper.ingest(ProcessId::new(1), 3, &[8, 3]);
            pumper.pump_parallel(4);
            tx.send(()).expect("test receiver gone");
        });
        rx.recv_timeout(Duration::from_secs(30))
            .expect("pump tried to lock a resolved session's state mutex");
        drop(guard);
    }

    #[test]
    fn sweep_reclaims_unregistered_and_resolved_subscriber_entries() {
        let engine = MultiEngine::new(1);
        for i in 0..100u64 {
            engine
                .register(PredicateId::new(i), &Wcp::over_first(1))
                .unwrap();
        }
        assert_eq!(engine.counters.total_subs.load(Ordering::Relaxed), 100);
        for i in 0..60u64 {
            assert!(engine.unregister(PredicateId::new(i)));
        }
        assert_eq!(engine.counters.dead_subs.load(Ordering::Relaxed), 60);
        // 60/100 dead crosses the quarter threshold: pump sweeps first.
        engine.ingest(ProcessId::new(0), 1, &[1]);
        let resolved = engine.pump();
        assert_eq!(resolved.len(), 40, "survivors resolve on the snapshot");
        assert_eq!(engine.counters.total_subs.load(Ordering::Relaxed), 40);
        assert_eq!(engine.counters.dead_subs.load(Ordering::Relaxed), 40);
        // All remaining entries are dead now; the next pump drains them.
        engine.pump();
        assert_eq!(engine.counters.total_subs.load(Ordering::Relaxed), 0);
        assert_eq!(engine.counters.dead_subs.load(Ordering::Relaxed), 0);
        assert!(engine.all_resolved());
        assert_eq!(engine.stats().detections, 40);
    }
}
