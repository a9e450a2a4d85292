//! Local snapshots — the application→monitor messages of Figure 2 and
//! Section 4.1 — and their precomputation from a trace.

use wcp_clocks::{ClockArena, ClockRow, Dependence, ProcessId, StateId, VectorClock};
use wcp_trace::{AnnotatedComputation, Wcp};

/// A Figure 2 local snapshot: the candidate state's vector clock,
/// **projected to the predicate's scope** (the paper's `vclock: array[1..n]`
/// — only the `n` processes the predicate names carry clock components).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VcSnapshot {
    /// The candidate interval index on the owning process (equal to the
    /// snapshot's own clock component).
    pub interval: u64,
    /// Scope-projected vector clock, indexed by scope position.
    pub clock: VectorClock,
}

impl VcSnapshot {
    /// Wire size: one `u64` per scope component.
    pub fn wire_size(&self) -> usize {
        self.clock.wire_size()
    }
}

/// A Section 4.1 local snapshot: the candidate's scalar clock plus the
/// direct dependences accumulated since the previous snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DdSnapshot {
    /// The candidate's scalar clock (its interval index).
    pub clock: u64,
    /// Direct dependences recorded since the previous snapshot.
    pub deps: Vec<Dependence>,
}

impl DdSnapshot {
    /// Wire size: the clock plus "a pair of integers" per dependence
    /// (Section 4.4).
    pub fn wire_size(&self) -> usize {
        8 + self.deps.len() * 16
    }
}

/// Precomputes each scope process's Figure 2 snapshot queue: one snapshot
/// per pred-true interval, in order, with scope-projected clocks.
///
/// Indexed by **scope position** (not [`ProcessId`]).
///
/// This is the reference per-`Vec` path: it heap-allocates one clock per
/// snapshot. The offline detectors use the arena-backed
/// [`VcSnapshotQueues`] instead (property-tested equal to this function in
/// `tests/substrate.rs`); this form remains the building block for the
/// online monitors' wire messages, which arrive one snapshot at a time.
pub fn vc_snapshot_queues(annotated: &AnnotatedComputation<'_>, wcp: &Wcp) -> Vec<Vec<VcSnapshot>> {
    let scope = wcp.scope();
    scope
        .iter()
        .map(|&p| {
            annotated
                .true_intervals(p)
                .iter()
                .map(|&k| {
                    let full = annotated.clock(StateId::new(p, k));
                    let clock: VectorClock = scope.iter().map(|&q| full[q.index()]).collect();
                    VcSnapshot { interval: k, clock }
                })
                .collect()
        })
        .collect()
}

/// Arena-backed Figure 2 snapshot queues: every scope-projected snapshot
/// clock of a run stored in one flat [`ClockArena`] with stride `n`.
///
/// Queues are laid out back-to-back in scope order, so building performs a
/// single clock allocation for the whole run (the backing buffer is sized
/// exactly up front) instead of one `Vec<u64>` per snapshot. A snapshot's
/// interval index needs no separate storage: by the Figure 2 protocol the
/// own-component of a state's clock *is* its 1-based interval index, so
/// `interval(pos, i) == clock(pos, i)[pos]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VcSnapshotQueues {
    arena: ClockArena,
    /// Per scope position: index of the queue's first row in `arena`.
    starts: Vec<usize>,
    /// Per scope position: number of snapshots in the queue.
    lens: Vec<usize>,
}

impl VcSnapshotQueues {
    /// Builds the queues in a single pass over `true_intervals`.
    pub fn build(annotated: &AnnotatedComputation<'_>, wcp: &Wcp) -> Self {
        let scope = wcp.scope();
        let total: usize = scope
            .iter()
            .map(|&p| annotated.true_intervals(p).len())
            .sum();
        let mut arena = ClockArena::with_capacity(scope.len(), total);
        let mut starts = Vec::with_capacity(scope.len());
        let mut lens = Vec::with_capacity(scope.len());
        for &p in scope {
            starts.push(arena.len());
            for &k in annotated.true_intervals(p) {
                let full = annotated.clock(StateId::new(p, k));
                let row = arena.push_zeroed();
                for (slot, &q) in row.iter_mut().zip(scope) {
                    *slot = full[q.index()];
                }
            }
            lens.push(arena.len() - starts.last().unwrap());
        }
        VcSnapshotQueues {
            arena,
            starts,
            lens,
        }
    }

    /// Builds the queues with one scoped thread per scope process, then
    /// concatenates the per-process arenas in scope order — so the result
    /// is bit-identical to [`build`](Self::build) regardless of thread
    /// scheduling.
    ///
    /// No detector calls it: spawning a thread per process costs far more
    /// than the serial copy it splits (1.7 ms against 13 µs at `n = 32` on
    /// a 2-vCPU host), so [`ParallelDetector`](crate::ParallelDetector)
    /// builds with [`build`](Self::build) at every thread count.
    pub fn build_parallel(annotated: &AnnotatedComputation<'_>, wcp: &Wcp) -> Self {
        let scope = wcp.scope();
        let n = scope.len();
        if n <= 1 {
            return Self::build(annotated, wcp);
        }
        let per_process: Vec<ClockArena> = wcp_clocks::scoped_workers(n, |w| {
            let p = scope[w];
            let mut arena = ClockArena::with_capacity(n, annotated.true_intervals(p).len());
            for &k in annotated.true_intervals(p) {
                let full = annotated.clock(StateId::new(p, k));
                let row = arena.push_zeroed();
                for (slot, &q) in row.iter_mut().zip(scope) {
                    *slot = full[q.index()];
                }
            }
            arena
        });
        let total: usize = per_process.iter().map(ClockArena::len).sum();
        let mut arena = ClockArena::with_capacity(n, total);
        let mut starts = Vec::with_capacity(n);
        let mut lens = Vec::with_capacity(n);
        for part in &per_process {
            starts.push(arena.len());
            arena.append(part);
            lens.push(part.len());
        }
        VcSnapshotQueues {
            arena,
            starts,
            lens,
        }
    }

    /// Scope width `n` (also the width of every clock row).
    pub fn scope_width(&self) -> usize {
        self.starts.len()
    }

    /// Number of snapshots queued for scope position `pos`.
    pub fn queue_len(&self, pos: usize) -> usize {
        self.lens[pos]
    }

    /// Total snapshots across all queues.
    pub fn total_snapshots(&self) -> usize {
        self.lens.iter().sum()
    }

    /// The `i`-th snapshot clock in scope position `pos`'s queue.
    ///
    /// # Panics
    ///
    /// Panics if `pos` or `i` is out of range.
    pub fn clock(&self, pos: usize, i: usize) -> ClockRow<'_> {
        assert!(i < self.lens[pos], "snapshot index out of range");
        self.arena.row(self.starts[pos] + i)
    }

    /// Arena row id of the `i`-th snapshot in `pos`'s queue — stable across
    /// the run, usable as a compact candidate-clock handle
    /// (see [`arena`](Self::arena)).
    ///
    /// # Panics
    ///
    /// Panics if `pos` or `i` is out of range.
    pub fn row_id(&self, pos: usize, i: usize) -> usize {
        assert!(i < self.lens[pos], "snapshot index out of range");
        self.starts[pos] + i
    }

    /// The `i`-th snapshot's candidate interval index on scope position
    /// `pos` (its own clock component).
    pub fn interval(&self, pos: usize, i: usize) -> u64 {
        self.clock(pos, i)[pos]
    }

    /// Copies the `i`-th snapshot of `pos`'s queue into the owned wire form.
    pub fn to_vc_snapshot(&self, pos: usize, i: usize) -> VcSnapshot {
        VcSnapshot {
            interval: self.interval(pos, i),
            clock: self.clock(pos, i).to_vector_clock(),
        }
    }

    /// The shared backing arena.
    pub fn arena(&self) -> &ClockArena {
        &self.arena
    }

    /// Heap allocations holding clock components: `1` for the whole run
    /// (the flat backing buffer), vs one per snapshot on the per-`Vec` path.
    pub fn clock_allocations(&self) -> u64 {
        u64::from(!self.arena.is_empty())
    }
}

/// A monitor's incoming snapshot queue, arena-backed: clocks of buffered
/// [`VcSnapshot`] messages are copied into one grow-only [`ClockArena`]
/// instead of holding a `VecDeque` of per-snapshot `Vec`s.
///
/// Consumed rows stay in the arena (the buffer grows monotonically with the
/// run, matching the paper's `O(nm)` per-monitor space bound), so a popped
/// row id remains valid for the Figure 3 `for` loop after later pushes.
#[derive(Debug, Clone)]
pub struct SnapshotBuffer {
    arena: ClockArena,
    head: usize,
}

impl SnapshotBuffer {
    /// An empty buffer for scope width `n`.
    pub fn new(n: usize) -> Self {
        SnapshotBuffer {
            arena: ClockArena::new(n),
            head: 0,
        }
    }

    /// Buffers one arriving snapshot's clock.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's clock width differs from the buffer's.
    pub fn push(&mut self, snapshot: &VcSnapshot) {
        self.arena.push(snapshot.clock.as_slice());
    }

    /// Buffers one snapshot clock straight from its wire encoding (the
    /// little-endian `u64` components of a `VcSnapshot` body), decoding
    /// directly into the arena row — no intermediate `VectorClock`.
    ///
    /// # Panics
    ///
    /// Panics if `clock_le` is not exactly `n` little-endian `u64`s wide.
    pub fn push_le_bytes(&mut self, clock_le: &[u8]) {
        assert_eq!(
            clock_le.len(),
            self.arena.stride() * 8,
            "wire clock width differs from the buffer's scope width"
        );
        let row = self.arena.push_zeroed();
        for (slot, b) in row.iter_mut().zip(clock_le.chunks_exact(8)) {
            *slot = u64::from_le_bytes(b.try_into().unwrap());
        }
    }

    /// Consumes the oldest unconsumed snapshot, returning its row id.
    pub fn pop(&mut self) -> Option<usize> {
        if self.head == self.arena.len() {
            return None;
        }
        let id = self.head;
        self.head += 1;
        Some(id)
    }

    /// Row id of the oldest unconsumed snapshot without consuming it.
    pub fn front(&self) -> Option<usize> {
        (self.head < self.arena.len()).then_some(self.head)
    }

    /// The clock of a previously pushed snapshot.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn row(&self, id: usize) -> ClockRow<'_> {
        self.arena.row(id)
    }

    /// Number of buffered, not-yet-consumed snapshots.
    pub fn len(&self) -> usize {
        self.arena.len() - self.head
    }

    /// `true` iff no unconsumed snapshot is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Precomputes each process's Section 4.1 snapshot queue. Every one of the
/// `N` processes participates: scope processes snapshot their pred-true
/// intervals, non-scope processes (trivially true local predicate) snapshot
/// every interval. Indexed by [`ProcessId`].
pub fn dd_snapshot_queues(annotated: &AnnotatedComputation<'_>, wcp: &Wcp) -> Vec<Vec<DdSnapshot>> {
    let n = annotated.process_count();
    (0..n)
        .map(|i| {
            let p = ProcessId::new(i as u32);
            let mut prev = 0u64;
            let snap = |k: u64| {
                let deps = annotated.dependences_between(p, prev, k);
                prev = k;
                DdSnapshot { clock: k, deps }
            };
            if wcp.contains(p) {
                annotated
                    .true_intervals(p)
                    .iter()
                    .copied()
                    .map(snap)
                    .collect()
            } else {
                (1..=annotated.interval_count(p)).map(snap).collect()
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use wcp_trace::ComputationBuilder;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn vc_queue_projects_to_scope() {
        // Three processes, scope {P0, P2}; P1 relays causality.
        let mut b = ComputationBuilder::new(3);
        b.mark_true(p(0)); // (0,1)
        let m0 = b.send(p(0), p(1));
        b.receive(p(1), m0);
        let m1 = b.send(p(1), p(2));
        b.receive(p(2), m1);
        b.mark_true(p(2)); // (2,2)
        let c = b.build().unwrap();
        let a = c.annotate();
        let wcp = Wcp::over([p(0), p(2)]);
        let queues = vc_snapshot_queues(&a, &wcp);
        assert_eq!(queues.len(), 2);
        assert_eq!(queues[0].len(), 1);
        let s0 = &queues[0][0];
        assert_eq!(s0.interval, 1);
        assert_eq!(s0.clock.as_slice(), &[1, 0]); // [P0, P2] projection
        let s2 = &queues[1][0];
        assert_eq!(s2.interval, 2);
        // P2's interval 2 knows P0 interval 1 (via P1) — projection [1, 2].
        assert_eq!(s2.clock.as_slice(), &[1, 2]);
        assert_eq!(s2.wire_size(), 16);
    }

    #[test]
    fn dd_queue_accumulates_deps_between_snapshots() {
        // P1 receives two messages, predicate true only in interval 3.
        let mut b = ComputationBuilder::new(2);
        let m0 = b.send(p(0), p(1));
        let m1 = b.send(p(0), p(1));
        b.receive(p(1), m0);
        b.receive(p(1), m1);
        b.mark_true(p(1)); // interval 3
        let c = b.build().unwrap();
        let a = c.annotate();
        let wcp = Wcp::over([p(1)]);
        let queues = dd_snapshot_queues(&a, &wcp);
        // P0 is outside the scope: snapshots for all 3 intervals.
        assert_eq!(queues[0].len(), 3);
        assert!(queues[0].iter().all(|s| s.deps.is_empty()));
        // P1: one snapshot carrying both dependences.
        assert_eq!(queues[1].len(), 1);
        let s = &queues[1][0];
        assert_eq!(s.clock, 3);
        assert_eq!(
            s.deps,
            vec![Dependence::new(p(0), 1), Dependence::new(p(0), 2)]
        );
        assert_eq!(s.wire_size(), 8 + 32);
    }

    #[test]
    fn dd_deps_reset_after_each_snapshot() {
        let mut b = ComputationBuilder::new(2);
        let m0 = b.send(p(0), p(1));
        b.receive(p(1), m0);
        b.mark_true(p(1)); // interval 2, carries dep (P0,1)
        let m1 = b.send(p(0), p(1));
        b.receive(p(1), m1);
        b.mark_true(p(1)); // interval 3, carries dep (P0,2)
        let c = b.build().unwrap();
        let a = c.annotate();
        let queues = dd_snapshot_queues(&a, &Wcp::over([p(1)]));
        assert_eq!(queues[1].len(), 2);
        assert_eq!(queues[1][0].deps, vec![Dependence::new(p(0), 1)]);
        assert_eq!(queues[1][1].deps, vec![Dependence::new(p(0), 2)]);
    }

    #[test]
    fn empty_predicate_intervals_give_empty_queue() {
        let mut b = ComputationBuilder::new(2);
        b.send(p(0), p(1));
        let c = b.build().unwrap();
        let a = c.annotate();
        let wcp = Wcp::over_all(&c);
        assert!(vc_snapshot_queues(&a, &wcp).iter().all(|q| q.is_empty()));
        assert!(dd_snapshot_queues(&a, &wcp).iter().all(|q| q.is_empty()));
        let queues = VcSnapshotQueues::build(&a, &wcp);
        assert_eq!(queues.total_snapshots(), 0);
        assert_eq!(queues.clock_allocations(), 0);
    }

    #[test]
    fn snapshot_buffer_wire_push_matches_owned_push() {
        let snap = VcSnapshot {
            interval: 2,
            clock: vec![1u64, 2, 3].into_iter().collect(),
        };
        let mut le = Vec::new();
        for &c in snap.clock.as_slice() {
            le.extend_from_slice(&c.to_le_bytes());
        }
        let mut owned = SnapshotBuffer::new(3);
        owned.push(&snap);
        let mut wire = SnapshotBuffer::new(3);
        wire.push_le_bytes(&le);
        assert_eq!(wire.len(), owned.len());
        assert_eq!(
            wire.row(wire.front().unwrap()).as_slice(),
            owned.row(owned.front().unwrap()).as_slice()
        );
    }

    #[test]
    fn arena_queues_match_reference_path() {
        let mut b = ComputationBuilder::new(3);
        b.mark_true(p(0));
        let m0 = b.send(p(0), p(1));
        b.receive(p(1), m0);
        let m1 = b.send(p(1), p(2));
        b.receive(p(2), m1);
        b.mark_true(p(2));
        b.mark_true(p(2));
        let c = b.build().unwrap();
        let a = c.annotate();
        let wcp = Wcp::over([p(0), p(2)]);
        let reference = vc_snapshot_queues(&a, &wcp);
        let arena = VcSnapshotQueues::build(&a, &wcp);
        let parallel = VcSnapshotQueues::build_parallel(&a, &wcp);
        assert_eq!(arena, parallel);
        assert_eq!(arena.scope_width(), 2);
        assert_eq!(arena.clock_allocations(), 1);
        for (pos, queue) in reference.iter().enumerate() {
            assert_eq!(arena.queue_len(pos), queue.len());
            for (i, snap) in queue.iter().enumerate() {
                assert_eq!(arena.interval(pos, i), snap.interval);
                assert_eq!(arena.clock(pos, i).as_slice(), snap.clock.as_slice());
                assert_eq!(&arena.to_vc_snapshot(pos, i), snap);
            }
        }
    }
}
