//! Scoped worker-pool and work-partitioning helpers.
//!
//! The one-shot parallel paths in the workspace follow the same recipe:
//! spawn `t` scoped workers, give worker `w` the strided slice
//! `w, w + t, w + 2t, …` of some index space, and join the workers **in
//! worker order** so the fold over their results is deterministic. This
//! module is that recipe in one place — the snapshot-queue build and the
//! session pump shards partition through it, so the bit-identity argument
//! ("worker assignment cannot change the merged result") is made once.
//!
//! The work-optimal parallel detector does not use it: its rounds reuse
//! one set of workers for the whole detection, each owning a contiguous
//! block of scope positions (see `wcp_detect::ParallelDetector`).

/// Runs `work(w)` for `w ∈ 0..threads` on scoped threads and returns the
/// results **indexed by worker** (`out[w] == work(w)`), so folding the
/// results is independent of thread scheduling.
///
/// With `threads <= 1` the single unit runs on the calling thread — the
/// serial fallback shares the exact code path of the parallel one, which is
/// what makes "bit-identical at every thread count" hold by construction
/// for callers whose `work` is a pure function of its worker index.
///
/// # Panics
///
/// Propagates a panic from any worker.
pub fn scoped_workers<R, F>(threads: usize, work: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    if threads <= 1 {
        return vec![work(0)];
    }
    std::thread::scope(|s| {
        let work = &work;
        let handles: Vec<_> = (0..threads).map(|w| s.spawn(move || work(w))).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("scoped worker panicked"))
            .collect()
    })
}

/// Worker `first`'s strided share of the index space `0..total` under
/// `step` workers: `first, first + step, first + 2·step, …`.
///
/// Strided ownership balances load when per-index cost drifts along the
/// index space, and the shares of `step` workers partition `0..total`
/// exactly.
///
/// # Panics
///
/// Panics if `step == 0`.
pub fn strided(first: usize, step: usize, total: usize) -> impl Iterator<Item = usize> {
    assert!(step >= 1, "stride step must be at least 1");
    (first..total).step_by(step)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_indexed_by_worker() {
        for threads in 1..=8 {
            let out = scoped_workers(threads, |w| w * 10);
            assert_eq!(out, (0..threads.max(1)).map(|w| w * 10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn zero_threads_runs_one_unit_on_the_caller() {
        assert_eq!(scoped_workers(0, |w| w + 1), vec![1]);
    }

    #[test]
    fn strided_shares_partition_the_space() {
        for step in 1..=5 {
            for total in 0..20 {
                let mut seen = vec![false; total];
                for first in 0..step {
                    for i in strided(first, step, total) {
                        assert!(!seen[i], "index {i} owned twice");
                        seen[i] = true;
                    }
                }
                assert!(seen.iter().all(|&s| s), "step {step} total {total}");
            }
        }
    }

    #[test]
    fn strided_is_ascending() {
        let share: Vec<usize> = strided(2, 3, 14).collect();
        assert_eq!(share, vec![2, 5, 8, 11]);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_step_panics() {
        let _ = strided(0, 0, 4).count();
    }
}
