//! Per-predicate session state: streaming elimination over shared rows.
//!
//! This is the [`StreamingChecker`](wcp_detect::StreamingChecker)
//! algorithm — the centralized checker's elimination loop, amortized
//! `O(n)` per elimination — re-expressed over the [`SharedStore`](crate::SharedStore):
//! instead of buffering scope-projected snapshot copies, a session keeps
//! one `(head, tail)` cursor pair per scope position into the owning
//! process's arena. The scope projection is never materialized: position
//! `i`'s component of a head is read straight out of the full-width
//! stored clock at index `scope[i]`, and a snapshot's interval is its own
//! clock component (the Figure 2 protocol guarantees `clock[p] == k` for
//! `p`'s interval-`k` snapshot).
//!
//! The elimination schedule — scan order, one pop per `O(n)` round,
//! `Impossible` stickiness, detection freezing all counters — mirrors the
//! streaming checker statement for statement, so per-session
//! [`DetectionMetrics`] equal a standalone run in every field.

use std::fmt;

use wcp_clocks::ProcessId;
use wcp_detect::DetectionMetrics;

use crate::store::StoreView;

/// Final outcome of one session over a finite stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionVerdict {
    /// The first satisfying cut: the candidate interval per scope
    /// position, in scope order.
    Detected(Vec<u64>),
    /// Some scope position's stream ended with its queue dry: no
    /// satisfying cut exists in this computation.
    Impossible,
}

impl SessionVerdict {
    /// The detected cut over scope positions, or `None` for
    /// [`Impossible`](SessionVerdict::Impossible) — the shape carried by
    /// `MULTI_VERDICT` frames.
    pub fn cut(&self) -> Option<&[u64]> {
        match self {
            SessionVerdict::Detected(g) => Some(g),
            SessionVerdict::Impossible => None,
        }
    }
}

impl fmt::Display for SessionVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionVerdict::Detected(g) => write!(f, "detected {g:?}"),
            SessionVerdict::Impossible => write!(f, "impossible"),
        }
    }
}

/// Detection state of one registered predicate.
#[derive(Debug)]
pub struct SessionState {
    /// Scope processes, sorted ascending (`Wcp` order).
    scope: Vec<ProcessId>,
    /// Next unconsumed arena row per scope position.
    heads: Vec<usize>,
    /// One past the last routed arena row per scope position.
    tails: Vec<usize>,
    closed: Vec<bool>,
    verdict: Option<SessionVerdict>,
    work: u64,
    peak_buffered: u64,
    candidates_consumed: u64,
    snapshot_messages: u64,
    snapshot_bytes: u64,
}

impl SessionState {
    /// Fresh state over a non-empty sorted scope.
    pub(crate) fn new(scope: &[ProcessId]) -> Self {
        assert!(!scope.is_empty(), "predicate scope must be non-empty");
        let n = scope.len();
        SessionState {
            scope: scope.to_vec(),
            heads: vec![0; n],
            tails: vec![0; n],
            closed: vec![false; n],
            verdict: None,
            work: 0,
            peak_buffered: 0,
            candidates_consumed: 0,
            snapshot_messages: 0,
            snapshot_bytes: 0,
        }
    }

    /// Scope position of process `p`, if `p` is in scope.
    pub(crate) fn position(&self, p: ProcessId) -> Option<usize> {
        self.scope.binary_search(&p).ok()
    }

    /// Whether the session has reached a final verdict; resolved sessions
    /// ignore further routed events and their counters are frozen.
    pub(crate) fn resolved(&self) -> bool {
        self.verdict.is_some()
    }

    /// The final verdict, once resolved.
    pub(crate) fn verdict(&self) -> Option<&SessionVerdict> {
        self.verdict.as_ref()
    }

    /// Accepts the next routed snapshot of scope position `pos` (its row
    /// index is implied: rows arrive dense and in order). Returns the
    /// verdict iff this event resolved the session.
    pub(crate) fn on_snapshot(
        &mut self,
        pos: usize,
        view: &StoreView<'_>,
    ) -> Option<SessionVerdict> {
        debug_assert!(!self.resolved(), "resolved sessions must be skipped");
        debug_assert!(!self.closed[pos], "snapshot after close");
        self.tails[pos] += 1;
        self.snapshot_messages += 1;
        // §3.4 units: one scope-projected clock component per scope process.
        self.snapshot_bytes += 8 * self.scope.len() as u64;
        let buffered: u64 = (0..self.scope.len())
            .map(|i| (self.tails[i] - self.heads[i]) as u64)
            .sum();
        self.peak_buffered = self.peak_buffered.max(buffered);
        self.advance(view)
    }

    /// Declares scope position `pos`'s stream finished.
    pub(crate) fn on_close(&mut self, pos: usize, view: &StoreView<'_>) -> Option<SessionVerdict> {
        debug_assert!(!self.resolved(), "resolved sessions must be skipped");
        self.closed[pos] = true;
        self.advance(view)
    }

    /// The streaming checker's elimination loop over current queue heads.
    fn advance(&mut self, view: &StoreView<'_>) -> Option<SessionVerdict> {
        let n = self.scope.len();
        loop {
            // Need a full head set. Scan every position before settling
            // for pending: a closed-and-dry queue anywhere means no cut
            // can ever form.
            let mut missing = false;
            for i in 0..n {
                if self.heads[i] == self.tails[i] {
                    if self.closed[i] {
                        self.verdict = Some(SessionVerdict::Impossible);
                        return self.verdict.clone();
                    }
                    missing = true;
                }
            }
            if missing {
                return None;
            }
            self.work += n as u64;
            let mut eliminated = None;
            'pairs: for i in 0..n {
                let pi = self.scope[i].index();
                // Interval of i's head == its own clock component.
                let hi = view.row(pi, self.heads[i])[pi];
                for j in 0..n {
                    if i == j {
                        continue;
                    }
                    let hj = view.row(self.scope[j].index(), self.heads[j]);
                    if hj[pi] >= hi {
                        eliminated = Some(i);
                        break 'pairs;
                    }
                }
            }
            match eliminated {
                Some(i) => {
                    self.heads[i] += 1;
                    self.candidates_consumed += 1;
                }
                None => {
                    let g: Vec<u64> = (0..n)
                        .map(|i| {
                            let pi = self.scope[i].index();
                            view.row(pi, self.heads[i])[pi]
                        })
                        .collect();
                    self.verdict = Some(SessionVerdict::Detected(g));
                    return self.verdict.clone();
                }
            }
        }
    }

    /// Paper-unit metrics for this session, identical in every field to a
    /// standalone run of the same predicate over the same stream.
    pub(crate) fn metrics(&self) -> DetectionMetrics {
        let mut m = DetectionMetrics::new(1);
        m.add_work(0, self.work);
        m.snapshot_messages = self.snapshot_messages;
        m.snapshot_bytes = self.snapshot_bytes;
        m.max_buffered_snapshots = self.peak_buffered;
        m.candidates_consumed = self.candidates_consumed;
        m.finish_sequential();
        m
    }
}
