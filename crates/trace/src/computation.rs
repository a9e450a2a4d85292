//! The computation model and its structural validation.

use std::fmt;

use wcp_clocks::{Cut, ProcessId, StateId};
use wcp_obs::json::{FromJson, Json, JsonError, ToJson};

use crate::annotate::AnnotatedComputation;
use crate::event::{Event, MsgId};
use crate::stats::ComputationStats;

/// The recorded execution of one process: its communication events and the
/// predicate flag for each interval between them.
///
/// A process with `E` events has `E + 1` intervals, numbered `1ꓸꓸE+1`
/// (interval `k` precedes event `k`; interval `E + 1` follows the last
/// event). `pred[k - 1]` records whether the local predicate was true at
/// some point during interval `k`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ProcessTrace {
    /// Communication events, in program order.
    pub events: Vec<Event>,
    /// Per-interval predicate flags; `pred.len() == events.len() + 1`.
    pub pred: Vec<bool>,
}

impl ProcessTrace {
    /// Creates an event-free trace (one interval) with the predicate false.
    pub fn new() -> Self {
        ProcessTrace {
            events: Vec::new(),
            pred: vec![false],
        }
    }

    /// Number of communication events.
    pub fn event_count(&self) -> usize {
        self.events.len()
    }

    /// Number of intervals (`events + 1`).
    pub fn interval_count(&self) -> usize {
        self.events.len() + 1
    }

    /// Predicate flag for 1-based interval `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is `0` or exceeds [`interval_count`](Self::interval_count).
    pub fn pred_at(&self, k: u64) -> bool {
        assert!(k >= 1, "interval indices are 1-based");
        self.pred[(k - 1) as usize]
    }
}

impl ToJson for ProcessTrace {
    fn to_json(&self) -> Json {
        Json::obj([
            (
                "events",
                Json::Arr(self.events.iter().map(Event::to_json).collect()),
            ),
            (
                "pred",
                Json::Arr(self.pred.iter().map(|&b| Json::Bool(b)).collect()),
            ),
        ])
    }
}

impl FromJson for ProcessTrace {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let events = value
            .field("events")?
            .expect_array()?
            .iter()
            .map(Event::from_json)
            .collect::<Result<Vec<Event>, JsonError>>()?;
        let pred = value
            .field("pred")?
            .expect_array()?
            .iter()
            .map(|v| {
                v.as_bool()
                    .ok_or_else(|| JsonError::shape(format!("expected bool, got {v}")))
            })
            .collect::<Result<Vec<bool>, JsonError>>()?;
        Ok(ProcessTrace { events, pred })
    }
}

/// A single run of a distributed program: one [`ProcessTrace`] per process.
///
/// Construct with [`ComputationBuilder`](crate::ComputationBuilder), the
/// generators in [`generate`](crate::generate), or deserialize from JSON;
/// then call [`validate`](Self::validate) (builders and generators always
/// emit valid computations — validation exists for hand-made and
/// deserialized data).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Computation {
    processes: Vec<ProcessTrace>,
}

impl ToJson for Computation {
    fn to_json(&self) -> Json {
        Json::obj([(
            "processes",
            Json::Arr(self.processes.iter().map(ProcessTrace::to_json).collect()),
        )])
    }
}

impl FromJson for Computation {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let processes = value
            .field("processes")?
            .expect_array()?
            .iter()
            .map(ProcessTrace::from_json)
            .collect::<Result<Vec<ProcessTrace>, JsonError>>()?;
        Ok(Computation { processes })
    }
}

/// Ways a hand-built or deserialized [`Computation`] can be malformed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ComputationError {
    /// A process's `pred` vector does not have `events + 1` entries.
    PredLengthMismatch {
        /// Offending process.
        process: ProcessId,
        /// Number of events recorded.
        events: usize,
        /// Number of predicate flags recorded.
        pred_len: usize,
    },
    /// A send or receive names a process outside the computation.
    PeerOutOfRange {
        /// Process whose trace contains the event.
        process: ProcessId,
        /// The out-of-range peer.
        peer: ProcessId,
    },
    /// A process sends a message to itself.
    SelfMessage {
        /// Offending process.
        process: ProcessId,
        /// Offending message.
        msg: MsgId,
    },
    /// Two sends carry the same message identifier.
    DuplicateSend(MsgId),
    /// Two receives consume the same message identifier.
    DuplicateReceive(MsgId),
    /// A receive references a message no process sends.
    ReceiveWithoutSend(MsgId),
    /// A receive's `from` or location disagrees with the matching send.
    MismatchedEndpoints {
        /// Offending message.
        msg: MsgId,
        /// What the send declared: `(sender, destination)`.
        send: (ProcessId, ProcessId),
        /// What the receive declared: `(claimed sender, receiver)`.
        receive: (ProcessId, ProcessId),
    },
    /// The event sequences admit no valid interleaving (a message is
    /// received "before" it could have been sent).
    CausalCycle {
        /// Per-process count of events that could not be scheduled.
        stuck_events: usize,
    },
}

impl fmt::Display for ComputationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ComputationError::PredLengthMismatch {
                process,
                events,
                pred_len,
            } => write!(
                f,
                "process {process} has {events} events but {pred_len} predicate flags (want events + 1)"
            ),
            ComputationError::PeerOutOfRange { process, peer } => {
                write!(f, "event on {process} names out-of-range peer {peer}")
            }
            ComputationError::SelfMessage { process, msg } => {
                write!(f, "process {process} sends message {msg} to itself")
            }
            ComputationError::DuplicateSend(m) => write!(f, "message {m} is sent twice"),
            ComputationError::DuplicateReceive(m) => write!(f, "message {m} is received twice"),
            ComputationError::ReceiveWithoutSend(m) => {
                write!(f, "message {m} is received but never sent")
            }
            ComputationError::MismatchedEndpoints { msg, send, receive } => write!(
                f,
                "message {msg} endpoints disagree: sent {}→{} but received {}→{}",
                send.0, send.1, receive.0, receive.1
            ),
            ComputationError::CausalCycle { stuck_events } => write!(
                f,
                "event sequences admit no valid interleaving ({stuck_events} events unschedulable)"
            ),
        }
    }
}

impl std::error::Error for ComputationError {}

impl Computation {
    /// Creates a computation from per-process traces.
    ///
    /// The result is not checked; call [`validate`](Self::validate) if the
    /// traces come from an untrusted source.
    pub fn from_traces(processes: Vec<ProcessTrace>) -> Self {
        Computation { processes }
    }

    /// Number of processes (`N` in the paper).
    pub fn process_count(&self) -> usize {
        self.processes.len()
    }

    /// The trace of process `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range.
    pub fn process(&self, p: ProcessId) -> &ProcessTrace {
        &self.processes[p.index()]
    }

    /// Iterates over `(ProcessId, &ProcessTrace)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ProcessId, &ProcessTrace)> {
        self.processes
            .iter()
            .enumerate()
            .map(|(i, t)| (ProcessId::new(i as u32), t))
    }

    /// Read-only view of all process traces.
    pub fn traces(&self) -> &[ProcessTrace] {
        &self.processes
    }

    /// The paper's `m`: the maximum number of messages sent or received by
    /// any single process.
    pub fn max_events_per_process(&self) -> usize {
        self.processes
            .iter()
            .map(|t| t.event_count())
            .max()
            .unwrap_or(0)
    }

    /// Total number of communication events across all processes.
    pub fn total_events(&self) -> usize {
        self.processes.iter().map(|t| t.event_count()).sum()
    }

    /// Total number of messages (sends) in the computation.
    pub fn total_messages(&self) -> usize {
        self.processes
            .iter()
            .flat_map(|t| &t.events)
            .filter(|e| e.is_send())
            .count()
    }

    /// Predicate flag of local state `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s` names a process or interval out of range, or has
    /// index `0`.
    pub fn pred_at(&self, s: StateId) -> bool {
        self.process(s.process).pred_at(s.index)
    }

    /// Computes per-interval clocks and dependences for this computation.
    ///
    /// This is the entry point for all happened-before queries; see
    /// [`AnnotatedComputation`].
    pub fn annotate(&self) -> AnnotatedComputation<'_> {
        AnnotatedComputation::new(self)
    }

    /// Summary statistics (event counts, message counts, predicate density).
    pub fn stats(&self) -> ComputationStats {
        ComputationStats::of(self)
    }

    /// Slices the computation to the prefix at or below `cut`: process `i`
    /// keeps its first `cut[i]` intervals (events `1 ..= cut[i]−1`).
    ///
    /// If `cut` is a **consistent** cut, the prefix is a valid computation
    /// (no received message can cross a consistent cut backwards) that
    /// still contains every state of the cut — the standard way to shrink
    /// a trace to a detected violation for debugging.
    ///
    /// # Panics
    ///
    /// Panics if the cut is incomplete or out of range for this
    /// computation.
    pub fn truncate_at(&self, cut: &Cut) -> Computation {
        assert_eq!(cut.len(), self.process_count(), "cut width mismatch");
        let traces = self
            .iter()
            .map(|(p, trace)| {
                let k = cut.get(p).expect("cut covers every process");
                assert!(
                    k >= 1 && (k as usize) <= trace.interval_count(),
                    "cut entry {k} out of range for {p}"
                );
                ProcessTrace {
                    events: trace.events[..(k - 1) as usize].to_vec(),
                    pred: trace.pred[..k as usize].to_vec(),
                }
            })
            .collect();
        Computation::from_traces(traces)
    }

    /// Checks structural well-formedness.
    ///
    /// # Errors
    ///
    /// Returns the first problem found, checking in this order:
    /// predicate-flag length mismatches and out-of-range or self-directed
    /// messages (in process order), duplicate sends, duplicate receives,
    /// orphaned receives and endpoint mismatches between a send and its
    /// receive (each naming the smallest offending [`MsgId`]), and finally
    /// event sequences that admit no valid interleaving. The same input
    /// always yields the same error.
    pub fn validate(&self) -> Result<(), ComputationError> {
        self.replay(|_, _, _| {})
    }

    /// Validates the computation and replays it in one greedy schedule.
    ///
    /// `visit(i, j, send)` is called for event `j` of process `i` as it is
    /// scheduled; `send` is `None` for a send and `Some((from, j'))` for a
    /// receive whose message is event `j'` of process `from`. A receive is
    /// scheduled only after its send, so every prefix of the calls is a
    /// consistent execution.
    pub(crate) fn replay(
        &self,
        mut visit: impl FnMut(usize, usize, Option<(ProcessId, usize)>),
    ) -> Result<(), ComputationError> {
        self.check_shape()?;
        let sent_at = self.match_messages()?;

        // Sends are always enabled; a receive is enabled once its sender
        // has executed the send. Since enabling is monotone, the greedy
        // schedule succeeds iff some schedule does.
        let mut next = vec![0usize; self.processes.len()];
        let total = sent_at.len();
        let mut done = 0usize;
        loop {
            let mut progressed = false;
            let mut base = 0;
            for (i, trace) in self.processes.iter().enumerate() {
                while let Some(ev) = trace.events.get(next[i]) {
                    let j = next[i];
                    let send = match *ev {
                        Event::Send { .. } => None,
                        Event::Receive { from, .. } => {
                            let at = sent_at[base + j];
                            if next[from.index()] <= at {
                                break;
                            }
                            Some((from, at))
                        }
                    };
                    visit(i, j, send);
                    next[i] += 1;
                    done += 1;
                    progressed = true;
                }
                base += trace.events.len();
            }
            if done == total {
                return Ok(());
            }
            if !progressed {
                return Err(ComputationError::CausalCycle {
                    stuck_events: total - done,
                });
            }
        }
    }

    /// Per-process predicate-flag lengths, peer ranges and self-messages.
    fn check_shape(&self) -> Result<(), ComputationError> {
        let n = self.processes.len();
        for (p, trace) in self.iter() {
            if trace.pred.len() != trace.events.len() + 1 {
                return Err(ComputationError::PredLengthMismatch {
                    process: p,
                    events: trace.events.len(),
                    pred_len: trace.pred.len(),
                });
            }
            for ev in &trace.events {
                let peer = ev.peer();
                if peer.index() >= n {
                    return Err(ComputationError::PeerOutOfRange { process: p, peer });
                }
                if let Event::Send { to, msg } = *ev {
                    if to == p {
                        return Err(ComputationError::SelfMessage { process: p, msg });
                    }
                }
            }
        }
        Ok(())
    }

    /// Matches every receive to its send by sorting both sides by
    /// [`MsgId`] and merge-joining them, so duplicates sit next to each
    /// other and each error names the smallest offending identifier.
    ///
    /// Returns, for every event in process-major order, the index of the
    /// matching send event in the sender's trace (meaningful for receives
    /// only).
    fn match_messages(&self) -> Result<Vec<usize>, ComputationError> {
        let mut sends = Vec::new();
        let mut receives = Vec::new();
        let mut flat = 0usize;
        for (p, trace) in self.iter() {
            for (j, ev) in trace.events.iter().enumerate() {
                match *ev {
                    Event::Send { to, msg } => sends.push(Endpoint {
                        msg,
                        process: p,
                        peer: to,
                        at: j,
                    }),
                    Event::Receive { from, msg } => receives.push(Endpoint {
                        msg,
                        process: p,
                        peer: from,
                        at: flat + j,
                    }),
                }
            }
            flat += trace.events.len();
        }
        sends.sort_unstable_by_key(|e| e.msg);
        receives.sort_unstable_by_key(|e| e.msg);
        if let Some(w) = sends.windows(2).find(|w| w[0].msg == w[1].msg) {
            return Err(ComputationError::DuplicateSend(w[0].msg));
        }
        if let Some(w) = receives.windows(2).find(|w| w[0].msg == w[1].msg) {
            return Err(ComputationError::DuplicateReceive(w[0].msg));
        }

        let mut sent_at = vec![0usize; flat];
        let mut s = 0;
        for recv in &receives {
            while sends.get(s).is_some_and(|e| e.msg < recv.msg) {
                s += 1;
            }
            let send = match sends.get(s) {
                Some(e) if e.msg == recv.msg => e,
                _ => return Err(ComputationError::ReceiveWithoutSend(recv.msg)),
            };
            if send.process != recv.peer || send.peer != recv.process {
                return Err(ComputationError::MismatchedEndpoints {
                    msg: recv.msg,
                    send: (send.process, send.peer),
                    receive: (recv.peer, recv.process),
                });
            }
            sent_at[recv.at] = send.at;
        }
        Ok(sent_at)
    }
}

/// One side of a message, as `Computation::match_messages` sorts it.
struct Endpoint {
    msg: MsgId,
    /// The process whose trace holds the event.
    process: ProcessId,
    /// The destination of a send, or the claimed sender of a receive.
    peer: ProcessId,
    /// A send's index in its trace, or a receive's process-major index.
    at: usize,
}

impl fmt::Display for Computation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "computation over {} processes:", self.processes.len())?;
        for (p, trace) in self.iter() {
            write!(f, "  {p}:")?;
            for (k, ev) in trace.events.iter().enumerate() {
                let flag = if trace.pred[k] { "*" } else { "" };
                write!(f, " [{}{flag}] {ev}", k + 1)?;
            }
            let last = trace.pred.len();
            let flag = if trace.pred[last - 1] { "*" } else { "" };
            writeln!(f, " [{last}{flag}]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ComputationBuilder;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn empty_trace_has_one_interval() {
        let t = ProcessTrace::new();
        assert_eq!(t.interval_count(), 1);
        assert!(!t.pred_at(1));
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn pred_at_zero_panics() {
        ProcessTrace::new().pred_at(0);
    }

    #[test]
    fn valid_two_process_exchange() {
        let mut b = ComputationBuilder::new(2);
        let m = b.send(p(0), p(1));
        b.receive(p(1), m);
        let c = b.build().unwrap();
        assert_eq!(c.process_count(), 2);
        assert_eq!(c.total_messages(), 1);
        assert_eq!(c.total_events(), 2);
        assert_eq!(c.max_events_per_process(), 1);
        assert!(c.validate().is_ok());
    }

    fn send(to: u32, msg: u64) -> Event {
        Event::Send {
            to: p(to),
            msg: MsgId::new(msg),
        }
    }

    fn receive(from: u32, msg: u64) -> Event {
        Event::Receive {
            from: p(from),
            msg: MsgId::new(msg),
        }
    }

    /// A computation whose traces hold exactly `events`, predicate false.
    fn traces(events: Vec<Vec<Event>>) -> Computation {
        Computation::from_traces(
            events
                .into_iter()
                .map(|events| ProcessTrace {
                    pred: vec![false; events.len() + 1],
                    events,
                })
                .collect(),
        )
    }

    fn pred_length_mismatch() -> (Computation, ComputationError) {
        let mut t = ProcessTrace::new();
        t.pred.clear(); // now 0 flags for 0 events (want 1)
        let want = ComputationError::PredLengthMismatch {
            process: p(0),
            events: 0,
            pred_len: 0,
        };
        (Computation::from_traces(vec![t]), want)
    }

    fn peer_out_of_range() -> (Computation, ComputationError) {
        let want = ComputationError::PeerOutOfRange {
            process: p(0),
            peer: p(5),
        };
        (traces(vec![vec![send(5, 0)]]), want)
    }

    fn self_message() -> (Computation, ComputationError) {
        let want = ComputationError::SelfMessage {
            process: p(0),
            msg: MsgId::new(0),
        };
        (traces(vec![vec![send(0, 0)]]), want)
    }

    fn duplicate_send() -> (Computation, ComputationError) {
        let c = traces(vec![vec![send(1, 0), send(1, 0)], vec![]]);
        (c, ComputationError::DuplicateSend(MsgId::new(0)))
    }

    fn duplicate_receive() -> (Computation, ComputationError) {
        let c = traces(vec![vec![send(1, 0)], vec![receive(0, 0), receive(0, 0)]]);
        (c, ComputationError::DuplicateReceive(MsgId::new(0)))
    }

    fn receive_without_send() -> (Computation, ComputationError) {
        let c = traces(vec![vec![receive(1, 9)], vec![]]);
        (c, ComputationError::ReceiveWithoutSend(MsgId::new(9)))
    }

    fn mismatched_endpoints() -> (Computation, ComputationError) {
        // P2 claims to receive m0 although it was addressed to P1.
        let c = traces(vec![vec![send(1, 0)], vec![], vec![receive(0, 0)]]);
        let want = ComputationError::MismatchedEndpoints {
            msg: MsgId::new(0),
            send: (p(0), p(1)),
            receive: (p(0), p(2)),
        };
        (c, want)
    }

    fn causal_cycle() -> (Computation, ComputationError) {
        // P0: recv(m1) then send(m0);  P1: recv(m0) then send(m1).
        let c = traces(vec![
            vec![receive(1, 1), send(1, 0)],
            vec![receive(0, 0), send(0, 1)],
        ]);
        (c, ComputationError::CausalCycle { stuck_events: 4 })
    }

    /// One hand-built computation per [`ComputationError`] variant, each
    /// paired with the error `validate` must return for it.
    fn invalid_computations() -> Vec<(Computation, ComputationError)> {
        vec![
            pred_length_mismatch(),
            peer_out_of_range(),
            self_message(),
            duplicate_send(),
            duplicate_receive(),
            receive_without_send(),
            mismatched_endpoints(),
            causal_cycle(),
        ]
    }

    fn assert_rejected((c, want): (Computation, ComputationError)) {
        assert_eq!(c.validate(), Err(want));
    }

    #[test]
    fn detects_pred_length_mismatch() {
        assert_rejected(pred_length_mismatch());
    }

    #[test]
    fn detects_peer_out_of_range() {
        assert_rejected(peer_out_of_range());
    }

    #[test]
    fn detects_self_message() {
        assert_rejected(self_message());
    }

    #[test]
    fn detects_duplicate_send() {
        assert_rejected(duplicate_send());
    }

    #[test]
    fn detects_duplicate_receive() {
        assert_rejected(duplicate_receive());
    }

    #[test]
    fn detects_receive_without_send() {
        assert_rejected(receive_without_send());
    }

    #[test]
    fn detects_mismatched_endpoints() {
        assert_rejected(mismatched_endpoints());
    }

    #[test]
    fn detects_causal_cycle() {
        assert_rejected(causal_cycle());
    }

    #[test]
    fn annotate_rejects_every_invalid_computation() {
        for (c, want) in invalid_computations() {
            let payload = std::panic::catch_unwind(|| {
                c.annotate();
            })
            .expect_err("annotate accepted an invalid computation");
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or_default();
            assert!(
                message.contains("cannot annotate an invalid computation"),
                "{want:?}: {message}"
            );
        }
    }

    #[test]
    fn orphan_receives_report_the_smallest_msg_every_time() {
        // P0 receives m8, m6, m5, m7 from P1, which sends nothing.
        let c = traces(vec![
            vec![receive(1, 8), receive(1, 6), receive(1, 5), receive(1, 7)],
            vec![],
        ]);
        for _ in 0..200 {
            assert_eq!(
                c.validate(),
                Err(ComputationError::ReceiveWithoutSend(MsgId::new(5)))
            );
        }
    }

    #[test]
    fn mismatched_endpoints_report_the_smallest_msg_every_time() {
        // P0 sends m5..m8 to P1, but P2 claims every one of them.
        let c = traces(vec![
            (5..=8).map(|m| send(1, m)).collect(),
            vec![],
            [7, 5, 8, 6].into_iter().map(|m| receive(0, m)).collect(),
        ]);
        for _ in 0..200 {
            assert_eq!(
                c.validate(),
                Err(ComputationError::MismatchedEndpoints {
                    msg: MsgId::new(5),
                    send: (p(0), p(1)),
                    receive: (p(0), p(2)),
                })
            );
        }
    }

    #[test]
    fn unreceived_messages_are_legal() {
        let mut b = ComputationBuilder::new(2);
        b.send(p(0), p(1)); // never received
        let c = b.build().unwrap();
        assert!(c.validate().is_ok());
    }

    #[test]
    fn display_shows_events_and_flags() {
        let mut b = ComputationBuilder::new(2);
        b.mark_true(p(0));
        let m = b.send(p(0), p(1));
        b.receive(p(1), m);
        let c = b.build().unwrap();
        let s = c.to_string();
        assert!(s.contains("P0"));
        assert!(s.contains("send(m0)→P1"));
        assert!(s.contains("[1*]"));
    }

    #[test]
    fn truncate_at_consistent_cut_preserves_detection() {
        // P0 sends m0 after its true interval; P1 receives and is true.
        let mut b = ComputationBuilder::new(2);
        let m = b.send(p(0), p(1));
        b.mark_true(p(0)); // (0,2)
        b.receive(p(1), m);
        b.mark_true(p(1)); // (1,2)
        b.send(p(0), p(1)); // extra tail activity, never received
        let c = b.build().unwrap();
        let cut = Cut::from_indices(vec![2, 2]);
        assert!(c.annotate().is_consistent(&cut));
        let sliced = c.truncate_at(&cut);
        assert!(sliced.validate().is_ok());
        assert_eq!(sliced.process(p(0)).event_count(), 1, "tail send dropped");
        assert_eq!(sliced.process(p(1)).event_count(), 1);
        // The detection result is unchanged on the slice.
        let a = sliced.annotate();
        assert_eq!(
            a.first_satisfying_cut(&crate::Wcp::over_first(2)),
            Some(cut)
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn truncate_rejects_incomplete_cut() {
        let c = ComputationBuilder::new(2).build().unwrap();
        c.truncate_at(&Cut::from_indices(vec![0, 1]));
    }

    #[test]
    fn json_roundtrip() {
        let mut b = ComputationBuilder::new(2);
        let m = b.send(p(0), p(1));
        b.receive(p(1), m);
        b.mark_true(p(1));
        let c = b.build().unwrap();
        let json = c.to_json().to_string();
        assert!(json.starts_with("{\"processes\":["), "{json}");
        assert!(json.contains("{\"Send\":{\"to\":1,\"msg\":0}}"), "{json}");
        let back = Computation::from_json(&Json::parse(&json).unwrap()).unwrap();
        assert_eq!(back, c);
        assert!(back.validate().is_ok());
    }
}
