//! Equivalence of `Computation::annotate` with a per-event reference
//! replay.
//!
//! The reference keeps one owned `VectorClock` per interval and a hash map
//! of in-flight message clocks, applying the Figure 2 rules event by
//! event. The annotated computation must agree with it on every interval:
//! clock, dependence, interval count and pred-true intervals.

use std::collections::HashMap;

use wcp_clocks::{Dependence, ProcessId, StateId, VectorClock};
use wcp_trace::generate::{generate, GeneratorConfig, Topology};
use wcp_trace::{Computation, Event, MsgId, ProcessTrace};

/// Per-interval clocks and dependences, `[process][interval - 1]`.
struct Reference {
    clocks: Vec<Vec<VectorClock>>,
    deps: Vec<Vec<Option<Dependence>>>,
}

/// Replays a valid computation greedily, one owned clock per interval.
fn reference(computation: &Computation) -> Reference {
    let n = computation.process_count();
    let mut clocks: Vec<Vec<VectorClock>> = (0..n)
        .map(|i| {
            let mut first = VectorClock::new(n);
            first.init_process(ProcessId::new(i as u32));
            vec![first]
        })
        .collect();
    let mut deps: Vec<Vec<Option<Dependence>>> = vec![vec![None]; n];
    let mut next = vec![0usize; n];
    let mut pending: HashMap<MsgId, VectorClock> = HashMap::new();
    let mut done = 0;
    while done < computation.total_events() {
        let mut progressed = false;
        for (i, trace) in computation.traces().iter().enumerate() {
            let me = ProcessId::new(i as u32);
            while let Some(&ev) = trace.events.get(next[i]) {
                let cur = clocks[i].last().unwrap().clone();
                let (mut advanced, dep) = match ev {
                    Event::Send { msg, .. } => {
                        pending.insert(msg, cur.clone());
                        (cur, None)
                    }
                    Event::Receive { from, msg } => {
                        let Some(tag) = pending.get(&msg) else {
                            break;
                        };
                        (cur.join(tag), Some(Dependence::new(from, tag[from])))
                    }
                };
                advanced.tick(me);
                clocks[i].push(advanced);
                deps[i].push(dep);
                next[i] += 1;
                done += 1;
                progressed = true;
            }
        }
        assert!(progressed, "reference replay stuck on a valid computation");
    }
    Reference { clocks, deps }
}

/// Asserts the annotation equals the reference on every interval.
fn assert_matches_reference(computation: &Computation, what: &str) {
    let annotated = computation.annotate();
    let want = reference(computation);
    assert_eq!(annotated.process_count(), computation.process_count());
    for (i, trace) in computation.traces().iter().enumerate() {
        let p = ProcessId::new(i as u32);
        assert_eq!(
            annotated.interval_count(p),
            want.clocks[i].len() as u64,
            "{what}: interval count of {p}"
        );
        let true_intervals: Vec<u64> = (1..=trace.pred.len() as u64)
            .filter(|&k| trace.pred_at(k))
            .collect();
        assert_eq!(annotated.true_intervals(p), true_intervals, "{what}: {p}");
        for (k, clock) in want.clocks[i].iter().enumerate() {
            let s = StateId::new(p, k as u64 + 1);
            assert_eq!(
                annotated.clock(s).as_slice(),
                clock.as_slice(),
                "{what}: clock of {s}"
            );
            assert_eq!(
                annotated.dependence_at(s),
                want.deps[i][k],
                "{what}: dependence of {s}"
            );
        }
    }
}

fn topologies(n: usize) -> Vec<Topology> {
    let mut all = vec![
        Topology::Uniform,
        Topology::Ring,
        Topology::Neighbors { degree: 2 },
        Topology::Phased { phase_len: 3 },
    ];
    if n >= 2 {
        all.push(Topology::ClientServer {
            servers: (n / 4).max(1),
        });
    }
    all
}

#[test]
fn generated_computations_match_reference() {
    for n in [1, 2, 5, 33, 128] {
        let events = if n >= 128 { 12 } else { 24 };
        for topology in topologies(n) {
            for seed in 0..3 {
                let config = GeneratorConfig::new(n, events)
                    .with_seed(seed)
                    .with_topology(topology)
                    .with_predicate_density(0.3)
                    .with_plant(0.5);
                let computation = generate(&config).computation;
                assert_matches_reference(&computation, &format!("n={n} {topology:?} seed={seed}"));
            }
        }
    }
}

fn send(to: u32, msg: u64) -> Event {
    Event::Send {
        to: ProcessId::new(to),
        msg: MsgId::new(msg),
    }
}

fn receive(from: u32, msg: u64) -> Event {
    Event::Receive {
        from: ProcessId::new(from),
        msg: MsgId::new(msg),
    }
}

/// A valid computation from raw event lists, predicate true on every
/// other interval.
fn traces(events: Vec<Vec<Event>>) -> Computation {
    let c = Computation::from_traces(
        events
            .into_iter()
            .map(|events| ProcessTrace {
                pred: (0..=events.len()).map(|k| k % 2 == 0).collect(),
                events,
            })
            .collect(),
    );
    c.validate().expect("hand-built computation is valid");
    c
}

#[test]
fn sparse_and_huge_message_ids_match_reference() {
    let c = traces(vec![
        vec![send(1, 40), receive(2, u64::MAX), send(2, 7)],
        vec![receive(0, 40), send(2, u64::MAX - 1)],
        vec![send(0, u64::MAX), receive(1, u64::MAX - 1), receive(0, 7)],
    ]);
    assert_matches_reference(&c, "sparse ids");
}

#[test]
fn zero_process_computation_annotates() {
    let c = traces(vec![]);
    let a = c.annotate();
    assert_eq!(a.process_count(), 0);
    assert_matches_reference(&c, "zero processes");
}

#[test]
fn processes_without_events_match_reference() {
    let c = traces(vec![
        vec![],
        vec![send(3, 0), receive(3, 1)],
        vec![],
        vec![receive(1, 0), send(1, 1)],
        vec![],
    ]);
    assert_matches_reference(&c, "idle processes");
    let a = c.annotate();
    assert_eq!(a.interval_count(ProcessId::new(0)), 1);
    assert_eq!(
        a.clock(StateId::new(ProcessId::new(4), 1)).as_slice(),
        &[0, 0, 0, 0, 1]
    );
}

#[test]
fn receives_blocked_across_rounds_match_reference() {
    // Each process first waits for its right neighbour, so a greedy
    // process-order replay schedules one link of the chain per round.
    let n = 6u32;
    let events = (0..n)
        .map(|i| {
            let mut evs = Vec::new();
            if i + 1 < n {
                evs.push(receive(i + 1, u64::from(i)));
            }
            if i > 0 {
                evs.push(send(i - 1, u64::from(i - 1)));
            }
            evs
        })
        .collect();
    let c = traces(events);
    assert_matches_reference(&c, "blocked chain");
    let a = c.annotate();
    // The last process's first interval reaches P0 through the chain.
    let top = StateId::new(ProcessId::new(n - 1), 1);
    assert!(a.happened_before(top, StateId::new(ProcessId::new(0), 2)));
}

#[test]
#[should_panic(expected = "out of range")]
fn clock_past_the_last_interval_panics() {
    let c = traces(vec![vec![send(1, 0)], vec![receive(0, 0)]]);
    c.annotate().clock(StateId::new(ProcessId::new(0), 3));
}
