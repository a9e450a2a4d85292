//! `wire_stream`: bulk traffic on one directed loopback link between two
//! `Endpoint`s. The frame stream is that of generated computations (app
//! vector frames and snapshot frames with their real clocks), so wire-v2
//! deltas are as sparse or dense as a real run's. The codec, batching
//! and the buffer pool do most of the work here.

use std::hint::black_box;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use wcp_clocks::{StateId, VectorClock};
use wcp_detect::online::{ClockTag, DetectMsg};
use wcp_detect::{SnapshotBuffer, VcSnapshot};
use wcp_net::codec::{
    decode_frame, decode_header, decode_stateful_v2, encode_frame_into, encode_frame_into_v2,
    frame_len_at, kind, BODY_START,
};
use wcp_net::peer::RawFrame;
use wcp_net::{
    ClockChains, Endpoint, Frame, FramePool, LoopbackTransport, NetCounters, NetStats, Payload,
    Transport,
};
use wcp_obs::rng::Rng;
use wcp_obs::NullRecorder;
use wcp_sim::ActorId;
use wcp_trace::generate::{generate, GeneratorConfig};
use wcp_trace::MsgId;

use crate::harness::{Layers, OpResult, Workload};
use crate::trace::Tracer;
use crate::workloads::NetTotals;

/// Processes of each generated computation (the clock width).
const PROCESSES: usize = 32;
/// Events per process.
const EVENTS: usize = 48;
/// Computations whose frame streams are concatenated.
const COMPUTATIONS: usize = 16;
/// Frames per op.
const BURST: usize = 4096;
/// The receiver gives up on a burst after this long without a frame.
const RECV_TIMEOUT: Duration = Duration::from_secs(10);
/// Reconnect budget of each endpoint (never used on a clean link).
const RETRIES: u32 = 4;

/// One frame of the stream; its clock is row `j` of [`Stream::clocks`].
#[derive(Debug, Clone, Copy)]
struct StreamFrame {
    from: u32,
    to: u32,
    snapshot: bool,
    /// Snapshot interval, or app message id.
    aux: u64,
}

/// The frame stream the sender replays, and the reference clocks the
/// receiver checks every decoded frame against.
struct Stream {
    frames: Vec<StreamFrame>,
    clocks: Vec<u64>,
}

impl Stream {
    fn clock(&self, j: usize) -> &[u64] {
        &self.clocks[j * PROCESSES..(j + 1) * PROCESSES]
    }

    fn payload(&self, j: usize) -> Payload {
        let f = self.frames[j];
        let clock = VectorClock::from_components(self.clock(j).to_vec());
        Payload::Detect(if f.snapshot {
            DetectMsg::VcSnapshot(VcSnapshot {
                interval: f.aux,
                clock,
            })
        } else {
            DetectMsg::App {
                msg: MsgId::new(f.aux),
                tag: ClockTag::Vector(clock),
            }
        })
    }

    /// Stream indices of burst `k` (the stream wraps around).
    fn burst(&self, k: u64) -> impl Iterator<Item = usize> {
        let len = self.frames.len();
        let start = (k as usize % len) * BURST % len;
        (0..BURST).map(move |r| (start + r) % len)
    }
}

/// Appends one computation's frames: processes take turns, each
/// emitting per interval its snapshot (if the predicate holds) and then
/// the send that ends the interval, if any.
fn append_computation(stream: &mut Stream, seed: u64) {
    let computation = generate(
        &GeneratorConfig::new(PROCESSES, EVENTS)
            .with_seed(seed)
            .with_predicate_density(0.2),
    )
    .computation;
    let annotated = computation.annotate();
    let mut items: Vec<Vec<(StreamFrame, StateId)>> = Vec::new();
    for (p, trace) in computation.iter() {
        let mut own = Vec::new();
        for k in 1..=trace.interval_count() as u64 {
            let state = StateId::new(p, k);
            if trace.pred_at(k) {
                let to = (PROCESSES + p.index()) as u32;
                own.push((
                    StreamFrame {
                        from: p.index() as u32,
                        to,
                        snapshot: true,
                        aux: k,
                    },
                    state,
                ));
            }
            if let Some(event) = trace.events.get(k as usize - 1).filter(|e| e.is_send()) {
                let frame = StreamFrame {
                    from: p.index() as u32,
                    to: event.peer().index() as u32,
                    snapshot: false,
                    aux: event.msg().as_u64(),
                };
                // The message carries the clock after its send event.
                own.push((frame, StateId::new(p, k + 1)));
            }
        }
        items.push(own);
    }
    let longest = items.iter().map(Vec::len).max().unwrap_or(0);
    for r in 0..longest {
        for own in &items {
            if let Some(&(frame, state)) = own.get(r) {
                stream.frames.push(frame);
                stream
                    .clocks
                    .extend_from_slice(annotated.clock(state).as_slice());
            }
        }
    }
}

/// A command to both link threads: run burst `k`.
#[derive(Debug, Clone, Copy)]
struct Burst {
    k: u64,
    trace: bool,
}

/// A finished half of a burst.
struct Done {
    frames: u64,
    mismatch: Option<String>,
    tracer: Tracer,
}

/// The `wire_stream` workload: a sender and a receiver thread, each
/// owning one endpoint, driven burst by burst from the client thread.
pub struct WireStream {
    stream: Arc<Stream>,
    counters: Arc<NetCounters>,
    to_threads: Vec<Sender<Burst>>,
    done: Vec<Receiver<Done>>,
    threads: Vec<JoinHandle<()>>,
    net: NetTotals,
    tx_chains: ClockChains,
    rx_chains: ClockChains,
    buf: Vec<u8>,
}

/// Generates the stream and starts the link threads.
pub fn setup(seed: u64, tr: &mut Tracer) -> WireStream {
    let mut rng = Rng::seed_from_u64(seed);
    let mut stream = Stream {
        frames: Vec::new(),
        clocks: Vec::new(),
    };
    for _ in 0..COMPUTATIONS {
        let seed = rng.next_u64();
        tr.span("trace.generate", || append_computation(&mut stream, seed));
    }
    let stream = Arc::new(stream);
    WireStream::start(stream.clone(), stream, tr.origin())
}

impl WireStream {
    /// Connects the two endpoints and starts the link threads: the
    /// sender replays `sent`, the receiver checks against `reference`.
    fn start(sent: Arc<Stream>, reference: Arc<Stream>, origin: Instant) -> WireStream {
        let counters = NetCounters::shared();
        let pool = FramePool::shared(counters.clone());
        let (tx0, rx0) = channel();
        let (tx1, rx1) = channel();
        let endpoint = |me: u32, link: Box<dyn Transport>, inbox| {
            let mut links: Vec<Option<Box<dyn Transport>>> = vec![None, None];
            links[1 - me as usize] = Some(link);
            Endpoint::new(
                me,
                links,
                inbox,
                counters.clone(),
                Arc::new(NullRecorder),
                RETRIES,
                Duration::from_millis(1),
                true,
                true,
            )
        };
        let mut sender = endpoint(0, Box::new(LoopbackTransport::new(tx1, pool.clone())), rx0);
        let mut receiver = endpoint(1, Box::new(LoopbackTransport::new(tx0, pool)), rx1);
        let mut w = WireStream {
            stream: reference.clone(),
            counters,
            to_threads: Vec::new(),
            done: Vec::new(),
            threads: Vec::new(),
            net: NetTotals::default(),
            tx_chains: ClockChains::new(),
            rx_chains: ClockChains::new(),
            buf: Vec::new(),
        };
        w.spawn(sent, origin, move |s, k, tr| {
            send_burst(&mut sender, s, k, tr)
        });
        w.spawn(reference, origin, move |s, k, tr| {
            recv_burst(&mut receiver, s, k, tr)
        });
        w
    }

    /// Starts a link thread running `burst` over `stream` per command
    /// until the command channel closes.
    fn spawn(
        &mut self,
        stream: Arc<Stream>,
        origin: Instant,
        mut burst: impl FnMut(&Stream, u64, &mut Tracer) -> (u64, Option<String>) + Send + 'static,
    ) {
        let (cmd_tx, cmd_rx) = channel::<Burst>();
        let (done_tx, done_rx) = channel();
        self.threads.push(std::thread::spawn(move || {
            while let Ok(Burst { k, trace }) = cmd_rx.recv() {
                let mut tracer = Tracer::new(trace, origin, usize::MAX);
                tracer.set_op(k);
                let (frames, mismatch) = burst(&stream, k, &mut tracer);
                let done = Done {
                    frames,
                    mismatch,
                    tracer,
                };
                if done_tx.send(done).is_err() {
                    break;
                }
            }
        }));
        self.to_threads.push(cmd_tx);
        self.done.push(done_rx);
    }

    /// Restarts the link with a receiver whose reference clock of stream
    /// frame `j` is off by one.
    #[cfg(test)]
    fn plant_wrong_reference(&mut self, j: usize) {
        let sent = self.stream.clone();
        let mut clocks = sent.clocks.clone();
        clocks[j * PROCESSES] += 1;
        let reference = Stream {
            frames: sent.frames.clone(),
            clocks,
        };
        self.stop();
        *self = WireStream::start(sent, Arc::new(reference), Instant::now());
    }

    /// Closes the command channels and joins both link threads.
    fn stop(&mut self) {
        self.to_threads.clear();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for WireStream {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Sender half of burst `k`: encode into the outbound batch, flush, then
/// take in the returning acknowledgements so the replay log stays short.
fn send_burst(
    ep: &mut Endpoint,
    stream: &Stream,
    k: u64,
    tr: &mut Tracer,
) -> (u64, Option<String>) {
    let open = tr.begin("endpoint.send");
    let mut sent = 0;
    for j in stream.burst(k) {
        let f = stream.frames[j];
        ep.send(
            1,
            ActorId::new(f.from),
            ActorId::new(f.to),
            stream.payload(j),
        );
        sent += 1;
    }
    ep.flush_all();
    tr.end(open);
    while ep.recv(Duration::ZERO).is_some() {}
    (sent, None)
}

/// Receiver half of burst `k`: decode every frame, snapshots straight
/// into a `SnapshotBuffer`, and compare each clock with the one sent.
fn recv_burst(
    ep: &mut Endpoint,
    stream: &Stream,
    k: u64,
    tr: &mut Tracer,
) -> (u64, Option<String>) {
    let open = tr.begin("endpoint.recv");
    let mut buffer = SnapshotBuffer::new(PROCESSES);
    let mut got = 0;
    let mut mismatch = None;
    for j in stream.burst(k) {
        let Some(frame) = ep.recv(RECV_TIMEOUT) else {
            mismatch = Some(format!("burst {k} stalled after {got} frames"));
            break;
        };
        got += 1;
        if mismatch.is_none() {
            mismatch = check_frame(&frame, stream, j, &mut buffer);
        }
    }
    tr.end(open);
    (got, mismatch)
}

/// Compares one delivered frame with stream frame `j`.
fn check_frame(
    frame: &RawFrame,
    stream: &Stream,
    j: usize,
    buffer: &mut SnapshotBuffer,
) -> Option<String> {
    let f = stream.frames[j];
    let expected = stream.clock(j);
    if f.snapshot {
        if !matches!(frame.kind(), kind::VC_SNAPSHOT | kind::VC_SNAPSHOT_V2)
            || frame.clock_le().len() != PROCESSES * 8
        {
            return Some(format!(
                "frame {j}: kind {} is not a {PROCESSES}-wide snapshot",
                frame.kind()
            ));
        }
        buffer.push_le_bytes(frame.clock_le());
        let row = buffer.pop().map(|id| buffer.row(id).as_slice().to_vec());
        return (row.as_deref() != Some(expected))
            .then(|| format!("frame {j}: snapshot clock {row:?}, sent {expected:?}"));
    }
    match frame.payload() {
        Ok(Payload::Detect(DetectMsg::App {
            msg,
            tag: ClockTag::Vector(v),
        })) if msg.as_u64() == f.aux && v.as_slice() == expected => None,
        other => Some(format!(
            "frame {j}: decoded {other:?}, sent app clock {expected:?}"
        )),
    }
}

impl Workload for WireStream {
    fn pass_len(&self) -> usize {
        self.stream.frames.len().div_ceil(BURST)
    }

    fn op(&mut self, i: u64, tr: &mut Tracer) -> OpResult {
        let before = self.counters.snapshot();
        let cmd = Burst {
            k: i,
            trace: tr.enabled(),
        };
        let mut mismatch = None;
        for tx in &self.to_threads {
            if tx.send(cmd).is_err() {
                mismatch = Some("link thread is gone".to_string());
            }
        }
        // The receiver answers last: its count is the frames delivered.
        let mut frames = 0;
        for rx in &self.done {
            match rx.recv() {
                Ok(done) => {
                    frames = done.frames;
                    mismatch = mismatch.or(done.mismatch);
                    tr.absorb(done.tracer);
                }
                Err(_) => mismatch = Some("link thread died".to_string()),
            }
        }
        let after: NetStats = self.counters.snapshot();
        if tr.enabled() {
            self.net.add(&NetTotals::delta(&before, &after));
        }
        OpResult {
            events: frames,
            bytes: after.bytes_sent - before.bytes_sent,
            mismatch,
        }
    }

    fn baseline(&mut self, i: u64, tr: &mut Tracer) {
        let frames: Vec<Frame> = self
            .stream
            .burst(i)
            .enumerate()
            .map(|(seq, j)| Frame {
                peer: 0,
                from: ActorId::new(self.stream.frames[j].from),
                to: ActorId::new(self.stream.frames[j].to),
                seq: seq as u64,
                payload: self.stream.payload(j),
            })
            .collect();
        let (buf, tx_chains, rx_chains) = (&mut self.buf, &mut self.tx_chains, &mut self.rx_chains);
        buf.clear();
        tr.span("codec.encode_v2", || {
            for f in &frames {
                encode_frame_into_v2(f, tx_chains, buf);
            }
        });
        tr.span("codec.decode_v2", || {
            let mut at = 0;
            while let Some(len) = frame_len_at(buf, at) {
                let head = decode_header(&buf[at..at + len]).expect("v2 header");
                let body = &buf[at + BODY_START..at + len];
                black_box(decode_stateful_v2(&head, body, rx_chains).expect("v2 body"));
                at += len;
            }
        });
        buf.clear();
        tr.span("codec.encode_v1", || {
            for f in &frames {
                encode_frame_into(f, buf);
            }
        });
        tr.span("codec.decode_v1", || {
            let mut at = 0;
            while let Some(len) = frame_len_at(buf, at) {
                black_box(decode_frame(&buf[at..at + len]).expect("v1 frame"));
                at += len;
            }
        });
    }

    fn layers(&mut self, tr: &Tracer, ops: usize, out: &mut Layers) {
        let per_frame = BURST as f64;
        out.set_span_median("endpoint.send_ns", tr, "endpoint.send", per_frame);
        out.set_span_median("endpoint.recv_ns", tr, "endpoint.recv", per_frame);
        out.set_span_median("codec.encode_v2_ns", tr, "codec.encode_v2", per_frame);
        out.set_span_median("codec.decode_v2_ns", tr, "codec.decode_v2", per_frame);
        out.set_span_median("codec.encode_v1_ns", tr, "codec.encode_v1", per_frame);
        out.set_span_median("codec.decode_v1_ns", tr, "codec.decode_v1", per_frame);
        self.net.report(ops, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::run_op;

    #[test]
    fn a_wrong_reference_is_a_failed_op_not_a_panic() {
        let mut w = setup(9, &mut Tracer::off());
        let mut tr = Tracer::off();
        let out = run_op(&mut w, 0, &mut tr);
        assert_eq!(out.failure, None);
        assert_eq!(out.events, BURST as u64);
        let j = w.stream.burst(1).next().unwrap();
        w.plant_wrong_reference(j);
        let failed = run_op(&mut w, 1, &mut tr);
        assert!(failed.failure.unwrap().contains("sent"));
    }

    #[test]
    fn bursts_cover_the_stream_cyclically() {
        let mut w = setup(9, &mut Tracer::off());
        let pass = w.pass_len() as u64;
        let mut tr = Tracer::off();
        for i in 0..pass + 2 {
            assert_eq!(run_op(&mut w, i, &mut tr).failure, None, "burst {i}");
        }
    }
}
