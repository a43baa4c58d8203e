//! One lookup session over loopback: a raw socket speaking the wire
//! protocol with a window of frames in flight (1 = a closed loop that
//! waits for every reply). Every reply is checked against the oracle.

use crate::oracle::View;
use crate::spans::CodecSpans;
use crate::workload::{Request, Session};
use scaddar_net::{decode_frame, Frame, FrameError};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Consecutive requests whose completion time makes one window sample.
pub const GROUP: u64 = 64;

/// What one session measured.
#[derive(Debug)]
pub struct SessionStats {
    /// `Locate` round trips, ns.
    pub seek_ns: Vec<f64>,
    /// `LocateBatch` round trips, ns.
    pub batch_ns: Vec<f64>,
    /// First send to last reply of each [`GROUP`] of requests, ns.
    pub window_ns: Vec<f64>,
    /// Replies received.
    pub completed: u64,
    /// Replies that were `Error` frames.
    pub errors: u64,
    /// Replies that disagreed with the oracle.
    pub wrong: u64,
    /// First wrong reply, for the report.
    pub first_wrong: Option<String>,
    /// Request plus reply bytes.
    pub bytes: u64,
    /// Time from the first send to the last reply.
    pub elapsed: Duration,
    /// The session's codec timings (empty unless tracing).
    pub codec: CodecSpans,
}

struct InFlight {
    seq: u64,
    request: Request,
    low: usize,
    sent: Instant,
}

fn to_frame(request: Request) -> Frame {
    match request {
        Request::Seek { object, block } => Frame::Locate { object, block },
        Request::Window { object, start, len } => Frame::LocateBatch {
            object,
            blocks: (start..start + len).collect(),
        },
    }
}

/// Opens a lookup connection to `addr`.
pub fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// Runs `session` on `stream` with `window` frames in flight until
/// `stop` is set, then waits for the replies still in flight.
pub fn run(
    mut stream: TcpStream,
    mut session: Session,
    window: usize,
    view: &View<'_>,
    stop: &AtomicBool,
    codec: CodecSpans,
) -> io::Result<SessionStats> {
    let mut stats = SessionStats {
        seek_ns: Vec::new(),
        batch_ns: Vec::new(),
        window_ns: Vec::new(),
        completed: 0,
        errors: 0,
        wrong: 0,
        first_wrong: None,
        bytes: 0,
        elapsed: Duration::ZERO,
        codec,
    };
    let mut inflight: VecDeque<InFlight> = VecDeque::with_capacity(window);
    let mut group_starts: VecDeque<Instant> = VecDeque::new();
    let mut out = Vec::with_capacity(window * 160);
    let mut inbuf: Vec<u8> = Vec::with_capacity(64 * 1024);
    let mut chunk = vec![0u8; 64 * 1024];
    let mut next_seq = 0u64;
    let begin = Instant::now();
    loop {
        if !stop.load(Ordering::Relaxed) && inflight.len() < window {
            let fresh = window - inflight.len();
            for _ in 0..fresh {
                let request = session.next_request();
                let frame = to_frame(request);
                let seq = next_seq;
                next_seq += 1;
                stats.codec.encode(|| frame.encode(&mut out));
                inflight.push_back(InFlight {
                    seq,
                    request,
                    low: view.low(),
                    sent: begin,
                });
            }
            let sent = Instant::now();
            for f in inflight.iter_mut().rev().take(fresh) {
                f.sent = sent;
                if f.seq % GROUP == 0 {
                    group_starts.push_back(sent);
                }
            }
            stream.write_all(&out)?;
            stats.bytes += out.len() as u64;
            out.clear();
        }
        if inflight.is_empty() {
            break;
        }
        // Take every reply already buffered; block for more only when
        // none was.
        let mut pos = 0;
        let mut got = 0;
        loop {
            while !inflight.is_empty() {
                let t0 = stats.codec.start();
                match decode_frame(&inbuf[pos..]) {
                    Ok((frame, used)) => {
                        let now = Instant::now();
                        stats.codec.decoded(t0, now);
                        pos += used;
                        got += 1;
                        let f = inflight.pop_front().expect("not empty");
                        settle(&mut stats, view, f, frame, now, &mut group_starts);
                    }
                    Err(FrameError::Incomplete { .. }) => break,
                    Err(e) => return Err(io::Error::new(io::ErrorKind::InvalidData, e)),
                }
            }
            inbuf.drain(..pos);
            pos = 0;
            if got > 0 {
                break;
            }
            let n = stream.read(&mut chunk)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
            stats.bytes += n as u64;
            inbuf.extend_from_slice(&chunk[..n]);
        }
    }
    stats.elapsed = begin.elapsed();
    Ok(stats)
}

/// Records one reply: latency, window completion, and the oracle check.
fn settle(
    stats: &mut SessionStats,
    view: &View<'_>,
    f: InFlight,
    reply: Frame,
    now: Instant,
    group_starts: &mut VecDeque<Instant>,
) {
    let ns = now.duration_since(f.sent).as_nanos() as f64;
    stats.completed += 1;
    if f.seq % GROUP == GROUP - 1 {
        if let Some(start) = group_starts.pop_front() {
            stats
                .window_ns
                .push(now.duration_since(start).as_nanos() as f64);
        }
    }
    let candidates = view.candidates(f.low);
    let correct = match (f.request, &reply) {
        (Request::Seek { object, block }, &Frame::Located { epoch, disks, disk }) => {
            stats.seek_ns.push(ns);
            candidates
                .iter()
                .any(|p| p.check_one(object, block, epoch, disks, disk))
        }
        (
            Request::Window { object, .. },
            Frame::BatchLocated {
                epoch,
                disks,
                locations,
            },
        ) => {
            stats.batch_ns.push(ns);
            candidates
                .iter()
                .any(|p| p.check_batch(object, f.request.blocks(), *epoch, *disks, locations))
        }
        (_, Frame::Error { .. }) => {
            stats.errors += 1;
            true
        }
        _ => false,
    };
    if !correct {
        stats.wrong += 1;
        if stats.first_wrong.is_none() {
            stats.first_wrong = Some(format!("{:?} answered {reply:?}", f.request));
        }
    }
}
