//! The event-loop serving core: readiness-driven nonblocking sockets.
//!
//! ## Threading model
//!
//! N **worker** loops, nothing else. Each worker owns a
//! [`polling::Poller`] (epoll on Linux, poll(2) elsewhere — both
//! level-triggered), a slab of connection states, and reusable scratch
//! buffers; a connection lives its whole life on the worker that
//! admitted it, so no connection state is ever shared or locked.
//! Worker 0 also owns the nonblocking listener, registered in its
//! poller beside its connections. When the listener is ready it accepts
//! until `WouldBlock`, applies the accept policy both cores share
//! (`Error{Busy}` over
//! [`max_connections`](crate::NetServerConfig::max_connections)), and
//! deals connection *k* to worker *k* mod N: its own share it registers
//! in place, the rest go onto the peer's injection queue with a
//! `notify`. An `accept` error other than an interrupt or an aborted
//! peer (descriptor exhaustion, say) drops the listener's read
//! interest for 10 ms, or until one of worker 0's connections closes,
//! so a backlog it cannot take does not spin the worker. `workers: 0`
//! means one worker per core, read once per process. Worker `i` is
//! pinned to CPU `i` (Linux only, best effort: a worker past the last
//! CPU runs unpinned) so its connection states stay cache-local.
//!
//! Threads outlive their daemon. Workers and offloaded ops run on a
//! process-wide cache of parked threads (`run_pooled`): a thread is
//! spawned only when none is parked, at most 2 × cores stay parked,
//! and a thread that finds the cache full exits. Each job is pinned to
//! its CPU: worker `i` to CPU `i`, an op to its worker's. A boot
//! therefore wakes parked threads instead of spawning, and takes the
//! idle pollers of earlier workers that drained cleanly.
//!
//! ## A wakeup, start to finish
//!
//! 1. `wait` returns ready sockets (or a deadline/notify wakeup).
//! 2. Sockets dealt to this worker are registered; on worker 0, a ready
//!    listener is accepted from, and its own new sockets are read in
//!    this same wakeup.
//! 3. Every readable socket is read into its connection's read buffer
//!    in 64 KiB chunks until a short read (fewer bytes than the chunk),
//!    `WouldBlock` or EOF; the poller is level-triggered, so bytes a
//!    short read left behind re-fire the next `wait` and a closed-loop
//!    request costs one `read`, not a second one that returns EAGAIN.
//!    Complete frames are decoded in place by the re-entrant
//!    [`crate::wire`] decoder (partial frames stay buffered and re-arm
//!    the read deadline — slow-loris clients get the PR 5
//!    `read_timeout`, not a thread).
//! 4. **Cross-connection coalescing**: consecutive `Locate` /
//!    `LocateBatch` frames — across *all* connections woken this round,
//!    traced or not, routed here or not — form a wave that the one
//!    lookup path, `server::answer_lookups`, answers under a
//!    single read-lock acquisition. Non-lookup frames (`Scale`, `Tick`,
//!    …) act as barriers: the pending lookup wave is flushed before
//!    they run, so responses on any one connection are in request order
//!    and its observed epoch never runs backwards. The batching window
//!    is exactly one poller wakeup — no timer, no added latency.
//! 5. Responses are batch-encoded into each connection's write buffer
//!    and flushed with one `write` per connection (the writev of this
//!    protocol: many frames, one syscall). A short write arms writable
//!    interest and the `write_timeout`; a backlog past the high-water
//!    mark suspends reading from that connection until it drains
//!    (per-connection backpressure without blocking the loop).
//! 6. Expired read/write deadlines close their connection (with a
//!    best-effort `Error{BadRequest}` for an overdue request).
//!
//! Shutdown sets the flag and notifies every poller; no connection is
//! needed to wake anyone. Worker 0 first deregisters and closes the
//! listener, so later arrivals are refused by the kernel. Then each
//! worker waits boundedly for its offloaded ops, flushes what it owes
//! (reverting the socket to blocking writes under `write_timeout`),
//! closes everything and drops its state, and its done signal fires
//! (a panicking worker fires it too); shutdown returns once every
//! worker's has, and the threads park.

use crate::seam::{Phase, Sample, Seam};
use crate::server::{
    answer_lookups, flush, handle_request, is_lookup, Accept, Request, Shared, ACCEPT_PAUSE,
};
use crate::wire::{complete_frames, decode_frame_traced, ErrorCode, Frame, FrameError};
use polling::{Event, Poller};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{self, Receiver, SendError, Sender};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Read-drain scratch size per worker (reused across connections).
const READ_CHUNK: usize = 64 * 1024;

/// Once a buffer has ballooned past this, completed connections shrink
/// it back so one huge batch doesn't pin memory forever.
const BUF_SHRINK_THRESHOLD: usize = 1 << 20;

/// Environment override for the poller backend (`poll` forces the
/// portable poll(2) fallback on Linux) — lets the test suite and CI
/// exercise both code paths on one platform.
pub const BACKEND_ENV: &str = "SCADDARD_BACKEND";

/// Pollers of workers that drained cleanly: nothing is registered in
/// them, so the next daemon's workers take them instead of opening new
/// ones (at most [`parked_bound`] are kept).
static IDLE_POLLERS: Mutex<Vec<Poller>> = Mutex::new(Vec::new());

/// An idle poller of the backend [`BACKEND_ENV`] asks for, or a new one.
fn open_poller() -> std::io::Result<Poller> {
    let poll = matches!(std::env::var(BACKEND_ENV), Ok(v) if v.eq_ignore_ascii_case("poll"));
    let mut idle = IDLE_POLLERS.lock().unwrap_or_else(|e| e.into_inner());
    let reusable = idle
        .iter()
        .rposition(|p| (p.backend() == polling::Backend::Poll) == poll);
    match reusable {
        Some(at) => Ok(idle.swap_remove(at)),
        None if poll => Poller::with_backend(polling::Backend::Poll),
        None => Poller::new(),
    }
}

/// `workers: 0`'s worker count, one per available core. Read once per
/// process: `available_parallelism` scans cgroup files on every call.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
}

/// Parked threads the process keeps at most; a thread that finishes
/// its job while this many are parked exits instead.
fn parked_bound() -> usize {
    2 * cores()
}

/// A worker's loop or an offloaded op, run on a pooled thread.
type Job = Box<dyn FnOnce() + Send>;

/// A job and the CPU to run it on.
type Pinned = (usize, Job);

/// The process's parked threads, each blocked on its own channel for
/// its next job, with the CPU its last job ran on.
static PARKED: Mutex<Vec<(usize, Sender<Pinned>)>> = Mutex::new(Vec::new());

/// Runs `job` pinned to `cpu` on a parked thread, spawning one only
/// when none is parked. The latest thread parked on `cpu` is taken
/// first: it wakes there and keeps its pin, where any other re-pins
/// and migrates (on a boot, before its first wait). When the job
/// returns, its thread parks again, or exits if [`parked_bound`]
/// threads already wait. `Err` when no thread was parked and none
/// could be spawned; the job is then dropped unrun.
fn run_pooled(cpu: usize, job: Job) -> std::io::Result<()> {
    let parked = {
        let mut parked = PARKED.lock().unwrap_or_else(|e| e.into_inner());
        let at = parked.iter().rposition(|(on, _)| *on == cpu);
        at.or(parked.len().checked_sub(1))
            .map(|at| parked.remove(at))
    };
    let job = match parked {
        // A parked thread holds its receiver until it leaves the stack,
        // so this send only fails if that thread is gone.
        Some((_, thread)) => match thread.send((cpu, job)) {
            Ok(()) => return Ok(()),
            Err(SendError((_, job))) => job,
        },
        None => job,
    };
    let (wake, next) = mpsc::channel::<Pinned>();
    std::thread::Builder::new()
        .name("scaddard-pool".into())
        .spawn(move || {
            let (mut cpu, mut job) = (cpu, job);
            let mut pinned = None;
            loop {
                if pinned != Some(cpu) {
                    pin_to(cpu);
                    pinned = Some(cpu);
                }
                job();
                {
                    let mut parked = PARKED.lock().unwrap_or_else(|e| e.into_inner());
                    if parked.len() >= parked_bound() {
                        return;
                    }
                    parked.push((cpu, wake.clone()));
                }
                (cpu, job) = match next.recv() {
                    Ok(next) => next,
                    Err(_) => return,
                };
            }
        })
        .map(drop)
}

/// The CPUs a thread may use before any pin: those of the thread that
/// first starts a reactor (`None` where they cannot be read).
static HOME_CPUS: OnceLock<Option<polling::CpuSet>> = OnceLock::new();

/// Pins the calling pooled thread to `cpu`, best effort. Past the last
/// CPU it gets [`HOME_CPUS`] back, so no pin from its last job
/// survives: a worker there runs unpinned, as a fresh thread would.
fn pin_to(cpu: usize) {
    if polling::pin_current_thread_to_cpu(cpu).is_err() {
        if let Some(Some(home)) = HOME_CPUS.get() {
            let _ = polling::set_current_thread_affinity(home);
        }
    }
}

/// Worker 0's poller key for the listener. Connection slots count up
/// from 0, and the poller reserves `usize::MAX` for its waker.
const LISTENER_KEY: usize = usize::MAX - 1;

/// Connections dealt to a worker and not yet registered by it.
type Injector = Arc<Mutex<Vec<TcpStream>>>;

/// Worker 0's accepting half: the listener, and the other workers'
/// pollers and queues to deal connections to.
struct Acceptor {
    listener: TcpListener,
    /// Workers 1 to n - 1, in order.
    peers: Vec<(Arc<Poller>, Injector)>,
    /// Connections admitted so far; connection k goes to worker k mod n.
    dealt: usize,
    /// After an accept error the listener's read interest is off until
    /// this deadline, or until one of worker 0's connections closes.
    paused_until: Option<Instant>,
}

/// One live connection owned by exactly one worker.
struct Conn {
    stream: TcpStream,
    /// Unconsumed request bytes; complete frames are decoded out each
    /// wakeup, so between wakeups this holds at most one partial frame.
    rbuf: Vec<u8>,
    /// Encoded responses not yet accepted by the kernel.
    out: Vec<u8>,
    /// Flushed prefix of `out`.
    out_pos: usize,
    /// Armed while `rbuf` holds a partial frame.
    read_deadline: Option<Instant>,
    /// Armed while `out` has unflushed bytes.
    write_deadline: Option<Instant>,
    /// Interest currently registered with the poller.
    interest: (bool, bool),
    /// Output backlog passed the high-water mark; reads are off until
    /// it drains below half of it.
    read_suspended: bool,
    /// Close once `out` is flushed, dropping undispatched frames
    /// (protocol error or direction violation — the stream is beyond
    /// saving).
    close_after_flush: bool,
    /// Peer sent EOF (possibly a half-close): answer everything already
    /// received, then close once drained.
    close_when_drained: bool,
    /// A heavy engine op (see [`is_heavy`]) is running on an offload
    /// thread; frames decoded meanwhile queue in `deferred` so the
    /// connection's response order survives.
    busy: bool,
    /// Incarnation of this slab slot — a completion whose generation
    /// doesn't match arrived for a connection that is already gone.
    generation: u64,
    /// Requests awaiting the in-flight offloaded op, in arrival order.
    deferred: VecDeque<Request>,
    /// Sampled requests whose responses sit in `out`: the next flush
    /// times `write-flush` for them.
    flush: Sample,
}

impl Conn {
    fn unflushed(&self) -> usize {
        self.out.len() - self.out_pos
    }
}

/// Result of one offloaded heavy op, handed back to the worker.
struct Completion {
    slot: usize,
    generation: u64,
    /// Encoded response frame(s).
    bytes: Vec<u8>,
    /// `false`: the op decided the connection must close (direction
    /// violation), mirroring [`handle_request`]'s return.
    keep_open: bool,
}

/// `Scale`, `Tick` and `Compact` hold the engine's write lock for
/// milliseconds (a scale commit, a redistribution drain, a compaction
/// begin that re-places every block); executing them on the reactor
/// thread would stall every connection on the worker for the duration.
/// They run on a pooled thread instead (see [`run_pooled`]).
fn is_heavy(frame: &Frame) -> bool {
    matches!(
        frame,
        Frame::Scale { .. } | Frame::Tick { .. } | Frame::Compact
    )
}

struct Worker {
    shared: Arc<Shared>,
    /// The CPU this worker and the ops it offloads are pinned to.
    cpu: usize,
    poller: Arc<Poller>,
    injector: Injector,
    /// Worker 0 only: the listener it accepts from for every worker.
    acceptor: Option<Acceptor>,
    /// Finished offloaded ops waiting to be folded back in.
    completions: Arc<Mutex<Vec<Completion>>>,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    /// Next slot incarnation (see [`Conn::generation`]).
    next_generation: u64,
    chunk: Vec<u8>,
    events: Vec<Event>,
    /// Output backlog (bytes) beyond which reads are suspended.
    high_water: usize,
    /// This worker's profiler state word and phase timing.
    seam: Seam,
}

impl Worker {
    fn live_conns(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.conns.len()).filter(|&s| self.conns[s].is_some())
    }

    fn run(&mut self) {
        loop {
            let timeout = self.next_timeout();
            self.events.clear();
            self.seam.enter(Phase::Epoll);
            let _ = self.poller.wait(&mut self.events, timeout);
            self.seam.enter(Phase::Idle);
            if self.shared.shutdown.load(Ordering::SeqCst) {
                self.drain();
                return;
            }
            self.admit_new();
            self.apply_completions();
            self.accept_ready();
            self.seam.enter(Phase::Decode);
            let mut pending: Vec<Request> = Vec::new();
            let events = std::mem::take(&mut self.events);
            for ev in &events {
                self.handle_event(ev, &mut pending);
            }
            self.events = events;
            self.dispatch(pending);
            self.seam.enter(Phase::Write);
            self.flush_and_retune();
            self.seam.enter(Phase::Idle);
            self.seam.record();
            self.sweep_deadlines();
        }
    }

    /// Nearest armed deadline, as a `wait` timeout. `None` (block until
    /// readiness or notify) when nothing is on the clock.
    fn next_timeout(&self) -> Option<Duration> {
        let mut nearest: Option<Instant> = None;
        for slot in self.live_conns() {
            let conn = self.conns[slot].as_ref().unwrap();
            for deadline in [conn.read_deadline, conn.write_deadline]
                .into_iter()
                .flatten()
            {
                nearest = Some(nearest.map_or(deadline, |n| n.min(deadline)));
            }
        }
        if let Some(resume) = self.acceptor.as_ref().and_then(|a| a.paused_until) {
            nearest = Some(nearest.map_or(resume, |n| n.min(resume)));
        }
        nearest.map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// Registers the connections worker 0 has dealt to this worker.
    fn admit_new(&mut self) {
        loop {
            let stream = {
                let mut q = self.injector.lock().unwrap_or_else(|e| e.into_inner());
                match q.pop() {
                    Some(s) => s,
                    None => return,
                }
            };
            self.register(stream);
        }
    }

    /// Worker 0 only: re-arms the listener once an accept pause is over,
    /// and accepts when it is ready.
    fn accept_ready(&mut self) {
        let Some(mut acceptor) = self.acceptor.take() else {
            return;
        };
        let mut ready = self.events.iter().any(|ev| ev.key == LISTENER_KEY);
        if acceptor.paused_until.is_some_and(|t| Instant::now() >= t)
            && self
                .poller
                .modify(acceptor.listener.as_raw_fd(), Event::readable(LISTENER_KEY))
                .is_ok()
        {
            acceptor.paused_until = None;
            ready = true;
        }
        if ready {
            self.accept_all(&mut acceptor);
        }
        self.acceptor = Some(acceptor);
    }

    /// Accepts until the listener runs dry and deals connection k to
    /// worker k mod n. Worker 0's own share is registered in place and
    /// read this wakeup (its first request is often already waiting); a
    /// peer's goes onto its queue, with a notify when the queue was
    /// empty (else one is already pending). An accept error pauses
    /// accepting (see [`Accept::Pause`]).
    fn accept_all(&mut self, acceptor: &mut Acceptor) {
        loop {
            let stream = match self.shared.accept(&acceptor.listener) {
                Accept::Open(stream) => stream,
                Accept::Again => continue,
                Accept::Empty | Accept::Stop => return,
                Accept::Pause => {
                    // Level-triggered: a peer left in the backlog would
                    // wake this worker again at once.
                    let fd = acceptor.listener.as_raw_fd();
                    let _ = self.poller.modify(fd, Event::none(LISTENER_KEY));
                    acceptor.paused_until = Some(Instant::now() + ACCEPT_PAUSE);
                    return;
                }
            };
            let k = acceptor.dealt % (acceptor.peers.len() + 1);
            acceptor.dealt = acceptor.dealt.wrapping_add(1);
            if k == 0 {
                if let Some(slot) = self.register(stream) {
                    self.events.push(Event::readable(slot));
                }
                continue;
            }
            let (poller, injector) = &acceptor.peers[k - 1];
            let mut queue = injector.lock().unwrap_or_else(|e| e.into_inner());
            queue.push(stream);
            if queue.len() == 1 {
                drop(queue);
                let _ = poller.notify();
            }
        }
    }

    /// Takes an admitted connection into the slab and the poller;
    /// `None` (and counted closed) if either step fails.
    fn register(&mut self, stream: TcpStream) -> Option<usize> {
        if stream.set_nonblocking(true).is_err() {
            self.shared.release();
            return None;
        }
        let _ = stream.set_nodelay(true);
        let slot = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.conns.len() - 1
        });
        if self
            .poller
            .add(stream.as_raw_fd(), Event::readable(slot))
            .is_err()
        {
            self.free.push(slot);
            self.shared.release();
            return None;
        }
        self.next_generation += 1;
        self.conns[slot] = Some(Conn {
            stream,
            rbuf: Vec::with_capacity(4096),
            out: Vec::with_capacity(4096),
            out_pos: 0,
            read_deadline: None,
            write_deadline: None,
            interest: (true, false),
            read_suspended: false,
            close_after_flush: false,
            close_when_drained: false,
            busy: false,
            generation: self.next_generation,
            deferred: VecDeque::new(),
            flush: Sample::default(),
        });
        Some(slot)
    }

    /// Reads a ready connection in `READ_CHUNK` pieces until a short
    /// read, `WouldBlock` or EOF, and decodes every complete frame into
    /// `pending` (in arrival order). A short read ends the drain without
    /// the extra `read` that would return `WouldBlock`: the poller is
    /// level-triggered, so anything still unread re-fires the next wait.
    fn handle_event(&mut self, ev: &Event, pending: &mut Vec<Request>) {
        let slot = ev.key;
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return; // already closed this wakeup
        };
        if !ev.readable || conn.read_suspended || conn.close_after_flush || conn.close_when_drained
        {
            return; // writable-only wakeups are handled by the flush pass
        }
        // The readable edge opens `decode` (clock read only for a sampled
        // request: here if it is the next frame, else after the drain).
        let early = self.seam.readable(|_| 1);
        let mut peer_closed = false;
        loop {
            match conn.stream.read(&mut self.chunk) {
                Ok(0) => {
                    peer_closed = true;
                    break;
                }
                Ok(n) => {
                    self.shared.stats.bytes_rx.add(n as u64);
                    conn.rbuf.extend_from_slice(&self.chunk[..n]);
                    if n < self.chunk.len() {
                        break; // drained (level-triggered: more re-fires)
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(slot);
                    return;
                }
            }
        }
        let conn = self.conns[slot].as_mut().unwrap();
        let readable_at = early.or_else(|| self.seam.readable(|n| complete_frames(&conn.rbuf, n)));
        // Decode in place: `consumed` walks the buffer, one compaction
        // at the end instead of a memmove per frame.
        let mut consumed = 0;
        loop {
            match decode_frame_traced(&conn.rbuf[consumed..], self.shared.config.max_frame_len) {
                Ok((frame, ctx, used)) => {
                    consumed += used;
                    let sample = self.seam.decoded(readable_at);
                    pending.push(Request {
                        slot,
                        frame,
                        ctx,
                        sample,
                    });
                }
                Err(FrameError::Incomplete { .. }) => break,
                Err(err) => {
                    self.shared.stats.protocol_errors.inc();
                    Frame::Error {
                        code: ErrorCode::Protocol,
                        message: err.to_string(),
                    }
                    .encode(&mut conn.out);
                    conn.close_after_flush = true;
                    consumed = conn.rbuf.len();
                    break;
                }
            }
        }
        if consumed > 0 {
            let len = conn.rbuf.len();
            conn.rbuf.copy_within(consumed.., 0);
            conn.rbuf.truncate(len - consumed);
        }
        conn.read_deadline = if conn.rbuf.is_empty() || conn.close_after_flush {
            None
        } else {
            // Partial frame pending: (re-)arm on first appearance only.
            Some(
                conn.read_deadline
                    .unwrap_or_else(|| Instant::now() + self.shared.config.read_timeout),
            )
        };
        if peer_closed {
            let idle = conn.unflushed() == 0
                && conn.out.is_empty()
                && !conn.busy
                && conn.deferred.is_empty()
                && pending.iter().all(|p| p.slot != slot);
            if idle {
                self.close(slot);
            } else {
                // Half-close: frames already received (including any in
                // this wakeup's `pending`) still get answers.
                conn.close_when_drained = true;
            }
        }
    }

    /// Dispatches this wakeup's decoded frames. Lookup frames from all
    /// connections accumulate into a wave answered under one read lock;
    /// any other frame flushes the wave first (order barrier), then
    /// runs through the ordinary per-request path.
    fn dispatch(&mut self, pending: Vec<Request>) {
        let mut wave: Vec<Request> = Vec::new();
        for req in pending {
            let Some(conn) = self.conns[req.slot].as_mut() else {
                continue;
            };
            if conn.close_after_flush {
                continue;
            }
            // An offloaded op owns this connection's response order:
            // everything behind it waits in the deferred queue. (Does
            // not barrier the wave — ordering is per-connection.)
            if conn.busy {
                conn.deferred.push_back(req);
                continue;
            }
            if is_lookup(&req.frame) {
                wave.push(req);
                continue;
            }
            self.flush_wave(&mut wave);
            if is_heavy(&req.frame) {
                self.offload(req);
            } else if let Some(conn) = self.conns[req.slot].as_mut() {
                self.seam.enter(Phase::Engine);
                if !handle_request(req.frame, &self.shared, &mut conn.out, req.ctx) {
                    conn.close_after_flush = true;
                }
                conn.flush.carry(req.sample);
                self.seam.enter(Phase::Decode);
            }
        }
        self.flush_wave(&mut wave);
    }

    /// Runs a heavy frame on a pooled thread pinned to this worker's
    /// CPU. The connection is parked (`busy`) until the completion
    /// comes back through [`Self::apply_completions`]; when no thread
    /// can be had the op runs inline (slow, but correct).
    fn offload(&mut self, req: Request) {
        let slot = req.slot;
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        let generation = conn.generation;
        let shared = Arc::clone(&self.shared);
        let completions = Arc::clone(&self.completions);
        let poller = Arc::clone(&self.poller);
        conn.busy = true;
        let (frame, ctx) = (req.frame.clone(), req.ctx);
        let started = run_pooled(
            self.cpu,
            Box::new(move || {
                // The op threads share one state word ("scaddard-op"):
                // overlapping ops under-report `offload`, and the last
                // one to finish always leaves it `idle`.
                shared.op_state.set(Phase::Offload.state());
                let mut bytes = Vec::new();
                let keep_open = handle_request(frame, &shared, &mut bytes, ctx);
                shared.op_state.set(Phase::Idle.state());
                completions
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .push(Completion {
                        slot,
                        generation,
                        bytes,
                        keep_open,
                    });
                let _ = poller.notify();
            }),
        );
        if started.is_err() {
            // Thread exhaustion: execute inline rather than wedge.
            let conn = self.conns[slot].as_mut().expect("checked above");
            conn.busy = false;
            if !handle_request(req.frame, &self.shared, &mut conn.out, req.ctx) {
                conn.close_after_flush = true;
            }
        }
    }

    /// Folds finished offloaded ops back into their connections and
    /// replays each connection's deferred frames (stopping at the next
    /// heavy frame, which re-offloads).
    fn apply_completions(&mut self) {
        let done = {
            let mut guard = self.completions.lock().unwrap_or_else(|e| e.into_inner());
            std::mem::take(&mut *guard)
        };
        for completion in done {
            let Some(conn) = self.conns.get_mut(completion.slot).and_then(Option::as_mut) else {
                continue; // connection died while the op ran
            };
            if conn.generation != completion.generation || !conn.busy {
                continue; // slot was reused
            }
            conn.busy = false;
            conn.out.extend_from_slice(&completion.bytes);
            if !completion.keep_open {
                conn.close_after_flush = true;
                conn.deferred.clear();
                continue;
            }
            // Replay what queued up behind the op, in order.
            while let Some(req) = self.conns[completion.slot]
                .as_mut()
                .and_then(|c| c.deferred.pop_front())
            {
                if is_heavy(&req.frame) {
                    self.offload(req);
                    break;
                }
                let conn = self.conns[completion.slot].as_mut().expect("still live");
                if !handle_request(req.frame, &self.shared, &mut conn.out, req.ctx) {
                    conn.close_after_flush = true;
                    conn.deferred.clear();
                    break;
                }
            }
        }
    }

    /// Answers the accumulated lookup wave through [`answer_lookups`]
    /// and encodes each response into its connection's write buffer.
    fn flush_wave(&mut self, wave: &mut Vec<Request>) {
        if wave.is_empty() {
            return;
        }
        let conns = &mut self.conns;
        answer_lookups(&self.shared, wave, Some(&mut self.seam), |req, response| {
            if let Some(conn) = conns[req.slot].as_mut().filter(|c| !c.close_after_flush) {
                conn.flush.carry(req.sample);
                response.encode(&mut conn.out);
            }
        });
        wave.clear();
    }

    /// Writes every connection's pending output (one syscall per
    /// connection per wakeup), then retunes poller interest: writable
    /// on short writes, read suspension across the high-water mark,
    /// close when a draining connection empties.
    fn flush_and_retune(&mut self) {
        for slot in 0..self.conns.len() {
            let Some(conn) = self.conns[slot].as_mut() else {
                continue;
            };
            if conn.unflushed() > 0 {
                let mut flush = std::mem::take(&mut conn.flush);
                self.seam.edge(Phase::Write, &mut flush, None);
                loop {
                    match conn.stream.write(&conn.out[conn.out_pos..]) {
                        Ok(0) => {
                            conn.close_after_flush = true;
                            break;
                        }
                        Ok(n) => {
                            conn.out_pos += n;
                            self.shared.stats.bytes_tx.add(n as u64);
                            if conn.out_pos == conn.out.len() {
                                break;
                            }
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                        Err(_) => {
                            self.close(slot);
                            break;
                        }
                    }
                }
                self.seam.edge(Phase::Write, &mut flush, None);
            }
            let Some(conn) = self.conns[slot].as_mut() else {
                continue;
            };
            if conn.unflushed() == 0 {
                conn.out.clear();
                conn.out_pos = 0;
                conn.write_deadline = None;
                if conn.out.capacity() > BUF_SHRINK_THRESHOLD {
                    conn.out.shrink_to(BUF_SHRINK_THRESHOLD);
                }
                if conn.rbuf.capacity() > BUF_SHRINK_THRESHOLD {
                    conn.rbuf.shrink_to(BUF_SHRINK_THRESHOLD);
                }
                if conn.close_after_flush
                    || (conn.close_when_drained && !conn.busy && conn.deferred.is_empty())
                {
                    self.close(slot);
                    continue;
                }
            } else if conn.write_deadline.is_none() {
                conn.write_deadline = Some(Instant::now() + self.shared.config.write_timeout);
            }
            // Backpressure hysteresis: suspend past high water, resume
            // below half of it.
            let backlog = conn.unflushed();
            if backlog > self.high_water {
                conn.read_suspended = true;
            } else if backlog < self.high_water / 2 {
                conn.read_suspended = false;
            }
            let want = (
                !conn.read_suspended && !conn.close_after_flush && !conn.close_when_drained,
                conn.unflushed() > 0,
            );
            if want != conn.interest {
                let ev = Event {
                    key: slot,
                    readable: want.0,
                    writable: want.1,
                };
                if self.poller.modify(conn.stream.as_raw_fd(), ev).is_ok() {
                    conn.interest = want;
                }
            }
        }
    }

    /// Closes connections whose read or write deadline has lapsed.
    fn sweep_deadlines(&mut self) {
        let now = Instant::now();
        for slot in 0..self.conns.len() {
            let Some(conn) = self.conns[slot].as_mut() else {
                continue;
            };
            let read_overdue = conn.read_deadline.is_some_and(|d| now >= d);
            let write_overdue = conn.write_deadline.is_some_and(|d| now >= d);
            if read_overdue {
                // Best effort: tell the slow-loris client why.
                let mut err = Vec::new();
                Frame::Error {
                    code: ErrorCode::BadRequest,
                    message: "request read deadline exceeded".into(),
                }
                .encode(&mut err);
                let _ = conn.stream.write(&err);
            }
            if read_overdue || write_overdue {
                self.close(slot);
            }
        }
    }

    /// Removes a connection: deregisters, counts, frees the slot. A
    /// freed descriptor ends an accept pause early.
    fn close(&mut self, slot: usize) {
        if let Some(conn) = self.conns[slot].take() {
            let _ = self.poller.delete(conn.stream.as_raw_fd());
            self.free.push(slot);
            self.shared.release();
            if let Some(paused) = self.acceptor.as_mut().and_then(|a| a.paused_until.as_mut()) {
                *paused = Instant::now();
            }
        }
    }

    /// Graceful drain: wait (boundedly) for in-flight offloaded ops,
    /// flush what each connection is owed (blocking, under
    /// `write_timeout`), then close everything.
    fn drain(&mut self) {
        // Stop accepting first: later arrivals are refused by the kernel
        // rather than left waiting in the backlog through the drain.
        if let Some(acceptor) = self.acceptor.take() {
            let _ = self.poller.delete(acceptor.listener.as_raw_fd());
        }
        self.admit_new();
        let deadline = Instant::now() + self.shared.config.write_timeout;
        while self.conns.iter().flatten().any(|c| c.busy) && Instant::now() < deadline {
            let mut scratch = Vec::new();
            let _ = self
                .poller
                .wait(&mut scratch, Some(Duration::from_millis(20)));
            self.apply_completions();
        }
        for slot in 0..self.conns.len() {
            if let Some(conn) = self.conns[slot].as_mut() {
                let _ = conn.stream.set_nonblocking(false);
                flush(&conn.stream, &self.shared, &conn.out[conn.out_pos..]);
                self.close(slot);
            }
        }
    }
}

/// Handle for one running worker: its poller (to wake it for
/// shutdown) and its done signal. Once the worker's loop has returned
/// or unwound, its [`Worker`] (listener, connections, `Arc<Shared>`) is
/// dropped and the signal fires: `()` after a clean drain, a disconnect
/// after a panic.
struct WorkerHandle {
    poller: Arc<Poller>,
    done: Receiver<()>,
}

/// The running event-loop core behind a [`crate::Scaddard`] in
/// [`crate::ServerMode::EventLoop`].
pub(crate) struct Reactor {
    workers: Vec<WorkerHandle>,
}

impl Reactor {
    /// Starts the workers on pooled threads; worker 0 takes the
    /// listener.
    pub(crate) fn start(listener: TcpListener, shared: Arc<Shared>) -> std::io::Result<Reactor> {
        HOME_CPUS.get_or_init(|| polling::current_thread_affinity().ok());
        let n = match shared.config.workers {
            0 => cores(),
            n => n,
        };
        listener.set_nonblocking(true)?;
        let mut queues = Vec::with_capacity(n);
        for _ in 0..n {
            let injector: Injector = Arc::new(Mutex::new(Vec::new()));
            queues.push((Arc::new(open_poller()?), injector));
        }
        queues[0]
            .0
            .add(listener.as_raw_fd(), Event::readable(LISTENER_KEY))?;
        let mut acceptor = Some(Acceptor {
            listener,
            peers: queues[1..].to_vec(),
            dealt: 0,
            paused_until: None,
        });
        let mut reactor = Reactor {
            workers: Vec::with_capacity(n),
        };
        // Worker 0's seam registers the `net_phase_ns` family; the
        // others share its histograms.
        let state = |i: usize| shared.profiler.register(&format!("scaddard-worker-{i}"));
        let first = Seam::new(
            state(0),
            &shared.registry,
            Arc::clone(shared.tracer.clock()),
            shared.config.instrument,
        );
        let mut seams: Vec<Seam> = (1..n).map(|i| first.sibling(state(i))).collect();
        seams.insert(0, first);
        for (i, ((poller, injector), seam)) in queues.into_iter().zip(seams).enumerate() {
            let worker = Worker {
                shared: Arc::clone(&shared),
                cpu: i,
                poller: Arc::clone(&poller),
                injector,
                // Worker 0, started first: the first client waits on it.
                acceptor: acceptor.take(),
                completions: Arc::new(Mutex::new(Vec::new())),
                conns: Vec::new(),
                free: Vec::new(),
                next_generation: 0,
                chunk: vec![0u8; READ_CHUNK],
                events: Vec::with_capacity(256),
                high_water: shared.config.max_frame_len as usize * 4,
                seam,
            };
            let (done, signal) = mpsc::channel::<()>();
            let started = run_pooled(
                i,
                Box::new(move || {
                    // Unwinding drops the worker, then `done`.
                    let done = done;
                    let mut worker = worker;
                    worker.run();
                    drop(worker);
                    let _ = done.send(());
                }),
            );
            match started {
                Ok(()) => reactor.workers.push(WorkerHandle {
                    poller,
                    done: signal,
                }),
                Err(e) => {
                    // Stop the workers already running; worker 0 closes
                    // the listener as it drains.
                    shared.shutdown.store(true, Ordering::SeqCst);
                    reactor.shutdown();
                    return Err(e);
                }
            }
        }
        Ok(reactor)
    }

    /// Wakes every worker and waits until each has drained and dropped
    /// its state; their threads then park for the next daemon, and the
    /// pollers of clean drains go idle for its workers. The caller sets
    /// the shutdown flag first; worker 0 then closes the listener as it
    /// drains.
    pub(crate) fn shutdown(&mut self) {
        for worker in &self.workers {
            let _ = worker.poller.notify();
        }
        for worker in self.workers.drain(..) {
            let clean = worker.done.recv().is_ok();
            match Arc::try_unwrap(worker.poller) {
                // A panicked worker may have left sockets registered, and
                // an op abandoned at the drain deadline still holds a
                // handle: those pollers close instead.
                Ok(poller) if clean => {
                    let mut idle = IDLE_POLLERS.lock().unwrap_or_else(|e| e.into_inner());
                    if idle.len() < parked_bound() {
                        idle.push(poller);
                    }
                }
                _ => {}
            }
        }
    }

    pub(crate) fn is_shut_down(&self) -> bool {
        self.workers.is_empty()
    }
}

// Tests of the serving loop live at the crate's integration level
// (`tests/reactor_edge.rs`, `tests/loopback_concurrent.rs`) where both
// server modes are exercised through real sockets; NetStats conformance
// is additionally covered by the `server` module tests running the
// same assertions against `ServerMode::EventLoop` (see `server::tests`).
// The thread cache's bounds are counted in `tests/sampler_threads.rs`.
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_job_that_panics_still_signals_done_and_the_cache_runs_on() {
        let (done, signal) = mpsc::channel::<()>();
        run_pooled(
            0,
            Box::new(move || {
                let _done = done;
                panic!("a worker loop panicked");
            }),
        )
        .unwrap();
        // What `Reactor::shutdown` waits on returns: the sender was
        // dropped while unwinding.
        assert!(signal.recv().is_err());
        let (tx, rx) = mpsc::channel();
        run_pooled(0, Box::new(move || tx.send(7).unwrap())).unwrap();
        assert_eq!(rx.recv(), Ok(7));
    }
}
