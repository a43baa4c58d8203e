//! One run of a workload: repetitions of set-up, the operator script
//! over the wire, lookups (during or after the script), and recovery
//! from a snapshot. Every workload runs the same phases, so every run
//! reports every metric; the workloads differ in catalog size, lookup
//! shape and whether they reorganize under streams.
//!
//! A traced run alternates untraced and traced repetitions, so the two
//! halves see the same host conditions and their ratio is the cost of
//! tracing. The traced repetitions' extra layer work (replays, clones,
//! the read-stall probe) runs between their timed phases.

use crate::client::{self, SessionStats};
use crate::oracle::{Placement, Timeline, View};
use crate::spans::CodecSpans;
use crate::stats::median;
use crate::workload::{script, stream_id, sub_seed, Rng, Session, Step, Workload, INITIAL_DISKS};
use cmsim::{
    CmServer, LocateQuery, RoundRecord, ServerConfig, ServerError, ServerStats, SharedServer,
};
use scaddar_core::{ObjectId, Scaddar};
use scaddar_net::{ClientConfig, NetClient, NetServerConfig, Scaddard};
use scaddar_obs::{HistogramSnapshot, MonotonicClock, Registry, Tracer};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Restarts at the end of every repetition; `recover_s` is the median.
pub const RECOVERIES: usize = 3;
/// Set-ups timed in every repetition; `setup_s` is the median.
pub const SETUPS: usize = 3;
/// Round trips of one kind per slice of a session.
pub const SLICE: usize = 256;
/// Service rounds per `Tick` request.
pub const TICK_ROUNDS: u32 = 8;
/// Blocks compared between the pre-snapshot and restored servers.
const RECOVERY_SAMPLE: usize = 1024;
/// Requests replayed in-process for the per-call layer timings.
const REPLAY_REQUESTS: usize = 16_384;
/// Calls timed together in one replay sample.
const REPLAY_CHUNK: usize = 256;
/// Frames in one replayed coalesced wave.
const WAVE: usize = 64;
/// Rounds ticked on a clone to time `SharedServer::tick`.
const TICK_REPLAY: usize = 64;

/// The `net_phase_ns` histograms the reactor records, by metric stem.
const PHASES: [(&str, &str); 6] = [
    ("decode", "decode"),
    ("coalesce_wait", "coalesce-wait"),
    ("lock_wait", "lock-wait"),
    ("engine", "engine"),
    ("encode", "encode"),
    ("write_flush", "write-flush"),
];

/// A booted daemon with the handles the benchmark inspects.
struct Daemon {
    daemon: Scaddard,
    /// The engine it serves.
    shared: Arc<SharedServer>,
    /// The registry passed to `bind`.
    registry: Registry,
    /// The operator's client; its connection is the daemon's first.
    operator: NetClient,
}

/// Everything one kind of repetition (untraced or traced) of a run
/// measured.
#[derive(Debug, Default)]
pub struct Samples {
    /// Set-up times, s.
    pub setup_s: Vec<f64>,
    /// `Locate` round trips, ns.
    pub seek_ns: Vec<f64>,
    /// Medians of [`SLICE`] consecutive `Locate` round trips of one
    /// session, ns.
    pub seek_slices: Vec<f64>,
    /// `LocateBatch` round trips, ns.
    pub batch_ns: Vec<f64>,
    /// Medians of [`SLICE`] consecutive `LocateBatch` round trips of one
    /// session, ns.
    pub batch_slices: Vec<f64>,
    /// 64-request window completion times, ns.
    pub window_ns: Vec<f64>,
    /// Replies per second of each lookup phase, summed over its
    /// concurrent sessions.
    pub phase_rps: Vec<f64>,
    /// Lookup replies.
    pub lookups: u64,
    /// Request plus reply bytes of the lookups.
    pub lookup_bytes: u64,
    /// `Scale` round trips, ms.
    pub scale_ms: Vec<f64>,
    /// Moves per second from `Scale` ack to backlog 0.
    pub drain_rate: Vec<f64>,
    /// `Compact` to flip, s.
    pub compact_s: Vec<f64>,
    /// Snapshot to first correct `Located`, s.
    pub recover_s: Vec<f64>,
    /// `CmServer::add_object`, ns per call.
    pub ingest_ns: Vec<f64>,
    /// `CmServer::restore`, ns.
    pub restore_ns: Vec<f64>,
    /// `Scaddar::from_snapshot`, ns.
    pub from_snapshot_ns: Vec<f64>,
    /// `Scaddar::scale` on the oracle's cloned engine, ns.
    pub core_scale_ns: Vec<f64>,
    /// `SharedServer::begin_compaction` on a clone, ns.
    pub begin_ns: Vec<f64>,
    /// `SharedServer::tick` on a clone, ns.
    pub tick_ns: Vec<f64>,
    /// `SharedServer::locate` from a reader while the script runs, ns.
    pub read_stall_ns: Vec<f64>,
    /// Replayed `SharedServer::locate`, ns per call.
    pub locate_ns: Vec<f64>,
    /// Replayed `SharedServer::locate_coalesced`, ns per wave.
    pub coalesced_ns: Vec<f64>,
    /// Replayed `Scaddar::locate`, ns per call.
    pub core_locate_ns: Vec<f64>,
    /// Replayed `Scaddar::locate_batch`, ns per call.
    pub core_batch_ns: Vec<f64>,
    /// Service rounds of the script (stream service and moves).
    pub rounds: Vec<RoundRecord>,
    /// Rounds with moves pending, per compaction.
    pub compact_rounds: Vec<f64>,
    /// Reactor phase histograms after the lookups, by metric stem.
    pub phases: Vec<(&'static str, HistogramSnapshot)>,
    /// Client codec timings (traced repetitions only).
    pub codec: CodecSpans,
    /// Repetitions folded in.
    pub reps: u64,
    /// Blocks compared across a restore.
    pub recovery_sampled: u64,
    /// Of those, blocks whose physical disk id changed across it.
    pub renumbered: u64,
    /// Requests and checks made.
    pub attempted: u64,
    /// `Error` replies.
    pub errors: u64,
    /// Wrong answers and failed checks.
    pub wrong: u64,
    /// What failed, for the report.
    pub failures: Vec<String>,
    /// Deterministic counts, for the report.
    pub counts: Vec<String>,
}

impl Samples {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.wrong += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }

    /// Folds in one session; returns its replies per second.
    fn absorb_session(&mut self, s: SessionStats) -> f64 {
        self.attempted += s.completed;
        self.errors += s.errors;
        self.wrong += s.wrong;
        if let Some(w) = s.first_wrong {
            self.failures.push(format!("lookup: {w}"));
        }
        self.seek_slices.extend(slice_medians(&s.seek_ns));
        self.batch_slices.extend(slice_medians(&s.batch_ns));
        self.seek_ns.extend(s.seek_ns);
        self.batch_ns.extend(s.batch_ns);
        self.window_ns.extend(s.window_ns);
        self.lookups += s.completed;
        self.lookup_bytes += s.bytes;
        self.codec.absorb(s.codec);
        s.completed as f64 / s.elapsed.as_secs_f64().max(1e-9)
    }
}

/// The server configuration `w` boots with under `seed`.
pub fn server_config(w: &Workload, seed: u64) -> ServerConfig {
    ServerConfig::new(INITIAL_DISKS)
        .with_catalog_seed(sub_seed(seed, stream_id::CATALOG))
        .with_redistribution_bandwidth(w.redistribution_bandwidth())
}

fn ctx(context: &str, e: impl std::fmt::Display) -> String {
    format!("{context}: {e}")
}

/// Opens playback streams up to the admission limit, each at a seeded
/// position in the first quarter of its object.
fn open_streams(server: &mut CmServer, w: &Workload, seed: u64) -> Result<(), String> {
    if !w.reorganize {
        return Ok(());
    }
    let mut rng = Rng::new(seed, stream_id::STREAMS);
    loop {
        match server.open_stream(ObjectId(rng.below(w.objects))) {
            Ok(id) => {
                let at = rng.below(w.blocks_per_object / 4);
                server
                    .stream_mut(id)
                    .map_err(|e| ctx("seek stream", e))?
                    .seek(at);
            }
            Err(ServerError::AdmissionRejected) => return Ok(()),
            Err(e) => return Err(ctx("open stream", e)),
        }
    }
}

/// Boots `scaddard` over `server` on an ephemeral loopback port, the
/// way the console's `serve` does.
fn boot(mut server: CmServer) -> Result<Daemon, String> {
    let registry = Registry::new();
    server.attach_stats(ServerStats::register_monotonic(&registry));
    let shared = Arc::new(SharedServer::new(server));
    let tracer = Tracer::new(Arc::new(MonotonicClock::new()), 256);
    let daemon = Scaddard::bind(
        "127.0.0.1:0",
        Arc::clone(&shared),
        NetServerConfig::default(),
        &registry,
        tracer,
    )
    .map_err(|e| ctx("bind", e))?;
    let operator = NetClient::with_config(
        daemon.local_addr(),
        ClientConfig {
            request_timeout: Duration::from_secs(120),
            ..ClientConfig::default()
        },
    );
    // Open the operator's connection now, so it is accepted first.
    operator.ping().map_err(|e| ctx("ping", e))?;
    Ok(Daemon {
        daemon,
        shared,
        registry,
        operator,
    })
}

/// Builds the server from the generated catalog and boots it: one
/// `setup_s` sample.
fn set_up(w: &Workload, seed: u64, s: &mut Samples) -> Result<Daemon, String> {
    let t = Instant::now();
    let mut server = CmServer::new(server_config(w, seed)).map_err(|e| ctx("server", e))?;
    for _ in 0..w.objects {
        let t_obj = Instant::now();
        server
            .add_object(w.blocks_per_object)
            .map_err(|e| ctx("ingest", e))?;
        s.ingest_ns.push(t_obj.elapsed().as_nanos() as f64);
    }
    open_streams(&mut server, w, seed)?;
    let daemon = boot(server)?;
    s.setup_s.push(t.elapsed().as_secs_f64());
    Ok(daemon)
}

/// Service rounds run so far.
fn rounds_run(shared: &SharedServer) -> u64 {
    shared.with_read(|x| x.metrics().evicted() + x.metrics().len() as u64)
}

/// The round records after round `since`.
fn rounds_since(shared: &SharedServer, since: u64) -> Vec<RoundRecord> {
    shared.with_read(|x| {
        let m = x.metrics();
        let total = m.evicted() + m.len() as u64;
        let new = (total - since).min(m.len() as u64) as usize;
        m.rounds().iter().skip(m.len() - new).copied().collect()
    })
}

/// Rounds that had moves pending.
fn busy_rounds(records: &[RoundRecord]) -> u64 {
    records.iter().filter(|r| r.backlog + r.moves > 0).count() as u64
}

fn total_moves(shared: &SharedServer) -> u64 {
    shared.with_read(|x| x.metrics().total_moves())
}

/// Ticks over the wire until the backlog is 0.
fn drain(client: &NetClient, s: &mut Samples) -> Result<(), String> {
    loop {
        s.attempted += 1;
        let backlog = client.tick(TICK_ROUNDS).map_err(|e| ctx("tick", e))?;
        if backlog == 0 {
            return Ok(());
        }
    }
}

/// Times `begin_compaction` and then [`TICK_REPLAY`] service rounds on
/// a clone of the live server, while a reader thread calls
/// `SharedServer::locate` on the clone back to back: the read stall
/// behind each round's write lock. The daemon is idle meanwhile, and
/// no timed phase runs.
fn probe_compaction(
    shared: &SharedServer,
    w: &Workload,
    seed: u64,
    s: &mut Samples,
) -> Result<(), String> {
    let clone = SharedServer::new(shared.with_read(|x| x.clone()));
    let t = Instant::now();
    clone
        .begin_compaction()
        .map_err(|e| ctx("begin_compaction", e))?;
    s.begin_ns.push(t.elapsed().as_nanos() as f64);
    let stop = AtomicBool::new(false);
    let stalls = std::thread::scope(|scope| {
        let reader = scope.spawn(|| read_stall_probe(&clone, w, seed, &stop));
        for _ in 0..TICK_REPLAY {
            let t = Instant::now();
            clone.tick();
            s.tick_ns.push(t.elapsed().as_nanos() as f64);
        }
        stop.store(true, Ordering::Relaxed);
        reader.join().expect("probe thread panicked")
    });
    s.read_stall_ns.extend(stalls);
    Ok(())
}

/// Runs one repetition's operator script over the wire, moving `view`
/// along the timeline and checking every step.
fn run_script(
    d: &Daemon,
    steps: &[Step],
    timeline: &Timeline,
    view: &View<'_>,
    s: &mut Samples,
) -> Result<(), String> {
    let client = &d.operator;
    let shared = &d.shared;
    for (step, expect) in steps.iter().zip(&timeline.steps) {
        let since = rounds_run(shared);
        let after = &timeline.states[expect.last];
        match step {
            Step::Scale(op) => {
                view.upper.store(expect.last, Ordering::SeqCst);
                let t = Instant::now();
                let (epoch, disks, queued) =
                    client.scale(op.clone()).map_err(|e| ctx("scale", e))?;
                let acked = Instant::now();
                view.lower.store(expect.last, Ordering::SeqCst);
                s.scale_ms.push(acked.duration_since(t).as_secs_f64() * 1e3);
                s.check(
                    epoch == after.engine.epoch() as u64 && disks == after.disks.disks(),
                    || format!("{op:?} acked epoch {epoch}, {disks} disks"),
                );
                s.check(queued == expect.moves, || {
                    format!("{op:?} queued {queued} moves, plan has {}", expect.moves)
                });
                let moved_before = total_moves(shared);
                drain(client, s)?;
                let secs = acked.elapsed().as_secs_f64();
                let moved = total_moves(shared) - moved_before;
                s.drain_rate.push(moved as f64 / secs);
                s.check(moved == queued, || {
                    format!("{op:?} executed {moved} moves, queued {queued}")
                });
                s.check(shared.with_read(|x| x.residency_consistent()), || {
                    format!("residency inconsistent after {op:?}")
                });
                let records = rounds_since(shared, since);
                s.counts.push(format!(
                    "scale {op:?}: {queued} moves queued, {} rounds to drain",
                    busy_rounds(&records)
                ));
                s.rounds.extend(records);
            }
            Step::Compact => {
                let generation = shared.with_read(|x| x.generation());
                view.upper.store(expect.last, Ordering::SeqCst);
                let t = Instant::now();
                let status = client.compact().map_err(|e| ctx("compact", e))?;
                view.lower.store(expect.first, Ordering::SeqCst);
                s.check(
                    status.active
                        && status.generation == generation
                        && status.target_generation == generation + 1
                        && status.backlog == expect.moves,
                    || {
                        format!(
                            "compact answered {status:?}, expected {} moves",
                            expect.moves
                        )
                    },
                );
                drain(client, s)?;
                s.compact_s.push(t.elapsed().as_secs_f64());
                view.lower.store(expect.last, Ordering::SeqCst);
                let (now_generation, epoch, active) = shared
                    .with_read(|x| (x.generation(), x.engine().epoch(), x.compaction_active()));
                s.check(
                    now_generation == generation + 1
                        && now_generation == after.engine.generation()
                        && epoch == 0
                        && !active,
                    || format!("after compaction: generation {now_generation}, chain {epoch}"),
                );
                s.check(shared.with_read(|x| x.residency_consistent()), || {
                    "residency inconsistent after compaction".to_string()
                });
                let records = rounds_since(shared, since);
                let rounds = busy_rounds(&records);
                s.compact_rounds.push(rounds as f64);
                s.counts.push(format!(
                    "compact: {} moves queued, {rounds} rounds to flip",
                    expect.moves
                ));
                s.rounds.extend(records);
            }
        }
    }
    Ok(())
}

/// A reader calling `SharedServer::locate` back to back until `stop`.
fn read_stall_probe(shared: &SharedServer, w: &Workload, seed: u64, stop: &AtomicBool) -> Vec<f64> {
    let mut rng = Rng::new(seed, stream_id::PROBE);
    let mut out = Vec::new();
    while !stop.load(Ordering::Relaxed) {
        let (object, block) = (rng.below(w.objects), rng.below(w.blocks_per_object));
        let t = Instant::now();
        let _ = black_box(shared.locate(ObjectId(object), block));
        out.push(t.elapsed().as_nanos() as f64);
    }
    out
}

/// Runs lookup sessions against `d` while `body` runs; returns `body`'s
/// result after every session has stopped and been joined.
///
/// Sessions connect one after another right after the operator's
/// connection (every repetition runs on a freshly restored daemon), so
/// session `i` is the daemon's connection `i + 1`. The
/// reactor hands connections to its workers round-robin and pins
/// worker `k` to CPU `k`, so pinning session `i` to CPU `(i + 1) mod
/// nproc` puts every session on its worker's CPU, the same way in
/// every run.
fn with_lookups<R>(
    d: &Daemon,
    w: &Workload,
    sessions: Vec<Session>,
    view: &View<'_>,
    traced: bool,
    s: &mut Samples,
    body: impl FnOnce(&mut Samples) -> R,
) -> Result<R, String> {
    let stop = AtomicBool::new(false);
    let addr = d.daemon.local_addr();
    let streams = sessions
        .iter()
        .map(|_| client::connect(addr))
        .collect::<std::io::Result<Vec<_>>>()
        .map_err(|e| ctx("connect", e))?;
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (out, results) = std::thread::scope(|scope| {
        let handles: Vec<_> = sessions
            .into_iter()
            .zip(streams)
            .enumerate()
            .map(|(i, (session, stream))| {
                let stop = &stop;
                scope.spawn(move || {
                    // Best effort: an unpinned session still measures.
                    let _ = polling::pin_current_thread_to_cpu((i + 1) % cpus);
                    let codec = CodecSpans::new(traced);
                    client::run(stream, session, w.window, view, stop, codec)
                })
            })
            .collect();
        let out = body(s);
        stop.store(true, Ordering::Relaxed);
        let results: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("lookup thread panicked"))
            .collect();
        (out, results)
    });
    if !results.is_empty() {
        let mut rps = 0.0;
        for r in results {
            rps += s.absorb_session(r.map_err(|e| ctx("lookup session", e))?);
        }
        s.phase_rps.push(rps);
    }
    Ok(out)
}

/// Snapshots `d`, restores and rebinds, and waits for the first correct
/// `Located`, [`RECOVERIES`] times; returns the last daemon.
fn recover(
    mut d: Daemon,
    w: &Workload,
    seed: u64,
    rep: u64,
    placement: &Placement,
    traced: bool,
    s: &mut Samples,
) -> Result<Daemon, String> {
    let config = server_config(w, seed);
    let mut rng = Rng::new(seed, stream_id::RECOVERY + 16 * rep);
    for _ in 0..RECOVERIES {
        let t = Instant::now();
        let bytes = d
            .shared
            .with_read(|x| x.snapshot())
            .map_err(|e| ctx("snapshot", e))?;
        let t_restore = Instant::now();
        let mut server = CmServer::restore(config, &bytes).map_err(|e| ctx("restore", e))?;
        s.restore_ns.push(t_restore.elapsed().as_nanos() as f64);
        open_streams(&mut server, w, seed)?;
        let fresh = boot(server)?;
        let (object, block) = (rng.below(w.objects), rng.below(w.blocks_per_object));
        let (epoch, disks, disk) = fresh
            .operator
            .locate(object, block)
            .map_err(|e| ctx("first locate", e))?;
        s.recover_s.push(t.elapsed().as_secs_f64());
        s.check(
            placement.check_one(object, block, epoch, disks, disk),
            || format!("restored server located ({object}, {block}) on {disk} at epoch {epoch}"),
        );
        let mut same = true;
        for _ in 0..RECOVERY_SAMPLE {
            let (o, b) = (
                ObjectId(rng.below(w.objects)),
                rng.below(w.blocks_per_object),
            );
            same &= d.shared.locate(o, b).ok() == fresh.shared.locate(o, b).ok();
            let physical =
                |x: &SharedServer| x.locate_batch_read(o, &[b]).ok().map(|r| r.locations);
            s.renumbered += u64::from(physical(&d.shared) != physical(&fresh.shared));
        }
        s.recovery_sampled += RECOVERY_SAMPLE as u64;
        s.check(same, || {
            "restored logical placement differs from the snapshot's".into()
        });
        if traced {
            let t = Instant::now();
            let engine = Scaddar::from_snapshot(&bytes, config.epsilon)
                .map_err(|e| ctx("from_snapshot", e))?;
            s.from_snapshot_ns.push(t.elapsed().as_nanos() as f64);
            drop(black_box(engine));
        }
        d.daemon.shutdown();
        d = fresh;
    }
    Ok(d)
}

/// Times the layers' lookup calls in-process on the same kind of
/// requests the sessions send: per-call means over chunks of
/// [`REPLAY_CHUNK`] calls, and one sample per [`WAVE`]-frame
/// coalesced read.
fn replay_lookups(d: &Daemon, w: &Workload, seed: u64, s: &mut Samples) {
    let mut session = Session::new(seed, stream_id::PROBE, w);
    let requests: Vec<(ObjectId, Vec<u64>)> = (0..REPLAY_REQUESTS)
        .map(|_| {
            let r = session.next_request();
            (ObjectId(r.object()), r.blocks().collect())
        })
        .collect();
    let seeks: Vec<(ObjectId, u64)> = requests
        .iter()
        .filter(|(_, blocks)| blocks.len() == 1)
        .map(|(o, blocks)| (*o, blocks[0]))
        .collect();
    let windows: Vec<&(ObjectId, Vec<u64>)> = requests
        .iter()
        .filter(|(_, blocks)| blocks.len() > 1)
        .collect();
    let engine = d.shared.with_read(|x| x.engine().clone());
    let per_call = |n: usize, t: Instant| t.elapsed().as_nanos() as f64 / n as f64;
    for chunk in seeks.chunks(REPLAY_CHUNK) {
        let t = Instant::now();
        for &(o, b) in chunk {
            let _ = black_box(d.shared.locate(o, b));
        }
        s.locate_ns.push(per_call(chunk.len(), t));
        let t = Instant::now();
        for &(o, b) in chunk {
            let _ = black_box(engine.locate(o, b));
        }
        s.core_locate_ns.push(per_call(chunk.len(), t));
    }
    for chunk in windows.chunks(REPLAY_CHUNK) {
        let t = Instant::now();
        for (o, blocks) in chunk.iter().copied() {
            let _ = black_box(engine.locate_batch(*o, blocks));
        }
        s.core_batch_ns.push(per_call(chunk.len(), t));
    }
    for wave in requests.chunks(WAVE) {
        let queries: Vec<LocateQuery<'_>> = wave
            .iter()
            .map(|(o, blocks)| match blocks.len() {
                1 => LocateQuery::One {
                    object: *o,
                    block: blocks[0],
                },
                _ => LocateQuery::Many { object: *o, blocks },
            })
            .collect();
        let t = Instant::now();
        black_box(d.shared.locate_coalesced(&queries));
        s.coalesced_ns.push(t.elapsed().as_nanos() as f64);
    }
}

/// Copies the reactor's `net_phase_ns` histograms (engine merged over
/// chain depths).
fn read_phases(d: &Daemon) -> Vec<(&'static str, HistogramSnapshot)> {
    let snap = d.registry.snapshot();
    PHASES
        .iter()
        .filter_map(|&(stem, phase)| {
            let hist = if phase == "engine" {
                scaddar_net::ENGINE_DEPTH_BUCKETS
                    .iter()
                    .filter_map(|depth| {
                        snap.histogram(&format!(
                            "net_phase_ns{{phase=\"engine\",depth=\"{depth}\"}}"
                        ))
                        .cloned()
                    })
                    .reduce(|mut a, b| {
                        a.merge(&b);
                        a
                    })
            } else {
                snap.histogram(&format!("net_phase_ns{{phase=\"{phase}\"}}"))
                    .cloned()
            };
            hist.map(|h| (stem, h))
        })
        .collect()
}

/// Folds the daemon's reactor phase histograms into `s.phases`.
fn add_phases(d: &Daemon, s: &mut Samples) {
    for (stem, hist) in read_phases(d) {
        match s.phases.iter_mut().find(|(name, _)| *name == stem) {
            Some((_, all)) => all.merge(&hist),
            None => s.phases.push((stem, hist)),
        }
    }
}

/// Runs `w` for `seconds` and returns the samples of its untraced and
/// its traced repetitions, or an error when the system could not be
/// driven at all.
///
/// The run is `ceil(seconds / w.rep_seconds)` repetitions of the same
/// unit, so every metric's samples are spread over the whole run and a
/// given `seconds` always means the same work: [`SETUPS`] set-ups, the
/// operator script (with the lookups beside it under reorganization,
/// otherwise followed by `seconds / repetitions` of lookups), then
/// [`RECOVERIES`] restarts, the last of which serves the next
/// repetition. With `trace`, every second repetition is traced; it
/// then also times the layer calls on replays and clones, after its
/// lookups and before its restarts.
pub fn run_pass(
    w: &Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<[Samples; 2], String> {
    let mut out = [Samples::default(), Samples::default()];
    let min_reps = if trace { 2.0 } else { 1.0 };
    let reps = (seconds / w.rep_seconds).ceil().max(min_reps) as u64;
    let slice = Duration::from_secs_f64(seconds / reps as f64);
    let mut d = set_up(w, seed, &mut out[0])?;
    let mut placement = Placement::initial(w, &server_config(w, seed));
    for rep in 0..reps {
        let traced = trace && rep % 2 == 1;
        let s = &mut out[usize::from(traced)];
        s.reps += 1;
        for _ in usize::from(rep == 0)..SETUPS {
            set_up(w, seed, s)?.daemon.shutdown();
        }
        let steps = script(seed, rep, placement.disks.disks(), !w.reorganize);
        let timeline = Timeline::build(placement, &steps);
        s.core_scale_ns.extend(&timeline.scale_ns);
        let view = View::at(&timeline.states, 0);
        let sessions: Vec<Session> = (0..w.lookup_threads as u64)
            .map(|i| Session::new(seed, rep * w.lookup_threads as u64 + i, w))
            .collect();
        let (during, after) = if w.reorganize {
            (sessions, Vec::new())
        } else {
            (Vec::new(), sessions)
        };
        with_lookups(&d, w, during, &view, traced, s, |s| {
            run_script(&d, &steps, &timeline, &view, s)
        })??;
        let last = timeline.states.len() - 1;
        if !after.is_empty() {
            let fixed = View::at(&timeline.states, last);
            with_lookups(&d, w, after, &fixed, traced, s, |_| {
                std::thread::sleep(slice)
            })?;
        }
        if traced {
            add_phases(&d, s);
            replay_lookups(&d, w, seed, s);
            probe_compaction(&d.shared, w, seed, s)?;
        }
        placement = timeline.states[last].clone();
        d = recover(d, w, seed, rep, &placement, traced, s)?;
        placement = placement.restored();
    }
    d.daemon.shutdown();
    for s in out.iter_mut().filter(|s| s.reps > 0) {
        let requested: u64 = s.rounds.iter().map(|r| r.requested).sum();
        let hiccups: u64 = s.rounds.iter().map(|r| r.hiccups).sum();
        s.counts.push(format!(
            "{} repetition(s); stream requests {requested}, hiccups {hiccups}",
            s.reps
        ));
        if s.renumbered > 0 {
            s.counts.push(format!(
                "finding: across a restore, {} of {} sampled blocks changed physical disk id \
                 while keeping their logical disk (CmServer::restore renumbers physical ids)",
                s.renumbered, s.recovery_sampled
            ));
        }
    }
    Ok(out)
}

/// Medians of consecutive [`SLICE`]-sample runs of `v` in arrival
/// order (one median of all of `v` when it is shorter). The host's
/// speed shifts between levels for periods of 0.1 s to seconds; the
/// mean of these medians moves in proportion to the share of slow
/// periods, where the median of all samples jumps between levels.
pub fn slice_medians(v: &[f64]) -> impl Iterator<Item = f64> + '_ {
    v.chunks_exact(SLICE.min(v.len().max(1))).map(median)
}

/// Mean of a non-empty sample set, or an error naming it.
pub fn mean_of(name: &str, values: &[f64]) -> Result<f64, String> {
    if values.is_empty() {
        return Err(format!("no samples for {name}"));
    }
    Ok(values.iter().sum::<f64>() / values.len() as f64)
}

/// `median` of a non-empty sample set, or an error naming it.
pub fn median_of(name: &str, values: &[f64]) -> Result<f64, String> {
    if values.is_empty() {
        return Err(format!("no samples for {name}"));
    }
    Ok(median(values))
}
