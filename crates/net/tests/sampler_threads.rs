//! Booting and shutting daemons down leaves a bounded set of threads:
//! the profiler's `obs-sampler` is one per process, and a daemon's
//! reactor workers and offloaded ops run on pooled `scaddard-*` threads
//! that park for the next daemon, at most 2 × cores of them.
#![cfg(target_os = "linux")]

use cmsim::{CmServer, ServerConfig, SharedServer};
use scaddar_net::{Frame, NetClient, NetServerConfig, Scaddard};
use scaddar_obs::{MonotonicClock, Registry, Tracer};
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// The tests count the process's threads, so they run one at a time.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Parked threads the reactor keeps at most.
fn parked_bound() -> usize {
    2 * cores()
}

/// Boots a daemon (one worker per core, the default) and checks it
/// answers its first request.
fn boot() -> Scaddard {
    let mut server = CmServer::new(ServerConfig::new(4).with_catalog_seed(7)).unwrap();
    server.add_object(1_000).unwrap();
    let daemon = Scaddard::bind(
        "127.0.0.1:0",
        Arc::new(SharedServer::new(server)),
        NetServerConfig::default(),
        &Registry::new(),
        Tracer::new(Arc::new(MonotonicClock::new()), 64),
    )
    .unwrap();
    NetClient::connect(daemon.local_addr()).ping().unwrap();
    daemon
}

/// Thread ids of this process whose name (`comm`) satisfies `keep`.
fn threads(keep: impl Fn(&str) -> bool) -> BTreeSet<u64> {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| {
            let path = task.ok()?.path();
            let comm = std::fs::read_to_string(path.join("comm")).ok()?;
            if !keep(comm.trim_end()) {
                return None;
            }
            path.file_name()?.to_str()?.parse().ok()
        })
        .collect()
}

/// Threads named `obs-sampler`.
fn samplers() -> usize {
    threads(|comm| comm == "obs-sampler").len()
}

/// The reactor's threads: workers, offloaded ops and parked ones.
fn scaddard() -> BTreeSet<u64> {
    threads(|comm| comm.starts_with("scaddard"))
}

/// Open descriptors of this process.
fn fds() -> usize {
    std::fs::read_dir("/proc/self/fd").unwrap().count()
}

/// Asserts that at most `limit` scaddard threads are alive, allowing a
/// thread that found the cache full a moment to exit.
fn assert_at_most(limit: usize, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(2);
    loop {
        let alive = scaddard().len();
        if alive <= limit {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "{what}: {alive} scaddard threads alive, want at most {limit}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn a_process_runs_at_most_one_obs_sampler() {
    let _serial = serial();
    for cycle in 0..20 {
        let daemon = boot();
        assert_eq!(samplers(), 1, "cycle {cycle}, daemon up");
        daemon.shutdown();
        assert!(samplers() <= 1, "cycle {cycle}, after shutdown");
    }
    let (a, b) = (boot(), boot());
    assert_eq!(samplers(), 1, "two daemons share the sampler");
    a.shutdown();
    b.shutdown();
    assert!(samplers() <= 1);
}

#[test]
fn boots_reuse_parked_workers() {
    let _serial = serial();
    let mut seen = BTreeSet::new();
    let mut after_first = 0;
    for cycle in 0..20 {
        let daemon = boot();
        seen.extend(scaddard());
        assert_at_most(parked_bound() + cores(), &format!("cycle {cycle}, up"));
        daemon.shutdown();
        assert_at_most(parked_bound(), &format!("cycle {cycle}, after shutdown"));
        if cycle == 0 {
            after_first = fds();
        }
    }
    // The idle pollers kept for the next boot do not pile up.
    assert!(
        fds() <= after_first,
        "{} fds, {after_first} after the first cycle",
        fds()
    );
    // Every boot after the first took its workers from the cache: 20
    // boots that each spawned their own would show 20 × cores ids.
    assert!(
        seen.len() <= parked_bound() + cores(),
        "20 boots ran on {} distinct threads",
        seen.len()
    );
}

#[test]
fn two_daemons_up_at_once_stay_within_the_bound() {
    let _serial = serial();
    let (a, b) = (boot(), boot());
    assert_at_most(parked_bound() + 2 * cores(), "two daemons up");
    a.shutdown();
    assert_at_most(parked_bound() + cores(), "one daemon up");
    b.shutdown();
    assert_at_most(parked_bound(), "both shut down");
}

#[test]
fn offloaded_ticks_borrow_pooled_threads() {
    let _serial = serial();
    let daemon = boot();
    let client = NetClient::connect(daemon.local_addr());
    let requests: Vec<Frame> = (0..32)
        .flat_map(|_| [Frame::Tick { rounds: 2 }, Frame::Ping])
        .collect();
    for _ in 0..4 {
        let answers = client.pipeline(&requests).unwrap();
        assert_eq!(answers.len(), requests.len());
        for (i, answer) in answers.iter().enumerate() {
            if i % 2 == 0 {
                assert!(matches!(answer, Frame::Ticked { .. }), "{answer:?}");
            } else {
                assert!(matches!(answer, Frame::Pong { .. }), "{answer:?}");
            }
        }
        assert_at_most(parked_bound() + cores(), "ticks in flight");
    }
    daemon.shutdown();
    assert_at_most(parked_bound(), "after shutdown");
}
