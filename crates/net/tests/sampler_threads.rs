//! The profiler's `obs-sampler` thread is one per process: daemons
//! attach to it, so booting and shutting them down never adds another,
//! and two daemons up at once share it.
#![cfg(target_os = "linux")]

use cmsim::{CmServer, ServerConfig, SharedServer};
use scaddar_net::{NetClient, NetServerConfig, Scaddard};
use scaddar_obs::{MonotonicClock, Registry, Tracer};
use std::sync::Arc;

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

/// Threads of this process named `obs-sampler`.
fn samplers() -> usize {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.trim_end() == "obs-sampler")
        .count()
}

#[test]
fn a_process_runs_at_most_one_obs_sampler() {
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
