//! Net-facing smoke scenario: boot a `scaddard` daemon on an ephemeral
//! loopback port, drive it with the seeded load generator (locate +
//! batch + mid-run scale commits), and assert the run was clean — zero
//! protocol errors, zero epoch-consistency violations, scaling observed
//! mid-traffic — and that the engine behind the socket still satisfies
//! the in-process invariants the harness pins down (residency
//! consistent, zero stream hiccups). Runs once per serving core: the
//! event-loop reactor (the default) and the thread-per-connection
//! reference. CI's `bench-gates` job runs the release-mode cousin of
//! this via `scaddard-load --mode both`.

use cmsim::{CmServer, ServerConfig, SharedServer};
use scaddar_net::{LoadConfig, NetClient, NetServerConfig, Scaddard, ServerMode};
use scaddar_obs::{MonotonicClock, Registry, Tracer};
use std::sync::Arc;

fn smoke(mode: ServerMode) {
    let mut server = CmServer::new(ServerConfig::new(4).with_catalog_seed(0x5E6E)).unwrap();
    server.add_object(10_000).unwrap();
    let shared = Arc::new(SharedServer::new(server));
    let registry = Registry::new();
    let tracer = Tracer::new(Arc::new(MonotonicClock::new()), 128);
    let daemon = Scaddard::bind(
        "127.0.0.1:0",
        Arc::clone(&shared),
        NetServerConfig::default().with_mode(mode),
        &registry,
        tracer,
    )
    .unwrap();

    let report = scaddar_net::run_load(
        daemon.local_addr(),
        &LoadConfig {
            seed: 0x5E6E,
            clients: 8,
            requests_per_client: 120,
            object_blocks: 10_000,
            scale_ops: 2,
            ..LoadConfig::default()
        },
    );

    assert_eq!(report.protocol_errors, 0, "protocol errors over loopback");
    assert_eq!(report.errors, 0, "typed error responses during clean load");
    assert_eq!(
        report.consistency_violations, 0,
        "torn epochs observed across the socket"
    );
    assert!(
        report.epochs_observed > 1,
        "scale commits never landed mid-traffic"
    );
    assert_eq!(report.requests, 8 * 120);
    assert!(report.locate.count > 0 && report.locate_batch.count > 0);
    assert!(report.locate.p999 >= report.locate.p50);

    // The server-side ledger, scraped over the wire and rendered here
    // (as the console's `stats` does), agrees with the client-side run.
    let (_, _, snapshot) = NetClient::connect(daemon.local_addr())
        .scrape_stats()
        .unwrap();
    let scraped = Registry::new();
    scraped.absorb(&snapshot);
    let text = scraped.render_prometheus();
    assert!(text.contains("net_server_requests_total{endpoint=\"locate\"}"));
    assert!(text.contains("net_server_requests_total{endpoint=\"scale\"} 2"));
    assert!(text.contains("# TYPE net_server_request_ns histogram"));

    // Serving over a socket must not have bent the in-process story:
    // drain any leftover backlog, then the harness-grade invariants hold.
    daemon.shutdown();
    shared.with_write(|s| {
        while s.backlog() > 0 {
            s.tick();
        }
    });
    shared.with_read(|s| {
        assert!(
            s.residency_consistent(),
            "residency diverged from placement"
        );
        assert_eq!(s.metrics().total_hiccups(), 0, "streams hiccuped");
    });
}

#[test]
fn seeded_loopback_load_is_clean_and_preserves_engine_invariants() {
    smoke(ServerMode::EventLoop);
}

#[test]
fn seeded_loopback_load_is_clean_on_the_threaded_reference() {
    smoke(ServerMode::Threaded);
}
