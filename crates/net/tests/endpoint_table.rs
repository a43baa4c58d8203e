//! The request counter table covers the wire. Every request tag the
//! decoder knows has an endpoint in `server::ENDPOINTS`, and one round
//! trip of each request kind bumps its
//! `net_server_requests_total{endpoint=…}` counter by exactly one, on
//! both serving cores. `NetStats` skips a label it does not know, so a
//! frame kind added to the wire but not to the table would otherwise be
//! served uncounted.

use cmsim::{CmServer, ServerConfig, SharedServer};
use scaddar_core::ScalingOp;
use scaddar_net::server::ENDPOINTS;
use scaddar_net::wire::PROTOCOL_VERSION;
use scaddar_net::{
    decode_frame, ClientError, Frame, FrameError, NetClient, NetServerConfig, Scaddard, ServerMode,
};
use scaddar_obs::{MonotonicClock, Registry, Tracer};
use std::sync::Arc;

/// One request of every kind the wire carries.
fn one_request_of_each_kind() -> Vec<Frame> {
    vec![
        Frame::Locate {
            object: 0,
            block: 7,
        },
        Frame::LocateBatch {
            object: 0,
            blocks: vec![1, 2, 3],
        },
        Frame::Scale {
            op: ScalingOp::Add { count: 1 },
        },
        Frame::Tick { rounds: 1 },
        Frame::Health,
        Frame::Ping,
        Frame::FetchMap { have_version: 0 },
        Frame::ScrapeStats,
        Frame::ProfileDump,
        Frame::Compact,
    ]
}

#[test]
fn every_request_tag_has_an_endpoint_in_the_table() {
    let requests = one_request_of_each_kind();
    for tag in 0u8..0x80 {
        // A bare header: known tags decode or report truncation.
        let header = [2u8, 0, 0, 0, PROTOCOL_VERSION, tag];
        let known = !matches!(decode_frame(&header), Err(FrameError::UnknownTag { .. }));
        let sampled = requests.iter().any(|f| f.tag() == tag);
        assert_eq!(
            known, sampled,
            "request tag {tag:#04x}: known {known}, sampled {sampled}"
        );
    }
    for request in &requests {
        assert!(request.is_request(), "{request:?}");
        assert!(
            ENDPOINTS.contains(&request.endpoint()),
            "{request:?} is served uncounted"
        );
    }
}

fn each_request_bumps_its_counter(mode: ServerMode) {
    let mut server = CmServer::new(ServerConfig::new(4).with_catalog_seed(5)).unwrap();
    server.add_object(4_096).unwrap();
    let registry = Registry::new();
    let daemon = Scaddard::bind(
        "127.0.0.1:0",
        Arc::new(SharedServer::new(server)),
        NetServerConfig::default().with_mode(mode),
        &registry,
        Tracer::new(Arc::new(MonotonicClock::new()), 16),
    )
    .unwrap();
    let client = NetClient::connect(daemon.local_addr());
    let count = |name: &str| registry.snapshot().counter_value(name);
    for request in one_request_of_each_kind() {
        let name = format!(
            "net_server_requests_total{{endpoint=\"{}\"}}",
            request.endpoint()
        );
        let before = count(&name).unwrap_or_else(|| panic!("{name} is not registered"));
        // Both cores count a request before they write its reply. An
        // error reply (FetchMap on an unsharded daemon) still counts.
        match client.request(&request) {
            Ok(_) | Err(ClientError::Remote { .. }) => {}
            Err(e) => panic!("{mode:?}: {request:?}: {e:?}"),
        }
        assert_eq!(count(&name), Some(before + 1), "{mode:?}: {request:?}");
    }
    daemon.shutdown();
}

#[test]
fn one_round_trip_of_each_kind_bumps_its_counter_event_loop() {
    each_request_bumps_its_counter(ServerMode::EventLoop);
}

#[test]
fn one_round_trip_of_each_kind_bumps_its_counter_threaded() {
    each_request_bumps_its_counter(ServerMode::Threaded);
}
