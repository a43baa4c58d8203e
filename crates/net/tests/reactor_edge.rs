//! Edge cases of the event-loop serving core that a thread-per-
//! connection server gets "for free" from blocking I/O and the reactor
//! must earn explicitly: partial frames trickling in across many
//! readiness events (slow loris), a peer vanishing mid-frame, and
//! response queues wedged behind a client that writes but does not
//! read (`EAGAIN` on write with a half-flushed queue). Worker 0 accepts
//! for every worker, so bursts of connects, the connection cap and
//! shutdown are pinned down here too.

use cmsim::{CmServer, ServerConfig, SharedServer};
use scaddar_net::{
    decode_frame_limited, ErrorCode, Frame, FrameError, NetClient, NetServerConfig, Scaddard,
    ServerMode,
};
use scaddar_obs::{MetricValue, MonotonicClock, Registry, Tracer};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn boot(config: NetServerConfig) -> Scaddard {
    boot_in(config, &Registry::new())
}

fn boot_in(config: NetServerConfig, registry: &Registry) -> Scaddard {
    let mut server = CmServer::new(ServerConfig::new(4).with_catalog_seed(7)).unwrap();
    server.add_object(50_000).unwrap();
    let tracer = Tracer::new(Arc::new(MonotonicClock::new()), 64);
    Scaddard::bind(
        "127.0.0.1:0",
        Arc::new(SharedServer::new(server)),
        config.with_mode(ServerMode::EventLoop),
        registry,
        tracer,
    )
    .unwrap()
}

fn counter(registry: &Registry, name: &str) -> Option<u64> {
    match registry.value(name) {
        Some(MetricValue::Counter(n)) => Some(n),
        _ => None,
    }
}

/// Reads exactly one frame off a raw stream (no client-side timeout
/// management — callers set one on the socket when they need it).
fn read_one_frame(stream: &mut TcpStream, buf: &mut Vec<u8>) -> Result<Frame, FrameError> {
    let mut chunk = [0u8; 4096];
    loop {
        match decode_frame_limited(buf, 16 << 20) {
            Ok((frame, used)) => {
                buf.drain(..used);
                return Ok(frame);
            }
            Err(FrameError::Incomplete { .. }) => {}
            Err(e) => return Err(e),
        }
        let n = stream.read(&mut chunk).expect("read");
        assert!(
            n > 0,
            "server closed mid-frame: {} buffered bytes",
            buf.len()
        );
        buf.extend_from_slice(&chunk[..n]);
    }
}

#[test]
fn slow_loris_byte_at_a_time_still_gets_served() {
    let daemon = boot(NetServerConfig::default());
    let mut stream = TcpStream::connect(daemon.local_addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    let request = Frame::Locate {
        object: 0,
        block: 42,
    }
    .to_bytes();
    // One byte per write: every byte is its own readiness event, so the
    // decoder must resume from a buffered partial frame dozens of times.
    for byte in &request {
        stream.write_all(std::slice::from_ref(byte)).unwrap();
        stream.flush().unwrap();
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut buf = Vec::new();
    let frame = read_one_frame(&mut stream, &mut buf).unwrap();
    let Frame::Located { epoch, disks, disk } = frame else {
        panic!("expected Located, got {frame:?}");
    };
    assert_eq!((epoch, disks), (0, 4));
    assert!(disk < 4);
    daemon.shutdown();
}

#[test]
fn stalled_partial_frame_hits_the_read_deadline() {
    let daemon = boot(NetServerConfig {
        read_timeout: Duration::from_millis(150),
        ..NetServerConfig::default()
    });
    let mut stream = TcpStream::connect(daemon.local_addr()).unwrap();
    let request = Frame::Locate {
        object: 0,
        block: 42,
    }
    .to_bytes();
    // Send half a frame, then stall forever.
    stream.write_all(&request[..request.len() / 2]).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let start = Instant::now();
    // The server must give up on us: a best-effort BadRequest error
    // frame and/or a close, well before our own 5 s read timeout.
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let closed = loop {
        match stream.read(&mut chunk) {
            Ok(0) => break true,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                break false
            }
            Err(e) if e.kind() == ErrorKind::ConnectionReset => break true,
            Err(e) => panic!("unexpected error: {e}"),
        }
    };
    assert!(closed, "server never closed the stalled connection");
    assert!(
        start.elapsed() < Duration::from_secs(3),
        "deadline enforcement took {:?}",
        start.elapsed()
    );
    if let Ok((frame, _)) = decode_frame_limited(&buf, 16 << 20) {
        let Frame::Error { code, .. } = frame else {
            panic!("expected Error before close, got {frame:?}");
        };
        assert_eq!(code, ErrorCode::BadRequest);
    }
    daemon.shutdown();
}

#[test]
fn mid_frame_disconnect_leaves_the_server_healthy() {
    let daemon = boot(NetServerConfig::default());
    let addr = daemon.local_addr();
    for _ in 0..8 {
        let mut stream = TcpStream::connect(addr).unwrap();
        let request = Frame::LocateBatch {
            object: 0,
            blocks: (0..512).collect(),
        }
        .to_bytes();
        stream.write_all(&request[..request.len() - 3]).unwrap();
        drop(stream); // vanish mid-frame
    }
    // The reactor must have reaped all eight without wedging a worker.
    let client = NetClient::connect(addr);
    assert_eq!(client.ping().expect("server still serving"), 0);
    let (_, _, locations) = client.locate_batch(0, &[1, 2, 3]).unwrap();
    assert_eq!(locations.len(), 3);
    daemon.shutdown();
}

#[test]
fn garbage_input_gets_a_protocol_error_then_a_close() {
    let daemon = boot(NetServerConfig::default());
    let mut stream = TcpStream::connect(daemon.local_addr()).unwrap();
    stream.write_all(&[0xFF; 64]).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut buf = Vec::new();
    let frame = read_one_frame(&mut stream, &mut buf).unwrap();
    let Frame::Error { code, .. } = frame else {
        panic!("expected Error, got {frame:?}");
    };
    assert_eq!(code, ErrorCode::Protocol);
    // And then EOF: a framing error is unrecoverable mid-stream.
    let mut rest = Vec::new();
    assert_eq!(stream.read_to_end(&mut rest).unwrap(), 0);
    daemon.shutdown();
}

#[test]
fn half_flushed_response_queue_survives_eagain_and_backpressure() {
    // Small frame cap so the reactor's write high-water mark
    // (4 × max_frame_len = 256 KiB) trips long before the kernel's
    // socket buffers could hide the backlog.
    let daemon = boot(NetServerConfig {
        max_frame_len: 1 << 16,
        ..NetServerConfig::default()
    });
    const REQUESTS: usize = 150;
    const BATCH: u64 = 2_048;
    let mut stream = TcpStream::connect(daemon.local_addr()).unwrap();
    let mut reader = stream.try_clone().unwrap();

    // Writer: pipeline ~150 × ≈16 KiB responses (≈2.4 MiB total)
    // without reading a byte. The server's write hits EAGAIN, queues
    // the rest, suspends reading from us past high water, and must
    // resume cleanly as we drain.
    let writer = std::thread::spawn(move || {
        for i in 0..REQUESTS as u64 {
            let start = (i * 97) % 40_000;
            let frame = Frame::LocateBatch {
                object: 0,
                blocks: (start..start + BATCH).collect(),
            };
            stream.write_all(&frame.to_bytes()).unwrap();
        }
        stream
    });

    // Let the response queue actually wedge before we start draining.
    std::thread::sleep(Duration::from_millis(100));
    let mut buf = Vec::new();
    let mut epochs = Vec::with_capacity(REQUESTS);
    for i in 0..REQUESTS {
        let frame = read_one_frame(&mut reader, &mut buf).unwrap();
        let Frame::BatchLocated {
            epoch, locations, ..
        } = frame
        else {
            panic!("response {i}: expected BatchLocated, got {frame:?}");
        };
        assert_eq!(locations.len(), BATCH as usize, "response {i} truncated");
        epochs.push(epoch);
    }
    let stream = writer.join().unwrap();
    drop(stream);
    // No interleaving corruption: every response complete, in order,
    // all at the same (unscaled) epoch.
    assert!(epochs.iter().all(|&e| e == 0));
    daemon.shutdown();
}

#[test]
fn a_burst_of_connects_is_dealt_to_every_worker_and_answered() {
    let registry = Registry::new();
    let daemon = boot_in(
        NetServerConfig {
            workers: 3,
            ..NetServerConfig::default()
        },
        &registry,
    );
    // All nine connect before any of them sends, so worker 0 accepts
    // them in one or a few wakeups and deals six to its peers.
    let mut streams: Vec<TcpStream> = (0..9)
        .map(|_| TcpStream::connect(daemon.local_addr()).unwrap())
        .collect();
    for stream in &mut streams {
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        stream.write_all(&Frame::Ping.to_bytes()).unwrap();
    }
    for (k, stream) in streams.iter_mut().enumerate() {
        let frame = read_one_frame(stream, &mut Vec::new()).unwrap();
        assert!(
            matches!(frame, Frame::Pong { epoch: 0 }),
            "connection {k}: {frame:?}"
        );
    }
    assert_eq!(
        counter(&registry, "net_server_connections_opened_total"),
        Some(9)
    );
    assert_eq!(daemon.active_connections(), 9);
    drop(streams);
    daemon.shutdown();
}

#[test]
fn a_burst_past_the_connection_cap_is_turned_away_busy() {
    let registry = Registry::new();
    let daemon = boot_in(
        NetServerConfig {
            workers: 2,
            max_connections: 2,
            ..NetServerConfig::default()
        },
        &registry,
    );
    let addr = daemon.local_addr();
    let admitted: Vec<NetClient> = (0..2)
        .map(|_| {
            let client = NetClient::connect(addr);
            client.ping().expect("admitted");
            client
        })
        .collect();
    let mut burst: Vec<TcpStream> = (0..5).map(|_| TcpStream::connect(addr).unwrap()).collect();
    for (k, stream) in burst.iter_mut().enumerate() {
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let frame = read_one_frame(stream, &mut Vec::new()).unwrap();
        let Frame::Error { code, .. } = frame else {
            panic!("burst connection {k}: expected Error, got {frame:?}");
        };
        assert_eq!(code, ErrorCode::Busy, "burst connection {k}");
        let mut rest = Vec::new();
        assert_eq!(
            stream.read_to_end(&mut rest).unwrap(),
            0,
            "closed after Busy"
        );
    }
    assert_eq!(
        counter(&registry, "net_server_connections_rejected_total"),
        Some(5)
    );
    assert_eq!(
        counter(&registry, "net_server_connections_opened_total"),
        Some(2)
    );
    // The admitted two still serve.
    for client in &admitted {
        assert_eq!(client.ping().unwrap(), 0);
    }
    drop(admitted);
    daemon.shutdown();
}

#[test]
fn shutdown_returns_promptly_with_idle_clients_attached() {
    let daemon = boot(NetServerConfig {
        workers: 2,
        ..NetServerConfig::default()
    });
    let mut clients: Vec<TcpStream> = (0..4)
        .map(|_| {
            let mut stream = TcpStream::connect(daemon.local_addr()).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            stream.write_all(&Frame::Ping.to_bytes()).unwrap();
            let frame = read_one_frame(&mut stream, &mut Vec::new()).unwrap();
            assert!(matches!(frame, Frame::Pong { .. }), "{frame:?}");
            stream
        })
        .collect();
    assert_eq!(daemon.active_connections(), 4);
    let start = Instant::now();
    daemon.shutdown();
    let took = start.elapsed();
    assert!(
        took < Duration::from_secs(1),
        "shutdown took {took:?} with idle clients attached"
    );
    // The drain closed every idle client.
    for (k, stream) in clients.iter_mut().enumerate() {
        let mut rest = Vec::new();
        assert_eq!(stream.read_to_end(&mut rest).unwrap(), 0, "client {k}");
    }
}
