//! The console's networked face: `serve` boots a `scaddard` daemon
//! around a fresh CM server, `connect` drives a running daemon over the
//! wire with the same line-oriented command style as the local session.
//!
//! ```text
//! scaddar-console serve --disks 4 --blocks 100000 --addr 127.0.0.1:7411
//! scaddar-console serve --check              # boot, health-check, exit 0/1/2
//! scaddar-console connect 127.0.0.1:7411 locate 0 31337
//! scaddar-console connect 127.0.0.1:7411 health   # exit 0/1/2 by verdict
//! ```
//!
//! Both entry points return the process exit code instead of calling
//! `std::process::exit`, so the whole surface is unit-testable; `health`
//! (remote) and `serve --check` map the monitor verdict to the exit
//! status (`OK`=0, `WARN`=1, `CRIT`=2) so CI and operators can gate on
//! them.

use crate::Session;
use cmsim::{CmServer, ServerConfig, SharedServer};
use scaddar_cluster::FleetAggregator;
use scaddar_monitor::Severity;
use scaddar_net::{
    fetch_map, ClusterMap, NetClient, NetServerConfig, Scaddard, ServerMode, ShardRuntime,
};
use scaddar_obs::{MonotonicClock, Registry, Tracer};
use std::fmt::Write as _;
use std::io::BufRead;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::Arc;

/// Exit code for a health verdict: `OK`=0, `WARN`=1, `CRIT`=2.
pub fn verdict_exit_code(verdict: Severity) -> i32 {
    match verdict {
        Severity::Ok => 0,
        Severity::Warn => 1,
        Severity::Crit => 2,
    }
}

/// Parsed `serve` arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArgs {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Initial disk count for the fresh CM server.
    pub disks: u32,
    /// Block count of the single pre-registered object.
    pub blocks: u64,
    /// Catalog seed (deterministic placement across restarts).
    pub seed: u64,
    /// Connection cap handed to the daemon.
    pub max_connections: usize,
    /// Serving core: the epoll/poll reactor (default) or the
    /// thread-per-connection reference implementation.
    pub mode: ServerMode,
    /// Reactor worker threads; 0 = one per core. Ignored by
    /// `--threaded`.
    pub workers: usize,
    /// Boot, evaluate health, exit with the verdict instead of serving.
    pub check: bool,
    /// Auto-compaction threshold: `Some(n)` makes the daemon's
    /// generation manager fire a rehash compaction on its own once the
    /// monitor's §4.3 remaining-safe-ops number sinks to `n`.
    pub auto_compact: Option<u32>,
    /// Boot as cluster shard `id`: the daemon answers `FetchMap` and
    /// redirects non-resident objects with `WrongShard`/`StaleMap`.
    pub shard: Option<u32>,
    /// Peer shards for the boot map, as `(id, "host:port")`. Only
    /// meaningful with `--shard`.
    pub peers: Vec<(u32, String)>,
}

impl Default for ServeArgs {
    fn default() -> Self {
        ServeArgs {
            addr: "127.0.0.1:7411".into(),
            disks: 4,
            blocks: 100_000,
            seed: 0,
            max_connections: NetServerConfig::default().max_connections,
            mode: ServerMode::EventLoop,
            workers: 0,
            check: false,
            auto_compact: None,
            shard: None,
            peers: Vec::new(),
        }
    }
}

const SERVE_USAGE: &str = "serve [--addr HOST:PORT] [--disks N] [--blocks N] [--seed N] \
                           [--max-conns N] [--event-loop | --threaded] [--workers N] [--check] \
                           [--auto-compact N] [--shard ID [--peers ID=HOST:PORT,...]]";

/// Parses `serve` argv (everything after the subcommand word).
pub fn parse_serve_args(args: &[String]) -> Result<ServeArgs, String> {
    let mut parsed = ServeArgs::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value\nusage: {SERVE_USAGE}"))
        };
        let bad = |name: &str| format!("{name} needs a numeric value\nusage: {SERVE_USAGE}");
        match arg.as_str() {
            "--addr" => parsed.addr = value("--addr")?,
            "--disks" => {
                parsed.disks = value("--disks")?.parse().map_err(|_| bad("--disks"))?;
            }
            "--blocks" => {
                parsed.blocks = value("--blocks")?.parse().map_err(|_| bad("--blocks"))?;
            }
            "--seed" => parsed.seed = value("--seed")?.parse().map_err(|_| bad("--seed"))?,
            "--max-conns" => {
                parsed.max_connections = value("--max-conns")?
                    .parse()
                    .map_err(|_| bad("--max-conns"))?;
            }
            "--event-loop" => parsed.mode = ServerMode::EventLoop,
            "--threaded" => parsed.mode = ServerMode::Threaded,
            "--workers" => {
                parsed.workers = value("--workers")?.parse().map_err(|_| bad("--workers"))?;
            }
            "--check" => parsed.check = true,
            "--auto-compact" => {
                parsed.auto_compact = Some(
                    value("--auto-compact")?
                        .parse()
                        .map_err(|_| bad("--auto-compact"))?,
                );
            }
            "--shard" => {
                parsed.shard = Some(value("--shard")?.parse().map_err(|_| bad("--shard"))?);
            }
            "--peers" => {
                let list = value("--peers")?;
                parsed.peers = list
                    .split(',')
                    .map(|entry| {
                        let (id, addr) = entry.split_once('=').ok_or_else(|| peers_usage(entry))?;
                        let id = id.parse().map_err(|_| peers_usage(entry))?;
                        if addr.is_empty() {
                            return Err(peers_usage(entry));
                        }
                        Ok((id, addr.to_string()))
                    })
                    .collect::<Result<_, String>>()?;
            }
            other => return Err(format!("unknown argument `{other}`\nusage: {SERVE_USAGE}")),
        }
    }
    if parsed.disks == 0 || parsed.blocks == 0 {
        return Err(format!(
            "--disks and --blocks must be > 0\nusage: {SERVE_USAGE}"
        ));
    }
    if parsed.shard.is_none() && !parsed.peers.is_empty() {
        return Err(format!("--peers requires --shard\nusage: {SERVE_USAGE}"));
    }
    if let Some(id) = parsed.shard {
        if parsed.peers.iter().any(|(peer, _)| *peer == id) {
            return Err(format!(
                "--peers must not repeat the --shard id {id}\nusage: {SERVE_USAGE}"
            ));
        }
    }
    Ok(parsed)
}

fn peers_usage(entry: &str) -> String {
    format!("--peers entry `{entry}` must be ID=HOST:PORT\nusage: {SERVE_USAGE}")
}

/// Boots a `scaddard` daemon per `args`. Returns the running daemon
/// and, in `--shard` mode, its [`ShardRuntime`] — callers decide
/// whether to block (`serve`) or health-check and drop (`serve
/// --check`).
///
/// A shard boots with a map of itself plus `--peers`, then re-addresses
/// its own entry to the actually-bound socket (ephemeral ports), and
/// registers the pre-loaded object as global id 0 so single-shard
/// quick-starts serve it immediately.
pub fn boot_daemon(args: &ServeArgs) -> Result<(Scaddard, Option<Arc<ShardRuntime>>), String> {
    let engine_config = ServerConfig::new(args.disks)
        .with_catalog_seed(args.seed)
        .with_auto_compact(args.auto_compact);
    let mut server = CmServer::new(engine_config).map_err(|e| format!("engine: {e}"))?;
    server
        .add_object(args.blocks)
        .map_err(|e| format!("engine: {e}"))?;
    let registry = Registry::new();
    // Engine metrics (service rounds, moves, compaction gauges) share
    // the daemon registry, so `ScrapeStats` federation and `top` see
    // them alongside the `net_server_*` family.
    server.attach_stats(cmsim::ServerStats::register_monotonic(&registry));
    let tracer = Tracer::new(Arc::new(MonotonicClock::new()), 256);
    let config = NetServerConfig {
        max_connections: args.max_connections,
        workers: args.workers,
        ..NetServerConfig::default()
    }
    .with_mode(args.mode);
    let shared = Arc::new(SharedServer::new(server));
    let Some(id) = args.shard else {
        let daemon = Scaddard::bind(args.addr.as_str(), shared, config, &registry, tracer)
            .map_err(|e| format!("bind {}: {e}", args.addr))?;
        return Ok((daemon, None));
    };
    let mut shards = args.peers.clone();
    shards.push((id, args.addr.clone()));
    let runtime = Arc::new(ShardRuntime::new(id, ClusterMap::new(shards)));
    runtime.register_object(0, 0);
    let daemon = Scaddard::bind_sharded(
        args.addr.as_str(),
        shared,
        config,
        &registry,
        tracer,
        Arc::clone(&runtime),
    )
    .map_err(|e| format!("bind {}: {e}", args.addr))?;
    let bound = daemon.local_addr().to_string();
    if runtime.map().addr_of(id) != Some(bound.as_str()) {
        runtime.install_map(runtime.map().readdress(id, bound));
    }
    Ok((daemon, Some(runtime)))
}

/// The `serve` subcommand: boot, then either health-check (`--check`)
/// or serve until stdin closes. Returns the process exit code.
pub fn run_serve(args: &[String]) -> i32 {
    let parsed = match parse_serve_args(args) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("{msg}");
            return 2;
        }
    };
    let (daemon, runtime) = match boot_daemon(&parsed) {
        Ok(booted) => booted,
        Err(msg) => {
            eprintln!("serve: {msg}");
            return 1;
        }
    };
    if parsed.check {
        let verdict = daemon.health_verdict();
        println!(
            "serve --check: {} disks on {} — health {}",
            parsed.disks,
            daemon.local_addr(),
            verdict.label().to_uppercase(),
        );
        daemon.shutdown();
        return verdict_exit_code(verdict);
    }
    match &runtime {
        Some(runtime) => {
            let map = runtime.map();
            println!(
                "scaddard shard {} serving {} blocks on {} disks at {} \
                 (cluster map v{}, {} shard(s)) — ctrl-d to stop",
                runtime.self_id(),
                parsed.blocks,
                parsed.disks,
                daemon.local_addr(),
                map.version,
                map.len(),
            );
        }
        None => println!(
            "scaddard serving {} blocks on {} disks at {} — ctrl-d to stop",
            parsed.blocks,
            parsed.disks,
            daemon.local_addr()
        ),
    }
    // Block until stdin closes (EOF / ctrl-d), then drain gracefully.
    let mut sink = String::new();
    let stdin = std::io::stdin();
    while matches!(stdin.lock().read_line(&mut sink), Ok(n) if n > 0) {
        sink.clear();
    }
    daemon.shutdown();
    println!("scaddard: drained and stopped");
    0
}

/// The `cluster-status` subcommand: `cluster-status <seed-addr>`.
/// Fetches the cluster map from any shard, then probes every shard in
/// it (ping for the serving epoch, health for the verdict). Returns
/// the worst exit code observed: 0/1/2 by health verdict, 2 when any
/// shard is unreachable.
pub fn run_cluster_status(args: &[String]) -> i32 {
    let [addr_arg] = args else {
        eprintln!("usage: cluster-status <addr>");
        return 2;
    };
    let addr = match addr_arg.to_socket_addrs().ok().and_then(|mut a| a.next()) {
        Some(addr) => addr,
        None => {
            eprintln!("cluster-status: cannot resolve `{addr_arg}`");
            return 2;
        }
    };
    match cluster_status_report(addr) {
        Ok((out, code)) => {
            println!("{out}");
            code
        }
        Err(msg) => {
            eprintln!("cluster-status: {msg}");
            2
        }
    }
}

/// The `cluster-status` body, unit-testable: `(report text, exit
/// code)`. Errors only when the seed itself won't yield a map.
///
/// Status comes from **one federated scrape round** (a
/// [`FleetAggregator`] pulling `ScrapeStats` from every shard in the
/// map), not N ad-hoc ping/health probes — epoch, verdict, and request
/// totals all ride the same snapshot each shard already exports.
pub fn cluster_status_report(seed: SocketAddr) -> Result<(String, i32), String> {
    let map = fetch_map(&NetClient::connect(seed), 0)
        .map_err(|e| format!("fetch map from {seed}: {e}"))?;
    let mut out = format!(
        "cluster map v{} — {} shard(s), seed {seed}",
        map.version,
        map.len()
    );
    let mut code = 0;
    let mut targets = Vec::new();
    for (shard, addr) in &map.shards {
        match addr.to_socket_addrs().ok().and_then(|mut a| a.next()) {
            Some(resolved) => targets.push((*shard, resolved)),
            None => {
                write!(out, "\n  shard {shard} at {addr} — unresolvable address").expect("write");
                code = code.max(2);
            }
        }
    }
    let mut aggregator = FleetAggregator::new(Arc::new(MonotonicClock::new()));
    let fleet = aggregator.scrape(&targets);
    for s in &fleet.shards {
        if s.reachable {
            let label = match s.verdict {
                0 => "OK",
                1 => "WARN",
                _ => "CRIT",
            };
            write!(
                out,
                "\n  shard {} at {} — epoch {}, health {label} ({} request(s) served)",
                s.shard,
                s.addr,
                s.epoch,
                s.requests_total(),
            )
            .expect("write");
            code = code.max(i32::from(s.verdict));
        } else {
            write!(out, "\n  shard {} at {} — unreachable", s.shard, s.addr).expect("write");
            code = code.max(2);
        }
    }
    Ok((out, code))
}

/// The remote command help, kept verbatim-testable like [`crate::HELP`].
pub const REMOTE_HELP: &str = "\
remote commands:
  locate <object> <block>          AF(): block -> disk (with serving epoch)
  batch <object> <b1,b2,...>       one-epoch batch lookup
  scale add <count>                add a disk group
  scale remove <d1,d2,...>         remove disks (current indices)
  tick [rounds]                    advance service rounds (default 1)
  compact                          begin (or join) an online rehash compaction
  health                           remote health report (exit 0/1/2 one-shot)
  stats [--json]                   server telemetry (Prometheus text, or JSON)
  ping                             liveness probe (returns current epoch)
  help                             this text";

/// One remote console session over a pooled [`NetClient`].
#[derive(Debug)]
pub struct RemoteSession {
    client: NetClient,
}

impl RemoteSession {
    /// Connects (lazily — sockets open per request) to `addr`.
    pub fn connect(addr: SocketAddr) -> RemoteSession {
        RemoteSession {
            client: NetClient::connect(addr),
        }
    }

    /// Executes one remote command line: `(output, exit_code)` on
    /// success — the exit code is nonzero only for WARN/CRIT `health`.
    pub fn execute(&self, line: &str) -> Result<(String, i32), String> {
        let parts: Vec<&str> = line.split_whitespace().collect();
        let Some((&command, args)) = parts.split_first() else {
            return Ok((String::new(), 0));
        };
        let usage = |text: &str| format!("usage: {text}");
        match command {
            "help" => Ok((REMOTE_HELP.to_string(), 0)),
            "locate" => {
                let (object, block) = Session::parse_object_block(args, "locate <object> <block>")
                    .map_err(|e| e.to_string())?;
                let (epoch, disks, disk) = self
                    .client
                    .locate(object.0, block)
                    .map_err(|e| e.to_string())?;
                Ok((
                    format!("{object} block {block} -> disk {disk} (epoch {epoch}, {disks} disks)"),
                    0,
                ))
            }
            "batch" => {
                let (object, blocks) = match args {
                    [o, list] => {
                        let object = o.parse().map_err(|_| usage("batch <object> <b1,b2,...>"))?;
                        let blocks: Vec<u64> = list
                            .split(',')
                            .map(str::parse)
                            .collect::<Result<_, _>>()
                            .map_err(|_| usage("batch <object> <b1,b2,...>"))?;
                        (object, blocks)
                    }
                    _ => return Err(usage("batch <object> <b1,b2,...>")),
                };
                let (epoch, disks, locations) = self
                    .client
                    .locate_batch(object, &blocks)
                    .map_err(|e| e.to_string())?;
                let mut out = format!(
                    "object {object}: {} blocks at epoch {epoch} ({disks} disks)",
                    locations.len()
                );
                for (block, disk) in blocks.iter().zip(&locations) {
                    write!(out, "\n  block {block} -> disk {disk}").expect("write to string");
                }
                Ok((out, 0))
            }
            "scale" => {
                let op = Session::parse_op(args, "scale add <count> | scale remove <d1,d2,...>")
                    .map_err(|e| e.to_string())?;
                let (epoch, disks, queued) = self.client.scale(op).map_err(|e| e.to_string())?;
                Ok((
                    format!("op {epoch}: now {disks} disks; {queued} moves queued"),
                    0,
                ))
            }
            "tick" => {
                let rounds = match args {
                    [] => 1,
                    [n] => n.parse().map_err(|_| usage("tick [rounds]"))?,
                    _ => return Err(usage("tick [rounds]")),
                };
                let backlog = self.client.tick(rounds).map_err(|e| e.to_string())?;
                Ok((format!("backlog: {backlog} moves remaining"), 0))
            }
            "compact" => {
                let status = self.client.compact().map_err(|e| e.to_string())?;
                let out = if status.active {
                    format!(
                        "compaction: generation {} -> {}; {}/{} block(s) migrated, {} move(s) queued",
                        status.generation,
                        status.target_generation,
                        status.migrated,
                        status.total,
                        status.backlog,
                    )
                } else {
                    format!(
                        "compaction flipped instantly: serving generation {}",
                        status.generation
                    )
                };
                Ok((out, 0))
            }
            "health" => {
                let (verdict, alerts, report) = self.client.health().map_err(|e| e.to_string())?;
                Ok((
                    format!("{} ({alerts} alert(s) emitted)", report.trim_end()),
                    i32::from(verdict),
                ))
            }
            "stats" => {
                let json = match args {
                    [] => false,
                    ["--json"] => true,
                    _ => return Err(usage("stats [--json]")),
                };
                // Pull the structured snapshot and render it here, the
                // way the fleet aggregator renders its merged registry:
                // absorbing into an empty registry reproduces every
                // family, help text and value.
                let (_, _, snapshot) = self.client.scrape_stats().map_err(|e| e.to_string())?;
                let registry = Registry::new();
                registry.absorb(&snapshot);
                let text = if json {
                    registry.snapshot_json()
                } else {
                    registry.render_prometheus()
                };
                Ok((text.trim_end().to_string(), 0))
            }
            "ping" => {
                let epoch = self.client.ping().map_err(|e| e.to_string())?;
                Ok((format!("pong (epoch {epoch})"), 0))
            }
            other => Err(format!("unknown command `{other}` — try `help`")),
        }
    }
}

/// The `connect` subcommand: `connect <addr> [command...]`. With a
/// trailing command it runs one-shot and returns its exit code (so
/// `connect HOST health` gates CI); without, it drops into an
/// interactive remote loop. Returns the process exit code.
pub fn run_connect(args: &[String]) -> i32 {
    let Some((addr_arg, command)) = args.split_first() else {
        eprintln!("usage: connect <addr> [command...]");
        return 2;
    };
    let addr = match addr_arg.to_socket_addrs().ok().and_then(|mut a| a.next()) {
        Some(addr) => addr,
        None => {
            eprintln!("connect: cannot resolve `{addr_arg}`");
            return 2;
        }
    };
    let session = RemoteSession::connect(addr);
    if !command.is_empty() {
        return match session.execute(&command.join(" ")) {
            Ok((out, code)) => {
                if !out.is_empty() {
                    println!("{out}");
                }
                code
            }
            Err(msg) => {
                eprintln!("error: {msg}");
                1
            }
        };
    }
    println!("connected to {addr} — `help` for commands, ctrl-d to exit");
    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout();
    let mut last_health_code = 0;
    loop {
        use std::io::Write as _;
        print!("scaddar@{addr}> ");
        stdout.flush().expect("stdout flush");
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => {
                eprintln!("stdin error: {e}");
                break;
            }
        }
        let line = line.trim();
        if line == "exit" || line == "quit" {
            break;
        }
        match session.execute(line) {
            Ok((out, code)) => {
                if line.split_whitespace().next() == Some("health") {
                    last_health_code = code;
                }
                if !out.is_empty() {
                    println!("{out}");
                }
            }
            Err(msg) => println!("error: {msg}"),
        }
    }
    last_health_code
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn serve_args_parse_and_validate() {
        assert_eq!(parse_serve_args(&[]).unwrap(), ServeArgs::default());
        let parsed = parse_serve_args(&args(&[
            "--addr",
            "127.0.0.1:0",
            "--disks",
            "6",
            "--blocks",
            "5000",
            "--seed",
            "9",
            "--max-conns",
            "32",
            "--threaded",
            "--workers",
            "3",
            "--check",
            "--auto-compact",
            "2",
        ]))
        .unwrap();
        assert_eq!(parsed.addr, "127.0.0.1:0");
        assert_eq!((parsed.disks, parsed.blocks, parsed.seed), (6, 5000, 9));
        assert_eq!(parsed.max_connections, 32);
        assert_eq!(parsed.mode, ServerMode::Threaded);
        assert_eq!(parsed.workers, 3);
        assert!(parsed.check);
        assert_eq!(parsed.auto_compact, Some(2));
        assert_eq!(
            parse_serve_args(&args(&["--event-loop"])).unwrap().mode,
            ServerMode::EventLoop
        );
        assert_eq!(parse_serve_args(&[]).unwrap().auto_compact, None);
        assert!(parse_serve_args(&args(&["--disks", "0"])).is_err());
        assert!(parse_serve_args(&args(&["--disks"])).is_err());
        assert!(parse_serve_args(&args(&["--auto-compact", "x"])).is_err());
        assert!(parse_serve_args(&args(&["--frobnicate"])).is_err());
    }

    #[test]
    fn shard_args_parse_and_validate() {
        let parsed = parse_serve_args(&args(&[
            "--shard",
            "2",
            "--peers",
            "0=127.0.0.1:7411,1=127.0.0.1:7412",
        ]))
        .unwrap();
        assert_eq!(parsed.shard, Some(2));
        assert_eq!(
            parsed.peers,
            vec![
                (0, "127.0.0.1:7411".to_string()),
                (1, "127.0.0.1:7412".to_string())
            ]
        );
        // --peers needs --shard, well-formed entries, and no self-id.
        assert!(parse_serve_args(&args(&["--peers", "0=127.0.0.1:7411"])).is_err());
        assert!(parse_serve_args(&args(&["--shard", "1", "--peers", "junk"])).is_err());
        assert!(parse_serve_args(&args(&["--shard", "1", "--peers", "2="])).is_err());
        assert!(parse_serve_args(&args(&["--shard", "1", "--peers", "1=127.0.0.1:1"])).is_err());
        assert!(parse_serve_args(&args(&["--shard", "x"])).is_err());
    }

    #[test]
    fn check_maps_health_verdicts_to_exit_codes() {
        assert_eq!(verdict_exit_code(Severity::Ok), 0);
        assert_eq!(verdict_exit_code(Severity::Warn), 1);
        assert_eq!(verdict_exit_code(Severity::Crit), 2);
    }

    #[test]
    fn remote_session_drives_a_live_daemon() {
        let parsed = parse_serve_args(&args(&[
            "--addr",
            "127.0.0.1:0",
            "--blocks",
            "4000",
            "--seed",
            "7",
        ]))
        .unwrap();
        let (daemon, runtime) = boot_daemon(&parsed).unwrap();
        assert!(runtime.is_none(), "plain serve has no shard runtime");
        let session = RemoteSession::connect(daemon.local_addr());

        let (out, code) = session.execute("ping").unwrap();
        assert!(out.contains("epoch 0"));
        assert_eq!(code, 0);
        let (out, _) = session.execute("locate 0 1234").unwrap();
        assert!(out.contains("-> disk"));
        let (out, _) = session.execute("batch 0 1,2,3").unwrap();
        assert!(out.contains("3 blocks at epoch 0"));
        let (out, _) = session.execute("scale add 2").unwrap();
        assert!(out.contains("now 6 disks"));
        let (out, _) = session.execute("tick 10000").unwrap();
        assert!(out.contains("backlog: 0"));
        let (out, code) = session.execute("health").unwrap();
        assert!(out.starts_with("health: OK"), "{out}");
        assert_eq!(code, 0, "OK health exits 0");
        let (out, _) = session.execute("stats").unwrap();
        assert!(out.contains("net_server_requests_total"));
        assert!(out.contains("cmsim_compaction_generation"), "{out}");
        assert!(session.execute("locate nope").is_err());
        assert!(session.execute("frobnicate").is_err());
        assert_eq!(session.execute("").unwrap(), (String::new(), 0));
        daemon.shutdown();
    }

    #[test]
    fn both_consoles_reject_trailing_and_missing_arguments() {
        let mut local = Session::new();
        local.execute("init 4 seed=7").unwrap();
        local.execute("add-object 1000").unwrap();
        let parsed =
            parse_serve_args(&args(&["--addr", "127.0.0.1:0", "--blocks", "1000"])).unwrap();
        let (daemon, _) = boot_daemon(&parsed).unwrap();
        let remote = RemoteSession::connect(daemon.local_addr());
        for line in ["scale add 1 extra", "locate 0"] {
            let local_err = local.execute(line).unwrap_err();
            assert!(matches!(local_err, crate::CliError::Usage(_)), "{line}");
            let remote_err = remote.execute(line).unwrap_err();
            assert_eq!(remote_err, local_err.to_string(), "{line}");
        }
        // The rejected scale never reached either engine.
        assert!(local.execute("fairness").unwrap().contains("operations: 0"));
        assert!(remote.execute("ping").unwrap().0.contains("epoch 0"));
        daemon.shutdown();
    }

    #[test]
    fn remote_compact_migrates_to_the_next_generation() {
        let parsed = parse_serve_args(&args(&[
            "--addr",
            "127.0.0.1:0",
            "--blocks",
            "3000",
            "--seed",
            "11",
        ]))
        .unwrap();
        let (daemon, _) = boot_daemon(&parsed).unwrap();
        let session = RemoteSession::connect(daemon.local_addr());

        let (out, code) = session.execute("compact").unwrap();
        assert_eq!(code, 0);
        assert!(out.contains("generation 0 -> 1"), "{out}");
        let mut rounds = 0;
        loop {
            let (out, _) = session.execute("tick 8").unwrap();
            if out.contains("backlog: 0") {
                break;
            }
            rounds += 1;
            assert!(rounds < 10_000, "migration never drains");
        }
        // The flip landed: the compaction gauges report generation 1
        // with nothing in flight, and lookups still answer.
        let (stats, _) = session.execute("stats").unwrap();
        assert!(stats.contains("cmsim_compaction_generation 1"), "{stats}");
        assert!(stats.contains("cmsim_compaction_active 0"), "{stats}");
        assert!(
            stats.contains("cmsim_compactions_completed_total 1"),
            "{stats}"
        );
        let (out, _) = session.execute("locate 0 1234").unwrap();
        assert!(out.contains("-> disk"));
        daemon.shutdown();
    }

    #[test]
    fn serve_check_exits_zero_on_a_healthy_boot() {
        let code = run_serve(&args(&["--addr", "127.0.0.1:0", "--check"]));
        assert_eq!(code, 0);
        assert_eq!(run_serve(&args(&["--bogus"])), 2);
    }

    /// `serve --shard` + `cluster-status` end to end: boot shard 1
    /// standalone, then shard 0 peered with it; the status probe of
    /// shard 0's map must reach both shards and report them healthy.
    #[test]
    fn shard_serve_and_cluster_status_probe_a_live_cluster() {
        let one = parse_serve_args(&args(&[
            "--addr",
            "127.0.0.1:0",
            "--blocks",
            "2000",
            "--shard",
            "1",
        ]))
        .unwrap();
        let (shard1, runtime1) = boot_daemon(&one).unwrap();
        let runtime1 = runtime1.expect("shard runtime");
        assert_eq!(runtime1.self_id(), 1);
        // The boot map re-addressed shard 1 to its real ephemeral port.
        assert_eq!(
            runtime1.map().addr_of(1),
            Some(shard1.local_addr().to_string().as_str())
        );

        let zero = parse_serve_args(&args(&[
            "--addr",
            "127.0.0.1:0",
            "--blocks",
            "2000",
            "--shard",
            "0",
            "--peers",
            &format!("1={}", shard1.local_addr()),
        ]))
        .unwrap();
        let (shard0, runtime0) = boot_daemon(&zero).unwrap();
        assert_eq!(runtime0.expect("shard runtime").map().len(), 2);

        let (out, code) = cluster_status_report(shard0.local_addr()).unwrap();
        assert_eq!(code, 0, "both shards healthy:\n{out}");
        assert!(out.contains("2 shard(s)"), "{out}");
        assert!(out.contains("shard 0 at"), "{out}");
        assert!(out.contains("shard 1 at"), "{out}");
        assert_eq!(out.matches("health OK").count(), 2, "{out}");

        // Kill shard 1: the probe now reports it unreachable, exit 2.
        let shard1_addr = shard1.local_addr();
        shard1.shutdown();
        let (out, code) = cluster_status_report(shard0.local_addr()).unwrap();
        assert_eq!(code, 2, "{out}");
        assert!(
            out.contains(&format!("shard 1 at {shard1_addr} — unreachable")),
            "{out}"
        );
        shard0.shutdown();
    }

    #[test]
    fn cluster_status_rejects_bad_argv_and_dead_seeds() {
        assert_eq!(run_cluster_status(&[]), 2);
        assert_eq!(run_cluster_status(&args(&["not-an-addr"])), 2);
        // A resolvable but dead seed: fetch_map fails, exit 2.
        let dead: SocketAddr = "127.0.0.1:1".parse().unwrap();
        assert!(cluster_status_report(dead).is_err());
    }
}
