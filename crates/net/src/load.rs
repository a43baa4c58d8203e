//! Deterministic loopback load generation.
//!
//! [`run_load`] drives a `scaddard` server with a seeded
//! locate/locate-batch mixture from N concurrent client threads while
//! an operator thread commits `Scale` ops mid-run — the serving-layer
//! analogue of the harness's scenario workloads. The request *sequence*
//! is fully determined by [`LoadConfig::seed`] (SplitMix64 per client);
//! wall-clock timings obviously are not.
//!
//! Two loop disciplines, over one request sequence per seed:
//!
//! * [`LoopMode::Closed`] — each client fires its next request the
//!   moment the previous response lands; measures service latency under
//!   maximum sustainable pressure.
//! * [`LoopMode::Pipelined`] — each client keeps a whole window of
//!   requests on the wire at once (one connection, responses read back
//!   in order). This is the discipline that exercises the event loop's
//!   cross-connection coalescing — a round-trip per request never
//!   gives the reactor more than one frame per wakeup — and it
//!   measures *amortized* per-request latency (window wall time /
//!   window size), the throughput-side number.
//!
//! Every locate response is additionally checked for epoch consistency
//! (`disk < disks` under the epoch it carries); violations are counted
//! in [`LoadReport::consistency_violations`], which the bench gate table
//! holds at zero.

use crate::client::{ClientConfig, ClientError, NetClient};
use crate::wire::Frame;
use scaddar_core::ScalingOp;
use scaddar_obs::Histogram;
use scaddar_prng::{SeededRng, SplitMix64};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Arrival discipline for the generated workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LoopMode {
    /// Fire the next request as soon as the previous response lands.
    Closed,
    /// Keep `window` requests in flight per client on one pipelined
    /// connection; latency is recorded as window wall time / window
    /// size (amortized service time).
    Pipelined {
        /// Requests written before the first response is read.
        window: usize,
    },
}

/// Workload shape for [`run_load`].
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Seed determining every client's request sequence.
    pub seed: u64,
    /// Concurrent client threads.
    pub clients: usize,
    /// Requests issued per client.
    pub requests_per_client: u64,
    /// Every `batch_every`-th request is a `LocateBatch` (0 = never).
    pub batch_every: u64,
    /// Blocks per `LocateBatch`.
    pub batch_len: u64,
    /// Blocks in the served object (request targets stay in range).
    pub object_blocks: u64,
    /// `Scale` commits the operator thread spreads across the run
    /// (alternating add/remove, each drained with `Tick`).
    pub scale_ops: u32,
    /// Arrival discipline.
    pub mode: LoopMode,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            seed: 0xC0FFEE,
            clients: 8,
            requests_per_client: 500,
            batch_every: 8,
            batch_len: 16,
            object_blocks: 50_000,
            scale_ops: 2,
            mode: LoopMode::Closed,
        }
    }
}

/// Latency percentiles of one operation class, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencySummary {
    /// Samples recorded.
    pub count: u64,
    /// Median.
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile (the tail the `net_load/pipelined_p999` gate bounds).
    pub p999: u64,
    /// Worst observed.
    pub max: u64,
    /// Arithmetic mean.
    pub mean: u64,
}

impl LatencySummary {
    fn from_histogram(h: &Histogram) -> LatencySummary {
        let snap = h.snapshot();
        let q = |q: f64| snap.quantile(q).unwrap_or(0);
        LatencySummary {
            count: snap.count,
            p50: q(0.50),
            p95: q(0.95),
            p99: q(0.99),
            p999: q(0.999),
            max: if snap.count > 0 { snap.max } else { 0 },
            mean: snap.sum.checked_div(snap.count).unwrap_or(0),
        }
    }
}

/// What one [`run_load`] run measured.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Requests that completed successfully (operator traffic
    /// excluded).
    pub requests: u64,
    /// Requests answered with a server `Error` frame or failed I/O.
    pub errors: u64,
    /// Responses that failed to decode (wire-level corruption).
    pub protocol_errors: u64,
    /// Locate responses whose `disk >= disks` — torn epochs. Must be 0.
    pub consistency_violations: u64,
    /// Distinct epochs observed across all responses (≥ `scale_ops`
    /// commits land mid-run when > 1).
    pub epochs_observed: u64,
    /// Wall-clock duration of the measured phase.
    pub elapsed: Duration,
    /// Completed requests / elapsed seconds.
    pub throughput_rps: f64,
    /// Single-block locate latency.
    pub locate: LatencySummary,
    /// Batch locate latency.
    pub locate_batch: LatencySummary,
}

/// One client thread's slice of the workload.
struct ClientOutcome {
    requests: u64,
    errors: u64,
    protocol_errors: u64,
    consistency_violations: u64,
    epoch_mask: u64,
}

impl ClientOutcome {
    /// Books one response: a located answer is checked for a torn epoch
    /// and its latency recorded, an `Error` frame counts as a request
    /// error, anything else as a protocol error.
    fn tally(&mut self, response: &Frame, ns: u64, histograms: &[Histogram; 2]) {
        let (epoch, torn, histogram) = match response {
            Frame::Located { epoch, disks, disk } => {
                (epoch, u64::from(*disk >= u64::from(*disks)), LOCATE_LAT)
            }
            Frame::BatchLocated {
                epoch,
                disks,
                locations,
            } => {
                let torn = locations.iter().filter(|d| **d >= u64::from(*disks));
                (epoch, torn.count() as u64, BATCH_LAT)
            }
            Frame::Error { .. } => {
                self.errors += 1;
                return;
            }
            _ => {
                self.protocol_errors += 1;
                return;
            }
        };
        self.requests += 1;
        self.consistency_violations += torn;
        self.epoch_mask |= 1u64 << (epoch % 64);
        histograms[histogram].record(ns);
    }

    /// Books `n` requests lost to one failed client call.
    fn fail(&mut self, err: &ClientError, n: u64) {
        match err {
            ClientError::Frame(_) | ClientError::UnexpectedResponse { .. } => {
                self.protocol_errors += n
            }
            _ => self.errors += n,
        }
    }
}

fn elapsed_ns(since: Instant, n: usize) -> u64 {
    (since.elapsed().as_nanos() / n as u128).min(u64::MAX as u128) as u64
}

/// The seeded request mixture, one request at a time: the request
/// frame for global request index `i` of one client.
fn next_request(config: &LoadConfig, rng: &mut SplitMix64, i: u64) -> Frame {
    let is_batch = config.batch_every > 0 && i % config.batch_every == config.batch_every - 1;
    if is_batch {
        let span = config.batch_len.min(config.object_blocks).max(1);
        let first = rng.next_u64() % config.object_blocks.saturating_sub(span - 1).max(1);
        Frame::LocateBatch {
            object: 0,
            blocks: (first..first + span).collect(),
        }
    } else {
        Frame::Locate {
            object: 0,
            block: rng.next_u64() % config.object_blocks,
        }
    }
}

fn run_client(
    addr: SocketAddr,
    config: &LoadConfig,
    client_index: usize,
    progress: &AtomicU64,
    histograms: &[Histogram; 2],
) -> ClientOutcome {
    let client = NetClient::with_config(
        addr,
        ClientConfig {
            max_pool: 2,
            ..ClientConfig::default()
        },
    );
    let mut rng = SplitMix64::from_seed(
        config
            .seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(client_index as u64 + 1)),
    );
    let mut outcome = ClientOutcome {
        requests: 0,
        errors: 0,
        protocol_errors: 0,
        consistency_violations: 0,
        epoch_mask: 0,
    };
    if let LoopMode::Pipelined { window } = config.mode {
        run_client_pipelined(
            &client,
            config,
            window.max(1),
            &mut rng,
            &mut outcome,
            progress,
            histograms,
        );
        return outcome;
    }
    for i in 0..config.requests_per_client {
        let frame = next_request(config, &mut rng, i);
        let t0 = Instant::now();
        match client.request(&frame) {
            Ok(response) => outcome.tally(&response, elapsed_ns(t0, 1), histograms),
            Err(e) => outcome.fail(&e, 1),
        }
        progress.fetch_add(1, Ordering::Relaxed);
    }
    outcome
}

/// The pipelined discipline: windows of requests written back-to-back
/// on one connection, responses validated in order. Per-request latency
/// is amortized (window wall / window size); server `Error` frames
/// count as request errors in-band, a failed pipeline write/read
/// condemns the rest of its window.
fn run_client_pipelined(
    client: &NetClient,
    config: &LoadConfig,
    window: usize,
    rng: &mut SplitMix64,
    outcome: &mut ClientOutcome,
    progress: &AtomicU64,
    histograms: &[Histogram; 2],
) {
    let mut issued = 0u64;
    while issued < config.requests_per_client {
        let n = (config.requests_per_client - issued).min(window as u64) as usize;
        let mut frames = Vec::with_capacity(n);
        for _ in 0..n {
            frames.push(next_request(config, rng, issued));
            issued += 1;
        }
        let t0 = Instant::now();
        match client.pipeline(&frames) {
            Ok(responses) => {
                let per_request_ns = elapsed_ns(t0, n);
                for response in &responses {
                    outcome.tally(response, per_request_ns, histograms);
                }
            }
            Err(e) => outcome.fail(&e, n as u64),
        }
        progress.fetch_add(n as u64, Ordering::Relaxed);
    }
}

const LOCATE_LAT: usize = 0;
const BATCH_LAT: usize = 1;

/// Runs the operator loop: `scale_ops` alternating add/remove commits
/// spread across the client run, each drained with `Tick`.
fn run_operator(addr: SocketAddr, config: &LoadConfig, progress: &AtomicU64, total: u64) {
    if config.scale_ops == 0 {
        return;
    }
    let client = NetClient::connect(addr);
    let mut disks = match client.ping().and_then(|_| client.locate(0, 0)) {
        Ok((_, disks, _)) => disks,
        Err(_) => return,
    };
    for op_index in 0..config.scale_ops {
        // Wait until the clients are (op_index+1)/(scale_ops+1) through
        // their run, so every commit lands mid-traffic.
        let threshold = total * (op_index as u64 + 1) / (config.scale_ops as u64 + 1);
        while progress.load(Ordering::Relaxed) < threshold {
            std::thread::yield_now();
        }
        let op = if op_index % 2 == 0 || disks <= 2 {
            ScalingOp::Add { count: 1 }
        } else {
            ScalingOp::Remove {
                disks: vec![disks - 1],
            }
        };
        match client.scale(op) {
            Ok((_, new_disks, _)) => {
                disks = new_disks;
                while client.tick(1_000).map(|b| b > 0).unwrap_or(false) {}
            }
            Err(_) => return,
        }
    }
}

/// Drives the server at `addr` with the configured workload and
/// returns the measured report.
pub fn run_load(addr: SocketAddr, config: &LoadConfig) -> LoadReport {
    let progress = AtomicU64::new(0);
    let total = config.clients as u64 * config.requests_per_client;
    let histograms = [Histogram::new(), Histogram::new()];
    let start = Instant::now();
    let outcomes: Vec<ClientOutcome> = std::thread::scope(|scope| {
        let operator = scope.spawn(|| run_operator(addr, config, &progress, total));
        let handles: Vec<_> = (0..config.clients)
            .map(|index| {
                let progress = &progress;
                let histograms = &histograms;
                scope.spawn(move || run_client(addr, config, index, progress, histograms))
            })
            .collect();
        let outcomes = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();
        operator.join().expect("operator thread");
        outcomes
    });
    let elapsed = start.elapsed();
    let requests: u64 = outcomes.iter().map(|o| o.requests).sum();
    let epoch_mask = outcomes.iter().fold(0u64, |m, o| m | o.epoch_mask);
    LoadReport {
        requests,
        errors: outcomes.iter().map(|o| o.errors).sum(),
        protocol_errors: outcomes.iter().map(|o| o.protocol_errors).sum(),
        consistency_violations: outcomes.iter().map(|o| o.consistency_violations).sum(),
        epochs_observed: epoch_mask.count_ones() as u64,
        elapsed,
        throughput_rps: requests as f64 / elapsed.as_secs_f64().max(1e-9),
        locate: LatencySummary::from_histogram(&histograms[LOCATE_LAT]),
        locate_batch: LatencySummary::from_histogram(&histograms[BATCH_LAT]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{NetServerConfig, Scaddard};
    use cmsim::{CmServer, ServerConfig, SharedServer};
    use scaddar_obs::{MonotonicClock, Registry, Tracer};
    use std::sync::Arc;

    fn boot(blocks: u64) -> Scaddard {
        let mut server = CmServer::new(ServerConfig::new(4).with_catalog_seed(21)).unwrap();
        server.add_object(blocks).unwrap();
        let registry = Registry::new();
        let tracer = Tracer::new(Arc::new(MonotonicClock::new()), 64);
        Scaddard::bind(
            "127.0.0.1:0",
            Arc::new(SharedServer::new(server)),
            NetServerConfig::default(),
            &registry,
            tracer,
        )
        .unwrap()
    }

    #[test]
    fn closed_loop_run_is_clean_and_observes_scaling() {
        let daemon = boot(10_000);
        let config = LoadConfig {
            clients: 4,
            requests_per_client: 100,
            object_blocks: 10_000,
            scale_ops: 1,
            ..LoadConfig::default()
        };
        let report = run_load(daemon.local_addr(), &config);
        assert_eq!(report.requests, 400);
        assert_eq!(report.errors, 0);
        assert_eq!(report.protocol_errors, 0);
        assert_eq!(report.consistency_violations, 0);
        assert!(report.epochs_observed >= 1);
        assert!(report.locate.count > 0);
        assert!(report.locate_batch.count > 0);
        assert!(report.locate.p50 > 0);
        assert!(report.locate.p999 >= report.locate.p99);
        assert!(report.throughput_rps > 0.0);
        daemon.shutdown();
    }

    #[test]
    fn pipelined_run_is_clean_and_fills_the_window() {
        let daemon = boot(10_000);
        let config = LoadConfig {
            clients: 4,
            requests_per_client: 250,
            object_blocks: 10_000,
            scale_ops: 1,
            mode: LoopMode::Pipelined { window: 32 },
            ..LoadConfig::default()
        };
        let report = run_load(daemon.local_addr(), &config);
        assert_eq!(report.requests, 1_000);
        assert_eq!(report.errors, 0);
        assert_eq!(report.protocol_errors, 0);
        assert_eq!(report.consistency_violations, 0);
        assert!(report.locate.count > 0);
        assert!(report.locate_batch.count > 0);
        assert!(report.throughput_rps > 0.0);
        daemon.shutdown();
    }

    #[test]
    fn seeded_runs_issue_identical_request_sequences() {
        // Determinism of the *sequence*: two runs against fresh servers
        // with the same seed produce the same request/consistency
        // counts (latency, of course, differs).
        let config = LoadConfig {
            clients: 2,
            requests_per_client: 50,
            object_blocks: 5_000,
            scale_ops: 0,
            ..LoadConfig::default()
        };
        let d1 = boot(5_000);
        let r1 = run_load(d1.local_addr(), &config);
        d1.shutdown();
        let d2 = boot(5_000);
        let r2 = run_load(d2.local_addr(), &config);
        d2.shutdown();
        assert_eq!(r1.requests, r2.requests);
        assert_eq!(r1.locate.count, r2.locate.count);
        assert_eq!(r1.locate_batch.count, r2.locate_batch.count);
        assert_eq!(
            (r1.errors, r1.protocol_errors, r1.consistency_violations),
            (0, 0, 0)
        );
        assert_eq!(
            (r2.errors, r2.protocol_errors, r2.consistency_violations),
            (0, 0, 0)
        );
    }
}
