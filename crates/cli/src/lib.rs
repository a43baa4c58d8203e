//! # scaddar-cli — an operator console for a SCADDAR placement engine
//!
//! A line-oriented command processor over [`scaddar_core::Scaddar`]:
//! create a server, register objects, scale the array, locate and trace
//! blocks, audit balance, and persist/restore the metadata snapshot.
//! The processor is a plain function from input line to output string
//! ([`Session::execute`]), so the whole surface is unit-testable; the
//! `scaddar-console` binary is a thin stdin loop around it.
//!
//! ```text
//! scaddar> init 4
//! server: 4 disks, 32-bit randomness, eps 5%
//! scaddar> add-object 100000
//! object 0: 100000 blocks
//! scaddar> scale add 2
//! op 1: 4 -> 6 disks; moved 33297/100000 blocks (33.30%, optimal 33.33%)
//! scaddar> locate 0 31337
//! object 0 block 31337 -> disk 1
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use scaddar_analysis::{fmt_f64, fmt_pct, Summary};
use scaddar_core::{
    audit_balance, audit_census, EngineStats, ObjectId, Scaddar, ScaddarConfig, ScalingOp,
};
use scaddar_monitor::{HealthMonitor, MonitorConfig, Severity};
use scaddar_obs::{render_trace_dump, MetricValue, MonotonicClock, Registry, TraceContext, Tracer};
use scaddar_prng::Bits;
use std::fmt::Write as _;
use std::sync::Arc;

pub mod fleet;
pub mod profile;
pub mod remote;

/// Errors surfaced to the operator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// Input could not be parsed; the payload explains usage.
    Usage(String),
    /// No server initialized yet.
    NoServer,
    /// The engine rejected the request.
    Engine(String),
    /// Filesystem failure on save/load.
    Io(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "usage: {msg}"),
            CliError::NoServer => write!(f, "no server — run `init <disks>` first"),
            CliError::Engine(msg) => write!(f, "{msg}"),
            CliError::Io(msg) => write!(f, "io error: {msg}"),
        }
    }
}

impl std::error::Error for CliError {}

/// How many completed command spans the session's flight recorder
/// retains for `spans`.
const SPAN_CAPACITY: usize = 256;

/// How many spans `spans` prints when no count is given.
const SPAN_DEFAULT: usize = 16;

/// One interactive session (at most one engine at a time).
///
/// The session owns its own telemetry composition root: a
/// [`Registry`] the engine's [`EngineStats`] record into, a
/// [`Tracer`] that wraps every executed command in a span, and a
/// [`HealthMonitor`] fed after every scaling operation. `metrics`,
/// `spans`, `health`, and `watch` read them back out.
#[derive(Debug)]
pub struct Session {
    engine: Option<Scaddar>,
    epsilon: f64,
    registry: Registry,
    tracer: Tracer,
    monitor: Option<HealthMonitor>,
    /// Commands executed so far — the trace-root sequence number, so
    /// every command span carries a deterministic trace id and `trace
    /// dump` can render it as a tree.
    trace_seq: u64,
}

impl Default for Session {
    fn default() -> Self {
        Session::new()
    }
}

/// The help text, kept verbatim-testable.
pub const HELP: &str = "\
commands:
  init <disks> [bits=32|64] [seed=<u64>] [eps=<f64>]   create a server
  add-object <blocks>                                  register an object
  remove-object <id>                                   delete an object
  objects                                              list objects
  locate <object> <block>                              AF(): block -> disk
  trace <object> <block>                               full remap history
  trace dump [trace-id-hex]                            render flight-recorder traces as trees
  scale add <count>                                    add a disk group
  scale remove <d1,d2,...>                             remove disks (current indices)
  plan add <count> | plan remove <d1,d2,...>           dry-run: predicted movement, no change
  census                                               per-disk block counts
  fairness                                             the §4.3 budget state
  compact                                              rehash to the next generation (REMAP chain -> O(1))
  audit                                                balance + census self-check
  save <path> / load <path>                            persist / restore metadata
  metrics [--json]                                     telemetry (Prometheus text, or JSON)
  spans [n]                                            last n command spans (default 16)
  health                                               one-shot RO1/RO2/§4.3 health report
  watch [frames] [ms]                                  re-render health + key metrics periodically
  help                                                 this text";

impl Session {
    /// A fresh session with no server.
    pub fn new() -> Self {
        let registry = Registry::new();
        let tracer = Tracer::new(Arc::new(MonotonicClock::new()), SPAN_CAPACITY);
        Session {
            engine: None,
            epsilon: 0.05,
            registry,
            tracer,
            monitor: None,
            trace_seq: 0,
        }
    }

    /// The session's metric registry (engine stats record into it).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Engine metric handles registered against the session registry.
    fn engine_stats(&self) -> Arc<EngineStats> {
        EngineStats::register(&self.registry, self.tracer.clock().clone())
    }

    /// Direct access to the engine (for embedding in tests/tools).
    pub fn engine(&self) -> Option<&Scaddar> {
        self.engine.as_ref()
    }

    fn engine_mut(&mut self) -> Result<&mut Scaddar, CliError> {
        self.engine.as_mut().ok_or(CliError::NoServer)
    }

    fn engine_ref(&self) -> Result<&Scaddar, CliError> {
        self.engine.as_ref().ok_or(CliError::NoServer)
    }

    /// Executes one command line and returns its output text.
    ///
    /// Every command runs inside a `cmd.<name>` span on the session
    /// tracer (errors are tagged `error=<kind>`), so `spans` doubles as
    /// a command history with timing.
    pub fn execute(&mut self, line: &str) -> Result<String, CliError> {
        let mut parts = line.split_whitespace();
        let Some(command) = parts.next() else {
            return Ok(String::new());
        };
        let args: Vec<&str> = parts.collect();
        // Each command is the root of its own (deterministic) trace,
        // so `trace dump` can render the flight recorder as trees.
        let ctx = TraceContext::root(0x5CAD_DA25, self.trace_seq);
        self.trace_seq += 1;
        let mut span = self.tracer.span_in(&format!("cmd.{command}"), &ctx, 0);
        let result = self.dispatch(command, &args);
        if let Err(e) = &result {
            span.event(
                "error",
                match e {
                    CliError::Usage(_) => "usage",
                    CliError::NoServer => "no-server",
                    CliError::Engine(_) => "engine",
                    CliError::Io(_) => "io",
                },
            );
        }
        result
    }

    fn dispatch(&mut self, command: &str, args: &[&str]) -> Result<String, CliError> {
        match command {
            "help" => Ok(HELP.to_string()),
            "init" => self.cmd_init(args),
            "add-object" => self.cmd_add_object(args),
            "remove-object" => self.cmd_remove_object(args),
            "objects" => self.cmd_objects(),
            "locate" => self.cmd_locate(args),
            "trace" => self.cmd_trace(args),
            "scale" => self.cmd_scale(args),
            "plan" => self.cmd_plan(args),
            "census" => self.cmd_census(),
            "fairness" => self.cmd_fairness(),
            "compact" => self.cmd_compact(),
            "audit" => self.cmd_audit(),
            "save" => self.cmd_save(args),
            "load" => self.cmd_load(args),
            "metrics" => self.cmd_metrics(args),
            "spans" => self.cmd_spans(args),
            "health" => self.cmd_health(),
            "watch" => self.cmd_watch(args),
            other => Err(CliError::Usage(format!(
                "unknown command `{other}` — try `help`"
            ))),
        }
    }

    fn cmd_metrics(&self, args: &[&str]) -> Result<String, CliError> {
        match args {
            [] => Ok(self.registry.render_prometheus().trim_end().to_string()),
            ["--json"] => Ok(self.registry.snapshot_json().trim_end().to_string()),
            _ => Err(CliError::Usage("metrics [--json]".into())),
        }
    }

    fn cmd_spans(&self, args: &[&str]) -> Result<String, CliError> {
        let n = match args {
            [] => SPAN_DEFAULT,
            [n] => n
                .parse::<usize>()
                .ok()
                .filter(|n| *n > 0)
                .ok_or_else(|| CliError::Usage("spans [n]".into()))?,
            _ => return Err(CliError::Usage("spans [n]".into())),
        };
        let timeline = self.tracer.render_recent(n);
        if timeline.is_empty() {
            return Ok("no spans recorded".to_string());
        }
        Ok(timeline.trim_end().to_string())
    }

    /// A health monitor synced to `engine`, mirroring its state
    /// (`monitor_*` metrics) into the session registry.
    fn monitor_for(&self, engine: &Scaddar) -> HealthMonitor {
        let mut monitor = HealthMonitor::for_engine(
            MonitorConfig::default(),
            self.tracer.clock().clone(),
            engine,
        );
        monitor.attach_registry(&self.registry);
        monitor.evaluate_budget();
        monitor
    }

    /// Feeds the monitor everything new: fresh scale-op movements and
    /// the current load census.
    fn feed_monitor(&mut self) {
        if let (Some(monitor), Some(engine)) = (self.monitor.as_mut(), self.engine.as_ref()) {
            monitor.observe_engine(engine);
            monitor.observe_census(&engine.load_distribution());
        }
    }

    /// The current health verdict (`None` without a server), after
    /// feeding the monitor the engine's latest state — the process
    /// exit-code hook behind `health` (nonzero on WARN/CRIT, so
    /// operators and CI can gate on it).
    pub fn health_verdict(&mut self) -> Option<Severity> {
        self.engine.as_ref()?;
        self.feed_monitor();
        let monitor = self.monitor.as_ref().expect("engine implies monitor");
        Some(monitor.report().verdict())
    }

    fn cmd_health(&mut self) -> Result<String, CliError> {
        self.engine_ref()?;
        self.feed_monitor();
        let engine = self.engine.as_ref().expect("engine_ref checked");
        let monitor = self.monitor.as_ref().expect("engine implies monitor");
        let mut out = monitor.report().render().trim_end().to_string();
        // The §4.3 headline number an operator plans around: how many
        // more scaling ops fit in the fairness budget before a rehash
        // (`compact`) is the prescribed remedy.
        write!(
            out,
            "\ngeneration {}: {} safe scaling op(s) remaining in the §4.3 budget",
            engine.generation(),
            monitor.budget_remaining()
        )
        .expect("write to string");
        let events = monitor.events();
        if !events.is_empty() {
            let shown = events.len().min(5);
            write!(out, "\nlast {shown} of {} event(s):", events.len()).expect("write to string");
            for e in &events[events.len() - shown..] {
                write!(
                    out,
                    "\n  [{:<4}] {} — {}",
                    e.severity.label(),
                    e.kind,
                    e.detail
                )
                .expect("write to string");
            }
        }
        Ok(out)
    }

    fn cmd_watch(&mut self, args: &[&str]) -> Result<String, CliError> {
        let usage = || CliError::Usage("watch [frames] [ms]".into());
        let frames: usize = match args.first() {
            None => 3,
            Some(n) => n
                .parse()
                .ok()
                .filter(|n| (1..=100).contains(n))
                .ok_or_else(usage)?,
        };
        let interval_ms: u64 = match args.get(1) {
            None => 500,
            Some(ms) => ms
                .parse()
                .ok()
                .filter(|ms| *ms <= 10_000)
                .ok_or_else(usage)?,
        };
        if args.len() > 2 {
            return Err(usage());
        }
        self.engine_ref()?;
        let mut out = String::new();
        for frame in 0..frames {
            if frame > 0 {
                if interval_ms > 0 {
                    std::thread::sleep(std::time::Duration::from_millis(interval_ms));
                }
                out.push('\n');
            }
            writeln!(out, "--- frame {}/{frames} ---", frame + 1).expect("write to string");
            self.feed_monitor();
            let monitor = self.monitor.as_ref().expect("engine implies monitor");
            out.push_str(monitor.report().render().trim_end());
            out.push_str("\nkey metrics:");
            for name in [
                "scaddar_core_scale_ops_total",
                "scaddar_core_xcache_hits_total",
                "cmsim_server_backlog",
                "monitor_budget_remaining_ops",
                "monitor_alerts_total",
            ] {
                let rendered = match self.registry.value(name) {
                    Some(MetricValue::Counter(c)) => c.to_string(),
                    Some(MetricValue::Gauge(g)) => g.to_string(),
                    Some(MetricValue::Histogram(h)) => format!("count={}", h.count),
                    None => continue,
                };
                write!(out, "\n  {name:<36} {rendered}").expect("write to string");
            }
            out.push('\n');
        }
        Ok(out.trim_end().to_string())
    }

    fn cmd_init(&mut self, args: &[&str]) -> Result<String, CliError> {
        let usage = || CliError::Usage("init <disks> [bits=32|64] [seed=<u64>] [eps=<f64>]".into());
        let disks: u32 = args
            .first()
            .ok_or_else(usage)?
            .parse()
            .map_err(|_| usage())?;
        let mut config = ScaddarConfig::new(disks);
        for kv in &args[1..] {
            let (key, value) = kv.split_once('=').ok_or_else(usage)?;
            match key {
                "bits" => {
                    let b: u8 = value.parse().map_err(|_| usage())?;
                    config.bits = Bits::new(b)
                        .filter(|b| *b == Bits::B32 || *b == Bits::B64)
                        .ok_or_else(usage)?;
                }
                "seed" => config.catalog_seed = value.parse().map_err(|_| usage())?,
                "eps" => {
                    config.epsilon = value.parse().map_err(|_| usage())?;
                    if !(config.epsilon > 0.0 && config.epsilon < 1.0) {
                        return Err(usage());
                    }
                }
                _ => return Err(usage()),
            }
        }
        self.epsilon = config.epsilon;
        let mut engine = Scaddar::new(config).map_err(|e| CliError::Engine(e.to_string()))?;
        engine.attach_stats(self.engine_stats());
        let summary = format!(
            "server: {} disks, {}-bit randomness, eps {}",
            engine.disks(),
            config.bits.get(),
            fmt_pct(config.epsilon)
        );
        self.monitor = Some(self.monitor_for(&engine));
        self.engine = Some(engine);
        Ok(summary)
    }

    fn cmd_add_object(&mut self, args: &[&str]) -> Result<String, CliError> {
        let blocks: u64 = args
            .first()
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| CliError::Usage("add-object <blocks>".into()))?;
        let id = self.engine_mut()?.add_object(blocks);
        Ok(format!("{id}: {blocks} blocks"))
    }

    fn cmd_remove_object(&mut self, args: &[&str]) -> Result<String, CliError> {
        let id: u64 = args
            .first()
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| CliError::Usage("remove-object <id>".into()))?;
        let obj = self
            .engine_mut()?
            .remove_object(ObjectId(id))
            .map_err(|e| CliError::Engine(e.to_string()))?;
        Ok(format!("removed {} ({} blocks)", obj.id, obj.blocks))
    }

    fn cmd_objects(&self) -> Result<String, CliError> {
        let engine = self.engine_ref()?;
        let objects = engine.catalog().objects();
        if objects.is_empty() {
            return Ok("no objects".to_string());
        }
        let mut out = String::new();
        for obj in objects {
            writeln!(
                out,
                "{}: {} blocks (seed {:#018x})",
                obj.id, obj.blocks, obj.seed
            )
            .expect("write to string");
        }
        out.pop();
        Ok(out)
    }

    /// Parses `<object> <block>`, for this console and the remote one
    /// alike; a trailing argument is a usage error.
    pub(crate) fn parse_object_block(
        args: &[&str],
        usage: &str,
    ) -> Result<(ObjectId, u64), CliError> {
        let err = || CliError::Usage(usage.to_string());
        match args {
            [object, block] => Ok((
                ObjectId(object.parse().map_err(|_| err())?),
                block.parse().map_err(|_| err())?,
            )),
            _ => Err(err()),
        }
    }

    fn cmd_locate(&self, args: &[&str]) -> Result<String, CliError> {
        let (object, block) = Self::parse_object_block(args, "locate <object> <block>")?;
        let disk = self
            .engine_ref()?
            .locate(object, block)
            .map_err(|e| CliError::Engine(e.to_string()))?;
        Ok(format!("{object} block {block} -> {disk}"))
    }

    /// `trace dump` — renders the flight recorder's traces as trees
    /// ([`render_trace_dump`]): every distinct trace with no argument,
    /// one named trace with a hex id.
    fn cmd_trace_dump(&self, args: &[&str]) -> Result<String, CliError> {
        let usage = || CliError::Usage("trace dump [trace-id-hex]".into());
        let spans = self.tracer.recent(SPAN_CAPACITY);
        match args {
            [] => {
                let mut ids: Vec<u64> = Vec::new();
                for s in &spans {
                    if s.trace_id != 0 && !ids.contains(&s.trace_id) {
                        ids.push(s.trace_id);
                    }
                }
                if ids.is_empty() {
                    return Ok("no traces recorded".to_string());
                }
                let mut out = format!("{} trace(s) in the flight recorder\n", ids.len());
                for id in ids {
                    let _ = write!(
                        out,
                        "--- trace {id:016x} ---\n{}",
                        render_trace_dump(&spans, id)
                    );
                }
                Ok(out.trim_end().to_string())
            }
            [hex] => {
                let id =
                    u64::from_str_radix(hex.trim_start_matches("0x"), 16).map_err(|_| usage())?;
                let dump = render_trace_dump(&spans, id);
                if dump.is_empty() {
                    return Err(CliError::Engine(format!(
                        "no spans for trace {id:016x} in the flight recorder"
                    )));
                }
                Ok(dump.trim_end().to_string())
            }
            _ => Err(usage()),
        }
    }

    fn cmd_trace(&self, args: &[&str]) -> Result<String, CliError> {
        if args.first() == Some(&"dump") {
            return self.cmd_trace_dump(&args[1..]);
        }
        let (object, block) = Self::parse_object_block(args, "trace <object> <block>")?;
        let steps = self
            .engine_ref()?
            .trace(object, block)
            .map_err(|e| CliError::Engine(e.to_string()))?;
        let mut out = String::new();
        for step in steps {
            writeln!(
                out,
                "epoch {:>3}: X={:<20} N={:<5} disk {}{}",
                step.epoch,
                step.x,
                step.disks,
                step.disk.0,
                if step.moved { "  (moved)" } else { "" }
            )
            .expect("write to string");
        }
        out.pop();
        Ok(out)
    }

    fn cmd_scale(&mut self, args: &[&str]) -> Result<String, CliError> {
        let op = Self::parse_op(args, "scale add <count> | scale remove <d1,d2,...>")?;
        let engine = self.engine_mut()?;
        let before = engine.disks();
        let warn = if !engine.next_op_is_safe(
            op.disks_after(before)
                .map_err(|e| CliError::Engine(e.to_string()))?,
        ) {
            "\nwarning: §4.3 fairness budget exceeded — schedule a full redistribution"
        } else {
            ""
        };
        let plan = engine
            .scale(op)
            .map_err(|e| CliError::Engine(e.to_string()))?;
        let out = format!(
            "op {}: {} -> {} disks; moved {}/{} blocks ({}, optimal {}){warn}",
            engine.epoch(),
            before,
            engine.disks(),
            plan.moves.len(),
            plan.total_blocks,
            fmt_pct(plan.moved_fraction()),
            fmt_pct(plan.optimal_fraction),
        );
        self.feed_monitor();
        Ok(out)
    }

    /// Parses `add <count>` / `remove <d1,d2,...>`, for this console and
    /// the remote one alike; a trailing argument is a usage error.
    pub(crate) fn parse_op(args: &[&str], usage: &str) -> Result<ScalingOp, CliError> {
        let err = || CliError::Usage(usage.to_string());
        match args {
            ["add", count] => Ok(ScalingOp::Add {
                count: count.parse().map_err(|_| err())?,
            }),
            ["remove", list] => Ok(ScalingOp::Remove {
                disks: list
                    .split(',')
                    .map(str::parse)
                    .collect::<Result<_, _>>()
                    .map_err(|_| err())?,
            }),
            _ => Err(err()),
        }
    }

    fn cmd_plan(&self, args: &[&str]) -> Result<String, CliError> {
        let op = Self::parse_op(args, "plan add <count> | plan remove <d1,d2,...>")?;
        let engine = self.engine_ref()?;
        // Dry-run on a clone; the live engine is untouched. Detach the
        // shared stat handles so the preview doesn't show up as a real
        // scale op in `metrics`.
        let mut probe = engine.clone();
        probe.detach_stats();
        let disks_after = op
            .disks_after(engine.disks())
            .map_err(|e| CliError::Engine(e.to_string()))?;
        let safe = engine.next_op_is_safe(disks_after);
        let plan = probe
            .scale(op)
            .map_err(|e| CliError::Engine(e.to_string()))?;
        Ok(format!(
            "dry run: {} -> {} disks; would move {}/{} blocks ({}, optimal {}); within eps budget: {}",
            engine.disks(),
            disks_after,
            plan.moves.len(),
            plan.total_blocks,
            fmt_pct(plan.moved_fraction()),
            fmt_pct(plan.optimal_fraction),
            if safe { "yes" } else { "NO" },
        ))
    }

    fn cmd_census(&self) -> Result<String, CliError> {
        let engine = self.engine_ref()?;
        let census = engine.load_distribution();
        let summary = Summary::of_counts(&census);
        let mut out = String::new();
        for (d, &c) in census.iter().enumerate() {
            writeln!(out, "disk {d:>3}: {c}").expect("write to string");
        }
        write!(
            out,
            "total {} blocks, CoV {}",
            census.iter().sum::<u64>(),
            fmt_f64(summary.cov, 4)
        )
        .expect("write to string");
        Ok(out)
    }

    fn cmd_fairness(&self) -> Result<String, CliError> {
        let engine = self.engine_ref()?;
        let report = engine.fairness();
        let safe = engine.next_op_is_safe(engine.disks());
        Ok(format!(
            "operations: {}\nsigma_k: {}\nguaranteed cycles: {}\nunfairness bound: {}\nnext op within eps={}? {}",
            report.operations,
            report.sigma,
            report.guaranteed_range,
            fmt_f64(report.unfairness_bound, 8),
            fmt_pct(self.epsilon),
            if safe { "yes" } else { "NO — redistribute in full" },
        ))
    }

    /// `compact` — the console owns a bare metadata engine (no block
    /// store to migrate), so this is the **offline** rehash: replace
    /// the engine with its next generation in place. The online,
    /// rate-limited cutover lives behind the daemon's `compact`
    /// (`scaddar connect`).
    fn cmd_compact(&mut self) -> Result<String, CliError> {
        let engine = self.engine_mut()?;
        let from = engine.generation();
        let total = engine.catalog().total_blocks();
        let moved = engine.rehash_to_next_generation();
        if let Some(monitor) = self.monitor.as_mut() {
            monitor.note_compaction_started(from, from + 1, moved);
            monitor.note_compaction_completed(from + 1, total);
        }
        // Replaying the flipped engine's (empty) log is what refills
        // the monitor's §4.3 budget probe.
        self.feed_monitor();
        Ok(format!(
            "compacted: generation {} -> {}; {}/{} block(s) re-placed; \
             REMAP chain length 0, fairness budget reset",
            from,
            from + 1,
            moved,
            total,
        ))
    }

    fn cmd_audit(&self) -> Result<String, CliError> {
        let engine = self.engine_ref()?;
        let tolerance = scaddar_core::audit::suggested_tolerance(engine.catalog(), engine.log());
        let balance = audit_balance(engine.catalog(), engine.log(), tolerance);
        let census = engine.load_distribution();
        let consistency = audit_census(engine.catalog(), engine.log(), &census);
        let mut out = format!(
            "balance audit (tolerance {}): {}",
            fmt_pct(tolerance),
            if balance.passed() { "PASS" } else { "FAIL" }
        );
        for f in &balance.findings {
            write!(out, "\n  {f:?}").expect("write to string");
        }
        write!(
            out,
            "\ncensus self-consistency: {}",
            if consistency.passed() { "PASS" } else { "FAIL" }
        )
        .expect("write to string");
        Ok(out)
    }

    fn cmd_save(&self, args: &[&str]) -> Result<String, CliError> {
        let path = args
            .first()
            .ok_or_else(|| CliError::Usage("save <path>".into()))?;
        let bytes = self.engine_ref()?.snapshot();
        write_atomically(std::path::Path::new(path), &bytes)
            .map_err(|e| CliError::Io(e.to_string()))?;
        Ok(format!("saved {} bytes to {path}", bytes.len()))
    }

    fn cmd_load(&mut self, args: &[&str]) -> Result<String, CliError> {
        let path = args
            .first()
            .ok_or_else(|| CliError::Usage("load <path>".into()))?;
        let bytes = std::fs::read(path).map_err(|e| CliError::Io(e.to_string()))?;
        let engine =
            Scaddar::from_snapshot_with_stats(&bytes, self.epsilon, Some(self.engine_stats()))
                .map_err(|e| CliError::Engine(e.to_string()))?;
        let summary = format!(
            "restored: {} disks, {} objects, epoch {}",
            engine.disks(),
            engine.catalog().objects().len(),
            engine.epoch()
        );
        self.monitor = Some(self.monitor_for(&engine));
        self.engine = Some(engine);
        Ok(summary)
    }
}

/// Replaces the file at `path` with `bytes` so that a crash leaves the
/// old contents or the new, never a torn mix: the bytes go to a temp
/// file in the target's directory, which is fsynced and renamed over
/// the target, and then the directory is fsynced so the rename itself
/// is durable. On an error before the rename the temp file is removed
/// and the target is untouched.
fn write_atomically(path: &std::path::Path, bytes: &[u8]) -> std::io::Result<()> {
    use std::io::Write as _;
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => std::path::Path::new("."),
    };
    let name = path.file_name().ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, "path names no file")
    })?;
    let mut tmp_name = std::ffi::OsString::from(".");
    tmp_name.push(name);
    tmp_name.push(format!(".{}.tmp", std::process::id()));
    let tmp = dir.join(tmp_name);
    let written = (|| {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        std::fs::rename(&tmp, path)
    })();
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
        return written;
    }
    #[cfg(unix)]
    std::fs::File::open(dir)?.sync_all()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(session: &mut Session, line: &str) -> String {
        session
            .execute(line)
            .unwrap_or_else(|e| panic!("`{line}` failed: {e}"))
    }

    #[test]
    fn full_operator_session() {
        let mut s = Session::new();
        assert!(run(&mut s, "init 4 seed=9").contains("4 disks"));
        assert!(run(&mut s, "add-object 10000").starts_with("object 0"));
        let loc = run(&mut s, "locate 0 1234");
        assert!(loc.contains("-> disk"));
        let scale = run(&mut s, "scale add 2");
        assert!(scale.contains("4 -> 6 disks"));
        assert!(scale.contains("optimal 33.33%"));
        // Location may have changed but must stay valid.
        let census = run(&mut s, "census");
        assert!(census.contains("disk   5:"));
        assert!(census.contains("total 10000 blocks"));
        let fairness = run(&mut s, "fairness");
        assert!(fairness.contains("operations: 1"));
        assert!(fairness.contains("yes"));
        let audit = run(&mut s, "audit");
        assert!(audit.contains("PASS"));
        assert!(!audit.contains("FAIL"));
    }

    #[test]
    fn trace_shows_history() {
        let mut s = Session::new();
        run(&mut s, "init 6 seed=1");
        run(&mut s, "add-object 100");
        run(&mut s, "scale remove 4");
        let trace = run(&mut s, "trace 0 7");
        assert_eq!(trace.lines().count(), 2);
        assert!(trace.contains("epoch   0"));
        assert!(trace.contains("epoch   1"));
    }

    #[test]
    fn trace_dump_renders_command_trees() {
        let mut s = Session::new();
        assert_eq!(run(&mut s, "trace dump"), "no traces recorded");
        run(&mut s, "init 4 seed=1");
        run(&mut s, "add-object 100");
        let dump = run(&mut s, "trace dump");
        assert!(dump.contains("cmd.init"), "{dump}");
        assert!(dump.contains("cmd.add-object"), "{dump}");
        assert!(dump.contains("--- trace "), "{dump}");
        // A named trace renders alone; dumps are seed-deterministic,
        // so the same command sequence yields the same trace ids.
        let id = dump
            .lines()
            .find(|l| l.contains("cmd.init"))
            .and_then(|l| l.split("trace=").nth(1))
            .and_then(|l| l.split_whitespace().next())
            .unwrap()
            .to_string();
        let one = run(&mut s, &format!("trace dump {id}"));
        assert!(one.contains("cmd.init"), "{one}");
        assert!(!one.contains("cmd.add-object"), "{one}");
        // Same command sequence (`trace dump` was command 0, `init`
        // command 1) → same deterministic trace ids.
        let mut other = Session::new();
        other.execute("trace dump").unwrap();
        other.execute("init 4 seed=1").unwrap();
        assert!(run(&mut other, "trace dump").contains(&format!("trace {id}")));
        assert!(matches!(
            s.execute("trace dump zzz"),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            s.execute("trace dump 1"),
            Err(CliError::Engine(_))
        ));
    }

    #[test]
    fn errors_are_friendly() {
        let mut s = Session::new();
        assert_eq!(s.execute("census"), Err(CliError::NoServer));
        assert!(matches!(s.execute("init"), Err(CliError::Usage(_))));
        assert!(matches!(s.execute("bogus"), Err(CliError::Usage(_))));
        run(&mut s, "init 4");
        assert!(matches!(s.execute("locate 9 0"), Err(CliError::Engine(_))));
        assert!(matches!(
            s.execute("scale remove 99"),
            Err(CliError::Engine(_))
        ));
        assert!(matches!(
            s.execute("init 4 bits=13"),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            s.execute("init 4 eps=2.0"),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn save_load_round_trip() {
        let path = std::env::temp_dir().join("scaddar-cli-test.snap");
        let path_s = path.to_str().unwrap();
        let mut s = Session::new();
        run(&mut s, "init 5 seed=77");
        run(&mut s, "add-object 5000");
        run(&mut s, "scale add 1");
        let before = run(&mut s, "locate 0 4321");
        assert!(run(&mut s, &format!("save {path_s}")).contains("saved"));

        let mut fresh = Session::new();
        let restored = run(&mut fresh, &format!("load {path_s}"));
        assert!(restored.contains("6 disks"));
        assert_eq!(run(&mut fresh, "locate 0 4321"), before);
        let _ = std::fs::remove_file(&path);
    }

    /// A fresh, empty directory for one test.
    fn scratch_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("scaddar-cli-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn entries(dir: &std::path::Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn save_replaces_an_existing_snapshot_whole() {
        let dir = scratch_dir("save-over");
        let path = dir.join("state.snap");
        let path_s = path.to_str().unwrap();
        std::fs::write(&path, vec![0xAB; 10_000]).unwrap();
        let mut s = Session::new();
        run(&mut s, "init 4 seed=9");
        run(&mut s, "add-object 3000");
        run(&mut s, "scale add 2");
        let before = run(&mut s, "locate 0 1234");
        assert!(run(&mut s, &format!("save {path_s}")).contains("saved"));
        let expected = s.engine_ref().unwrap().snapshot();
        assert_eq!(
            std::fs::read(&path).unwrap(),
            expected,
            "exactly the new bytes"
        );
        assert_eq!(entries(&dir), ["state.snap"], "no temp file left");
        let mut fresh = Session::new();
        assert!(run(&mut fresh, &format!("load {path_s}")).contains("6 disks"));
        assert_eq!(run(&mut fresh, "locate 0 1234"), before);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_failed_save_leaves_no_temp_file() {
        let mut s = Session::new();
        run(&mut s, "init 4");
        run(&mut s, "add-object 100");
        // Into a directory that does not exist.
        let dir = scratch_dir("save-missing");
        let missing = dir.join("absent").join("state.snap");
        let err = s.execute(&format!("save {}", missing.to_str().unwrap()));
        assert!(matches!(err, Err(CliError::Io(_))), "{err:?}");
        assert!(!dir.join("absent").exists());
        // Over a target the rename cannot replace (a non-empty
        // directory): the temp file was written, and must be removed.
        let target = dir.join("state.snap");
        std::fs::create_dir_all(target.join("occupied")).unwrap();
        let err = s.execute(&format!("save {}", target.to_str().unwrap()));
        assert!(matches!(err, Err(CliError::Io(_))), "{err:?}");
        assert_eq!(entries(&dir), ["state.snap"], "no stray temp file");
        assert!(target.join("occupied").is_dir(), "target untouched");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn budget_warning_fires() {
        let mut s = Session::new();
        run(&mut s, "init 8 eps=0.05");
        let mut warned = false;
        for i in 0..20 {
            let out = if i % 2 == 0 {
                run(&mut s, "scale remove 0")
            } else {
                run(&mut s, "scale add 1")
            };
            if out.contains("warning") {
                warned = true;
                break;
            }
        }
        assert!(warned, "the §4.3 warning never fired");
    }

    #[test]
    fn empty_line_is_silent_and_help_is_stable() {
        let mut s = Session::new();
        assert_eq!(s.execute("   ").unwrap(), "");
        assert!(s.execute("help").unwrap().contains("scale add <count>"));
    }

    #[test]
    fn metrics_renders_valid_prometheus_exposition() {
        let mut s = Session::new();
        run(&mut s, "init 4 seed=3");
        run(&mut s, "add-object 2000");
        for b in 0..200 {
            run(&mut s, &format!("locate 0 {b}"));
        }
        run(&mut s, "scale add 2");
        let text = run(&mut s, "metrics");
        assert!(text.contains("# TYPE scaddar_core_xcache_hits_total counter"));
        assert!(text.contains("scaddar_core_xcache_hits_total 200"));
        assert!(text.contains("scaddar_core_scale_ops_total 1"));
        assert!(text.contains("# TYPE scaddar_core_locate_ns histogram"));
        assert!(text.contains("scaddar_core_locate_ns_bucket{le=\"+Inf\"}"));
        // Exposition shape: every line is a comment or `name value`.
        for line in text.lines() {
            assert!(
                line.starts_with('#') || line.split(' ').count() == 2,
                "malformed exposition line: {line}"
            );
        }
    }

    #[test]
    fn metrics_json_round_trips_through_hand_parsing() {
        let mut s = Session::new();
        run(&mut s, "init 4 seed=3");
        run(&mut s, "add-object 1000");
        for b in 0..65 {
            run(&mut s, &format!("locate 0 {b}"));
        }
        run(&mut s, "scale add 1");
        let json = run(&mut s, "metrics --json");
        let values = scaddar_obs::registry::parse_json_values(&json);
        let get = |name: &str, field: &str| {
            values
                .iter()
                .find(|(n, f, _)| n == name && f == field)
                .map(|(_, _, v)| *v)
        };
        assert_eq!(get("scaddar_core_xcache_hits_total", "value"), Some(65.0));
        assert_eq!(get("scaddar_core_scale_ops_total", "value"), Some(1.0));
        assert_eq!(get("scaddar_core_plan_blocks_total", "value"), Some(1000.0));
        // Mask 1023 samples only call 0 out of these 65.
        assert_eq!(get("scaddar_core_locate_ns", "count"), Some(1.0));
        assert!(matches!(
            s.execute("metrics --yaml"),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn plan_preview_stays_out_of_the_metrics() {
        let mut s = Session::new();
        run(&mut s, "init 4 seed=3");
        run(&mut s, "add-object 500");
        run(&mut s, "plan add 2");
        let text = run(&mut s, "metrics");
        assert!(text.contains("scaddar_core_scale_ops_total 0"));
    }

    #[test]
    fn spans_are_a_command_history_with_errors_tagged() {
        let mut s = Session::new();
        assert_eq!(run(&mut s, "spans"), "no spans recorded");
        run(&mut s, "init 4 seed=1");
        run(&mut s, "add-object 100");
        let _ = s.execute("locate 99 0"); // engine error
        let spans = run(&mut s, "spans");
        assert!(spans.contains("cmd.init"));
        assert!(spans.contains("cmd.add-object"));
        assert!(spans.contains("cmd.locate error=engine"));
        assert!(
            spans.contains("cmd.spans"),
            "the first `spans` call is itself recorded"
        );
        assert_eq!(run(&mut s, "spans 1").lines().count(), 1);
        assert!(matches!(s.execute("spans 0"), Err(CliError::Usage(_))));
        assert!(matches!(s.execute("spans x y"), Err(CliError::Usage(_))));
    }

    #[test]
    fn restore_is_counted_in_the_new_session_registry() {
        let path = std::env::temp_dir().join("scaddar-cli-metrics-test.snap");
        let path_s = path.to_str().unwrap();
        let mut s = Session::new();
        run(&mut s, "init 4 seed=11");
        run(&mut s, "add-object 300");
        run(&mut s, &format!("save {path_s}"));
        let saved = run(&mut s, "metrics");
        assert!(saved.contains("scaddar_core_persist_bytes_written_total"));

        let mut fresh = Session::new();
        run(&mut fresh, &format!("load {path_s}"));
        let json = run(&mut fresh, "metrics --json");
        let values = scaddar_obs::registry::parse_json_values(&json);
        let bytes_read = values
            .iter()
            .find(|(n, f, _)| n == "scaddar_core_persist_bytes_read_total" && f == "value")
            .map(|(_, _, v)| *v)
            .unwrap();
        assert!(bytes_read > 0.0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn health_reports_ok_for_a_clean_session() {
        let mut s = Session::new();
        assert_eq!(s.execute("health"), Err(CliError::NoServer));
        run(&mut s, "init 6 seed=4");
        run(&mut s, "add-object 12000");
        run(&mut s, "scale add 2");
        run(&mut s, "scale remove 3");
        let health = run(&mut s, "health");
        assert!(health.starts_with("health: OK"), "{health}");
        assert!(health.contains("ro1/ro1-deviation"));
        assert!(health.contains("ro2/ro2-chi-square"));
        assert!(health.contains("budget/rehash-advised"));
        assert!(!health.contains("[warn]"), "{health}");
        assert!(!health.contains("[crit]"), "{health}");
    }

    #[test]
    fn health_flags_an_exhausted_fairness_budget() {
        let mut s = Session::new();
        run(&mut s, "init 8 eps=0.05");
        run(&mut s, "add-object 500");
        // Burn the §4.3 budget with remove/add round-trips, ignoring
        // the scale-time warnings like a careless operator.
        for i in 0..24 {
            let line = if i % 2 == 0 {
                "scale remove 0"
            } else {
                "scale add 1"
            };
            run(&mut s, line);
        }
        let health = run(&mut s, "health");
        assert!(health.starts_with("health: CRIT"), "{health}");
        assert!(health.contains("rehash-advised"), "{health}");
        assert!(health.contains("full redistribution advised"), "{health}");
    }

    #[test]
    fn health_prints_the_remaining_safe_ops_number() {
        let mut s = Session::new();
        run(&mut s, "init 6 seed=4");
        run(&mut s, "add-object 5000");
        let health = run(&mut s, "health");
        assert!(
            health.contains("safe scaling op(s) remaining in the §4.3 budget"),
            "{health}"
        );
        assert!(health.contains("generation 0:"), "{health}");
    }

    #[test]
    fn compact_collapses_the_chain_and_resets_the_budget() {
        let mut s = Session::new();
        run(&mut s, "init 8 eps=0.05");
        run(&mut s, "add-object 500");
        for i in 0..24 {
            run(
                &mut s,
                if i % 2 == 0 {
                    "scale remove 0"
                } else {
                    "scale add 1"
                },
            );
        }
        assert!(run(&mut s, "health").starts_with("health: CRIT"));
        let before = run(&mut s, "locate 0 123");
        assert!(before.contains("-> disk"));

        let out = run(&mut s, "compact");
        assert!(out.contains("generation 0 -> 1"), "{out}");
        assert!(out.contains("fairness budget reset"), "{out}");

        // Chain collapsed, budget refilled, engine still serves.
        let health = run(&mut s, "health");
        assert!(health.starts_with("health: OK"), "{health}");
        assert!(health.contains("generation 1:"), "{health}");
        assert!(health.contains("compaction-complete"), "{health}");
        let fairness = run(&mut s, "fairness");
        assert!(fairness.contains("operations: 0"), "{fairness}");
        assert!(run(&mut s, "locate 0 123").contains("-> disk"));
        assert!(run(&mut s, "audit").contains("PASS"));
        // A second compact keeps counting generations.
        assert!(run(&mut s, "compact").contains("generation 1 -> 2"));
    }

    #[test]
    fn watch_renders_frames_with_key_metrics() {
        let mut s = Session::new();
        run(&mut s, "init 4 seed=2");
        run(&mut s, "add-object 3000");
        run(&mut s, "scale add 1");
        let watch = run(&mut s, "watch 2 0");
        assert_eq!(watch.matches("--- frame").count(), 2);
        assert!(watch.contains("--- frame 1/2 ---"));
        assert!(watch.contains("--- frame 2/2 ---"));
        assert!(watch.contains("health: OK"));
        assert!(watch.contains("scaddar_core_scale_ops_total"));
        assert!(watch.contains("monitor_budget_remaining_ops"));
        assert!(matches!(s.execute("watch 0"), Err(CliError::Usage(_))));
        assert!(matches!(s.execute("watch 2 0 9"), Err(CliError::Usage(_))));
        assert!(matches!(
            s.execute("watch 2 999999"),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn object_listing_and_removal() {
        let mut s = Session::new();
        run(&mut s, "init 4");
        assert_eq!(run(&mut s, "objects"), "no objects");
        run(&mut s, "add-object 10");
        run(&mut s, "add-object 20");
        let listing = run(&mut s, "objects");
        assert_eq!(listing.lines().count(), 2);
        assert!(run(&mut s, "remove-object 0").contains("removed object 0"));
        assert_eq!(run(&mut s, "objects").lines().count(), 1);
    }
}

#[cfg(test)]
mod fuzz {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// No input line may ever panic the session — errors yes, panics
        /// never (the console faces operators and scripts).
        #[test]
        fn arbitrary_lines_never_panic(lines in proptest::collection::vec(".{0,60}", 0..20)) {
            let mut session = Session::new();
            for line in &lines {
                let _ = session.execute(line);
            }
        }

        /// Same, but with token soup biased toward real commands and
        /// numbers, which reaches much deeper into the handlers.
        #[test]
        fn command_soup_never_panics(
            tokens in proptest::collection::vec(
                prop_oneof![
                    Just("init".to_string()),
                    Just("add-object".to_string()),
                    Just("scale".to_string()),
                    Just("add".to_string()),
                    Just("remove".to_string()),
                    Just("locate".to_string()),
                    Just("trace".to_string()),
                    Just("census".to_string()),
                    Just("fairness".to_string()),
                    Just("audit".to_string()),
                    Just("objects".to_string()),
                    Just("remove-object".to_string()),
                    Just("bits=64".to_string()),
                    Just("eps=0.05".to_string()),
                    Just("health".to_string()),
                    Just("compact".to_string()),
                    (0u64..100).prop_map(|n| n.to_string()),
                    Just("0,1,2".to_string()),
                ],
                0..120,
            ),
            width in 1usize..5,
        ) {
            let mut session = Session::new();
            for line_tokens in tokens.chunks(width) {
                let line = line_tokens.join(" ");
                let _ = session.execute(&line);
            }
            // Whatever happened, an initialized session must still work.
            let _ = session.execute("init 4");
            prop_assert!(session.execute("census").is_ok());
        }
    }
}

#[cfg(test)]
mod plan_tests {
    use super::*;

    #[test]
    fn plan_is_a_side_effect_free_preview() {
        let mut s = Session::new();
        s.execute("init 4 seed=1").unwrap();
        s.execute("add-object 20000").unwrap();
        let preview = s.execute("plan add 2").unwrap();
        assert!(preview.contains("4 -> 6 disks"));
        assert!(preview.contains("optimal 33.33%"));
        assert!(preview.contains("within eps budget: yes"));
        // Nothing changed.
        assert_eq!(s.engine().unwrap().epoch(), 0);
        assert_eq!(s.engine().unwrap().disks(), 4);
        // The real op then matches the preview's optimum.
        let real = s.execute("scale add 2").unwrap();
        assert!(real.contains("optimal 33.33%"));
    }

    #[test]
    fn plan_remove_and_errors() {
        let mut s = Session::new();
        assert_eq!(s.execute("plan add 1"), Err(CliError::NoServer));
        s.execute("init 5 seed=2").unwrap();
        s.execute("add-object 1000").unwrap();
        let preview = s.execute("plan remove 1,3").unwrap();
        assert!(preview.contains("5 -> 3 disks"));
        assert!(matches!(
            s.execute("plan remove 9"),
            Err(CliError::Engine(_))
        ));
        assert!(matches!(
            s.execute("plan frobnicate 1"),
            Err(CliError::Usage(_))
        ));
    }
}
