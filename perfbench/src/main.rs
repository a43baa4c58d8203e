//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable report, then as its last line one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}` with every
//! end-to-end metric (`--trace 0`) or every per-layer metric
//! (`--trace 1`). Exits 1 when any answer or check was wrong.

use scaddar_perfbench::metrics::result_line;
use scaddar_perfbench::report::{bounded, end_to_end, error_ratio, per_layer, print_pass};
use scaddar_perfbench::scenario::{run_pass, Samples};
use scaddar_perfbench::workload::{input_digest, workload, Workload, INITIAL_DISKS, WORKLOADS};
use std::process::{exit, Command};

const USAGE: &str =
    "usage: perfbench --workload <lookup_closed|lookup_pipelined|reorganize> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut name, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("missing value after {}", pair[0]));
        };
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => name = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("not a u64"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("not a number"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad("must be in (0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name = name.ok_or("--workload is required")?;
    let workload = workload(&name).ok_or_else(|| {
        let known: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}` (known: {})", known.join(", "))
    })?;
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// The checkout's commit, when it is a git checkout.
fn commit() -> String {
    Command::new("git")
        .args(["--git-dir", ".git", "rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".into())
}

fn print_stamp(a: &Args) {
    let w = &a.workload;
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        w.name, a.seed, a.seconds, a.trace as u8
    );
    println!(
        "stamp: nproc={nproc} commit={} rustc=\"{}\"",
        commit(),
        env!("PERFBENCH_RUSTC")
    );
    println!(
        "catalog: {} objects x {} blocks = {} blocks on {INITIAL_DISKS} disks; \
         {} lookup connection(s), {} frame(s) in flight each; streams={}; \
         lookups {} the operator script",
        w.objects,
        w.blocks_per_object,
        w.total_blocks(),
        w.lookup_threads,
        w.window,
        w.reorganize,
        if w.reorganize { "during" } else { "after" }
    );
    println!("inputs digest: {:016x}", input_digest(w, a.seed));
}

fn failed(s: &Samples) -> u64 {
    s.errors + s.wrong
}

fn run(a: &Args) -> Result<i32, String> {
    print_stamp(a);
    let w = &a.workload;
    let [base, traced] = run_pass(w, a.seed, a.seconds, a.trace)?;
    let base_e2e = end_to_end(&base)?;
    let metrics = if a.trace {
        print_pass("untraced repetitions", &base, &base_e2e);
        let traced_e2e = end_to_end(&traced)?;
        print_pass("traced repetitions", &traced, &traced_e2e);
        let layers = per_layer(&traced, &traced_e2e, &base_e2e)?;
        println!("== per-layer metrics (traced repetitions)");
        for m in &layers {
            println!("  {:<44} {:>16.3} {}", m.name, m.value, m.unit);
        }
        layers
    } else {
        print_pass("run", &base, &base_e2e);
        bounded(&base_e2e)
    };
    let passes = [base, traced];
    let attempted: u64 = passes.iter().map(|s| s.attempted).sum();
    let failed: u64 = passes.iter().map(failed).sum();
    let ratio = passes.iter().map(error_ratio).fold(0.0, f64::max);
    println!("error_ratio: {ratio}");
    let correct = failed == 0;
    println!(
        "{}",
        result_line(correct, attempted.max(1), failed, &metrics)?
    );
    Ok(if correct { 0 } else { 1 })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            exit(2);
        }
    };
    match run(&args) {
        Ok(code) => exit(code),
        Err(e) => {
            eprintln!("perfbench: {e}");
            exit(1);
        }
    }
}
