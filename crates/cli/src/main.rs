//! The `scaddar` operator console: a stdin loop over
//! [`scaddar_cli::Session`], plus the networked subcommands
//! (`serve` boots a `scaddard` daemon, `connect` drives one remotely).
//!
//! Exit status: `health` (local or remote) and `serve --check` map the
//! monitor verdict to the exit code (`OK`=0, `WARN`=1, `CRIT`=2), so
//! scripts piping commands into the console can gate on the result.

use scaddar_cli::fleet;
use scaddar_cli::profile;
use scaddar_cli::remote;
use scaddar_cli::Session;
use std::io::{self, BufRead, Write};

const USAGE: &str = "\
usage: scaddar-console [subcommand]
  (none)                      interactive local console
  serve [options]             boot a scaddard network daemon
  serve --shard ID [options]  boot one cluster shard (jump-hash routed)
  serve --check               boot, health-check, exit 0/1/2 by verdict
  connect <addr> [command]    drive a remote daemon (one-shot or interactive)
  cluster-status <addr>       fetch the cluster map, federated status of every shard
  top <addr> [--interval MS] [--frames N]
                              live fleet dashboard (rps/p99/epoch/health + SLO burn)
  profile <addr> [--seconds N] [--folded]
                              dump the daemon's cooperative profiler (folded = flamegraph input)";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.split_first() {
        None => interactive(),
        Some((cmd, rest)) => match cmd.as_str() {
            "serve" => remote::run_serve(rest),
            "connect" => remote::run_connect(rest),
            "cluster-status" => remote::run_cluster_status(rest),
            "top" => fleet::run_top(rest),
            "profile" => profile::run_profile(rest),
            "--help" | "-h" | "help" => {
                println!("{USAGE}");
                0
            }
            other => {
                eprintln!("unknown subcommand `{other}`\n{USAGE}");
                2
            }
        },
    };
    std::process::exit(code);
}

/// The local stdin loop. The exit code reflects the most recent
/// `health` command's verdict (0 if none was run).
fn interactive() -> i32 {
    let stdin = io::stdin();
    let mut stdout = io::stdout();
    let mut session = Session::new();
    let mut health_code = 0;
    println!("SCADDAR operator console — `help` for commands, ctrl-d to exit");
    loop {
        print!("scaddar> ");
        stdout.flush().expect("stdout flush");
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
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
        let is_health = line.split_whitespace().next() == Some("health");
        match session.execute(line) {
            Ok(out) => {
                if is_health {
                    health_code = session
                        .health_verdict()
                        .map_or(0, remote::verdict_exit_code);
                }
                if !out.is_empty() {
                    println!("{out}");
                }
            }
            Err(e) => println!("error: {e}"),
        }
    }
    health_code
}
