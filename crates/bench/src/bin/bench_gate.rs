//! Checks every row of the bench gate table
//! ([`scaddar_bench::gate::GATES`]) against the criterion-shim JSON
//! the benches and `scaddard-load` wrote, prints one verdict line per
//! row, and exits nonzero if any row fails. A row whose input is
//! missing fails too.
//!
//! Reads every `*.json` file in `CRITERION_JSON_DIR` (default
//! `target/criterion-json`), the directory the criterion shim writes
//! to. Cargo runs benches from the package directory, so point both at
//! one absolute path:
//!
//! ```text
//! export CRITERION_JSON_DIR=$PWD/target/criterion-json
//! cargo bench -p scaddar-bench --bench obs --bench monitor --bench remap --bench server
//! cargo run --release -p scaddar-net --bin scaddard-load -- --mode both
//! cargo run -p scaddar-bench --bin bench_gate
//! ```

use scaddar_bench::gate::{parse_results, GATES};
use std::collections::BTreeMap;

fn main() {
    let dir =
        std::env::var("CRITERION_JSON_DIR").unwrap_or_else(|_| "target/criterion-json".into());
    let mut results = BTreeMap::new();
    let entries = std::fs::read_dir(&dir).unwrap_or_else(|e| {
        eprintln!("bench_gate: cannot read {dir}: {e}");
        std::process::exit(1);
    });
    for path in entries.filter_map(|e| e.ok().map(|e| e.path())) {
        if path.extension().is_some_and(|x| x == "json") {
            let json = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
            results.extend(parse_results(&json));
        }
    }
    println!("bench_gate: {} measurement(s) from {dir}", results.len());

    let mut failed = 0;
    for gate in GATES {
        match gate.check(&results) {
            Ok(v) => println!(
                "ok   {} = {v:.4} {} {}",
                gate.id(),
                gate.cmp.symbol(),
                gate.bound
            ),
            Err(why) => {
                failed += 1;
                println!("FAIL {}: {why} ({})", gate.id(), gate.reason);
            }
        }
    }
    if failed > 0 {
        eprintln!("bench_gate: {failed} of {} row(s) failed", GATES.len());
        std::process::exit(1);
    }
    println!("bench_gate: all {} row(s) hold", GATES.len());
}
