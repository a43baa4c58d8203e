//! Offline stand-in for the [`criterion`] benchmark harness.
//!
//! Provides the subset of criterion's API this workspace's benches use
//! — groups, `bench_function`/`bench_with_input`, `iter`/`iter_batched`,
//! throughput annotation — with a simple wall-clock measurement loop,
//! and serializes every result as JSON under `target/criterion-json/`
//! (one file per bench executable) so tooling can post-process runs
//! without scraping stdout.
//!
//! One addition has no criterion counterpart:
//! [`BenchmarkGroup::bench_pair`] times two routines in alternating
//! short windows and reports the median of the per-pair ratios, for
//! gates on a ratio that separate windows would leave at the mercy of
//! host noise.
//!
//! Tuning knobs (environment variables):
//!
//! * `CRITERION_WARMUP_MS` — warm-up per benchmark (default 60 ms);
//! * `CRITERION_MEASURE_MS` — measurement per benchmark (default 300 ms);
//! * `CRITERION_JSON_DIR` — output directory for the JSON report
//!   (default `target/criterion-json`, resolved against the working
//!   directory `cargo bench` uses, i.e. the workspace root).
//!
//! [`criterion`]: https://docs.rs/criterion

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Process-wide collected results, drained by [`finalize`].
static RESULTS: Mutex<Vec<BenchRecord>> = Mutex::new(Vec::new());

/// Process-wide paired ratios from [`BenchmarkGroup::bench_pair`],
/// drained by [`finalize`].
static PAIRS: Mutex<Vec<PairRecord>> = Mutex::new(Vec::new());

/// Windows per side in [`BenchmarkGroup::bench_pair`]: each side's
/// measurement time splits into this many, so the median and quartiles
/// of the per-pair ratios rest on this many pairs.
const PAIR_WINDOWS: u32 = 32;

/// The per-pair ratios of one [`BenchmarkGroup::bench_pair`] run.
#[derive(Debug, Clone)]
struct PairRecord {
    /// `group/a / group/b`.
    id: String,
    median: f64,
    iqr: f64,
    pairs: usize,
}

/// One measured benchmark.
#[derive(Debug, Clone)]
struct BenchRecord {
    group: String,
    bench: String,
    ns_per_iter: f64,
    iterations: u64,
    throughput: Option<Throughput>,
}

/// Units of work per iteration, for derived rates in reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throughput {
    /// Logical elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// Input-size hint for [`Bencher::iter_batched`]; measurement here is
/// per-invocation either way, so the variants only document intent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small inputs: many batches fit in memory.
    SmallInput,
    /// Large inputs: few batches fit in memory.
    LargeInput,
    /// One input per iteration.
    PerIteration,
}

/// Identifies a benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// A compound id `name/parameter`.
    pub fn new(name: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        Self {
            id: format!("{}/{}", name.into(), parameter),
        }
    }

    /// An id that is just the parameter's display form.
    pub fn from_parameter(parameter: impl std::fmt::Display) -> Self {
        Self {
            id: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        Self { id: s.to_string() }
    }
}

impl From<String> for BenchmarkId {
    fn from(id: String) -> Self {
        Self { id }
    }
}

fn env_ms(var: &str, default_ms: u64) -> Duration {
    Duration::from_millis(
        std::env::var(var)
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(default_ms),
    )
}

/// The harness entry point; [`criterion_group!`] passes one to each
/// registered bench function.
#[derive(Debug, Clone)]
pub struct Criterion {
    warmup: Duration,
    measure: Duration,
}

impl Default for Criterion {
    fn default() -> Self {
        Self {
            warmup: env_ms("CRITERION_WARMUP_MS", 60),
            measure: env_ms("CRITERION_MEASURE_MS", 300),
        }
    }
}

impl Criterion {
    /// Starts a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            warmup: self.warmup,
            measure: self.measure,
            throughput: None,
            _criterion: self,
        }
    }
}

/// A named collection of benchmarks sharing throughput settings.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    name: String,
    warmup: Duration,
    measure: Duration,
    throughput: Option<Throughput>,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets the per-iteration throughput for subsequent benchmarks.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Accepted for API compatibility; sampling here is time-based.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Overrides the measurement time for this group.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.measure = d;
        self
    }

    /// Overrides the warm-up time for this group.
    pub fn warm_up_time(&mut self, d: Duration) -> &mut Self {
        self.warmup = d;
        self
    }

    /// Measures `f` under the given id.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let mut bencher = Bencher {
            warmup: self.warmup,
            measure: self.measure,
            sample: None,
        };
        f(&mut bencher);
        self.record(id, bencher.sample);
        self
    }

    /// Measures `f` with a borrowed input under the given id.
    pub fn bench_with_input<I, F>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let id = id.into();
        let mut bencher = Bencher {
            warmup: self.warmup,
            measure: self.measure,
            sample: None,
        };
        f(&mut bencher, input);
        self.record(id, bencher.sample);
        self
    }

    /// Measures `a` against `b` in alternating windows (A, B, A, B, …),
    /// 32 of each, and records each under its id plus the
    /// median and interquartile range of the per-pair ratios
    /// `ns_per_iter(a) / ns_per_iter(b)`. A slow drift of the host's
    /// speed moves both windows of a pair alike, so the paired median
    /// holds still where two back-to-back measurements do not.
    pub fn bench_pair<OA, OB, FA, FB>(
        &mut self,
        a: &str,
        mut fa: FA,
        b: &str,
        mut fb: FB,
    ) -> &mut Self
    where
        FA: FnMut() -> OA,
        FB: FnMut() -> OB,
    {
        let (batch_a, batch_b) = (
            calibrate(self.warmup, &mut fa),
            calibrate(self.warmup, &mut fb),
        );
        let window = self.measure / PAIR_WINDOWS;
        let (mut sum_a, mut sum_b) = ((Duration::ZERO, 0), (Duration::ZERO, 0));
        let mut ratios = Vec::with_capacity(PAIR_WINDOWS as usize);
        for _ in 0..PAIR_WINDOWS {
            let (ta, na) = timed(window, batch_a, &mut fa);
            let (tb, nb) = timed(window, batch_b, &mut fb);
            ratios.push(per_iter_ns(ta, na) / per_iter_ns(tb, nb));
            sum_a = (sum_a.0 + ta, sum_a.1 + na);
            sum_b = (sum_b.0 + tb, sum_b.1 + nb);
        }
        self.record(a.into(), Some(sum_a));
        self.record(b.into(), Some(sum_b));
        let (q1, median, q3) = quartiles(&mut ratios);
        let pair = PairRecord {
            id: format!("{0}/{a} / {0}/{b}", self.name),
            median,
            iqr: q3 - q1,
            pairs: ratios.len(),
        };
        eprintln!(
            "pair {}: median ratio {:.4}, IQR {:.4} over {} pairs",
            pair.id, pair.median, pair.iqr, pair.pairs
        );
        PAIRS.lock().unwrap_or_else(|e| e.into_inner()).push(pair);
        self
    }

    fn record(&self, id: BenchmarkId, sample: Option<(Duration, u64)>) {
        let Some((total, iters)) = sample else {
            return; // The closure never called iter(); nothing to report.
        };
        let ns_per_iter = per_iter_ns(total, iters);
        let record = BenchRecord {
            group: self.name.clone(),
            bench: id.id,
            ns_per_iter,
            iterations: iters,
            throughput: self.throughput,
        };
        eprintln!(
            "bench {}/{}: {} ({} iters)",
            record.group,
            record.bench,
            human_time(ns_per_iter),
            iters
        );
        RESULTS
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(record);
    }

    /// Ends the group (results are recorded eagerly; this is a no-op
    /// kept for API compatibility).
    pub fn finish(self) {}
}

/// Runs and times one benchmark's iterations.
#[derive(Debug)]
pub struct Bencher {
    warmup: Duration,
    measure: Duration,
    sample: Option<(Duration, u64)>,
}

impl Bencher {
    /// Times repeated calls of `f` after a warm-up period.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        let batch = calibrate(self.warmup, &mut f);
        self.sample = Some(timed(self.measure, batch, &mut f));
    }

    /// Times `routine` on fresh inputs from `setup`; only the routine is
    /// on the clock.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        // One warm-up invocation primes caches and the allocator.
        black_box(routine(setup()));
        let mut total = Duration::ZERO;
        let mut iters = 0u64;
        while total < self.measure {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            total += start.elapsed();
            iters += 1;
        }
        self.sample = Some((total, iters));
    }
}

/// Warms `f` up for `warmup` and returns how many calls make one timed
/// slice of ≳200µs, amortizing the clock reads for nanosecond-scale
/// routines.
fn calibrate<O>(warmup: Duration, f: &mut impl FnMut() -> O) -> u64 {
    let warm_start = Instant::now();
    let mut warm_iters = 0u64;
    loop {
        black_box(f());
        warm_iters += 1;
        if warm_start.elapsed() >= warmup {
            break;
        }
    }
    let est = warm_start.elapsed().as_nanos() as u64 / warm_iters.max(1);
    (200_000 / est.max(1)).clamp(1, 1 << 20)
}

/// Runs slices of `batch` calls of `f` until `measure` is on the clock;
/// returns the time on the clock and the calls made.
fn timed<O>(measure: Duration, batch: u64, f: &mut impl FnMut() -> O) -> (Duration, u64) {
    let mut total = Duration::ZERO;
    let mut iters = 0u64;
    while total < measure {
        let start = Instant::now();
        for _ in 0..batch {
            black_box(f());
        }
        total += start.elapsed();
        iters += batch;
    }
    (total, iters)
}

fn per_iter_ns(total: Duration, iters: u64) -> f64 {
    total.as_nanos() as f64 / iters.max(1) as f64
}

/// The first quartile, median and third quartile of `values`, linearly
/// interpolated between order statistics. Sorts `values` in place.
fn quartiles(values: &mut [f64]) -> (f64, f64, f64) {
    values.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let pos = q * (values.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
    };
    (at(0.25), at(0.5), at(0.75))
}

fn human_time(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns/iter")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs/iter", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms/iter", ns / 1_000_000.0)
    } else {
        format!("{:.3} s/iter", ns / 1_000_000_000.0)
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// The bench executable's base name, with cargo's `-<hash>` suffix
/// stripped, used as the JSON report's file stem.
fn exe_stem() -> String {
    let stem = std::env::current_exe()
        .ok()
        .and_then(|p| p.file_stem().map(|s| s.to_string_lossy().into_owned()))
        .unwrap_or_else(|| "bench".to_string());
    match stem.rsplit_once('-') {
        Some((base, hash)) if hash.len() == 16 && hash.bytes().all(|b| b.is_ascii_hexdigit()) => {
            base.to_string()
        }
        _ => stem,
    }
}

/// Writes all collected results as JSON and prints a closing summary.
/// Called automatically by [`criterion_main!`].
pub fn finalize() {
    let records = std::mem::take(&mut *RESULTS.lock().unwrap_or_else(|e| e.into_inner()));
    let pairs = std::mem::take(&mut *PAIRS.lock().unwrap_or_else(|e| e.into_inner()));
    if records.is_empty() {
        return;
    }
    let stem = exe_stem();
    let mut rows: Vec<String> = records
        .iter()
        .map(|r| {
            let throughput = match r.throughput {
                Some(Throughput::Elements(n)) => format!(
                    ", \"elements\": {n}, \"elements_per_sec\": {:.1}",
                    n as f64 / (r.ns_per_iter / 1e9)
                ),
                Some(Throughput::Bytes(n)) => format!(
                    ", \"bytes\": {n}, \"bytes_per_sec\": {:.1}",
                    n as f64 / (r.ns_per_iter / 1e9)
                ),
                None => String::new(),
            };
            format!(
                "    {{\"group\": \"{}\", \"bench\": \"{}\", \"ns_per_iter\": {:.2}, \
                 \"iterations\": {}{}}}",
                json_escape(&r.group),
                json_escape(&r.bench),
                r.ns_per_iter,
                r.iterations,
                throughput,
            )
        })
        .collect();
    rows.extend(pairs.iter().map(|p| {
        format!(
            "    {{\"pair\": \"{}\", \"ratio_median\": {:.4}, \"ratio_iqr\": {:.4}, \
             \"pairs\": {}}}",
            json_escape(&p.id),
            p.median,
            p.iqr,
            p.pairs,
        )
    }));
    let json = format!(
        "{{\n  \"bench\": \"{}\",\n  \"results\": [\n{}\n  ]\n}}\n",
        json_escape(&stem),
        rows.join(",\n")
    );
    let dir =
        std::env::var("CRITERION_JSON_DIR").unwrap_or_else(|_| "target/criterion-json".to_string());
    let path = std::path::Path::new(&dir).join(format!("{stem}.json"));
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, &json)) {
        Ok(()) => eprintln!(
            "criterion-shim: wrote {} results to {}",
            records.len(),
            path.display()
        ),
        Err(e) => eprintln!("criterion-shim: could not write {}: {e}", path.display()),
    }
}

/// Registers bench functions under a group runner, mirroring criterion.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Emits `main`, running every group then writing the JSON report.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
            $crate::finalize();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_criterion() -> Criterion {
        Criterion {
            warmup: Duration::from_millis(1),
            measure: Duration::from_millis(5),
        }
    }

    #[test]
    fn iter_records_a_sample() {
        let mut c = fast_criterion();
        let mut group = c.benchmark_group("shim_self_test");
        group.throughput(Throughput::Elements(1));
        group.bench_function("noop", |b| b.iter(|| black_box(2u64 + 2)));
        group.finish();
        let results = RESULTS.lock().unwrap_or_else(|e| e.into_inner());
        let r = results
            .iter()
            .find(|r| r.group == "shim_self_test" && r.bench == "noop")
            .expect("recorded");
        assert!(r.iterations > 0);
        assert!(r.ns_per_iter >= 0.0);
    }

    #[test]
    fn iter_batched_keeps_setup_off_the_clock() {
        let mut c = fast_criterion();
        let mut group = c.benchmark_group("shim_self_test_batched");
        group.bench_function("sum", |b| {
            b.iter_batched(
                || vec![1u64; 64],
                |v| v.iter().sum::<u64>(),
                BatchSize::SmallInput,
            )
        });
        group.finish();
        let results = RESULTS.lock().unwrap_or_else(|e| e.into_inner());
        assert!(results.iter().any(|r| r.group == "shim_self_test_batched"));
    }

    #[test]
    fn bench_pair_records_both_sides_and_the_ratio() {
        let mut c = fast_criterion();
        let mut group = c.benchmark_group("shim_self_test_pair");
        group.bench_pair(
            "slow",
            || (0..64u64).map(black_box).sum::<u64>(),
            "fast",
            || black_box(1u64),
        );
        group.finish();
        let results = RESULTS.lock().unwrap_or_else(|e| e.into_inner());
        for side in ["slow", "fast"] {
            assert!(results
                .iter()
                .any(|r| r.group == "shim_self_test_pair" && r.bench == side));
        }
        let pairs = PAIRS.lock().unwrap_or_else(|e| e.into_inner());
        let p = pairs
            .iter()
            .find(|p| p.id == "shim_self_test_pair/slow / shim_self_test_pair/fast")
            .expect("pair recorded");
        assert_eq!(p.pairs, PAIR_WINDOWS as usize);
        assert!(p.median > 1.0, "median {}", p.median);
        assert!(p.iqr >= 0.0);
    }

    #[test]
    fn quartiles_interpolate() {
        assert_eq!(quartiles(&mut [3.0, 1.0, 2.0, 5.0, 4.0]), (2.0, 3.0, 4.0));
        assert_eq!(quartiles(&mut [2.0, 1.0]), (1.25, 1.5, 1.75));
        assert_eq!(quartiles(&mut [7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn benchmark_id_forms() {
        assert_eq!(BenchmarkId::new("fold", 8).id, "fold/8");
        assert_eq!(BenchmarkId::from_parameter("x").id, "x");
        assert_eq!(BenchmarkId::from("plain").id, "plain");
    }

    #[test]
    fn json_escaping_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\n"), "a\\\"b\\\\c\\u000a");
    }

    #[test]
    fn exe_stem_strips_cargo_hash() {
        // Indirect check through the helper's suffix rule.
        assert_eq!(
            match "remap-0123456789abcdef".rsplit_once('-') {
                Some((base, h)) if h.len() == 16 && h.bytes().all(|b| b.is_ascii_hexdigit()) =>
                    base.to_string(),
                _ => "remap-0123456789abcdef".to_string(),
            },
            "remap"
        );
    }
}
