//! The metric registry: names → live metric handles, rendered on
//! demand.
//!
//! A [`Registry`] is a cheaply clonable handle to a shared name table.
//! There is deliberately no global: each composition root (a CLI
//! session, a simulated server, a bench fixture) creates its own and
//! threads it to the subsystems it observes. Registration takes a short
//! lock; *recording* through the returned handles never does.
//!
//! Naming scheme (documented in `DESIGN.md` §9): `snake_case`,
//! `<crate>_<subsystem>_<what>[_<unit>]`, e.g.
//! `scaddar_core_locate_ns`, `cmsim_server_backlog`. A name may carry a
//! fixed Prometheus label set inline (`cmsim_disk_queue_depth{disk="3"}`);
//! the text before `{` is the metric family.

use crate::metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// Name of the marker gauge carrying the histogram bucket-layout
/// fingerprint (see [`Registry::mark_bucket_layout`] /
/// [`Registry::absorb_checked`]).
pub const BUCKET_LAYOUT_GAUGE: &str = "obs_bucket_layout";

/// An owned sample of one registered metric, for read-side consumers
/// (the health monitor, report tooling) that poll values generically
/// instead of holding typed handles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// Current counter total.
    Counter(u64),
    /// Current gauge level.
    Gauge(i64),
    /// Consistent histogram snapshot (boxed: the bucket array dwarfs
    /// the scalar variants).
    Histogram(Box<HistogramSnapshot>),
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

#[derive(Debug)]
struct Entry {
    help: String,
    metric: Metric,
}

/// A global-free registry of named metrics.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    entries: Arc<Mutex<BTreeMap<String, Entry>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn get_or_insert<T, F, G>(&self, name: &str, help: &str, extract: F, create: G) -> T
    where
        F: Fn(&Metric) -> Option<T>,
        G: FnOnce() -> (T, Metric),
    {
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(entry) = entries.get(name) {
            return extract(&entry.metric).unwrap_or_else(|| {
                panic!(
                    "metric `{name}` already registered as a {}",
                    entry.metric.kind()
                )
            });
        }
        let (handle, metric) = create();
        entries.insert(
            name.to_string(),
            Entry {
                help: help.to_string(),
                metric,
            },
        );
        handle
    }

    /// The counter named `name`, created on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.get_or_insert(
            name,
            help,
            |m| match m {
                Metric::Counter(c) => Some(c.clone()),
                _ => None,
            },
            || {
                let c = Counter::new();
                (c.clone(), Metric::Counter(c))
            },
        )
    }

    /// The gauge named `name`, created on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.get_or_insert(
            name,
            help,
            |m| match m {
                Metric::Gauge(g) => Some(g.clone()),
                _ => None,
            },
            || {
                let g = Gauge::new();
                (g.clone(), Metric::Gauge(g))
            },
        )
    }

    /// The histogram named `name`, created on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str, help: &str) -> Histogram {
        self.get_or_insert(
            name,
            help,
            |m| match m {
                Metric::Histogram(h) => Some(h.clone()),
                _ => None,
            },
            || {
                let h = Histogram::new();
                (h.clone(), Metric::Histogram(h))
            },
        )
    }

    /// Registered metric names, sorted.
    pub fn names(&self) -> Vec<String> {
        let entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        entries.keys().cloned().collect()
    }

    /// Reads the current value of the metric named `name`, if
    /// registered. The registry's generic read API: recording goes
    /// through typed handles, but monitors and report tooling can poll
    /// any metric by name without knowing its kind up front.
    pub fn value(&self, name: &str) -> Option<MetricValue> {
        let entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        entries.get(name).map(|entry| match &entry.metric {
            Metric::Counter(c) => MetricValue::Counter(c.get()),
            Metric::Gauge(g) => MetricValue::Gauge(g.get()),
            Metric::Histogram(h) => MetricValue::Histogram(Box::new(h.snapshot())),
        })
    }

    /// Current values of every *gauge* whose name starts with `prefix`,
    /// in name order. The natural reader for inline-labeled families
    /// (`cmsim_disk_load_blocks{disk="3"}`): pass the family name and
    /// get every labeled series back.
    pub fn gauges_with_prefix(&self, prefix: &str) -> Vec<(String, i64)> {
        let entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        entries
            .range(prefix.to_string()..)
            .take_while(|(name, _)| name.starts_with(prefix))
            .filter_map(|(name, entry)| match &entry.metric {
                Metric::Gauge(g) => Some((name.clone(), g.get())),
                _ => None,
            })
            .collect()
    }

    /// An owned, structured copy of every registered metric — the unit
    /// of metrics federation. A shard serializes this over the wire
    /// (`ScrapeStats`/`StatsReply` in `scaddar-net`); the fleet
    /// aggregator folds many of them back into one registry with
    /// [`Registry::absorb`]. Entries are in name order; histograms are
    /// full bucket snapshots so merges stay bucket-wise.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        let mut snap = RegistrySnapshot::default();
        for (name, entry) in entries.iter() {
            match &entry.metric {
                Metric::Counter(c) => snap.counters.push(CounterSample {
                    name: name.clone(),
                    help: entry.help.clone(),
                    value: c.get(),
                }),
                Metric::Gauge(g) => snap.gauges.push(GaugeSample {
                    name: name.clone(),
                    help: entry.help.clone(),
                    value: g.get(),
                }),
                Metric::Histogram(h) => snap.histograms.push(HistogramSample {
                    name: name.clone(),
                    help: entry.help.clone(),
                    snapshot: h.snapshot(),
                }),
            }
        }
        snap
    }

    /// Folds a snapshot into this registry: counters and gauges *add*
    /// (a fleet total is the sum of shard values), histograms merge
    /// bucket-wise. Names absent here are registered with the
    /// snapshot's help text.
    ///
    /// # Panics
    /// If a snapshot name is already registered as a different kind.
    pub fn absorb(&self, snap: &RegistrySnapshot) {
        for c in &snap.counters {
            self.counter(&c.name, &c.help).add(c.value);
        }
        for g in &snap.gauges {
            self.gauge(&g.name, &g.help).add(g.value);
        }
        for h in &snap.histograms {
            self.histogram(&h.name, &h.help).merge_from(&h.snapshot);
        }
    }

    /// Registers and sets the [`BUCKET_LAYOUT_GAUGE`] marker: the
    /// histogram bucket-grid fingerprint
    /// ([`bucket_layout`](crate::metrics::bucket_layout)) that lets a
    /// federating peer verify bucket-wise histogram merges are sound.
    /// Every process that serves its snapshot over the wire should
    /// call this once at registry setup.
    pub fn mark_bucket_layout(&self) {
        self.gauge(
            BUCKET_LAYOUT_GAUGE,
            "Histogram bucket-layout fingerprint (merge compatibility marker)",
        )
        .set(crate::metrics::bucket_layout() as i64);
    }

    /// [`Registry::absorb`] with the histogram merge guarded by the
    /// peer's [`BUCKET_LAYOUT_GAUGE`] marker. Counters and gauges
    /// always fold in (they are layout-independent; the marker gauge
    /// itself is excluded so fleet totals don't sum fingerprints), but
    /// histogram series merge bucket-wise only when the snapshot
    /// declares *our* bucket layout. A missing or mismatched marker —
    /// a shard running an older obs build — skips every histogram
    /// series in that snapshot rather than silently misattributing
    /// counts to wrong boundaries. Returns the number of skipped
    /// histogram series (feed it to `fleet_merge_skipped_total`).
    ///
    /// # Panics
    /// If a snapshot name is already registered as a different kind.
    pub fn absorb_checked(&self, snap: &RegistrySnapshot) -> u64 {
        let layout_ok =
            snap.gauge_value(BUCKET_LAYOUT_GAUGE) == Some(crate::metrics::bucket_layout() as i64);
        for c in &snap.counters {
            self.counter(&c.name, &c.help).add(c.value);
        }
        for g in &snap.gauges {
            if g.name != BUCKET_LAYOUT_GAUGE {
                self.gauge(&g.name, &g.help).add(g.value);
            }
        }
        if layout_ok {
            for h in &snap.histograms {
                self.histogram(&h.name, &h.help).merge_from(&h.snapshot);
            }
            0
        } else {
            snap.histograms.len() as u64
        }
    }

    /// Renders the Prometheus text exposition format (v0.0.4): `# HELP`
    /// and `# TYPE` per family, one sample line per counter/gauge, and
    /// the `_bucket`/`_sum`/`_count` triplet per histogram.
    pub fn render_prometheus(&self) -> String {
        let entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = String::new();
        let mut last_family = String::new();
        for (name, entry) in entries.iter() {
            let family = name.split('{').next().unwrap_or(name);
            if family != last_family {
                let _ = writeln!(out, "# HELP {family} {}", entry.help);
                let _ = writeln!(out, "# TYPE {family} {}", entry.metric.kind());
                last_family = family.to_string();
            }
            match &entry.metric {
                Metric::Counter(c) => {
                    let _ = writeln!(out, "{name} {}", c.get());
                }
                Metric::Gauge(g) => {
                    let _ = writeln!(out, "{name} {}", g.get());
                }
                Metric::Histogram(h) => {
                    let snap = h.snapshot();
                    for (le, cum) in snap.cumulative_buckets() {
                        let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cum}");
                    }
                    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", snap.count);
                    let _ = writeln!(out, "{name}_sum {}", snap.sum);
                    let _ = writeln!(out, "{name}_count {}", snap.count);
                }
            }
        }
        out
    }

    /// Renders a JSON snapshot: three sorted arrays (`counters`,
    /// `gauges`, `histograms`), histograms with count/sum/max and
    /// estimated p50/p95/p99/p999 (`null` while empty). Metric names are
    /// JSON-escaped (inline-labeled names carry `"` characters).
    /// Hand-written, no serde; [`parse_json_values`] /
    /// [`try_parse_json_values`] are the matching hand parsers.
    pub fn snapshot_json(&self) -> String {
        let entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        let (mut counters, mut gauges, mut histograms) =
            (String::new(), String::new(), String::new());
        for (name, entry) in entries.iter() {
            let name = json_escape(name);
            match &entry.metric {
                Metric::Counter(c) => {
                    append_item(
                        &mut counters,
                        format!("{{\"name\": \"{name}\", \"value\": {}}}", c.get()),
                    );
                }
                Metric::Gauge(g) => {
                    append_item(
                        &mut gauges,
                        format!("{{\"name\": \"{name}\", \"value\": {}}}", g.get()),
                    );
                }
                Metric::Histogram(h) => {
                    let snap = h.snapshot();
                    let q = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
                    append_item(
                        &mut histograms,
                        format!(
                            "{{\"name\": \"{name}\", \"count\": {}, \"sum\": {}, \"max\": {}, \
                             \"p50\": {}, \"p95\": {}, \"p99\": {}, \"p999\": {}}}",
                            snap.count,
                            snap.sum,
                            q((snap.count > 0).then_some(snap.max)),
                            q(snap.quantile(0.50)),
                            q(snap.quantile(0.95)),
                            q(snap.quantile(0.99)),
                            q(snap.quantile(0.999)),
                        ),
                    );
                }
            }
        }
        format!(
            "{{\n  \"counters\": [\n{counters}\n  ],\n  \"gauges\": [\n{gauges}\n  ],\n  \"histograms\": [\n{histograms}\n  ]\n}}\n"
        )
    }
}

/// One counter in a [`RegistrySnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSample {
    /// Metric name (may carry inline labels).
    pub name: String,
    /// Help text as registered.
    pub help: String,
    /// Counter total at snapshot time.
    pub value: u64,
}

/// One gauge in a [`RegistrySnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GaugeSample {
    /// Metric name (may carry inline labels).
    pub name: String,
    /// Help text as registered.
    pub help: String,
    /// Gauge level at snapshot time.
    pub value: i64,
}

/// One histogram in a [`RegistrySnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSample {
    /// Metric name (may carry inline labels).
    pub name: String,
    /// Help text as registered.
    pub help: String,
    /// Full bucket snapshot — the mergeable representation.
    pub snapshot: HistogramSnapshot,
}

/// A structured point-in-time copy of a whole [`Registry`], in name
/// order per kind. Built by [`Registry::snapshot`], shipped over the
/// wire by the stats-scrape frames, folded back by
/// [`Registry::absorb`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RegistrySnapshot {
    /// Counter samples, name-sorted.
    pub counters: Vec<CounterSample>,
    /// Gauge samples, name-sorted.
    pub gauges: Vec<GaugeSample>,
    /// Histogram samples, name-sorted.
    pub histograms: Vec<HistogramSample>,
}

impl RegistrySnapshot {
    /// Total number of samples across all kinds.
    pub fn len(&self) -> usize {
        self.counters.len() + self.gauges.len() + self.histograms.len()
    }

    /// Whether the snapshot carries no samples at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The counter named `name`, if present.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// The gauge named `name`, if present.
    pub fn gauge_value(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// The histogram named `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|h| h.name == name)
            .map(|h| &h.snapshot)
    }
}

/// Escapes a string for embedding inside a JSON string literal
/// (backslash, quote, and control characters).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn append_item(list: &mut String, item: String) {
    if !list.is_empty() {
        list.push_str(",\n");
    }
    list.push_str("    ");
    list.push_str(&item);
}

/// Why [`try_parse_json_values`] rejected its input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The document ended inside an object or string literal — the
    /// classic truncated-snapshot-line failure a crashed writer leaves
    /// behind.
    Truncated {
        /// Byte offset of the unterminated object/string opener.
        offset: usize,
    },
    /// A field carried a bare token that is neither a number, `null`,
    /// `true`/`false`, nor a string.
    MalformedValue {
        /// The `"name"` of the enclosing object, if one was seen.
        name: String,
        /// The field key.
        field: String,
        /// The offending raw token.
        value: String,
    },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Truncated { offset } => {
                write!(
                    f,
                    "truncated JSON: unterminated object/string at byte {offset}"
                )
            }
            ParseError::MalformedValue { name, field, value } => {
                write!(f, "malformed value for `{name}.{field}`: `{value}`")
            }
        }
    }
}

impl std::error::Error for ParseError {}

/// Hand parser for the [`Registry::snapshot_json`] format (and any flat
/// JSON of objects with string `"name"`s and numeric/null fields):
/// returns `(name, field, value)` triples in document order. `null` and
/// string-valued fields are skipped. Used by tests and tooling to
/// round-trip the snapshot without serde.
///
/// This is the *lenient* entry point: malformed fields are dropped and
/// a truncated document yields whatever parsed cleanly before the cut.
/// Use [`try_parse_json_values`] when corruption must surface as an
/// error instead of silently missing data.
pub fn parse_json_values(json: &str) -> Vec<(String, String, f64)> {
    scan_json_values(json, false).expect("lenient scan never errors")
}

/// Strict variant of [`parse_json_values`]: returns
/// [`ParseError::Truncated`] when the document ends mid-object or
/// mid-string (e.g. a snapshot line cut by a crashed writer) and
/// [`ParseError::MalformedValue`] for an unparsable field token.
pub fn try_parse_json_values(json: &str) -> Result<Vec<(String, String, f64)>, ParseError> {
    scan_json_values(json, true)
}

/// Quote-aware scan shared by the lenient and strict parsers. Collects
/// every *innermost* `{...}` object (the metric items; enclosing
/// containers are skipped because they still contain brace characters
/// after their children are excised — detected via `child_spans`).
fn scan_json_values(json: &str, strict: bool) -> Result<Vec<(String, String, f64)>, ParseError> {
    let mut out = Vec::new();
    let bytes = json.as_bytes();
    let mut open_stack: Vec<(usize, bool)> = Vec::new(); // (offset, saw_child)
    let mut in_string = false;
    let mut escaped = false;
    let mut string_start = 0usize;
    let mut i = 0usize;
    while i < bytes.len() {
        let b = bytes[i];
        if in_string {
            if escaped {
                escaped = false;
            } else if b == b'\\' {
                escaped = true;
            } else if b == b'"' {
                in_string = false;
            }
        } else {
            match b {
                b'"' => {
                    in_string = true;
                    string_start = i;
                }
                b'{' => {
                    if let Some(top) = open_stack.last_mut() {
                        top.1 = true; // the enclosing object has children
                    }
                    open_stack.push((i, false));
                }
                b'}' => {
                    if let Some((start, saw_child)) = open_stack.pop() {
                        if !saw_child {
                            parse_flat_object(&json[start + 1..i], strict, &mut out)?;
                        }
                    }
                }
                _ => {}
            }
        }
        i += 1;
    }
    if strict {
        if in_string {
            return Err(ParseError::Truncated {
                offset: string_start,
            });
        }
        if let Some(&(offset, _)) = open_stack.first() {
            return Err(ParseError::Truncated { offset });
        }
    }
    Ok(out)
}

/// Parses one brace-free object body: fields split on unquoted commas,
/// key/value on the first unquoted colon.
fn parse_flat_object(
    obj: &str,
    strict: bool,
    out: &mut Vec<(String, String, f64)>,
) -> Result<(), ParseError> {
    let mut name: Option<String> = None;
    let mut fields: Vec<(String, f64)> = Vec::new();
    for field in split_unquoted(obj, b',') {
        let mut kv = split_unquoted(field, b':');
        let (Some(key), Some(value)) = (kv.next(), kv.next()) else {
            continue;
        };
        let key = unquote(key.trim());
        let value = value.trim();
        if key == "name" {
            name = Some(unquote(value));
        } else if value.starts_with('"') {
            // String-valued field: not a metric sample; skipped.
        } else if value.starts_with('[') || value.starts_with(']') {
            // Structural array tokens (an objectless container, e.g. the
            // top level of an empty snapshot): not samples; skipped.
        } else if value == "null" || value == "true" || value == "false" {
            // Defined non-numeric tokens are skipped by contract.
        } else if let Ok(v) = value.parse::<f64>() {
            fields.push((key, v));
        } else if strict {
            return Err(ParseError::MalformedValue {
                name: name.clone().unwrap_or_default(),
                field: key,
                value: value.to_string(),
            });
        }
    }
    if let Some(name) = name {
        for (field, v) in fields {
            out.push((name.clone(), field, v));
        }
    }
    Ok(())
}

/// Splits `s` on `delim` occurring outside string literals.
fn split_unquoted(s: &str, delim: u8) -> impl Iterator<Item = &str> {
    let bytes = s.as_bytes();
    let mut pieces = Vec::new();
    let (mut start, mut in_string, mut escaped) = (0usize, false, false);
    for (i, &b) in bytes.iter().enumerate() {
        if in_string {
            if escaped {
                escaped = false;
            } else if b == b'\\' {
                escaped = true;
            } else if b == b'"' {
                in_string = false;
            }
        } else if b == b'"' {
            in_string = true;
        } else if b == delim {
            pieces.push(&s[start..i]);
            start = i + 1;
        }
    }
    pieces.push(&s[start..]);
    pieces.into_iter()
}

/// Strips one layer of quotes and undoes [`json_escape`].
fn unquote(s: &str) -> String {
    let inner = s
        .strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .unwrap_or(s);
    let mut out = String::with_capacity(inner.len());
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('t') => out.push('\t'),
            Some('u') => {
                let code: String = chars.by_ref().take(4).collect();
                if let Some(c) = u32::from_str_radix(&code, 16).ok().and_then(char::from_u32) {
                    out.push(c);
                }
            }
            Some(other) => out.push(other),
            None => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_registry() -> Registry {
        let r = Registry::new();
        r.counter("alpha_total", "first").add(3);
        r.gauge("beta", "second").set(-7);
        let h = r.histogram("gamma_ns", "third");
        h.record(5);
        h.record(100);
        r
    }

    #[test]
    fn handles_are_shared_by_name() {
        let r = Registry::new();
        let a = r.counter("x_total", "x");
        let b = r.counter("x_total", "x");
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
        assert_eq!(r.names(), vec!["x_total".to_string()]);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("x", "x");
        r.gauge("x", "x");
    }

    #[test]
    fn prometheus_rendering_is_valid_exposition() {
        let text = sample_registry().render_prometheus();
        assert!(text.contains("# HELP alpha_total first"));
        assert!(text.contains("# TYPE alpha_total counter"));
        assert!(text.contains("alpha_total 3"));
        assert!(text.contains("# TYPE beta gauge"));
        assert!(text.contains("beta -7"));
        assert!(text.contains("# TYPE gamma_ns histogram"));
        assert!(text.contains("gamma_ns_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("gamma_ns_sum 105"));
        assert!(text.contains("gamma_ns_count 2"));
        // Cumulative buckets never decrease and end at the count.
        let bucket_counts: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("gamma_ns_bucket"))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert!(bucket_counts.windows(2).all(|w| w[0] <= w[1]));
        // Every line is `# ...` or `name[{labels}] value`.
        for line in text.lines() {
            assert!(
                line.starts_with('#') || line.split(' ').count() == 2,
                "malformed exposition line: {line}"
            );
        }
    }

    #[test]
    fn labeled_names_share_one_family_header() {
        let r = Registry::new();
        r.gauge("disk_depth{disk=\"0\"}", "queue depth").set(4);
        r.gauge("disk_depth{disk=\"1\"}", "queue depth").set(9);
        let text = r.render_prometheus();
        assert_eq!(text.matches("# TYPE disk_depth gauge").count(), 1);
        assert!(text.contains("disk_depth{disk=\"0\"} 4"));
        assert!(text.contains("disk_depth{disk=\"1\"} 9"));
    }

    #[test]
    fn json_snapshot_round_trips_through_hand_parsing() {
        let r = sample_registry();
        let json = r.snapshot_json();
        let values = parse_json_values(&json);
        let get = |name: &str, field: &str| {
            values
                .iter()
                .find(|(n, f, _)| n == name && f == field)
                .map(|(_, _, v)| *v)
        };
        assert_eq!(get("alpha_total", "value"), Some(3.0));
        assert_eq!(get("beta", "value"), Some(-7.0));
        assert_eq!(get("gamma_ns", "count"), Some(2.0));
        assert_eq!(get("gamma_ns", "sum"), Some(105.0));
        assert_eq!(get("gamma_ns", "max"), Some(100.0));
        assert_eq!(get("gamma_ns", "p50"), Some(5.0), "exact sub-16 bucket");
        assert_eq!(get("gamma_ns", "p99"), Some(100.0));
        assert_eq!(get("gamma_ns", "p999"), Some(100.0));
    }

    #[test]
    fn empty_registry_snapshot_is_valid_and_parses_to_nothing() {
        let r = Registry::new();
        let json = r.snapshot_json();
        assert!(json.contains("\"counters\": ["));
        assert!(json.contains("\"gauges\": ["));
        assert!(json.contains("\"histograms\": ["));
        assert!(parse_json_values(&json).is_empty());
        assert_eq!(try_parse_json_values(&json), Ok(Vec::new()));
    }

    #[test]
    fn labeled_names_survive_the_json_round_trip() {
        // Inline-labeled names carry `"` and `{`/`}` characters: the
        // snapshot must escape them and the parser must unescape,
        // without mistaking the embedded braces for object delimiters.
        let r = Registry::new();
        r.gauge("disk_load{disk=\"3\"}", "labeled").set(41);
        r.gauge("disk_load{disk=\"7\"}", "labeled").set(59);
        r.counter("weird\\name\ttabbed", "escapes").add(5);
        let json = r.snapshot_json();
        let values = try_parse_json_values(&json).expect("escaped snapshot parses");
        let get = |name: &str| {
            values
                .iter()
                .find(|(n, f, _)| n == name && f == "value")
                .map(|(_, _, v)| *v)
        };
        assert_eq!(get("disk_load{disk=\"3\"}"), Some(41.0));
        assert_eq!(get("disk_load{disk=\"7\"}"), Some(59.0));
        assert_eq!(get("weird\\name\ttabbed"), Some(5.0));
        assert_eq!(values.len(), 3, "no phantom objects from label braces");
    }

    #[test]
    fn truncated_snapshot_line_is_a_parse_error_not_a_panic() {
        let json = sample_registry().snapshot_json();
        // Cut the document mid-way, as a crashed writer would.
        for cut in [json.len() / 3, json.len() / 2, json.len() - 4] {
            let truncated = &json[..cut];
            // Lenient mode never panics; strict mode reports truncation.
            let _ = parse_json_values(truncated);
            assert!(
                matches!(
                    try_parse_json_values(truncated),
                    Err(ParseError::Truncated { .. })
                ),
                "cut at {cut} should be detected"
            );
        }
        // The full document still parses strictly.
        assert!(try_parse_json_values(&json).is_ok());
    }

    #[test]
    fn malformed_field_values_error_strictly_and_skip_leniently() {
        let json = r#"{"items": [{"name": "a", "value": 3}, {"name": "b", "value": bogus}]}"#;
        let lenient = parse_json_values(json);
        assert_eq!(
            lenient,
            vec![("a".to_string(), "value".to_string(), 3.0)],
            "lenient mode drops the bad field"
        );
        assert_eq!(
            try_parse_json_values(json),
            Err(ParseError::MalformedValue {
                name: "b".to_string(),
                field: "value".to_string(),
                value: "bogus".to_string(),
            })
        );
    }

    #[test]
    fn structured_snapshot_round_trips_through_absorb() {
        let r = sample_registry();
        let snap = r.snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(snap.counter_value("alpha_total"), Some(3));
        assert_eq!(snap.gauge_value("beta"), Some(-7));
        assert_eq!(snap.histogram("gamma_ns").unwrap().count, 2);
        assert_eq!(snap.counters[0].help, "first");

        // Absorbing into an empty registry reproduces it exactly.
        let fleet = Registry::new();
        fleet.absorb(&snap);
        assert_eq!(fleet.snapshot(), snap);
        assert_eq!(fleet.render_prometheus(), r.render_prometheus());

        // Absorbing a second shard's snapshot sums counters/gauges and
        // merges histogram buckets.
        let peer = sample_registry();
        peer.counter("alpha_total", "first").add(10);
        fleet.absorb(&peer.snapshot());
        assert_eq!(fleet.snapshot().counter_value("alpha_total"), Some(16));
        assert_eq!(fleet.snapshot().gauge_value("beta"), Some(-14));
        let merged = fleet.snapshot();
        let h = merged.histogram("gamma_ns").unwrap();
        assert_eq!(h.count, 4);
        assert_eq!(h.sum, 210);
    }

    #[test]
    fn empty_snapshot_reports_empty() {
        let snap = Registry::new().snapshot();
        assert!(snap.is_empty());
        assert_eq!(snap.counter_value("missing"), None);
        assert_eq!(snap.gauge_value("missing"), None);
        assert!(snap.histogram("missing").is_none());
    }

    #[test]
    fn read_api_reports_current_values_by_name() {
        let r = sample_registry();
        assert_eq!(r.value("alpha_total"), Some(MetricValue::Counter(3)));
        assert_eq!(r.value("beta"), Some(MetricValue::Gauge(-7)));
        assert!(matches!(
            r.value("gamma_ns"),
            Some(MetricValue::Histogram(snap)) if snap.count == 2 && snap.sum == 105
        ));
        assert_eq!(r.value("missing"), None);
    }

    #[test]
    fn gauges_with_prefix_returns_labeled_series_in_order() {
        let r = Registry::new();
        r.gauge("disk_load{disk=\"0\"}", "load").set(10);
        r.gauge("disk_load{disk=\"1\"}", "load").set(20);
        r.gauge("disk_queue{disk=\"0\"}", "queue").set(99);
        r.counter("disk_load_total", "not a gauge").inc();
        let series = r.gauges_with_prefix("disk_load{disk=");
        assert_eq!(
            series,
            vec![
                ("disk_load{disk=\"0\"}".to_string(), 10),
                ("disk_load{disk=\"1\"}".to_string(), 20),
            ]
        );
    }

    #[test]
    fn absorb_checked_merges_only_matching_bucket_layouts() {
        let shard = Registry::new();
        shard.mark_bucket_layout();
        shard.counter("reqs_total", "requests").add(3);
        shard.histogram("lat_ns", "latency").record(100);
        let snap = shard.snapshot();

        let fleet = Registry::new();
        assert_eq!(fleet.absorb_checked(&snap), 0, "matching layout merges");
        assert_eq!(
            fleet
                .value("lat_ns")
                .map(|v| matches!(v, MetricValue::Histogram(h) if h.count == 1)),
            Some(true)
        );
        // The marker gauge is excluded from the fold: fleet totals
        // must not sum fingerprints across shards.
        assert_eq!(fleet.value(crate::registry::BUCKET_LAYOUT_GAUGE), None);

        // A snapshot with a wrong (or missing) marker skips every
        // histogram series but still folds scalars.
        let mut stale = snap.clone();
        for g in &mut stale.gauges {
            if g.name == BUCKET_LAYOUT_GAUGE {
                g.value ^= 1;
            }
        }
        let fleet2 = Registry::new();
        assert_eq!(fleet2.absorb_checked(&stale), 1);
        assert_eq!(fleet2.value("lat_ns"), None);
        assert_eq!(fleet2.counter("reqs_total", "requests").get(), 3);

        let mut unmarked = snap.clone();
        unmarked.gauges.retain(|g| g.name != BUCKET_LAYOUT_GAUGE);
        assert_eq!(Registry::new().absorb_checked(&unmarked), 1);
    }

    #[test]
    fn empty_histogram_snapshots_as_nulls() {
        let r = Registry::new();
        r.histogram("empty_ns", "never recorded");
        let json = r.snapshot_json();
        assert!(json.contains("\"p50\": null"));
        assert!(json.contains("\"p999\": null"));
        assert!(json.contains("\"max\": null"));
        // Nulls are skipped by the parser, count survives.
        let values = parse_json_values(&json);
        assert!(values
            .iter()
            .any(|(n, f, v)| n == "empty_ns" && f == "count" && *v == 0.0));
        assert!(!values.iter().any(|(n, f, _)| n == "empty_ns" && f == "p50"));
    }
}
