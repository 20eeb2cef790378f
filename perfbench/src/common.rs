//! Measurement plumbing shared by the workloads: percentiles, medians,
//! peak memory, the in-memory span recorder and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// One reported metric: name, value, unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Builds a [`Metric`].
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What one workload run hands back to `main`: the metrics it measured,
/// how many outcomes it attempted and how many of them failed, and every
/// correctness check that did not hold.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    /// Informational lines printed before the result (sample counts,
    /// cores, failed ratio) — not part of the result line.
    pub notes: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Outcome {
    /// Records a correctness check; a failing one fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// Prints every metric by name with its unit, the notes, then the
    /// result line (the last line of stdout).
    pub fn print(&self) {
        let mut out = std::io::stdout().lock();
        for note in &self.notes {
            let _ = writeln!(out, "# {note}");
        }
        for error in &self.errors {
            let _ = writeln!(out, "# CHECK FAILED: {error}");
        }
        for m in &self.metrics {
            let _ = writeln!(out, "{:<28} {:>16} {}", m.name, m.value, m.unit);
        }
        let mut line = String::new();
        let _ = write!(
            line,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.errors.is_empty(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                line,
                "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            );
        }
        line.push_str("}}");
        let _ = writeln!(out, "{line}");
    }
}

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p ∈ (0, 1]` of `sorted` (ascending).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// p50 and p99 of latency samples in milliseconds, asserting the p99
/// rests on at least ten samples beyond it.
pub fn latency_summary(samples_ms: &mut [f64], outcome: &mut Outcome) -> (f64, f64) {
    samples_ms.sort_by(f64::total_cmp);
    let beyond_p99 = samples_ms.len() / 100;
    outcome.check(beyond_p99 >= 10, || {
        format!(
            "p99 needs >= 10 samples beyond it; {} samples give {beyond_p99}",
            samples_ms.len()
        )
    });
    (percentile(samples_ms, 0.50), percentile(samples_ms, 0.99))
}

/// Seconds as `f64`.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Times `repeats` set-ups and returns the median duration in seconds
/// together with the last set-up's product.
pub fn timed_setup<T>(repeats: usize, mut build: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats.max(1) {
        // Tear the previous product down first, outside the timed span.
        drop(last.take());
        let started = Instant::now();
        let value = build();
        times.push(secs(started.elapsed()));
        last = Some(value);
    }
    (median(&times), last.expect("at least one set-up"))
}

/// The first episode warms the heap and caches: it is checked but not
/// measured. Two more let the determinism check compare repeats.
const MIN_EPISODES: usize = 3;

/// Runs `episode(traced)` until `seconds` have passed, and at least
/// [`MIN_EPISODES`] times. In a traced run the episodes after the warm-up
/// alternate untraced and traced, so the tracing overhead is measured
/// under the same conditions.
pub fn repeat_episodes<E>(
    seconds: f64,
    traced: bool,
    mut episode: impl FnMut(bool) -> E,
) -> Vec<E> {
    let started = Instant::now();
    let mut episodes = Vec::new();
    while episodes.len() < MIN_EPISODES || secs(started.elapsed()) < seconds {
        let trace_this = traced && !episodes.is_empty() && episodes.len().is_multiple_of(2);
        episodes.push(episode(trace_this));
    }
    episodes
}

/// Fails the run unless every episode's machine-independent counts equal
/// the first episode's.
pub fn check_repeats<T: PartialEq + std::fmt::Debug>(counts: &[&T], outcome: &mut Outcome) {
    for (i, c) in counts.iter().enumerate().skip(1) {
        outcome.check(*c == counts[0], || {
            format!(
                "episode {i} counts {c:?} differ from episode 0 {:?}",
                counts[0]
            )
        });
    }
}

/// Medians, over episodes, of each episode's p50 and p99 latency.
pub fn median_latencies<'a>(
    episodes: impl Iterator<Item = &'a Vec<f64>>,
    outcome: &mut Outcome,
) -> (f64, f64) {
    let (p50s, p99s): (Vec<f64>, Vec<f64>) = episodes
        .map(|samples| latency_summary(&mut samples.clone(), outcome))
        .unzip();
    (median(&p50s), median(&p99s))
}

/// A recorded span: a call into one layer, made from the benchmark's own
/// code. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Workload round (or burst) the span belongs to.
    pub round: u64,
    /// Work items the call handled (e.g. blocks interpreted by a step).
    pub items: u64,
}

/// In-memory span recorder. A disabled tracer costs one branch per call
/// and records nothing, so the untraced run can share the driving loop.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    /// Round stamped on spans opened from now on.
    pub round: u64,
}

/// Handle of an open span (`None` when tracing is off).
pub type SpanId = Option<usize>;

impl Tracer {
    /// A tracer that records spans when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            round: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; its parent is the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            round: self.round,
            items: 0,
        });
        self.stack.push(id);
        Some(id)
    }

    /// Closes `id`, recording `items` handled inside it.
    pub fn exit_with(&mut self, id: SpanId, items: u64) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.now_ns();
            self.spans[id].items = items;
            let popped = self.stack.pop();
            debug_assert_eq!(popped, Some(id), "spans close innermost first");
        }
    }

    /// Closes `id`.
    pub fn exit(&mut self, id: SpanId) {
        self.exit_with(id, 0);
    }

    /// Runs `call` inside a span named `name`.
    pub fn leaf<T>(&mut self, name: &'static str, call: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = call();
        self.exit(id);
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name, in seconds: each span's duration minus the
    /// time its child spans cover.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut children = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut totals = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(children) {
            let own = (span.end_ns - span.start_ns).saturating_sub(covered);
            *totals.entry(span.name).or_insert(0.0) += own as f64 * 1e-9;
        }
        totals
    }

    /// Writes the spans as JSON lines to `path` (best effort: the trace
    /// file is a by-product, the result line does not depend on it).
    pub fn write_jsonl(&self, path: &Path) {
        let mut text = String::with_capacity(self.spans.len() * 96);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"round\":{},\"items\":{}}}",
                span.name, span.start_ns, span.end_ns, span.round, span.items
            );
        }
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        let _ = std::fs::write(path, text);
    }
}

/// Seconds spent inside layer spans: the self time of every span except
/// the benchmark's own composition spans (`bench.*`).
pub fn layer_seconds(totals: &BTreeMap<&'static str, f64>) -> f64 {
    totals
        .iter()
        .filter(|(name, _)| !name.starts_with("bench."))
        .map(|(_, seconds)| seconds)
        .sum()
}

/// Sum of self time over the span names in `names`.
pub fn seconds_of(totals: &BTreeMap<&'static str, f64>, names: &[&str]) -> f64 {
    names
        .iter()
        .map(|name| totals.get(name).copied().unwrap_or(0.0))
        .sum()
}

/// Ratio that reads 0 instead of NaN/inf when the base is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Per-layer metric names, in the order `BENCHMARK.json` lists them, with
/// their units. Every traced run reports each of them; a layer a workload
/// does not call reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("interpret.step_s", "s"),
    ("interpret.drain_s", "s"),
    ("interpret.resident_instances", "count"),
    ("interpret.unique_instances", "count"),
    ("interpret.envelopes", "count"),
    ("interpret.late_over_early", "ratio"),
    ("gossip.admit_s", "s"),
    ("gossip.useful_ratio", "ratio"),
    ("gossip.mean_wave", "blocks"),
    ("gossip.pending_peak", "blocks"),
    ("gossip.seal_s", "s"),
    ("gossip.requests_per_block", "count"),
    ("crypto.verifies_per_block", "count"),
    ("crypto.batch_mean", "count"),
    ("crypto.curve_ops_per_block", "count"),
    ("crypto.signs", "count"),
    ("codec.decode_s", "s"),
    ("codec.encode_s", "s"),
    ("codec.bytes_per_transfer", "bytes"),
    ("store.append_s", "s"),
    ("store.sync_s", "s"),
    ("store.bytes_per_transfer", "bytes"),
    ("store.syncs_per_transfer", "count"),
    ("store.open_s", "s"),
    ("recovery.replay_s", "s"),
    ("recovery.replayed_blocks", "blocks"),
    ("transport.msgs_per_transfer", "count"),
    ("transport.bytes_per_transfer", "bytes"),
    ("node.requests_per_block", "count"),
    ("loadgen.late_max_ms", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// Collects per-layer values by name and emits every [`PER_LAYER`] metric
/// (missing ones as 0), each the median over the traced repetitions.
#[derive(Debug, Default)]
pub struct LayerTable {
    values: BTreeMap<&'static str, Vec<f64>>,
}

impl LayerTable {
    /// Records one repetition's value of `name`.
    pub fn put(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(known, _)| *known == name),
            "unknown per-layer metric {name}"
        );
        self.values.entry(name).or_default().push(value);
    }

    /// Adds every value `other` recorded.
    pub fn absorb(&mut self, other: &LayerTable) {
        for (name, values) in &other.values {
            self.values.entry(name).or_default().extend(values);
        }
    }

    /// The medians, in declaration order.
    pub fn metrics(&self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|(name, unit)| {
                let value = self.values.get(name).map_or(0.0, |v| median(v));
                metric(name, value, unit)
            })
            .collect()
    }
}
