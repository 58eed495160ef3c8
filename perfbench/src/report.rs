//! The metric registry, the run outcome and the result line.
//!
//! Every metric the benchmark can print is registered here with its
//! unit; `BENCHMARK.json` at the repository root lists the same names
//! (a test keeps the two in step). A run prints each registered metric
//! of its mode exactly once, as `# name = value unit (n = samples)`
//! lines followed by the one-line JSON result.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit)`. Every workload prints all of
/// them; see the README for what each means per workload.
pub const END_TO_END: [(&str, &str); 5] = [
    ("latency_ms", "ms"),
    ("rate_per_s", "1/s"),
    ("work_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 26] = [
    ("queues.pop_ns_p50", "ns"),
    ("queues.pop_ns_p99", "ns"),
    ("queues.pop_empty_ratio", "ratio"),
    ("queues.push_ns_p50", "ns"),
    ("queues.merge_ratio", "ratio"),
    ("queues.steal_ratio", "ratio"),
    ("queues.self_share", "ratio"),
    ("runtime.idle_share", "ratio"),
    ("runtime.pop_misses", "count"),
    ("runtime.seed_ms", "ms"),
    ("runtime.executed", "count"),
    ("runtime.stale", "count"),
    ("algos.handler_ns_p50", "ns"),
    ("algos.edges_per_task", "count"),
    ("algos.prep_ms", "ms"),
    ("graph.seq_ms", "ms"),
    ("graph.gen_s", "s"),
    ("serve.inject_us_p50", "us"),
    ("serve.inject_us_p99", "us"),
    ("serve.wait_us_p99", "us"),
    ("serve.wire_us_p50", "us"),
    ("serve.wire_us_p99", "us"),
    ("serve.busy_permille", "permille"),
    ("serve.codec_ns_per_frame", "ns"),
    ("client.gen_lag_ms_p99", "ms"),
    ("trace_overhead", "ratio"),
];

/// Per-layer metrics that only the serving workload reaches.
const SERVING_LAYERS: [&str; 8] = [
    "serve.inject_us_p50",
    "serve.inject_us_p99",
    "serve.wait_us_p99",
    "serve.wire_us_p50",
    "serve.wire_us_p99",
    "serve.busy_permille",
    "serve.codec_ns_per_frame",
    "client.gen_lag_ms_p99",
];

/// Per-layer metrics that only the graph workloads reach through a
/// benchmark span.
const GRAPH_LAYERS: [&str; 11] = [
    "queues.pop_ns_p50",
    "queues.pop_ns_p99",
    "queues.push_ns_p50",
    "queues.self_share",
    "runtime.idle_share",
    "runtime.seed_ms",
    "algos.handler_ns_p50",
    "algos.edges_per_task",
    "algos.prep_ms",
    "graph.seq_ms",
    "graph.gen_s",
];

/// The metric values of one run, in one mode.
#[derive(Debug)]
pub struct Metrics {
    registry: &'static [(&'static str, &'static str)],
    values: BTreeMap<&'static str, (f64, usize)>,
}

impl Metrics {
    pub fn end_to_end() -> Metrics {
        Metrics {
            registry: &END_TO_END,
            values: BTreeMap::new(),
        }
    }

    pub fn per_layer() -> Metrics {
        Metrics {
            registry: &PER_LAYER,
            values: BTreeMap::new(),
        }
    }

    /// Record `name` from `n` samples. Panics on a name outside this
    /// mode's registry, a second value for a name, or a value that is
    /// not finite — each a bug in the benchmark.
    pub fn set(&mut self, name: &str, value: f64, n: usize) {
        let (key, _) = self
            .registry
            .iter()
            .find(|(k, _)| *k == name)
            .unwrap_or_else(|| panic!("metric {name} is not registered in this mode"));
        assert!(value.is_finite(), "metric {name} is {value}");
        assert!(
            self.values.insert(key, (value, n)).is_none(),
            "metric {name} set twice"
        );
    }

    /// Layers a closed-loop workload never calls: reported as 0.
    pub fn zero_serving_layers(&mut self) {
        for name in SERVING_LAYERS {
            self.set(name, 0.0, 0);
        }
    }

    /// Layers the serving workload reaches through no benchmark span:
    /// reported as 0.
    pub fn zero_graph_layers(&mut self) {
        for name in GRAPH_LAYERS {
            self.set(name, 0.0, 0);
        }
    }

    /// `(name, value, unit, samples)` in registry order. Panics if any
    /// registered metric is missing.
    fn rows(&self) -> Vec<(&'static str, f64, &'static str, usize)> {
        self.registry
            .iter()
            .map(|&(name, unit)| {
                let (value, n) = self
                    .values
                    .get(name)
                    .unwrap_or_else(|| panic!("metric {name} was never measured"));
                (name, *value, unit, *n)
            })
            .collect()
    }
}

/// What a run checked, and what it measured.
#[derive(Debug)]
pub struct Outcome {
    /// Every output checked was right.
    pub correct: bool,
    /// Operations attempted: engine calls, or requests at the reference
    /// rate.
    pub attempted: u64,
    /// Operations that failed: wrong results, or requests rejected,
    /// unanswered or misjudged.
    pub failed: u64,
    /// Why `correct` is false.
    pub errors: Vec<String>,
    pub metrics: Option<Metrics>,
}

impl Default for Outcome {
    fn default() -> Self {
        Outcome {
            correct: true,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            metrics: None,
        }
    }
}

impl Outcome {
    /// An output check that is not itself an attempted operation.
    pub fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            self.correct = false;
            self.errors.push(what.to_string());
        }
    }

    /// One attempted operation whose output is checked.
    pub fn attempt(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        self.check(ok, what);
    }

    /// The human-readable metric lines and the final JSON line.
    pub fn render(&self) -> String {
        let metrics = self.metrics.as_ref().expect("run produced metrics");
        let rows = metrics.rows();
        let mut out = String::new();
        for e in &self.errors {
            let _ = writeln!(out, "# ERROR {e}");
        }
        for &(name, value, unit, n) in &rows {
            let _ = writeln!(out, "# {name} = {value} {unit} (n = {n})");
        }
        let body: Vec<String> = rows
            .iter()
            .map(|(name, value, unit, _)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(name),
                    json_num(*value),
                    json_str(unit)
                )
            })
            .collect();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            body.join(", ")
        );
        out
    }
}

/// A JSON string literal (metric names and units are plain ASCII).
fn json_str(s: &str) -> String {
    assert!(
        s.chars()
            .all(|c| c.is_ascii_graphic() && c != '"' && c != '\\'),
        "unexpected character in {s:?}"
    );
    format!("\"{s}\"")
}

/// A JSON number with every digit Rust's shortest round-trip form has.
fn json_num(v: f64) -> String {
    assert!(v.is_finite());
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}

/// The process's CPU time so far, ns, over all its threads. Time the
/// host steals from the virtual CPUs is not in it.
pub fn process_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    let mut t = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `t` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut t) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    t.tv_sec as u64 * 1_000_000_000 + t.tv_nsec as u64
}

/// The process's peak resident set, MB (`VmHWM` in `/proc/self/status`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("reading /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_layers_are_registered_and_disjoint() {
        let mut m = Metrics::per_layer();
        m.zero_serving_layers();
        m.zero_graph_layers();
        assert_eq!(m.values.len(), SERVING_LAYERS.len() + GRAPH_LAYERS.len());
    }

    #[test]
    #[should_panic(expected = "never measured")]
    fn render_refuses_a_missing_metric() {
        let mut o = Outcome::default();
        let mut m = Metrics::end_to_end();
        m.set("latency_ms", 1.0, 1);
        o.metrics = Some(m);
        o.render();
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut m = Metrics::end_to_end();
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            m.set(name, 1.5 + i as f64, 3);
        }
        let mut o = Outcome::default();
        o.attempt(true, "ok");
        o.metrics = Some(m);
        let text = o.render();
        let last = text.lines().last().unwrap();
        assert!(
            last.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {")
        );
        assert!(last.contains("\"latency_ms\": {\"value\": 1.5, \"unit\": \"ms\"}"));
        assert!(last.contains("\"setup_s\": {\"value\": 4.5, \"unit\": \"s\"}"));
    }
}
