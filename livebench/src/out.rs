//! What the benchmark prints: the metric registry (names, units, and the
//! end-to-end metric each layer metric should move), the host fingerprint,
//! and the JSON result lines.

use std::fmt::Write as _;

use crate::trace::ELEMENTS;

/// A JSON value, rendered by [`Json::render`]. Only what the output needs.
#[derive(Debug, Clone)]
pub enum Json {
    /// A string.
    Str(String),
    /// A finite number (non-finite values render as 0 and never occur in
    /// a valid run).
    Num(f64),
    /// A whole number.
    Int(u64),
    /// A boolean.
    Bool(bool),
    /// An array.
    Arr(Vec<Json>),
    /// An object, keys in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Renders compact JSON on one line.
    pub fn render(&self) -> String {
        let mut s = String::new();
        self.write(&mut s);
        s
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Str(s) => {
                out.push('"');
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
                out.push('"');
            }
            Json::Num(x) => {
                let x = if x.is_finite() { *x } else { 0.0 };
                let _ = write!(out, "{x}");
            }
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Json::Str(k.clone()).write(out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// One reported metric's identity.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: String,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// Which end-to-end metric it should move, on which workloads, and
    /// where no change is expected (layer metrics only).
    pub moves: &'static str,
}

fn def(
    name: impl Into<String>,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        better,
        moves,
    }
}

/// The end-to-end metrics, printed with `--trace 0`.
pub fn end_to_end() -> Vec<MetricDef> {
    vec![
        def("mpps", "Mpps", "higher", ""),
        def("gbps", "Gbps", "higher", ""),
        def("setup_s", "s", "lower", ""),
        def("delivered_ratio", "ratio", "higher", ""),
    ]
}

const IO: &str = "mpps on ipv4-64b and nat-tcp-churn; no change on ipsec-imix-offload";
const GRAPH: &str = "mpps on ipv4-64b; no change on ipsec-imix-offload";
const ELEM: &str = "mpps on the workload that contains the element";
const FLOW: &str = "mpps on nat-tcp-churn";
const OFFLOAD: &str = "mpps and gbps on ipsec-imix-offload";
const WORKER: &str = "mpps on all workloads";
const RING: &str = "mpps on ipv4-64b";
const SUPERVISE: &str = "mpps on all workloads, most on ipsec-imix-offload";
const SANITY: &str = "sanity check; moves no end-to-end metric";

/// The per-layer metrics, printed with `--trace 1`.
pub fn per_layer() -> Vec<MetricDef> {
    let mut v = vec![
        def("io.gen.ns_per_pkt", "ns", "lower", IO),
        def("io.rss.ns_per_pkt", "ns", "lower", IO),
        def("io.spsc.ns_per_pkt", "ns", "lower", IO),
        def("io.mempool.free_ns_per_pkt", "ns", "lower", IO),
        def("core.graph.ns_per_pkt", "ns", "lower", GRAPH),
        def("core.graph.dispatch_ns_per_pkt", "ns", "lower", GRAPH),
        def("core.graph.split_allocs", "count", "lower", GRAPH),
    ];
    for e in ELEMENTS {
        v.push(def(format!("apps.{e}.ns_per_pkt"), "ns", "lower", ELEM));
    }
    for e in ELEMENTS {
        v.push(def(
            format!("apps.{e}.live_ns_per_pkt"),
            "ns",
            "lower",
            ELEM,
        ));
    }
    v.extend([
        def("core.flow.inserts", "count", "lower", FLOW),
        def("core.flow.miss_ratio", "ratio", "lower", FLOW),
        def("core.flow.evict_idle", "count", "lower", FLOW),
        def("core.flow.table_full_drops", "count", "lower", FLOW),
    ]);
    for s in nba_core::audit::OffloadStage::ALL {
        v.push(def(
            format!("core.offload.{}_ns_per_task", s.as_str()),
            "ns",
            "lower",
            OFFLOAD,
        ));
    }
    v.extend([
        def("core.offload.tasks", "count", "lower", OFFLOAD),
        def(
            "core.offload.batches_per_task",
            "batch/task",
            "higher",
            OFFLOAD,
        ),
        def("core.offload.fallback_batches", "count", "lower", OFFLOAD),
        def("live.worker.batch_fill", "pkt/batch", "higher", WORKER),
        def("live.worker.batch_p50_us", "us", "lower", WORKER),
        def("live.worker.batch_p99_us", "us", "lower", WORKER),
        def("live.worker.batch_samples", "count", "higher", WORKER),
        def("live.spsc.high_water", "count", "lower", RING),
        def("live.spsc.enqueue_failed", "count", "lower", RING),
        def("core.supervise.transitions", "count", "lower", SUPERVISE),
        def("core.supervise.resteers", "count", "lower", SUPERVISE),
        def("core.supervise.migrated_in", "count", "lower", SUPERVISE),
        def("driver.ns_per_pkt", "ns", "lower", SANITY),
        def("driver.unaccounted_ratio", "ratio", "lower", SANITY),
        def("live.traced_mpps", "Mpps", "higher", SANITY),
        def("live.untraced_mpps", "Mpps", "higher", SANITY),
        def("trace_overhead_ratio", "ratio", "lower", SANITY),
    ]);
    v
}

/// The `metrics` object: every metric of `defs`, in order, with its unit.
///
/// # Panics
///
/// Panics if a metric has no value: a result never omits a metric.
pub fn metrics(defs: &[MetricDef], value: impl Fn(&str) -> Option<f64>) -> Json {
    Json::obj(defs.iter().map(|d| {
        let x = value(&d.name).unwrap_or_else(|| panic!("no value for metric {}", d.name));
        (
            d.name.clone(),
            Json::obj([("value", Json::Num(x)), ("unit", Json::str(d.unit))]),
        )
    }))
}

/// The contract's last line: exactly `correct`, `attempted`, `failed` and
/// `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: Json) -> String {
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(attempted.max(1))),
        ("failed", Json::Int(failed)),
        ("metrics", metrics),
    ])
    .render()
}

/// The host and build fingerprint recorded with every result, so a
/// comparison can refuse results from different hosts or toolchains.
pub fn provenance(seed: u64) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    Json::obj([
        ("provenance", Json::str("measured")),
        ("nproc", Json::Int(nproc)),
        ("cpu_model", Json::str(cpu_model())),
        ("rustc", Json::str(env!("LIVEBENCH_RUSTC"))),
        ("git_sha", Json::str(git_sha())),
        ("seed", Json::Int(seed)),
    ])
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The commit checked out in the working directory, read from `.git`
/// without running git (which would search parent directories). A checkout
/// without `.git` reports `unknown`.
fn git_sha() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    read(&format!(".git/{reference}"))
        .map(|s| s.trim().to_owned())
        .or_else(|| {
            read(".git/packed-refs").and_then(|p| {
                p.lines()
                    .find(|l| l.ends_with(reference))
                    .and_then(|l| l.split_whitespace().next())
                    .map(str::to_owned)
            })
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use nba_core::json::{parse, Value};

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let defs = end_to_end();
        let line = result_line(true, 10, 0, metrics(&defs, |_| Some(1.25)));
        let v = parse(&line).expect("result line is JSON");
        let keys: Vec<&str> = v.as_obj().unwrap().keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(v.get("attempted").and_then(Value::as_u64), Some(10));
        let m = v.get("metrics").and_then(Value::as_obj).unwrap();
        assert_eq!(m.len(), defs.len());
        for d in &defs {
            let e = &m[&d.name];
            assert_eq!(e.get("value").and_then(Value::as_f64), Some(1.25));
            assert_eq!(e.get("unit").and_then(Value::as_str), Some(d.unit));
            assert_eq!(e.as_obj().unwrap().len(), 2);
        }
    }

    #[test]
    fn attempted_is_at_least_one_and_values_keep_their_digits() {
        let line = result_line(
            false,
            0,
            0,
            Json::obj([("x", Json::Num(0.123_456_789_012_345))]),
        );
        assert!(line.contains("\"attempted\":1"));
        assert!(line.contains("0.123456789012345"));
        assert!(line.contains("\"correct\":false"));
    }

    #[test]
    #[should_panic(expected = "no value for metric mpps")]
    fn a_missing_metric_is_a_bug() {
        metrics(&end_to_end(), |_| None);
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(Json::str("a\"b\\c\n").render(), r#""a\"b\\c\u000a""#);
    }

    /// The registry and `BENCHMARK.json` name the same metrics with the
    /// same units, in the same order.
    #[test]
    fn registry_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let spec = parse(&text).expect("BENCHMARK.json parses");
        for (key, defs) in [("end_to_end", end_to_end()), ("per_layer", per_layer())] {
            let listed: Vec<(String, String, String)> = spec
                .get(key)
                .and_then(Value::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(Value::as_str).unwrap().to_owned();
                    (s("name"), s("unit"), s("better"))
                })
                .collect();
            let ours: Vec<(String, String, String)> = defs
                .iter()
                .map(|d| (d.name.clone(), d.unit.to_owned(), d.better.to_owned()))
                .collect();
            assert_eq!(listed, ours, "{key} differs from the registry");
        }
        let workloads: Vec<&str> = spec
            .get("workloads")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = crate::workload::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(workloads, ours);
    }
}
