//! The traced pass: per-layer self time and counts.
//!
//! Two parts, each reading only public surfaces:
//!
//! * the *driver* replays a workload on one thread through the layers'
//!   public calls (`TrafficGen::generate`, `RssFanout::deliver`,
//!   `spsc::Consumer::pop`, `ElementGraph::run_batch`, and the mempool
//!   free when transmitted packets drop), timing each call from here;
//! * the *live* part repeats the end-to-end `live::run` with offload stage
//!   timing on, alternating with untraced calls of the same seed, and reads
//!   what the runtime already reports.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use nba_core::audit::OffloadStage;
use nba_core::runtime::live::LiveReport;
use nba_core::runtime::PipelineBuilder;
use nba_core::{Counters, ElemCtx, ElementProfile, PacketBatch, SystemInspector};
use nba_io::{spsc, Limited, Mempool, Packet, PacketSource, RssFanout, TrafficGen};
use nba_sim::{CostModel, Time};

use crate::liverun::{live_config, timed_call, Call};
use crate::stats::{median, overhead, ratio, unaccounted};
use crate::workload::{build_ctx, Workload};

/// Packets per RX burst and per computation batch (the live default).
const BATCH: usize = 64;

/// The bound `driver.unaccounted_ratio` must stay within: the timed
/// layers must cover all but this share of the driver's wall time.
pub const UNACCOUNTED_BOUND: f64 = 0.05;

/// Every element class of the three pipelines. `LoadBalance` is
/// nba-core's balancer element; the rest are nba-apps elements.
pub const ELEMENTS: [&str; 8] = [
    "CheckIPHeader",
    "LoadBalance",
    "IPLookup",
    "DecIPTTL",
    "IPsecESPEncap",
    "IPsecAES",
    "IPsecAuthHMAC",
    "Nat44",
];

/// Nanoseconds in a [`Duration`], as a float.
fn ns(d: Duration) -> f64 {
    d.as_secs_f64() * 1e9
}

/// Per-layer metric values of one traced pass, by metric name.
pub type LayerValues = BTreeMap<String, f64>;

/// Runs `f`, adding its wall time to `slot`.
fn timed<T>(slot: &mut Duration, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let r = f();
    *slot += t0.elapsed();
    r
}

/// Busy nanoseconds per packet presented to element class `e` (0 when the
/// pipeline has no such element).
fn busy_per_pkt(profiles: &[ElementProfile], e: &str) -> f64 {
    let (busy, pkts) = profiles
        .iter()
        .filter(|p| p.element == e)
        .fold((0.0, 0.0), |(b, n), p| {
            (b + p.busy.as_ns() as f64, n + p.packets as f64)
        });
    ratio(busy, pkts)
}

/// Wall time of each driver layer over one replay.
#[derive(Debug, Default, Clone, Copy)]
struct DriverTimes {
    gen: Duration,
    rss: Duration,
    spsc: Duration,
    graph: Duration,
    free: Duration,
    wall: Duration,
    packets: u64,
}

impl DriverTimes {
    fn layers(&self) -> [Duration; 5] {
        [self.gen, self.rss, self.spsc, self.graph, self.free]
    }
}

/// One single-thread replay of `budget` packets of the workload.
fn replay(w: Workload, seed: u64, build: &PipelineBuilder) -> LayerValues {
    let budget = w.budget();
    let pool = Mempool::new(1 << 15);
    let (producer, consumer) = spsc::channel::<Packet>(4096);
    let mut fanout = RssFanout::new(0, vec![producer]);
    let mut source = Limited::new(TrafficGen::new(w.traffic(seed)), budget);
    let ctx = build_ctx(nba_core::lb::shared(Box::new(nba_core::CpuOnly)));
    let mut graph = build(&ctx);
    graph.set_wall_profiling(true);
    let counters = Arc::new(Counters::default());
    let inspector = SystemInspector::new(vec![counters.clone()]);
    let cost = CostModel::paper_default();
    let mut t = DriverTimes::default();
    let mut vnow = Time::ZERO;
    let mut burst: Vec<Packet> = Vec::with_capacity(2 * BATCH);

    // Each layer call is timed by its own clock pair, so the glue between
    // calls (loop control, the element context) and the clocks' own cost
    // stay outside every layer and show up as unaccounted time.
    let start = Instant::now();
    while !source.exhausted() {
        timed(&mut t.gen, || {
            while burst.len() < BATCH && !source.exhausted() {
                vnow += Time::from_us(1);
                source.generate(vnow, &pool, &mut |p| burst.push(p));
            }
        });
        timed(&mut t.rss, || {
            for pkt in burst.drain(..) {
                fanout
                    .deliver(pkt)
                    .expect("the replay drains its ring after every burst");
            }
        });
        loop {
            let batch = timed(&mut t.spsc, || {
                let mut batch = PacketBatch::with_capacity(BATCH);
                while batch.len() < BATCH {
                    let Some(p) = consumer.pop() else { break };
                    batch.push(p);
                }
                batch
            });
            if batch.is_empty() {
                break;
            }
            t.packets += batch.len() as u64;
            let mut ectx = ElemCtx {
                now: Time::from_secs_f64(start.elapsed().as_secs_f64()),
                compute: nba_core::ComputeMode::Full,
                nls: &ctx.nls,
                worker: 0,
                inspector: &inspector,
            };
            let outcome = timed(&mut t.graph, || {
                graph.run_batch(&mut ectx, &cost, &counters, batch)
            });
            timed(&mut t.free, || drop(outcome));
        }
    }
    t.wall = start.elapsed();

    let pkts = t.packets as f64;
    let mut v = LayerValues::new();
    let mut put = |k: &str, x: f64| {
        v.insert(k.to_owned(), x);
    };
    put("io.gen.ns_per_pkt", ratio(ns(t.gen), pkts));
    put("io.rss.ns_per_pkt", ratio(ns(t.rss), pkts));
    put("io.spsc.ns_per_pkt", ratio(ns(t.spsc), pkts));
    put("io.mempool.free_ns_per_pkt", ratio(ns(t.free), pkts));
    put("core.graph.ns_per_pkt", ratio(ns(t.graph), pkts));
    put("driver.ns_per_pkt", ratio(ns(t.wall), pkts));
    let layer_ns: Vec<f64> = t.layers().iter().map(|d| ns(*d)).collect();
    put(
        "driver.unaccounted_ratio",
        unaccounted(&layer_ns, ns(t.wall)),
    );
    put(
        "core.graph.split_allocs",
        counters.snapshot().split_allocs as f64,
    );
    let profiles = graph.profiles();
    let busy: f64 = profiles.iter().map(|p| p.busy.as_ns() as f64).sum();
    put(
        "core.graph.dispatch_ns_per_pkt",
        ratio(ns(t.graph) - busy, pkts),
    );
    for e in ELEMENTS {
        put(&format!("apps.{e}.ns_per_pkt"), busy_per_pkt(&profiles, e));
    }
    v
}

/// Metric values read from one traced live call.
fn live_values(call: &Call, r: &LiveReport) -> LayerValues {
    let mut v = LayerValues::new();
    let mut put = |k: &str, x: f64| {
        v.insert(k.to_owned(), x);
    };
    for e in ELEMENTS {
        put(
            &format!("apps.{e}.live_ns_per_pkt"),
            busy_per_pkt(&r.elements, e),
        );
    }
    let flows = r.flows.as_ref().map(|f| f.totals()).unwrap_or_default();
    put("core.flow.inserts", flows.inserts as f64);
    put(
        "core.flow.miss_ratio",
        ratio(flows.misses as f64, (flows.hits + flows.misses) as f64),
    );
    put("core.flow.evict_idle", flows.evict_idle as f64);
    put("core.flow.table_full_drops", flows.table_full_drops as f64);
    let stages = r.stages.clone().unwrap_or_default();
    let tasks = stages.tasks as f64;
    for s in OffloadStage::ALL {
        put(
            &format!("core.offload.{}_ns_per_task", s.as_str()),
            ratio(stages.total_ns[s as usize] as f64, tasks),
        );
    }
    let fallback = r.faults.snapshot.fell_back_batches;
    put("core.offload.tasks", tasks);
    put(
        "core.offload.batches_per_task",
        ratio(
            r.totals.offloaded_batches.saturating_sub(fallback) as f64,
            tasks,
        ),
    );
    put("core.offload.fallback_batches", fallback as f64);
    put(
        "live.worker.batch_fill",
        ratio(r.totals.rx_packets as f64, r.totals.batches as f64),
    );
    put(
        "live.worker.batch_p50_us",
        r.latency.percentile_ns(50.0) as f64 / 1e3,
    );
    put(
        "live.worker.batch_p99_us",
        r.latency.percentile_ns(99.0) as f64 / 1e3,
    );
    put("live.worker.batch_samples", r.latency.count() as f64);
    let gauge = |f: fn(&nba_core::telemetry::ShardSample) -> u64| {
        r.samples
            .iter()
            .map(|s| s.shards.iter().map(f).sum::<u64>())
            .max()
            .unwrap_or(0) as f64
    };
    put("live.spsc.high_water", gauge(|s| s.ring_high_water));
    put("live.spsc.enqueue_failed", gauge(|s| s.enqueue_failed));
    let h = call.hygiene;
    put("live.traced_mpps", call.mpps());
    put("core.supervise.transitions", h.transitions as f64);
    put("core.supervise.resteers", h.resteers as f64);
    put("core.supervise.migrated_in", h.migrated_in as f64);
    v
}

/// What one traced pass measured.
pub struct TracedPass {
    /// Per-layer values (medians over the pass's repetitions).
    pub values: LayerValues,
    /// Driver replays made.
    pub replays: usize,
    /// Traced and untraced live calls made (each).
    pub live_pairs: usize,
    /// Every live call, for the result's packet accounting.
    pub calls: Vec<Call>,
}

/// Runs the traced pass for `seconds`: driver replays for the first 40%,
/// then alternating untraced/traced live calls.
pub fn traced_pass(w: Workload, seed: u64, build: &PipelineBuilder, seconds: f64) -> TracedPass {
    let start = Instant::now();
    let mut replays = Vec::new();
    while replays.len() < 3 || start.elapsed().as_secs_f64() < 0.4 * seconds {
        replays.push(replay(w, seed, build));
    }
    let plain = live_config(w, seed, w.budget());
    let mut traced = plain.clone();
    traced.audit.stage_stats = true;
    let mut live = Vec::new();
    let mut calls = Vec::new();
    while live.len() < 3 || start.elapsed().as_secs_f64() < seconds {
        let untraced = timed_call(&plain, w, build).0;
        let (call, report) = timed_call(&traced, w, build);
        let mut v = live_values(&call, &report);
        v.insert("live.untraced_mpps".to_owned(), untraced.mpps());
        live.push(v);
        calls.extend([untraced, call]);
    }

    let mut values = medians(replays.iter().chain(&live));
    values.insert(
        "trace_overhead_ratio".to_owned(),
        overhead(values["live.traced_mpps"], values["live.untraced_mpps"]),
    );
    TracedPass {
        values,
        replays: replays.len(),
        live_pairs: live.len(),
        calls,
    }
}

/// Each metric's median over the samples that carry it.
fn medians<'a>(samples: impl Iterator<Item = &'a LayerValues> + Clone) -> LayerValues {
    let mut out = LayerValues::new();
    for name in samples.clone().flat_map(|v| v.keys()) {
        if !out.contains_key(name) {
            let xs: Vec<f64> = samples
                .clone()
                .filter_map(|v| v.get(name).copied())
                .collect();
            out.insert(name.clone(), median(&xs));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::build_graph;

    #[test]
    fn every_pipeline_element_has_metrics() {
        for w in Workload::ALL {
            let graph = build_graph(w, &w.builder());
            for p in graph.profiles() {
                assert!(ELEMENTS.contains(&p.element), "{}: {}", w.name(), p.element);
            }
        }
    }

    #[test]
    fn medians_are_taken_per_metric() {
        let sample = |pairs: &[(&str, f64)]| -> LayerValues {
            pairs.iter().map(|(k, v)| ((*k).to_owned(), *v)).collect()
        };
        let samples = [
            sample(&[("a", 1.0), ("b", 10.0)]),
            sample(&[("a", 3.0)]),
            sample(&[("a", 2.0), ("b", 20.0)]),
        ];
        let m = medians(samples.iter());
        assert_eq!(m["a"], 2.0);
        assert_eq!(m["b"], 15.0);
    }
}
