//! Versioned benchmark artifacts (`BENCH_<app>.json`) and the regression
//! gate.
//!
//! A [`BenchReport`] captures one app run as a machine-readable record:
//! provenance (git SHA, rustc version, config digest), headline throughput
//! (Gbps/Mpps), end-to-end latency percentiles, per-element attribution,
//! and balancer convergence (final `w`, settle time, the whole `w`
//! trajectory). Each section's JSON keys are its field names, declared once
//! with [`nba_core::json_struct!`]; the same table drives the indented
//! writer and the typed reader of [`nba_core::json`], so the artifact
//! pipeline stays dependency-free and emit and parse cannot drift apart.
//!
//! [`compare`] diffs two reports under per-metric [`Tolerances`]. The gate
//! is one-sided — improvements never fail — and deliberately generous by
//! default: the DES runtime is deterministic, so only real cliffs should
//! trip CI, not noise.
//!
//! All latency fields are nanoseconds with the `_ns` suffix (see
//! DESIGN.md, "Units").

use nba_core::audit::{DriftReport, SloConfig, SloReport};
use nba_core::flow::{FlowReport, FlowShardSnapshot};
use nba_core::json::{self, Json, Value};
use nba_core::json_struct;
use nba_core::runtime::{RunReport, RuntimeConfig};
use nba_core::stats::LatencyHistogram;
use nba_core::telemetry::TimeSample;

use crate::table::Table;

/// Version of the `BENCH_*.json` schema, the only one this code writes
/// and reads. Version 2 added the `faults` section; version 3 the optional
/// `scaling` section (throughput-vs-workers series); version 4 the
/// optional audit sections (`offload_stages`, `drift`, `slo`); version 5
/// the optional `flows` section (stateful flow-table accounting).
pub const SCHEMA_VERSION: u64 = 5;

/// End-to-end latency percentile summary, nanoseconds.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LatencySummary {
    /// Median.
    pub p50_ns: u64,
    /// 90th percentile.
    pub p90_ns: u64,
    /// 99th percentile.
    pub p99_ns: u64,
    /// 99.9th percentile.
    pub p999_ns: u64,
    /// Mean.
    pub mean_ns: u64,
    /// Maximum observed.
    pub max_ns: u64,
    /// Sample count.
    pub count: u64,
}

impl LatencySummary {
    /// Summarizes a recorded histogram.
    pub fn from_histogram(h: &LatencyHistogram) -> LatencySummary {
        if h.count() == 0 {
            return LatencySummary::default();
        }
        LatencySummary {
            p50_ns: h.percentile_ns(50.0),
            p90_ns: h.percentile_ns(90.0),
            p99_ns: h.percentile_ns(99.0),
            p999_ns: h.percentile_ns(99.9),
            mean_ns: h.mean_ns(),
            max_ns: h.max_ns(),
            count: h.count(),
        }
    }
}

/// Per-element attribution: work totals plus service-time percentiles.
#[derive(Debug, Clone, PartialEq)]
pub struct ElementReport {
    /// Node index in the element graph.
    pub node: u64,
    /// Element class name.
    pub element: String,
    /// Batches processed.
    pub batches: u64,
    /// Packets processed.
    pub packets: u64,
    /// Packets dropped here.
    pub drops: u64,
    /// Busy time, nanoseconds.
    pub busy_ns: u64,
    /// Median per-visit service time, nanoseconds.
    pub p50_ns: u64,
    /// 99th-percentile per-visit service time, nanoseconds.
    pub p99_ns: u64,
}

/// One point of the balancer's `w` trajectory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WPoint {
    /// Run time of the sample, nanoseconds.
    pub t_ns: u64,
    /// Offloading fraction at that time.
    pub w: f64,
}

/// Balancer convergence statistics.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BalancerReport {
    /// Final offloading fraction.
    pub final_w: f64,
    /// Time after which `w` stayed within the settle band around
    /// `final_w`, nanoseconds; `None` when it never settled or the run
    /// produced no samples.
    pub settle_ns: Option<u64>,
    /// The sampled `w` trajectory (empty when sampling was off).
    pub trajectory: Vec<WPoint>,
}

/// One device-quarantine interval, run time in nanoseconds. `end_ns` is
/// `None` when the device was still quarantined at the end of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuarantineSpan {
    /// When the circuit breaker tripped.
    pub start_ns: u64,
    /// When the device was re-admitted, if it was.
    pub end_ns: Option<u64>,
}

/// Fault-injection and recovery accounting (schema v2). All counts are
/// zero and `quarantines` empty on a clean run, which is what the
/// regression gate asserts when comparing against a clean baseline.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultsSection {
    /// Total faults injected (all kinds).
    pub injected: u64,
    /// Device-side retries before giving up on a task.
    pub retried: u64,
    /// Packets re-executed on the CPU path after a device failure.
    pub fell_back_packets: u64,
    /// Packets dropped because a poisoned batch was discarded.
    pub dropped_packets: u64,
    /// Worker/device panics contained by the runtime.
    pub panics_contained: u64,
    /// Device quarantine intervals, in run order.
    pub quarantines: Vec<QuarantineSpan>,
}

/// One point of a throughput-vs-workers scaling sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalePoint {
    /// Worker (RX queue) count of this run.
    pub workers: u64,
    /// Transmitted throughput at that count, Mpps.
    pub tx_mpps: f64,
    /// Transmitted throughput at that count, Gbps.
    pub tx_gbps: f64,
}

/// A per-core scaling sweep (the paper's Figure 8 axis), schema v3. Each
/// point is one full run of the same app and traffic at a different worker
/// count.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingSection {
    /// Which runtime ran the sweep: `"des"` (simulated workers, the
    /// deterministic CI artifact) or `"live"` (real threads).
    pub runtime: String,
    /// Points in ascending worker order.
    pub series: Vec<ScalePoint>,
}

/// One offload sub-stage's timing summary (schema v4).
#[derive(Debug, Clone, PartialEq)]
pub struct StageRow {
    /// Stage name (`enqueue_wait` / `gather` / `copy_in` / `launch` /
    /// `compute` / `copy_out` / `scatter`).
    pub stage: String,
    /// Mean nanoseconds per offload task.
    pub mean_ns: f64,
    /// 99th-percentile nanoseconds per offload task.
    pub p99_ns: u64,
    /// Total nanoseconds accumulated over the run.
    pub total_ns: u64,
}

/// Offload stage decomposition (schema v4): where device round-trip time
/// actually went, one row per sub-stage.
#[derive(Debug, Clone, PartialEq)]
pub struct OffloadStagesSection {
    /// Offload tasks decomposed.
    pub tasks: u64,
    /// Per-stage rows in pipeline order.
    pub stages: Vec<StageRow>,
}

/// SLO budget verdict (schema v4): the declared objectives plus the
/// [`SloReport`] burn-rate accounting over the run's sample windows. The
/// report's whole-run p99 and Mpps are the artifact's headline numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct SloSection {
    /// The declared objectives.
    pub cfg: SloConfig,
    /// Sample windows scored.
    pub windows: u64,
    /// Windows that violated the latency budget.
    pub latency_violations: u64,
    /// Windows that violated the throughput floor.
    pub throughput_violations: u64,
    /// Latency burn rate (>1 = budget blown).
    pub latency_burn: f64,
    /// Throughput burn rate (>1 = budget blown).
    pub throughput_burn: f64,
    /// Every budget held over the run.
    pub met: bool,
}

impl From<&SloReport> for SloSection {
    fn from(r: &SloReport) -> SloSection {
        SloSection {
            cfg: r.cfg.clone(),
            windows: r.windows,
            latency_violations: r.latency_violations,
            throughput_violations: r.throughput_violations,
            latency_burn: r.latency_burn,
            throughput_burn: r.throughput_burn,
            met: r.met,
        }
    }
}

/// Band half-width around `final_w` used for settle-time detection.
const SETTLE_BAND: f64 = 0.05;

/// Settle time from a sampled trajectory: the time of the first sample
/// after which every later sample stays within [`SETTLE_BAND`] of the
/// final fraction.
pub fn settle_time_ns(samples: &[TimeSample], final_w: f64) -> Option<u64> {
    if samples.is_empty() {
        return None;
    }
    let mut settled_at = None;
    for s in samples {
        if (s.offload_fraction - final_w).abs() <= SETTLE_BAND {
            settled_at.get_or_insert(s.t.as_ns());
        } else {
            settled_at = None;
        }
    }
    settled_at
}

/// One benchmark run as a versioned, machine-readable artifact (schema
/// [`SCHEMA_VERSION`]).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// App name (`ipv4` / `ipv6` / `ipsec` / `ids`).
    pub app: String,
    /// `git rev-parse HEAD` of the working tree, or `"unknown"`.
    pub git_sha: String,
    /// `rustc --version`, or `"unknown"`.
    pub rustc: String,
    /// FNV-1a digest over the run configuration (hex). Comparing reports
    /// with different digests still works but warns: the numbers describe
    /// different experiments.
    pub config_digest: String,
    /// Whether the run used the shortened `NBA_QUICK` windows.
    pub quick: bool,
    /// Measurement window length, nanoseconds.
    pub duration_ns: u64,
    /// Offered load over the window, Gbps.
    pub offered_gbps: f64,
    /// Transmitted throughput, Gbps (the paper's headline metric).
    pub tx_gbps: f64,
    /// Transmitted throughput, Mpps.
    pub tx_mpps: f64,
    /// RX-ring drops in the window.
    pub rx_dropped: u64,
    /// End-to-end round-trip latency summary.
    pub latency: LatencySummary,
    /// Balancer convergence.
    pub balancer: BalancerReport,
    /// Fault-injection and recovery accounting (all-zero on clean runs).
    pub faults: FaultsSection,
    /// Per-element attribution, sorted by node.
    pub elements: Vec<ElementReport>,
    /// Throughput-vs-workers sweep, when the run was a scaling sweep
    /// (`None` for single-configuration runs).
    pub scaling: Option<ScalingSection>,
    /// Offload stage decomposition (`None` unless stage stats were on).
    pub offload_stages: Option<OffloadStagesSection>,
    /// Cost-model drift accounting (`None` unless drift detection was on).
    pub drift: Option<DriftReport>,
    /// SLO budget verdict (`None` unless an SLO was configured).
    pub slo: Option<SloSection>,
    /// Stateful flow-table totals across every worker shard (`None` for
    /// stateless apps: plain forwarding has no flow plane).
    pub flows: Option<FlowShardSnapshot>,
}

json_struct! { LatencySummary { p50_ns, p90_ns, p99_ns, p999_ns, mean_ns, max_ns, count } }
json_struct! { ElementReport { node, element, batches, packets, drops, busy_ns, p50_ns, p99_ns } }
json_struct! { WPoint { t_ns, w } }
json_struct! { BalancerReport { final_w, settle_ns, trajectory } }
json_struct! { QuarantineSpan { start_ns, end_ns } }
json_struct! {
    FaultsSection {
        injected, retried, fell_back_packets, dropped_packets, panics_contained, quarantines,
    }
}
json_struct! { ScalePoint { workers, tx_mpps, tx_gbps } }
json_struct! { ScalingSection { runtime, series } }
json_struct! { StageRow { stage, mean_ns, p99_ns, total_ns } }
json_struct! { OffloadStagesSection { tasks, stages } }
json_struct! {
    SloSection {
        windows, latency_violations, throughput_violations, latency_burn, throughput_burn, met,
    } flatten { cfg }
}
json_struct! {
    BenchReport {
        app, git_sha, rustc, config_digest, quick, duration_ns, offered_gbps, tx_gbps,
        tx_mpps, rx_dropped, latency, balancer, faults, elements,
    } omit_none { scaling, offload_stages, drift, slo, flows }
}

/// FNV-1a over the configuration knobs that define the experiment. Not a
/// cryptographic identity — a cheap "same experiment?" check.
pub fn config_digest(cfg: &RuntimeConfig) -> String {
    let canon = format!(
        "sockets={} ports={} wps={} io={} comp={} agg={} aggto={} inflight={} backlog={} reuse={} policy={:?} compute={:?} warmup={} measure={}",
        cfg.topology.sockets.len(),
        cfg.topology.ports.len(),
        cfg.workers_per_socket,
        cfg.io_batch,
        cfg.comp_batch,
        cfg.offload_aggregate,
        cfg.offload_agg_timeout.as_ns(),
        cfg.gpu_max_inflight,
        cfg.device_backlog_batches,
        cfg.datablock_reuse,
        cfg.branch_policy,
        cfg.compute,
        cfg.warmup.as_ns(),
        cfg.measure.as_ns(),
    );
    // Only an *active* fault plan changes the experiment; keeping the canon
    // string unchanged otherwise means clean digests still match artifacts
    // written before faults existed.
    let canon = if cfg.fault.plan.is_active() {
        format!("{canon} faults={}", cfg.fault.plan.render())
    } else {
        canon
    };
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in canon.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// `git rev-parse HEAD`, or `"unknown"` outside a repository.
pub fn git_sha() -> String {
    command_output("git", &["rev-parse", "HEAD"])
}

/// `rustc --version`, or `"unknown"`.
pub fn rustc_version() -> String {
    command_output("rustc", &["--version"])
}

/// A command's trimmed output, or `"unknown"` when it fails or says nothing.
fn command_output(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

impl BenchReport {
    /// Builds a report from a finished run. Provenance fields (`git_sha`,
    /// `rustc`) are captured from the environment here.
    pub fn from_run(app: &str, cfg: &RuntimeConfig, run: &RunReport, quick: bool) -> BenchReport {
        BenchReport {
            app: app.to_string(),
            git_sha: git_sha(),
            rustc: rustc_version(),
            config_digest: config_digest(cfg),
            quick,
            duration_ns: run.duration.as_ns(),
            offered_gbps: run.offered_gbps,
            tx_gbps: run.tx_gbps,
            tx_mpps: run.tx_mpps(),
            rx_dropped: run.rx_dropped,
            latency: LatencySummary::from_histogram(&run.latency),
            balancer: BalancerReport {
                final_w: run.final_w,
                settle_ns: settle_time_ns(&run.samples, run.final_w),
                trajectory: run
                    .samples
                    .iter()
                    .map(|s| WPoint {
                        t_ns: s.t.as_ns(),
                        w: s.offload_fraction,
                    })
                    .collect(),
            },
            faults: FaultsSection {
                injected: run.faults.snapshot.injected(),
                retried: run.faults.snapshot.retried,
                fell_back_packets: run.faults.snapshot.fell_back_packets,
                dropped_packets: run.faults.snapshot.dropped_packets,
                panics_contained: run.faults.snapshot.panics_contained,
                quarantines: run
                    .faults
                    .quarantines
                    .iter()
                    .map(|(start, end)| QuarantineSpan {
                        start_ns: start.as_ns(),
                        end_ns: end.map(|t| t.as_ns()),
                    })
                    .collect(),
            },
            elements: run
                .elements
                .iter()
                .map(|p| ElementReport {
                    node: p.node as u64,
                    element: p.element.to_string(),
                    batches: p.batches,
                    packets: p.packets,
                    drops: p.drops,
                    busy_ns: p.busy.as_ns(),
                    p50_ns: p.latency.percentile_ns(50.0),
                    p99_ns: p.latency.percentile_ns(99.0),
                })
                .collect(),
            scaling: None,
            offload_stages: run.stages.as_ref().map(|st| OffloadStagesSection {
                tasks: st.tasks,
                stages: nba_core::audit::OffloadStage::ALL
                    .iter()
                    .map(|s| StageRow {
                        stage: s.as_str().to_string(),
                        mean_ns: st.mean_ns(*s),
                        p99_ns: st.hist[s.index()].percentile_ns(99.0),
                        total_ns: st.total_ns[s.index()],
                    })
                    .collect(),
            }),
            drift: run.drift.clone(),
            slo: run.slo.as_ref().map(SloSection::from),
            flows: run.flows.as_ref().map(FlowReport::totals),
        }
    }

    /// Attaches a scaling sweep to the report (points are sorted by
    /// worker count).
    pub fn with_scaling(mut self, runtime: &str, mut series: Vec<ScalePoint>) -> BenchReport {
        series.sort_by_key(|p| p.workers);
        self.scaling = Some(ScalingSection {
            runtime: runtime.to_string(),
            series,
        });
        self
    }

    /// Serializes to indented JSON (the `BENCH_*.json` artifact).
    pub fn to_json(&self) -> String {
        let mut v = self.encode();
        if let Value::Obj(m) = &mut v {
            m.insert("schema_version".to_owned(), SCHEMA_VERSION.encode());
        }
        format!("{v:#}\n")
    }

    /// Parses a report back from JSON, validating the schema version.
    pub fn parse(text: &str) -> Result<BenchReport, String> {
        let v = json::parse(text).map_err(|e| e.to_string())?;
        let version: u64 = json::field(&v, "schema_version")?;
        if version != SCHEMA_VERSION {
            return Err(format!(
                "unsupported schema_version {version} (this build reads {SCHEMA_VERSION})"
            ));
        }
        BenchReport::decode(&v)
    }
}

// ---------------------------------------------------------------------------
// The regression gate.
// ---------------------------------------------------------------------------

/// Per-metric tolerances for [`compare`]. All gates are one-sided:
/// improvements never fail.
#[derive(Debug, Clone, Copy)]
pub struct Tolerances {
    /// Relative throughput loss allowed (0.10 = current may be up to 10 %
    /// below baseline).
    pub throughput_rel: f64,
    /// Relative latency growth allowed.
    pub latency_rel: f64,
    /// Absolute latency slack, nanoseconds — added on top of the relative
    /// bound so tiny baselines don't gate on noise.
    pub latency_abs_ns: u64,
    /// Absolute drift allowed in the balancer's final `w` (two-sided: a
    /// large move either way means the operating point changed).
    pub w_abs: f64,
}

impl Default for Tolerances {
    fn default() -> Tolerances {
        Tolerances {
            throughput_rel: 0.10,
            latency_rel: 0.30,
            latency_abs_ns: 2_000,
            w_abs: 0.15,
        }
    }
}

/// Verdict of one compared metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within tolerance (or improved).
    Ok,
    /// Out of tolerance.
    Regressed,
    /// Reported for context, never gates.
    Info,
}

impl Verdict {
    fn as_str(&self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "REGRESSED",
            Verdict::Info => "info",
        }
    }
}

/// One row of the comparison verdict table.
#[derive(Debug, Clone)]
pub struct CompareRow {
    /// Metric name.
    pub metric: String,
    /// Baseline value, rendered.
    pub baseline: String,
    /// Current value, rendered.
    pub current: String,
    /// Change, rendered (signed percent or absolute).
    pub delta: String,
    /// Allowed change, rendered.
    pub allowed: String,
    /// Outcome.
    pub verdict: Verdict,
}

/// Result of diffing two reports.
#[derive(Debug, Clone, Default)]
pub struct Comparison {
    /// Per-metric rows, gating metrics first.
    pub rows: Vec<CompareRow>,
    /// Non-gating observations (config digest drift, element set changes).
    pub warnings: Vec<String>,
}

impl Comparison {
    /// True when any gated metric regressed.
    pub fn regressed(&self) -> bool {
        self.rows.iter().any(|r| r.verdict == Verdict::Regressed)
    }

    /// Renders the verdict table plus warnings.
    pub fn render(&self) -> String {
        let mut t = Table::new(vec![
            "metric", "baseline", "current", "delta", "allowed", "verdict",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.metric.clone(),
                r.baseline.clone(),
                r.current.clone(),
                r.delta.clone(),
                r.allowed.clone(),
                r.verdict.as_str().to_string(),
            ]);
        }
        let mut out = t.render();
        for w in &self.warnings {
            out.push_str(&format!("warning: {w}\n"));
        }
        out.push_str(if self.regressed() {
            "verdict: REGRESSED\n"
        } else {
            "verdict: ok\n"
        });
        out
    }
}

fn rel_delta(base: f64, cur: f64) -> String {
    if base == 0.0 {
        return "n/a".to_string();
    }
    format!("{:+.1}%", (cur - base) / base * 100.0)
}

fn count_delta(base: u64, cur: u64) -> String {
    format!("{:+}", i128::from(cur) - i128::from(base))
}

fn ok_if(ok: bool) -> Verdict {
    if ok {
        Verdict::Ok
    } else {
        Verdict::Regressed
    }
}

fn row(
    metric: &str,
    baseline: String,
    current: String,
    delta: String,
    allowed: &str,
    verdict: Verdict,
) -> CompareRow {
    CompareRow {
        metric: metric.to_string(),
        baseline,
        current,
        delta,
        allowed: allowed.to_string(),
        verdict,
    }
}

/// A context row: reported, never gates.
fn info(metric: &str, baseline: String, current: String) -> CompareRow {
    row(
        metric,
        baseline,
        current,
        "-".to_string(),
        "-",
        Verdict::Info,
    )
}

/// A context row for a count.
fn count_info(metric: &str, base: u64, cur: u64) -> CompareRow {
    let (b, c) = (base.to_string(), cur.to_string());
    row(metric, b, c, count_delta(base, cur), "-", Verdict::Info)
}

/// "Higher is better" gate (throughput).
fn gate_floor(rows: &mut Vec<CompareRow>, metric: &str, base: f64, cur: f64, rel: f64) {
    let floor = base * (1.0 - rel);
    let (b, c) = (format!("{base:.3}"), format!("{cur:.3}"));
    let allowed = format!("≥ {floor:.3}");
    rows.push(row(
        metric,
        b,
        c,
        rel_delta(base, cur),
        &allowed,
        ok_if(cur >= floor),
    ));
}

/// "Lower is better" gate (latency), with absolute slack.
fn gate_ceiling_ns(rows: &mut Vec<CompareRow>, metric: &str, base: u64, cur: u64, t: &Tolerances) {
    let ceil = (base as f64 * (1.0 + t.latency_rel)) + t.latency_abs_ns as f64;
    let (b, c) = (format!("{base}ns"), format!("{cur}ns"));
    let delta = rel_delta(base as f64, cur as f64);
    let allowed = format!("≤ {}ns", ceil as u64);
    rows.push(row(
        metric,
        b,
        c,
        delta,
        &allowed,
        ok_if(cur as f64 <= ceil),
    ));
}

/// Hygiene gate: against a clean (zero) baseline, the normal CI case, any
/// count is a regression. When the baseline itself ran a drill the counts
/// are experiment parameters, so they only inform.
fn gate_zero(rows: &mut Vec<CompareRow>, metric: &str, base: u64, cur: u64) {
    let (allowed, verdict) = match base {
        0 => ("0", ok_if(cur == 0)),
        _ => ("-", Verdict::Info),
    };
    let (b, c) = (base.to_string(), cur.to_string());
    rows.push(row(metric, b, c, count_delta(base, cur), allowed, verdict));
}

/// Warns when only one of the two reports carries a section.
fn one_sided(warnings: &mut Vec<String>, what: &str, base: bool, cur: bool) {
    match (base, cur) {
        (true, false) => warnings.push(format!("baseline has {what} but current report does not")),
        (false, true) => warnings.push(format!("current report has {what} but baseline does not")),
        _ => {}
    }
}

/// Diffs `cur` against `base` under `tol`, producing the verdict table.
///
/// Gated: `tx_gbps`, `tx_mpps` (floor), end-to-end `p50/p99/p999` latency
/// (ceiling), the balancer's `final_w` (absolute band), fault and flow
/// hygiene counters (zero against a clean baseline), per-worker scaling
/// points and live-flow occupancy (floor). Context-only: SLO burn rates,
/// drift events, RX drops, settle time, other flow counts. App mismatch is
/// itself a regression — the diff would be meaningless.
pub fn compare(base: &BenchReport, cur: &BenchReport, tol: &Tolerances) -> Comparison {
    let mut c = Comparison::default();
    if base.app != cur.app {
        let (b, a, dash) = (base.app.clone(), cur.app.clone(), "-".to_string());
        c.rows
            .push(row("app", b, a, dash, "equal", Verdict::Regressed));
        return c;
    }
    if base.config_digest != cur.config_digest {
        c.warnings.push(format!(
            "config digest changed ({} -> {}): reports describe different experiment setups",
            base.config_digest, cur.config_digest
        ));
    }
    if base.quick != cur.quick {
        c.warnings.push(format!(
            "quick-mode mismatch (baseline quick={}, current quick={})",
            base.quick, cur.quick
        ));
    }

    let rows = &mut c.rows;
    let thr = tol.throughput_rel;
    gate_floor(rows, "tx_gbps", base.tx_gbps, cur.tx_gbps, thr);
    gate_floor(rows, "tx_mpps", base.tx_mpps, cur.tx_mpps, thr);
    let (bl, cl) = (&base.latency, &cur.latency);
    gate_ceiling_ns(rows, "latency_p50", bl.p50_ns, cl.p50_ns, tol);
    gate_ceiling_ns(rows, "latency_p99", bl.p99_ns, cl.p99_ns, tol);
    gate_ceiling_ns(rows, "latency_p999", bl.p999_ns, cl.p999_ns, tol);
    let (bw, cw) = (base.balancer.final_w, cur.balancer.final_w);
    rows.push(row(
        "final_w",
        format!("{bw:.3}"),
        format!("{cw:.3}"),
        format!("{:+.3}", cw - bw),
        &format!("±{:.3}", tol.w_abs),
        ok_if((cw - bw).abs() <= tol.w_abs),
    ));
    let (bf, cf) = (&base.faults, &cur.faults);
    for (metric, b, a) in [
        ("faults_injected", bf.injected, cf.injected),
        ("fault_dropped_pkts", bf.dropped_packets, cf.dropped_packets),
        ("panics_contained", bf.panics_contained, cf.panics_contained),
    ] {
        gate_zero(rows, metric, b, a);
    }

    // Scaling sweep: gate each worker count's throughput against the
    // same worker count in the baseline. Points only one side has are
    // warnings — the sweeps describe different experiments.
    if let (Some(b), Some(cu)) = (&base.scaling, &cur.scaling) {
        if b.runtime != cu.runtime {
            let msg = format!("scaling runtime changed ({} -> {})", b.runtime, cu.runtime);
            c.warnings.push(msg);
        }
        for bp in &b.series {
            match cu.series.iter().find(|p| p.workers == bp.workers) {
                Some(cp) => {
                    let metric = format!("scale_w{}_mpps", bp.workers);
                    gate_floor(rows, &metric, bp.tx_mpps, cp.tx_mpps, thr);
                }
                None => c.warnings.push(format!(
                    "scaling point workers={} missing from current report",
                    bp.workers
                )),
            }
        }
        for cp in &cu.series {
            if !b.series.iter().any(|p| p.workers == cp.workers) {
                let msg = format!("scaling point workers={} has no baseline", cp.workers);
                c.warnings.push(msg);
            }
        }
    }
    let (bs, cs) = (base.scaling.is_some(), cur.scaling.is_some());
    one_sided(&mut c.warnings, "a scaling sweep", bs, cs);

    // Stateful flow plane: live-flow occupancy is a capacity claim, so it
    // gates like throughput (floor); table-full drops, death evictions,
    // out-of-state drops and foreign-bucket inserts (a clean run never
    // re-steers a bucket) gate like fault counters. Everything else is
    // context.
    if let (Some(b), Some(cu)) = (&base.flows, &cur.flows) {
        gate_floor(rows, "flows_live", b.live as f64, cu.live as f64, thr);
        for (metric, bv, cv) in [
            (
                "flow_table_full_drops",
                b.table_full_drops,
                cu.table_full_drops,
            ),
            ("flow_evict_death", b.evict_death, cu.evict_death),
            ("flow_migrated_in", b.migrated_in, cu.migrated_in),
            (
                "flow_out_of_state_drops",
                b.out_of_state_drops,
                cu.out_of_state_drops,
            ),
        ] {
            gate_zero(rows, metric, bv, cv);
        }
        for (metric, bv, cv) in [
            ("flow_inserts", b.inserts, cu.inserts),
            ("flow_evictions", b.evictions_total(), cu.evictions_total()),
            ("nat_ports_in_use", b.nat_ports_in_use, cu.nat_ports_in_use),
        ] {
            rows.push(count_info(metric, bv, cv));
        }
    }
    let (bs, cs) = (base.flows.is_some(), cur.flows.is_some());
    one_sided(&mut c.warnings, "a flows section", bs, cs);

    // Audit-plane context: SLO burn rates and drift events inform but
    // never gate — they describe budgets and model fit, not regressions
    // the throughput/latency gates wouldn't already catch.
    if base.slo.is_some() || cur.slo.is_some() {
        let fmt = |v: Option<f64>| v.map_or("-".to_string(), |x| format!("{x:.3}"));
        let (b, c) = (base.slo.as_ref(), cur.slo.as_ref());
        for (metric, bv, cv) in [
            (
                "slo_latency_burn",
                b.map(|s| s.latency_burn),
                c.map(|s| s.latency_burn),
            ),
            (
                "slo_throughput_burn",
                b.map(|s| s.throughput_burn),
                c.map(|s| s.throughput_burn),
            ),
        ] {
            rows.push(info(metric, fmt(bv), fmt(cv)));
        }
    }
    if base.drift.is_some() || cur.drift.is_some() {
        let fmt = |d: &Option<DriftReport>| {
            d.as_ref().map_or("-".to_string(), |d| {
                format!("{} (err {:.3})", d.events, d.rel_err)
            })
        };
        rows.push(info("drift_events", fmt(&base.drift), fmt(&cur.drift)));
    }
    rows.push(count_info("rx_dropped", base.rx_dropped, cur.rx_dropped));
    let settle = |s: Option<u64>| s.map_or("never".to_string(), |ns| format!("{ns}ns"));
    let (b, a) = (
        settle(base.balancer.settle_ns),
        settle(cur.balancer.settle_ns),
    );
    rows.push(info("settle", b, a));
    if base.elements.len() != cur.elements.len() {
        c.warnings.push(format!(
            "element count changed ({} -> {})",
            base.elements.len(),
            cur.elements.len()
        ));
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchReport {
        BenchReport {
            app: "ipv4".to_string(),
            git_sha: "deadbeef".to_string(),
            rustc: "rustc 1.0 \"quoted\"".to_string(),
            config_digest: "00ff".to_string(),
            quick: true,
            duration_ns: 28_000_000,
            offered_gbps: 80.0,
            tx_gbps: 41.5,
            tx_mpps: 61.75,
            rx_dropped: 12,
            latency: LatencySummary {
                p50_ns: 40_000,
                p90_ns: 55_000,
                p99_ns: 70_000,
                p999_ns: 90_000,
                mean_ns: 42_000,
                max_ns: 120_000,
                count: 1_000_000,
            },
            balancer: BalancerReport {
                final_w: 0.62,
                settle_ns: Some(30_000_000),
                trajectory: vec![
                    WPoint {
                        t_ns: 1_000,
                        w: 0.5,
                    },
                    WPoint {
                        t_ns: 2_000,
                        w: 0.62,
                    },
                ],
            },
            faults: FaultsSection::default(),
            elements: vec![ElementReport {
                node: 0,
                element: "IPLookup".to_string(),
                batches: 10,
                packets: 640,
                drops: 0,
                busy_ns: 5_000,
                p50_ns: 480,
                p99_ns: 900,
            }],
            scaling: None,
            offload_stages: None,
            drift: None,
            slo: None,
            flows: None,
        }
    }

    #[test]
    fn json_round_trip() {
        let mut r = sample();
        r.faults = FaultsSection {
            injected: 9,
            retried: 4,
            fell_back_packets: 512,
            dropped_packets: 64,
            panics_contained: 1,
            quarantines: vec![
                QuarantineSpan {
                    start_ns: 10_000_000,
                    end_ns: Some(14_000_000),
                },
                QuarantineSpan {
                    start_ns: 20_000_000,
                    end_ns: None,
                },
            ],
        };
        let parsed = BenchReport::parse(&r.to_json()).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn json_round_trip_with_scaling() {
        let r = sample().with_scaling(
            "des",
            vec![
                ScalePoint {
                    workers: 4,
                    tx_mpps: 30.0,
                    tx_gbps: 15.4,
                },
                ScalePoint {
                    workers: 1,
                    tx_mpps: 8.0,
                    tx_gbps: 4.1,
                },
            ],
        );
        let parsed = BenchReport::parse(&r.to_json()).unwrap();
        assert_eq!(parsed, r);
        // with_scaling sorts by worker count.
        let series = &parsed.scaling.as_ref().unwrap().series;
        assert_eq!(series[0].workers, 1);
        assert_eq!(series[1].workers, 4);
    }

    #[test]
    fn json_round_trip_with_audit_sections() {
        let mut r = sample();
        r.offload_stages = Some(OffloadStagesSection {
            tasks: 42,
            stages: vec![
                StageRow {
                    stage: "gather".to_string(),
                    mean_ns: 1500.0,
                    p99_ns: 2100,
                    total_ns: 63_000,
                },
                StageRow {
                    stage: "compute".to_string(),
                    mean_ns: 20_000.5,
                    p99_ns: 31_000,
                    total_ns: 840_021,
                },
            ],
        });
        r.drift = Some(DriftReport {
            tasks: 42,
            rel_err: 0.75,
            events: 1,
            worst_stage: Some("launch".to_string()),
            worst_excess_ns: 1_000_000.0,
        });
        r.slo = Some(SloSection {
            cfg: SloConfig {
                latency_ns: Some(500_000),
                min_mpps: None,
                error_budget: 0.05,
            },
            windows: 25,
            latency_violations: 3,
            throughput_violations: 0,
            latency_burn: 2.4,
            throughput_burn: 0.0,
            met: false,
        });
        let parsed = BenchReport::parse(&r.to_json()).unwrap();
        assert_eq!(parsed, r);
        // The audit context rows show up in a comparison but never gate.
        let c = compare(&r, &r, &Tolerances::default());
        assert!(!c.regressed(), "{}", c.render());
        let rendered = c.render();
        assert!(rendered.contains("slo_latency_burn"), "{rendered}");
        assert!(rendered.contains("drift_events"), "{rendered}");
    }

    fn sample_flows() -> FlowShardSnapshot {
        FlowShardSnapshot {
            live: 4096,
            inserts: 4096,
            hits: 1_000_000,
            misses: 4096,
            evict_idle: 0,
            evict_embryonic: 0,
            evict_closed: 0,
            evict_death: 0,
            migrated_in: 0,
            table_full_drops: 0,
            out_of_state_drops: 0,
            nat_ports_in_use: 4096,
        }
    }

    #[test]
    fn json_round_trip_with_flows() {
        let mut r = sample();
        r.flows = Some(sample_flows());
        let parsed = BenchReport::parse(&r.to_json()).unwrap();
        assert_eq!(parsed, r);
        // The flow rows show up in a comparison of identical reports
        // without gating.
        let c = compare(&r, &r, &Tolerances::default());
        assert!(!c.regressed(), "{}", c.render());
        assert!(c.render().contains("flows_live"), "{}", c.render());
    }

    #[test]
    fn flow_occupancy_cliff_fails() {
        let mut base = sample();
        base.flows = Some(sample_flows());
        let mut cur = base.clone();
        // Losing a quarter of the live flows is past the 10 % floor.
        cur.flows.as_mut().unwrap().live = 3072;
        let c = compare(&base, &cur, &Tolerances::default());
        assert!(c.regressed(), "{}", c.render());
    }

    #[test]
    fn flow_hygiene_against_clean_baseline_regresses() {
        let mut base = sample();
        base.flows = Some(sample_flows());
        for tweak in [
            |f: &mut FlowShardSnapshot| f.table_full_drops = 1,
            |f: &mut FlowShardSnapshot| f.evict_death = 7,
            |f: &mut FlowShardSnapshot| f.out_of_state_drops = 3,
            |f: &mut FlowShardSnapshot| f.migrated_in = 5,
        ] {
            let mut cur = base.clone();
            tweak(cur.flows.as_mut().unwrap());
            let c = compare(&base, &cur, &Tolerances::default());
            assert!(c.regressed(), "{}", c.render());
        }
        // A baseline that itself ran a kill drill makes the counts
        // informational, like the fault counters.
        let mut drilled = base.clone();
        drilled.flows.as_mut().unwrap().evict_death = 100;
        let mut cur = drilled.clone();
        cur.flows.as_mut().unwrap().evict_death = 250;
        let c = compare(&drilled, &cur, &Tolerances::default());
        assert!(!c.regressed(), "{}", c.render());
    }

    #[test]
    fn missing_flows_section_only_warns() {
        let mut base = sample();
        base.flows = Some(sample_flows());
        let cur = sample();
        let c = compare(&base, &cur, &Tolerances::default());
        assert!(!c.regressed(), "{}", c.render());
        assert!(!c.warnings.is_empty());
    }

    #[test]
    fn scaling_point_cliff_fails() {
        let pts = |m1: f64, m4: f64| {
            vec![
                ScalePoint {
                    workers: 1,
                    tx_mpps: m1,
                    tx_gbps: m1 / 2.0,
                },
                ScalePoint {
                    workers: 4,
                    tx_mpps: m4,
                    tx_gbps: m4 / 2.0,
                },
            ]
        };
        let base = sample().with_scaling("des", pts(8.0, 30.0));
        // One worker count regressing is enough to gate.
        let cur = sample().with_scaling("des", pts(8.0, 20.0));
        let c = compare(&base, &cur, &Tolerances::default());
        assert!(c.regressed(), "{}", c.render());
        // Within tolerance passes; missing points only warn.
        let ok = sample().with_scaling("des", pts(7.8, 29.0));
        assert!(!compare(&base, &ok, &Tolerances::default()).regressed());
        let fewer = sample().with_scaling(
            "des",
            vec![ScalePoint {
                workers: 1,
                tx_mpps: 8.0,
                tx_gbps: 4.0,
            }],
        );
        let c = compare(&base, &fewer, &Tolerances::default());
        assert!(!c.regressed());
        assert!(!c.warnings.is_empty());
    }

    #[test]
    fn parse_rejects_wrong_schema_version() {
        let text = sample().to_json().replace(
            &format!("\"schema_version\": {SCHEMA_VERSION}"),
            "\"schema_version\": 999",
        );
        assert!(BenchReport::parse(&text)
            .unwrap_err()
            .contains("schema_version"));
    }

    #[test]
    fn parse_rejects_wrong_typed_or_missing_booleans() {
        let mut r = sample();
        r.slo = Some(SloSection {
            cfg: SloConfig::default(),
            windows: 1,
            latency_violations: 0,
            throughput_violations: 0,
            latency_burn: 0.0,
            throughput_burn: 0.0,
            met: true,
        });
        let text = r.to_json();
        assert_eq!(BenchReport::parse(&text).unwrap(), r);
        for (from, to) in [
            ("\"quick\": true", "\"quick\": \"true\""),
            ("\"quick\": true,", ""),
            ("\"met\": true", "\"met\": 1"),
            ("\"met\": true,", ""),
        ] {
            let bad = text.replacen(from, to, 1);
            assert_ne!(bad, text, "{from} not found in\n{text}");
            let err = BenchReport::parse(&bad).unwrap_err();
            assert!(err.contains("quick") || err.contains("met"), "{err}");
        }
    }

    /// Every checked-in baseline is in the canonical form the writer
    /// produces: parsing and re-serializing it changes no byte.
    #[test]
    fn baselines_round_trip_byte_for_byte() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../bench/baselines");
        let mut n = 0;
        for entry in std::fs::read_dir(dir).expect("baselines directory") {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|e| e == "json") {
                let text = std::fs::read_to_string(&path).unwrap();
                let report =
                    BenchReport::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
                assert_eq!(report.to_json(), text, "{}", path.display());
                n += 1;
            }
        }
        assert_eq!(n, 6, "expected the six checked-in baselines");
    }

    #[test]
    fn faults_against_clean_baseline_regress() {
        let base = sample();
        let mut cur = base.clone();
        cur.faults.injected = 3;
        cur.faults.dropped_packets = 128;
        let c = compare(&base, &cur, &Tolerances::default());
        assert!(c.regressed(), "{}", c.render());
    }

    #[test]
    fn faulty_baseline_makes_fault_counts_informational() {
        let mut base = sample();
        base.faults.injected = 100;
        base.faults.dropped_packets = 5;
        let mut cur = base.clone();
        cur.faults.injected = 250;
        cur.faults.dropped_packets = 12;
        let c = compare(&base, &cur, &Tolerances::default());
        assert!(!c.regressed(), "{}", c.render());
    }

    #[test]
    fn identical_reports_pass() {
        let r = sample();
        let c = compare(&r, &r, &Tolerances::default());
        assert!(!c.regressed(), "{}", c.render());
    }

    #[test]
    fn throughput_cliff_fails() {
        let base = sample();
        let mut cur = base.clone();
        cur.tx_gbps *= 0.5;
        let c = compare(&base, &cur, &Tolerances::default());
        assert!(c.regressed());
        assert!(c.render().contains("REGRESSED"));
    }

    #[test]
    fn improvement_never_fails() {
        let base = sample();
        let mut cur = base.clone();
        cur.tx_gbps *= 2.0;
        cur.latency.p50_ns /= 4;
        cur.latency.p99_ns /= 4;
        cur.latency.p999_ns /= 4;
        let c = compare(&base, &cur, &Tolerances::default());
        assert!(!c.regressed(), "{}", c.render());
    }

    #[test]
    fn latency_regression_fails_beyond_rel_plus_abs() {
        let base = sample();
        let mut cur = base.clone();
        cur.latency.p99_ns = (base.latency.p99_ns as f64 * 1.6) as u64;
        let c = compare(&base, &cur, &Tolerances::default());
        assert!(c.regressed());
    }

    #[test]
    fn tiny_latency_noise_is_absorbed_by_abs_slack() {
        let mut base = sample();
        base.latency.p50_ns = 100;
        base.latency.p99_ns = 200;
        base.latency.p999_ns = 300;
        let mut cur = base.clone();
        cur.latency.p50_ns = 900; // 9x, but within the 2000 ns slack
        let c = compare(&base, &cur, &Tolerances::default());
        assert!(!c.regressed(), "{}", c.render());
    }

    #[test]
    fn app_mismatch_is_a_regression() {
        let base = sample();
        let mut cur = base.clone();
        cur.app = "ids".to_string();
        assert!(compare(&base, &cur, &Tolerances::default()).regressed());
    }

    #[test]
    fn settle_time_requires_staying_in_band() {
        use nba_sim::Time;
        let mk = |t_ms: u64, w: f64| TimeSample {
            t: Time::from_ms(t_ms),
            tx_packets: 0,
            tx_mpps: 0.0,
            tx_gbps: 0.0,
            dropped: 0,
            rx_dropped: 0,
            latency_ewma_ns: 0,
            offloaded_batches: 0,
            offload_fraction: w,
            gpu_busy: Vec::new(),
            shards: Vec::new(),
            slo: None,
        };
        // Enters the band at 2 ms, leaves, re-enters for good at 4 ms.
        let samples = vec![mk(1, 0.2), mk(2, 0.61), mk(3, 0.4), mk(4, 0.6), mk(5, 0.62)];
        assert_eq!(
            settle_time_ns(&samples, 0.62),
            Some(Time::from_ms(4).as_ns())
        );
        // Never settles.
        assert_eq!(settle_time_ns(&[mk(1, 0.0)], 0.62), None);
        assert_eq!(settle_time_ns(&[], 0.62), None);
    }
}
