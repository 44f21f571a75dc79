//! Timed calls of the live runtime, the loss accounting every call must
//! satisfy, and the DES↔live differential check that runs before any
//! timing.

use std::time::{Duration, Instant};

use nba_core::runtime::live::{self, LiveConfig, LiveReport};
use nba_core::runtime::{des, PipelineBuilder, RuntimeConfig};
use nba_core::ComputeMode;
use nba_io::{Limited, PacketSource, TrafficGen};
use nba_sim::topology::{GpuSpec, PortSpec, SocketSpec};
use nba_sim::{Time, Topology};

use crate::workload::Workload;

/// Packets in the differential check's runs.
pub const CHECK_BUDGET: u64 = 4096;

/// Hard deadline of one `live::run` call. Budgeted, draining runs end as
/// soon as the budget is processed; the deadline only stops a hung run.
const DEADLINE: Duration = Duration::from_secs(60);

/// The run shape every live call shares: `LiveConfig::default()` with one
/// worker, one IO thread, lossless draining and a fixed packet budget.
pub fn live_config(w: Workload, seed: u64, budget: u64) -> LiveConfig {
    LiveConfig {
        workers: 1,
        io_threads: 1,
        drain: true,
        max_packets: Some(budget),
        duration: DEADLINE,
        traffic: w.traffic(seed),
        ..LiveConfig::default()
    }
}

/// Where every packet of a budget went.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Accounting {
    /// Packets generated.
    pub budget: u64,
    /// Packets transmitted.
    pub tx: u64,
    /// Packets the pipeline dropped by verdict (a discard edge, an
    /// element's drop).
    pub verdict_drops: u64,
    /// Packets the runtime reports as lost: RX-ring drops, the
    /// self-healing plane's losses, and packets of contained panics.
    pub attributed_lost: u64,
}

impl Accounting {
    /// Reads the accounting of one live report.
    pub fn of(budget: u64, r: &LiveReport) -> Accounting {
        let panicked = r.faults.snapshot.dropped_packets;
        Accounting {
            budget,
            tx: r.totals.tx_packets,
            // Worker-contained panics count their packets in `dropped`
            // too; they are losses, not verdicts.
            verdict_drops: r.totals.dropped.saturating_sub(panicked),
            attributed_lost: r.rx_dropped + r.health.stats.total_lost() + panicked,
        }
    }

    /// `budget − tx − verdict drops`: the packets that never got a verdict.
    pub fn lost(&self) -> u64 {
        self.budget
            .saturating_sub(self.tx)
            .saturating_sub(self.verdict_drops)
    }

    /// `budget = tx + verdict drops + lost`, with every lost packet
    /// attributed by the runtime's own counters.
    pub fn balances(&self) -> bool {
        self.tx + self.verdict_drops <= self.budget && self.lost() == self.attributed_lost
    }
}

/// Clean-run hygiene of one call: all should be zero on a run with no
/// injected fault, and none of them is gated.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Hygiene {
    /// Supervisor state transitions.
    pub transitions: u64,
    /// RSS re-steer operations.
    pub resteers: u64,
    /// Flow-table inserts a worker took over from another shard.
    pub migrated_in: u64,
    /// Packets dropped at full RX rings.
    pub rx_dropped: u64,
}

impl Hygiene {
    /// Reads the hygiene counters of one live report.
    pub fn of(r: &LiveReport) -> Hygiene {
        Hygiene {
            transitions: r.health.log.events.len() as u64,
            resteers: r.health.stats.resteers,
            migrated_in: r.flows.as_ref().map_or(0, |f| f.totals().migrated_in),
            rx_dropped: r.rx_dropped,
        }
    }
}

/// What one timed `live::run` call measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Call {
    /// Harness-measured wall time of the call, in seconds.
    pub wall_s: f64,
    /// The packet accounting.
    pub acc: Accounting,
    /// Frame bits transmitted.
    pub tx_bits: u64,
    /// Clean-run hygiene counters.
    pub hygiene: Hygiene,
}

impl Call {
    /// Transmitted packets per second, in millions.
    pub fn mpps(&self) -> f64 {
        self.acc.tx as f64 / self.wall_s / 1e6
    }

    /// Transmitted frame bits per second, in billions.
    pub fn gbps(&self) -> f64 {
        self.tx_bits as f64 / self.wall_s / 1e9
    }

    /// The line a measuring child process prints for this call.
    pub fn to_line(self) -> String {
        let (a, h) = (&self.acc, &self.hygiene);
        format!(
            "call {} {} {} {} {} {} {} {} {} {}",
            self.wall_s,
            a.budget,
            a.tx,
            self.tx_bits,
            a.verdict_drops,
            a.attributed_lost,
            h.transitions,
            h.resteers,
            h.migrated_in,
            h.rx_dropped
        )
    }

    /// Parses a line printed by [`Call::to_line`].
    pub fn from_line(line: &str) -> Option<Call> {
        let mut fields = line.strip_prefix("call ")?.split(' ');
        let wall_s: f64 = fields.next()?.parse().ok()?;
        let n: Vec<u64> = fields.map(|x| x.parse().ok()).collect::<Option<_>>()?;
        let [budget, tx, tx_bits, verdict_drops, attributed_lost, transitions, resteers, migrated_in, rx_dropped] =
            n[..]
        else {
            return None;
        };
        (wall_s > 0.0).then_some(Call {
            wall_s,
            acc: Accounting {
                budget,
                tx,
                verdict_drops,
                attributed_lost,
            },
            tx_bits,
            hygiene: Hygiene {
                transitions,
                resteers,
                migrated_in,
                rx_dropped,
            },
        })
    }
}

/// Times one `live::run` call with the given configuration.
pub fn timed_call(cfg: &LiveConfig, w: Workload, build: &PipelineBuilder) -> (Call, LiveReport) {
    let balancer = w.balancer();
    let budget = cfg.max_packets.expect("benchmark runs are budgeted");
    let t0 = Instant::now();
    let report = live::run(cfg, build, &balancer);
    let wall = t0.elapsed();
    let call = Call {
        wall_s: wall.as_secs_f64(),
        acc: Accounting::of(budget, &report),
        tx_bits: report.totals.tx_frame_bits,
        hygiene: Hygiene::of(&report),
    };
    (call, report)
}

/// One NIC port, one socket, one GPU: the DES shape matching a live run
/// with one IO thread.
fn one_port_topology() -> Topology {
    Topology {
        sockets: vec![SocketSpec { cores: 4 }],
        gpus: vec![GpuSpec {
            name: "GTX 680".to_owned(),
            socket: 0,
        }],
        ports: vec![PortSpec {
            speed_gbps: 10.0,
            socket: 0,
        }],
    }
}

/// The differential check: a short lossless live run with capture on must
/// transmit exactly the multiset of canonical verdicts `des::run_with_sources`
/// transmits for the same seed and budget. Returns the verdict count.
pub fn differential(w: Workload, seed: u64, build: &PipelineBuilder) -> Result<usize, String> {
    let live_cfg = LiveConfig {
        capture: true,
        ..live_config(w, seed, CHECK_BUDGET)
    };
    let (call, live_report) = timed_call(&live_cfg, w, build);
    if !call.acc.balances() || call.acc.lost() > 0 {
        return Err(format!("live check run is not lossless: {:?}", call.acc));
    }

    let traffic = w.traffic(seed);
    let des_cfg = RuntimeConfig {
        topology: one_port_topology(),
        workers_per_socket: 1,
        compute: ComputeMode::Full,
        warmup: Time::from_ms(2),
        measure: Time::from_ms(100),
        pool_size: 1 << 16,
        rxq_depth: 1 << 16,
        capture: true,
        ..RuntimeConfig::default()
    };
    let source = Limited::new(TrafficGen::new(traffic.clone()), CHECK_BUDGET);
    let des_run = des::run_with_sources(
        &des_cfg,
        build,
        &w.balancer(),
        vec![Box::new(source) as Box<dyn PacketSource>],
        traffic.offered_gbps,
    );
    let des_done = des_run.tx_capture.len() as u64 + des_run.totals.dropped;
    if des_run.rx_dropped > 0 || des_done != CHECK_BUDGET {
        return Err(format!(
            "DES reference did not process the budget: {des_done} of {CHECK_BUDGET}, {} RX drops",
            des_run.rx_dropped
        ));
    }

    let live_v = w.canon(&live_report.tx_capture)?;
    let des_v = w.canon(&des_run.tx_capture)?;
    if live_v.is_empty() {
        return Err("live check run transmitted nothing".to_owned());
    }
    if live_v != des_v {
        let differ = live_v.iter().zip(&des_v).filter(|(a, b)| a != b).count();
        return Err(format!(
            "live and DES verdicts diverge: {} vs {} packets, {differ} differ",
            live_v.len(),
            des_v.len()
        ));
    }
    Ok(live_v.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acc(tx: u64, verdict: u64, attributed: u64) -> Accounting {
        Accounting {
            budget: 100,
            tx,
            verdict_drops: verdict,
            attributed_lost: attributed,
        }
    }

    #[test]
    fn lossless_budget_balances() {
        let a = acc(90, 10, 0);
        assert_eq!(a.lost(), 0);
        assert!(a.balances());
    }

    #[test]
    fn attributed_loss_balances_and_unattributed_loss_does_not() {
        assert!(acc(90, 5, 5).balances());
        assert_eq!(acc(90, 5, 5).lost(), 5);
        assert!(!acc(90, 5, 0).balances());
        // More verdicts than packets generated is an accounting failure.
        assert!(!acc(95, 10, 0).balances());
    }

    #[test]
    fn call_lines_round_trip() {
        let call = Call {
            wall_s: 0.123_456_789,
            acc: Accounting {
                budget: 1 << 20,
                tx: 1_000_000,
                verdict_drops: 48_575,
                attributed_lost: 1,
            },
            tx_bits: 512_000_000,
            hygiene: Hygiene {
                transitions: 4,
                resteers: 1,
                migrated_in: 2,
                rx_dropped: 3,
            },
        };
        assert_eq!(Call::from_line(&call.to_line()), Some(call));
        assert!((call.mpps() - 1_000_000.0 / 0.123_456_789 / 1e6).abs() < 1e-9);
        assert_eq!(Call::from_line("call 1 2 3"), None);
        assert_eq!(Call::from_line(&format!("{} 9", call.to_line())), None);
        assert_eq!(Call::from_line("call 0 1 1 1 0 0 0 0 0 0"), None);
    }
}
