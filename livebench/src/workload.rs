//! The three workloads: what traffic each offers, which pipeline and
//! balancer it runs, and how its transmitted packets are compared across
//! runtimes.

use nba_apps::ipsec::open_esp;
use nba_apps::pipelines::{self, AppConfig};
use nba_apps::stateful::NatConfig;
use nba_core::capture::{fnv1a, TxRecord};
use nba_core::lb::{self, CpuOnly, FixedFraction, SharedBalancer};
use nba_core::runtime::{BuildCtx, PipelineBuilder};
use nba_core::{ElementGraph, NodeLocalStorage};
use nba_io::{L4Proto, SizeDist, TrafficConfig};

/// One named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Bare IPv4 forwarding at 64 B: framework cost dominates.
    Ipv4,
    /// IPsec gateway on IMIX, half the batches offloaded: crypto dominates.
    IpsecImix,
    /// NAT44 on churning 64 B TCP flows: flow-table writes beside reads.
    NatChurn,
}

/// Concurrent flows in every workload.
const FLOWS: usize = 4096;

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Ipv4, Workload::IpsecImix, Workload::NatChurn];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Ipv4 => "ipv4-64b",
            Workload::IpsecImix => "ipsec-imix-offload",
            Workload::NatChurn => "nat-tcp-churn",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Packets per timed `live::run` call. Sized so one call lasts 0.7 to
    /// 0.9 s on a 2-vCPU Xeon host, long next to the fixed cost of spawning
    /// and joining the runtime's threads.
    pub fn budget(self) -> u64 {
        match self {
            Workload::Ipv4 | Workload::NatChurn => 1 << 20,
            Workload::IpsecImix => 1 << 17,
        }
    }

    /// The offered traffic. The seed is the only input the harness varies.
    pub fn traffic(self, seed: u64) -> TrafficConfig {
        let base = TrafficConfig {
            flows: FLOWS,
            seed,
            ..TrafficConfig::default()
        };
        match self {
            Workload::Ipv4 => TrafficConfig {
                size: SizeDist::Fixed(64),
                ..base
            },
            Workload::IpsecImix => TrafficConfig {
                size: SizeDist::Imix,
                ..base
            },
            // Each flow ends after 32 packets and a fresh identity replaces
            // it. More than 4,096 flows would exhaust the 64,512-port pool.
            Workload::NatChurn => TrafficConfig {
                size: SizeDist::Fixed(64),
                l4: L4Proto::Tcp,
                flow_lifetime_pkts: 32,
                ..base
            },
        }
    }

    /// The app's pipeline builder. For the table-driven apps, calling it
    /// once fills the process-global table caches.
    pub fn builder(self) -> PipelineBuilder {
        match self {
            Workload::Ipv4 => pipelines::ipv4_router(&AppConfig::default()),
            Workload::IpsecImix => pipelines::ipsec_gateway(&AppConfig::default()),
            Workload::NatChurn => pipelines::nat44(&NatConfig::default()),
        }
    }

    /// The balancer of the live runs and the correctness check.
    pub fn balancer(self) -> SharedBalancer {
        match self {
            Workload::IpsecImix => lb::shared(Box::new(FixedFraction::new(0.5))),
            Workload::Ipv4 | Workload::NatChurn => lb::shared(Box::new(CpuOnly)),
        }
    }

    /// Canonical, runtime-independent verdicts of a run's transmitted
    /// packets, sorted. Routers and NAT compare frames verbatim. The IPsec
    /// gateway's ciphertext depends on which replica's ESP sequence
    /// counter a flow met, so it is judged on what the far gateway
    /// recovers: the authenticated, decrypted inner packet.
    pub fn canon(self, records: &[TxRecord]) -> Result<Vec<Verdict>, String> {
        let mut v = match self {
            Workload::Ipv4 | Workload::NatChurn => records
                .iter()
                .map(|r| (r.flow, r.iface_out, 0, r.frame_digest()))
                .collect(),
            Workload::IpsecImix => {
                let sa = pipelines::sa_table(AppConfig::default().seed);
                records
                    .iter()
                    .map(|r| {
                        let (proto, plain) = open_esp(&r.frame, &sa)
                            .map_err(|e| format!("TX frame fails ESP verification: {e:?}"))?;
                        Ok((r.flow, r.iface_out, u64::from(proto), fnv1a(&plain)))
                    })
                    .collect::<Result<Vec<_>, String>>()?
            }
        };
        v.sort_unstable();
        Ok(v)
    }
}

/// One transmitted packet reduced to flow, egress verdict, inner protocol
/// (IPsec only) and content digest.
pub type Verdict = (u64, u64, u64, u64);

/// The build context of a single worker replica.
pub fn build_ctx(balancer: SharedBalancer) -> BuildCtx {
    BuildCtx {
        worker: 0,
        socket: 0,
        nls: NodeLocalStorage::new(),
        balancer,
        policy: Default::default(),
    }
}

/// Builds one graph replica of the workload's pipeline.
pub fn build_graph(w: Workload, build: &PipelineBuilder) -> ElementGraph {
    build(&build_ctx(w.balancer()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_unknown_names_are_refused() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("ipv6"), None);
    }

    #[test]
    fn seed_is_the_only_varying_input() {
        for w in Workload::ALL {
            let a = w.traffic(1);
            let b = w.traffic(2);
            assert_eq!((a.seed, b.seed), (1, 2));
            assert_eq!(a.flows, b.flows);
            assert_eq!(a.flow_lifetime_pkts, b.flow_lifetime_pkts);
        }
    }
}
