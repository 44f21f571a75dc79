//! Property tests of framework data structures.

use proptest::prelude::*;

use nba_core::batch::PacketBatch;
use nba_core::config::{build_graph, ElementRegistry};
use nba_core::element::KernelIo;
use nba_core::flow::{bucket_of, EvictReason, FlowKey, FlowRegistry, FlowTable, FlowTableConfig};
use nba_core::graph::BranchPolicy;
use nba_core::stats::LatencyHistogram;
use nba_io::Packet;

proptest! {
    /// Batch mask/take bookkeeping: live count always equals the number of
    /// occupied slots, under any operation sequence.
    #[test]
    fn batch_mask_take_algebra(ops in proptest::collection::vec((0u8..3, any::<usize>()), 0..100)) {
        let mut b = PacketBatch::with_capacity(16);
        for _ in 0..16 {
            b.push(Packet::from_bytes(&[0u8; 64]));
        }
        let mut model: Vec<bool> = vec![true; 16];
        for (op, idx) in ops {
            let i = idx % 16;
            match op {
                0 => {
                    b.mask(i);
                    model[i] = false;
                }
                1 => {
                    let took = b.take(i).is_some();
                    prop_assert_eq!(took, model[i]);
                    model[i] = false;
                }
                _ => {
                    // Read-only probes.
                    prop_assert_eq!(b.packet(i).is_some(), model[i]);
                }
            }
            prop_assert_eq!(b.len(), model.iter().filter(|&&x| x).count());
            let live: Vec<usize> = b.live_indices().collect();
            let expect: Vec<usize> =
                model.iter().enumerate().filter(|(_, &x)| x).map(|(k, _)| k).collect();
            prop_assert_eq!(live, expect);
        }
    }

    /// Kernel staging round-trips arbitrary segments.
    #[test]
    fn kernel_staging_round_trip(
        segments in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..50), 0..20),
        out_len in 1usize..16,
    ) {
        let refs: Vec<&[u8]> = segments.iter().map(|s| s.as_slice()).collect();
        let out_lens = vec![out_len; segments.len()];
        let (staged, total_out) = KernelIo::stage(&refs, &out_lens);
        prop_assert_eq!(total_out, out_len * segments.len());
        let mut out = vec![0u8; total_out];
        let io = KernelIo::parse(&staged, &mut out);
        prop_assert_eq!(io.items, segments.len());
        for (i, seg) in segments.iter().enumerate() {
            prop_assert_eq!(io.item_in(i), &seg[..]);
            prop_assert_eq!(io.item_out_range(i).len(), out_len);
        }
    }

    /// The configuration parser is total: any input yields Ok or Err,
    /// never a panic.
    #[test]
    fn config_parser_total(src in "\\PC{0,200}") {
        let reg = ElementRegistry::new();
        let _ = build_graph(&src, &reg, BranchPolicy::Predict);
    }

    /// The lexer handles arbitrary bytes including comment openers.
    #[test]
    fn config_parser_handles_comment_like_noise(
        noise in proptest::collection::vec(
            proptest::sample::select(vec!["//", "/*", "*/", "\"", ";", "->", "::", "a", "\n", "#", "[", "]"]),
            0..40),
    ) {
        let src: String = noise.concat();
        let reg = ElementRegistry::new();
        let _ = build_graph(&src, &reg, BranchPolicy::Predict);
    }

    /// Merging histograms is lossless with respect to counts: every
    /// recorded sample survives, totals and extrema combine exactly, and
    /// merge order doesn't matter.
    #[test]
    fn histogram_merge_lossless(
        xs in proptest::collection::vec(any::<u64>(), 0..200),
        ys in proptest::collection::vec(any::<u64>(), 0..200),
    ) {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        for &x in &xs { a.record_ns(x); }
        for &y in &ys { b.record_ns(y); }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(&ab, &ba);
        prop_assert_eq!(ab.count(), (xs.len() + ys.len()) as u64);
        let bucket_total: u64 = ab.nonzero_buckets().iter().map(|&(_, n)| n).sum();
        prop_assert_eq!(bucket_total, ab.count());

        // One histogram fed everything matches the merge exactly.
        let mut all = LatencyHistogram::new();
        for &v in xs.iter().chain(&ys) { all.record_ns(v); }
        prop_assert_eq!(&all, &ab);
        if !xs.is_empty() || !ys.is_empty() {
            let lo = xs.iter().chain(&ys).copied().min().unwrap();
            let hi = xs.iter().chain(&ys).copied().max().unwrap();
            prop_assert_eq!(ab.min_ns(), lo);
            prop_assert_eq!(ab.max_ns(), hi);
        }
    }

    /// `percentile_ns` is monotone in `p` and always lands inside the
    /// observed [min, max] range, for any sample set including the
    /// extremes 0 and `u64::MAX`.
    #[test]
    fn histogram_percentile_monotone_and_bounded(
        mut samples in proptest::collection::vec(any::<u64>(), 1..200),
        extremes in proptest::collection::vec(
            proptest::sample::select(vec![0u64, 1, u64::MAX - 1, u64::MAX]), 0..4),
    ) {
        samples.extend(extremes);
        let mut h = LatencyHistogram::new();
        for &s in &samples { h.record_ns(s); }
        let ps = [0.0, 1.0, 25.0, 50.0, 90.0, 99.0, 99.9, 100.0];
        let mut prev = 0u64;
        for &p in &ps {
            let v = h.percentile_ns(p);
            prop_assert!(v >= prev, "percentile not monotone: p{}={} < {}", p, v, prev);
            prop_assert!(v >= h.min_ns() && v <= h.max_ns(),
                "p{} = {} outside [{}, {}]", p, v, h.min_ns(), h.max_ns());
            prev = v;
        }
        // Single-sample histograms answer that sample exactly at every p.
        let mut one = LatencyHistogram::new();
        one.record_ns(samples[0]);
        for &p in &ps {
            prop_assert_eq!(one.percentile_ns(p), samples[0]);
        }
    }
}

/// One scripted flow-table operation: tick the bucket clock, insert,
/// look up, or close. Keys are drawn from a small space so hits,
/// collisions, and probe-chain compaction all actually happen.
type FlowOp = (u8, u16, u16);

fn flow_key(seed: u16) -> FlowKey {
    FlowKey {
        proto: 6,
        src_ip: 0x0a00_0000 | u32::from(seed),
        dst_ip: 0xc0a8_0001,
        src_port: 1024 + seed,
        dst_port: 80,
    }
}

/// Drives one table through the op script, returning the number of
/// eviction records handed back.
fn drive_flow_table(table: &mut FlowTable, ops: &[FlowOp]) -> u64 {
    let mut evicted = Vec::new();
    for &(op, seed, value) in ops {
        let key = flow_key(seed % 24);
        let bucket = bucket_of(key.digest());
        match op % 4 {
            0 => table.tick(bucket, &mut evicted),
            1 => {
                let _ = table.insert(
                    bucket,
                    key,
                    u64::from(value),
                    value % 2 == 0,
                    false,
                    &mut evicted,
                );
            }
            2 => {
                let _ = table.lookup(bucket, &key, &mut evicted);
            }
            _ => {
                let _ = table.remove(bucket, &key, EvictReason::Closed, &mut evicted);
            }
        }
    }
    evicted.len() as u64
}

proptest! {
    /// Flow-table bookkeeping under arbitrary op scripts: occupancy never
    /// exceeds capacity, the table's live count matches the shard gauge,
    /// and every inserted entry is conserved — still live or accounted to
    /// exactly one eviction reason.
    #[test]
    fn flow_table_occupancy_and_conservation(
        ops in proptest::collection::vec((any::<u8>(), any::<u16>(), any::<u16>()), 0..400),
        capacity in proptest::sample::select(vec![0u64, 1, 8, 64, 4096]),
        ttl in 1u64..5,
        embryonic_ttl in 0u64..3,
        epoch_pkts in proptest::sample::select(vec![0u64, 1, 4, 16]),
    ) {
        let cfg = FlowTableConfig { capacity, ttl_epochs: ttl, embryonic_ttl_epochs: embryonic_ttl, epoch_pkts };
        let registry = FlowRegistry::new();
        registry.set_rss_queues(1);
        let mut table = FlowTable::new(0, cfg, &registry);
        let handed_back = drive_flow_table(&mut table, &ops);

        prop_assert!(table.live() <= table.capacity());
        let report = registry.report().expect("shard registered");
        let snap = report.totals();
        prop_assert_eq!(table.live(), snap.live);
        prop_assert_eq!(snap.inserts, snap.live + snap.evictions_total());
        // Every eviction the stats counted was also handed back to the
        // caller (NAT port release depends on this).
        prop_assert_eq!(handed_back, snap.evictions_total());
        if capacity == 0 {
            prop_assert_eq!(snap.inserts, 0);
        }
    }

    /// Expiry is a pure function of the per-bucket packet sequence: the
    /// same op script replayed into a fresh table yields a bit-identical
    /// journal and identical counters — the invariant the cross-runtime
    /// differential suite leans on.
    #[test]
    fn flow_table_expiry_deterministic(
        ops in proptest::collection::vec((any::<u8>(), any::<u16>(), any::<u16>()), 0..300),
        epoch_pkts in proptest::sample::select(vec![1u64, 3, 8]),
    ) {
        let cfg = FlowTableConfig {
            capacity: 64,
            ttl_epochs: 2,
            embryonic_ttl_epochs: 1,
            epoch_pkts,
        };
        let run = || {
            let registry = FlowRegistry::new();
            registry.set_rss_queues(1);
            registry.enable_journal();
            let mut table = FlowTable::new(0, cfg, &registry);
            drive_flow_table(&mut table, &ops);
            (table.live(), registry.report().expect("shard registered"))
        };
        let (live_a, rep_a) = run();
        let (live_b, rep_b) = run();
        prop_assert_eq!(live_a, live_b);
        prop_assert!(rep_a.journal.bit_eq(&rep_b.journal));
        prop_assert_eq!(rep_a.totals(), rep_b.totals());
        rep_a.journal.replay().expect("journal replays");
    }

    /// Adversarial sizing never panics and the per-bucket rounding only
    /// ever rounds capacity up (until the anti-pathology clamp).
    #[test]
    fn flow_table_adversarial_sizing_total(
        capacity in proptest::sample::select(
            vec![0u64, 1, 2, 127, 128, 129, u64::from(u32::MAX), u64::MAX]),
        ttl in proptest::sample::select(vec![0u64, 1, u64::MAX]),
        epoch_pkts in proptest::sample::select(vec![0u64, 1, u64::MAX]),
        ops in proptest::collection::vec((any::<u8>(), any::<u16>(), any::<u16>()), 0..60),
    ) {
        let cfg = FlowTableConfig {
            capacity,
            ttl_epochs: ttl,
            embryonic_ttl_epochs: 0,
            epoch_pkts,
        };
        let registry = FlowRegistry::new();
        registry.set_rss_queues(1);
        let mut table = FlowTable::new(0, cfg, &registry);
        drive_flow_table(&mut table, &ops);
        prop_assert!(capacity == 0 || table.capacity() >= capacity.min(1 << 27));
        prop_assert!(table.live() <= table.capacity());
    }
}

/// Explicit edge cases around `bucket_floor` clamping: the smallest and
/// largest representable samples must bucket without panicking and report
/// themselves back exactly via min/max.
#[test]
fn histogram_extreme_samples_do_not_panic_or_misbucket() {
    let mut h = LatencyHistogram::new();
    h.record_ns(0);
    h.record_ns(u64::MAX);
    assert_eq!(h.count(), 2);
    assert_eq!(h.min_ns(), 0);
    assert_eq!(h.max_ns(), u64::MAX);
    // Percentiles stay within the observed range even though the top
    // bucket's floor is far below u64::MAX.
    assert_eq!(h.percentile_ns(0.0), 0);
    assert_eq!(h.percentile_ns(100.0), u64::MAX);
    // The Time-typed accessors saturate rather than overflow the
    // picosecond representation.
    let _ = h.max();
    let _ = h.percentile(100.0);
    // An empty histogram answers zeros, not panics.
    let e = LatencyHistogram::new();
    assert_eq!(e.count(), 0);
    assert_eq!(e.min_ns(), 0);
    assert_eq!(e.max_ns(), 0);
    assert_eq!(e.percentile_ns(50.0), 0);
}
