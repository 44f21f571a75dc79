//! Counters, the system inspector (§3.4), and latency histograms (§4.6).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use nba_sim::Time;

/// Per-worker counters, updated with relaxed atomics so the live runtime can
/// share them across threads (the DES runtime is single-threaded anyway).
#[derive(Debug, Default)]
pub struct Counters {
    /// Packets fetched from RX queues.
    pub rx_packets: AtomicU64,
    /// Packets transmitted.
    pub tx_packets: AtomicU64,
    /// Frame bits transmitted (the paper's Gbps accounting).
    pub tx_frame_bits: AtomicU64,
    /// Packets dropped inside the pipeline (invalid, TTL-expired...).
    pub dropped: AtomicU64,
    /// Batches processed by the IO loop.
    pub batches: AtomicU64,
    /// New batch objects allocated by splits.
    pub split_allocs: AtomicU64,
    /// Batches sent to an accelerator.
    pub offloaded_batches: AtomicU64,
    /// Packets processed by the CPU-side function of offloadables.
    pub cpu_processed: AtomicU64,
    /// Packets processed by the accelerator-side function.
    pub gpu_processed: AtomicU64,
    /// Exponentially-weighted moving average of recent packet latencies in
    /// nanoseconds (the bounded-latency balancer's feedback signal).
    pub latency_ewma_ns: AtomicU64,
}

impl Counters {
    /// Adds `n` with relaxed ordering.
    pub fn add(field: &AtomicU64, n: u64) {
        field.fetch_add(n, Ordering::Relaxed);
    }

    /// Folds one latency sample into the EWMA (alpha = 1/16).
    ///
    /// Uses a CAS loop rather than separate load/store so that concurrent
    /// samples from live-runtime workers are never silently dropped: each
    /// successful update is built from the value actually in the cell.
    pub fn observe_latency(&self, ns: u64) {
        let _ = self
            .latency_ewma_ns
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
                Some(if cur == 0 {
                    ns
                } else {
                    cur - cur / 16 + ns / 16
                })
            });
    }

    /// Reads with relaxed ordering.
    pub fn get(field: &AtomicU64) -> u64 {
        field.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of this one counter block — the per-worker
    /// shard of the system totals (sharded runtimes report these alongside
    /// the [`SystemInspector`]'s merged view).
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            rx_packets: Counters::get(&self.rx_packets),
            tx_packets: Counters::get(&self.tx_packets),
            tx_frame_bits: Counters::get(&self.tx_frame_bits),
            dropped: Counters::get(&self.dropped),
            batches: Counters::get(&self.batches),
            split_allocs: Counters::get(&self.split_allocs),
            offloaded_batches: Counters::get(&self.offloaded_batches),
            cpu_processed: Counters::get(&self.cpu_processed),
            gpu_processed: Counters::get(&self.gpu_processed),
        }
    }
}

/// A point-in-time copy of aggregated counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// See [`Counters::rx_packets`].
    pub rx_packets: u64,
    /// See [`Counters::tx_packets`].
    pub tx_packets: u64,
    /// See [`Counters::tx_frame_bits`].
    pub tx_frame_bits: u64,
    /// See [`Counters::dropped`].
    pub dropped: u64,
    /// See [`Counters::batches`].
    pub batches: u64,
    /// See [`Counters::split_allocs`].
    pub split_allocs: u64,
    /// See [`Counters::offloaded_batches`].
    pub offloaded_batches: u64,
    /// See [`Counters::cpu_processed`].
    pub cpu_processed: u64,
    /// See [`Counters::gpu_processed`].
    pub gpu_processed: u64,
}

impl Snapshot {
    /// Renders the snapshot as a flat JSON object (the stats endpoint's
    /// `totals` block).
    pub fn to_json(&self) -> String {
        crate::json::Json::encode(self).to_string()
    }
}

crate::json_struct! {
    Snapshot {
        rx_packets, tx_packets, tx_frame_bits, dropped, batches, split_allocs,
        offloaded_batches, cpu_processed, gpu_processed,
    }
}

impl std::ops::Sub for Snapshot {
    type Output = Snapshot;

    /// Field-wise saturating difference. Saturating rather than panicking:
    /// windows are taken over relaxed atomics, so a field read can lag a
    /// sibling by a few increments and momentarily run "backwards".
    fn sub(self, rhs: Snapshot) -> Snapshot {
        Snapshot {
            rx_packets: self.rx_packets.saturating_sub(rhs.rx_packets),
            tx_packets: self.tx_packets.saturating_sub(rhs.tx_packets),
            tx_frame_bits: self.tx_frame_bits.saturating_sub(rhs.tx_frame_bits),
            dropped: self.dropped.saturating_sub(rhs.dropped),
            batches: self.batches.saturating_sub(rhs.batches),
            split_allocs: self.split_allocs.saturating_sub(rhs.split_allocs),
            offloaded_batches: self.offloaded_batches.saturating_sub(rhs.offloaded_batches),
            cpu_processed: self.cpu_processed.saturating_sub(rhs.cpu_processed),
            gpu_processed: self.gpu_processed.saturating_sub(rhs.gpu_processed),
        }
    }
}

impl std::ops::Add for Snapshot {
    type Output = Snapshot;

    /// Field-wise sum (shard merge).
    fn add(self, rhs: Snapshot) -> Snapshot {
        Snapshot {
            rx_packets: self.rx_packets + rhs.rx_packets,
            tx_packets: self.tx_packets + rhs.tx_packets,
            tx_frame_bits: self.tx_frame_bits + rhs.tx_frame_bits,
            dropped: self.dropped + rhs.dropped,
            batches: self.batches + rhs.batches,
            split_allocs: self.split_allocs + rhs.split_allocs,
            offloaded_batches: self.offloaded_batches + rhs.offloaded_batches,
            cpu_processed: self.cpu_processed + rhs.cpu_processed,
            gpu_processed: self.gpu_processed + rhs.gpu_processed,
        }
    }
}

/// The system inspector exposed to load-balancer elements: aggregated
/// statistics "such as the number of packets/batches processed after
/// startup" (§3.4).
#[derive(Debug, Clone, Default)]
pub struct SystemInspector {
    workers: Vec<Arc<Counters>>,
}

impl SystemInspector {
    /// Builds an inspector over per-worker counter blocks.
    pub fn new(workers: Vec<Arc<Counters>>) -> SystemInspector {
        SystemInspector { workers }
    }

    /// The counter block of worker `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn worker(&self, i: usize) -> &Arc<Counters> {
        &self.workers[i]
    }

    /// Number of workers.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Aggregates all workers into a snapshot.
    pub fn snapshot(&self) -> Snapshot {
        let mut s = Snapshot::default();
        for w in &self.workers {
            s = s + w.snapshot();
        }
        s
    }

    /// Total packets transmitted (the ALB's throughput signal).
    pub fn total_tx_packets(&self) -> u64 {
        self.workers
            .iter()
            .map(|w| Counters::get(&w.tx_packets))
            .sum()
    }

    /// The worst recent-latency EWMA across workers, in nanoseconds (the
    /// bounded-latency balancer's signal; 0 until traffic flows).
    pub fn worst_latency_ewma_ns(&self) -> u64 {
        self.workers
            .iter()
            .map(|w| Counters::get(&w.latency_ewma_ns))
            .max()
            .unwrap_or(0)
    }
}

/// A log-linear latency histogram (HdrHistogram-style: 4 sub-bucket bits,
/// ~6 % relative resolution) over nanosecond values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: Vec<u64>,
    count: u64,
    min_ns: u64,
    max_ns: u64,
    sum_ns: u128,
}

/// Sub-bucket resolution bits.
const SUB_BITS: u32 = 4;
const SUB: u64 = 1 << SUB_BITS;

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram {
            buckets: vec![0; ((64 - SUB_BITS as usize) + 1) * SUB as usize],
            count: 0,
            min_ns: u64::MAX,
            max_ns: 0,
            sum_ns: 0,
        }
    }

    fn index(ns: u64) -> usize {
        if ns < SUB {
            return ns as usize;
        }
        let exp = 63 - ns.leading_zeros() as u64; // >= SUB_BITS
        let major = exp - u64::from(SUB_BITS) + 1;
        let minor = (ns >> (exp - u64::from(SUB_BITS))) - SUB;
        (major * SUB + SUB + minor) as usize - SUB as usize
    }

    /// Representative (lower-bound) value of bucket `idx`.
    fn bucket_floor(idx: usize) -> u64 {
        let idx = idx as u64;
        if idx < SUB {
            return idx;
        }
        let major = (idx - SUB) / SUB + 1;
        let minor = (idx - SUB) % SUB;
        (SUB + minor) << (major - 1)
    }

    /// Records one latency sample.
    pub fn record(&mut self, latency: Time) {
        self.record_ns(latency.as_ns());
    }

    /// Records one latency sample given directly in nanoseconds (the
    /// element-dispatch path accumulates raw `u64` nanoseconds; converting
    /// through [`Time`] would overflow for values above `u64::MAX / 1000`).
    pub fn record_ns(&mut self, ns: u64) {
        let idx = Self::index(ns).min(self.buckets.len() - 1);
        self.buckets[idx] += 1;
        self.count += 1;
        self.min_ns = self.min_ns.min(ns);
        self.max_ns = self.max_ns.max(ns);
        self.sum_ns += u128::from(ns);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Largest nanosecond count representable as a [`Time`] (picoseconds in
    /// a `u64`); ns-valued accessors clamp here before converting.
    const TIME_NS_MAX: u64 = u64::MAX / 1000;

    /// Smallest recorded sample in nanoseconds (0 when empty).
    pub fn min_ns(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min_ns
        }
    }

    /// Largest recorded sample in nanoseconds.
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// Mean of recorded samples in nanoseconds.
    pub fn mean_ns(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            (self.sum_ns / u128::from(self.count)) as u64
        }
    }

    /// Smallest recorded sample.
    pub fn min(&self) -> Time {
        Time::from_ns(self.min_ns().min(Self::TIME_NS_MAX))
    }

    /// Largest recorded sample.
    pub fn max(&self) -> Time {
        Time::from_ns(self.max_ns.min(Self::TIME_NS_MAX))
    }

    /// Mean of recorded samples.
    pub fn mean(&self) -> Time {
        Time::from_ns(self.mean_ns().min(Self::TIME_NS_MAX))
    }

    /// Value at percentile `p` in nanoseconds, within bucket resolution.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile_ns(&self, p: f64) -> u64 {
        assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
        if self.count == 0 {
            return 0;
        }
        let target = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        // The last sample is the recorded maximum itself — answer it
        // exactly instead of its bucket's floor, so p100 == max() even
        // though buckets are ~6 % wide.
        if target >= self.count {
            return self.max_ns;
        }
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::bucket_floor(i).max(self.min_ns).min(self.max_ns);
            }
        }
        self.max_ns
    }

    /// Value at percentile `p` (0.0..=100.0), within bucket resolution.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> Time {
        Time::from_ns(self.percentile_ns(p).min(Self::TIME_NS_MAX))
    }

    /// Nonzero buckets as `(bucket floor in ns, count)` pairs, coarsest
    /// possible view of the raw distribution (exporters, merge audits).
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Self::bucket_floor(i), c))
            .collect()
    }

    /// CDF points `(latency, cumulative fraction)` for plotting (Fig. 14).
    pub fn cdf(&self) -> Vec<(Time, f64)> {
        let mut out = Vec::new();
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            seen += c;
            out.push((
                Time::from_ns(Self::bucket_floor(i)),
                seen as f64 / self.count as f64,
            ));
        }
        out
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.min_ns = self.min_ns.min(other.min_ns);
        self.max_ns = self.max_ns.max(other.max_ns);
        self.sum_ns += other.sum_ns;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles_are_monotone_and_bracketing() {
        let mut h = LatencyHistogram::new();
        for us in 1..=1000u64 {
            h.record(Time::from_us(us));
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.percentile(50.0);
        let p99 = h.percentile(99.0);
        let p999 = h.percentile(99.9);
        assert!(p50 <= p99 && p99 <= p999);
        // ~6% bucket resolution.
        let mid = p50.as_us() as f64;
        assert!((mid - 500.0).abs() / 500.0 < 0.08, "p50 = {mid}");
        assert!(h.min() == Time::from_us(1));
        assert!(h.max() == Time::from_us(1000));
        let mean = h.mean().as_us();
        assert!((mean as i64 - 500).abs() <= 1);
    }

    #[test]
    fn histogram_handles_tiny_and_huge() {
        let mut h = LatencyHistogram::new();
        h.record(Time::ZERO);
        h.record(Time::from_ns(3));
        h.record(Time::from_secs(100));
        assert_eq!(h.count(), 3);
        assert_eq!(h.percentile(0.0), Time::ZERO);
        // Within the ~6 % bucket resolution of the true 100 s maximum.
        assert!(h.percentile(100.0) >= Time::from_secs(93));
    }

    #[test]
    fn cdf_is_monotone_reaching_one() {
        let mut h = LatencyHistogram::new();
        for i in 0..100 {
            h.record(Time::from_us(10 + i % 7));
        }
        let cdf = h.cdf();
        assert!(!cdf.is_empty());
        let mut prev = 0.0;
        for &(_, f) in &cdf {
            assert!(f >= prev);
            prev = f;
        }
        assert!((prev - 1.0).abs() < 1e-9);
    }

    #[test]
    fn merge_combines_counts() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        a.record(Time::from_us(10));
        b.record(Time::from_us(20));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), Time::from_us(10));
        assert_eq!(a.max(), Time::from_us(20));
    }

    #[test]
    fn inspector_aggregates_workers() {
        let w1 = Arc::new(Counters::default());
        let w2 = Arc::new(Counters::default());
        Counters::add(&w1.tx_packets, 10);
        Counters::add(&w2.tx_packets, 5);
        Counters::add(&w2.tx_frame_bits, 512);
        let insp = SystemInspector::new(vec![w1, w2]);
        assert_eq!(insp.total_tx_packets(), 15);
        let s = insp.snapshot();
        assert_eq!(s.tx_packets, 15);
        assert_eq!(s.tx_frame_bits, 512);
        assert_eq!(insp.worker_count(), 2);
    }

    #[test]
    fn snapshot_subtraction_windows() {
        let w = Arc::new(Counters::default());
        let insp = SystemInspector::new(vec![w.clone()]);
        Counters::add(&w.tx_packets, 100);
        let a = insp.snapshot();
        Counters::add(&w.tx_packets, 50);
        let b = insp.snapshot();
        assert_eq!((b - a).tx_packets, 50);
    }

    #[test]
    #[should_panic(expected = "percentile out of range")]
    fn bad_percentile_panics() {
        let h = LatencyHistogram::new();
        let _ = h.percentile(101.0);
    }

    #[test]
    fn snapshot_subtraction_saturates() {
        let newer = Snapshot {
            tx_packets: 10,
            ..Snapshot::default()
        };
        let older = Snapshot {
            tx_packets: 25,
            dropped: 3,
            ..Snapshot::default()
        };
        let w = newer - older;
        assert_eq!(w.tx_packets, 0);
        assert_eq!(w.dropped, 0);
    }

    #[test]
    fn concurrent_latency_samples_are_not_lost() {
        // With identical samples the EWMA is a fixed point: once the cell
        // holds `c`, folding in another `c` yields `c - c/16 + c/16 = c`
        // exactly (c divisible by 16). Under the old load/store pair a race
        // could publish a half-applied value; under CAS every thread's
        // update composes, so the final value must be exactly `c`.
        let c = Arc::new(Counters::default());
        c.observe_latency(1600);
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.observe_latency(1600);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(Counters::get(&c.latency_ewma_ns), 1600);
    }

    #[test]
    fn ewma_converges_toward_recent_samples() {
        let c = Counters::default();
        c.observe_latency(32_000);
        for _ in 0..200 {
            c.observe_latency(1_600);
        }
        let v = Counters::get(&c.latency_ewma_ns);
        assert!(v < 2_000, "EWMA failed to track recent samples: {v}");
    }
}
