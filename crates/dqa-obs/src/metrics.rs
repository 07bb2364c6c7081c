//! The metrics registry and its instruments.
//!
//! Instruments are cheap-clone handles over atomic cells: a counter is
//! one `AtomicU64`, a gauge is an f64 bit pattern in an `AtomicU64`, and
//! a histogram is a fixed bucket ladder with lock-sharded accumulation
//! (each thread picks a shard once; shards merge at snapshot time). The
//! hot path never takes a lock, so instrumenting a phase costs a handful
//! of atomic ops — the `soak obs_overhead` gate holds it under 2% of
//! `table5_throughput`.
//!
//! A registry can be constructed *disabled*: every instrument it hands
//! out is then a no-op (one branch on a bool), which is what the
//! overhead bench compares against.

use crate::snapshot::{metric_key, HistogramSnapshot, Snapshot};
use qa_types::sync::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Default histogram ladder for latencies, in seconds: 1 ms to 10 min,
/// roughly logarithmic, wide enough for both the millisecond synthetic
/// corpus and the paper's 158 s sequential questions.
pub const DEFAULT_SECONDS_BUCKETS: &[f64] = &[
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
    100.0, 250.0, 600.0,
];

const SHARDS: usize = 8;

static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Each thread records into one histogram shard, assigned round-robin
    /// at first use. A single-threaded caller (the simulator) therefore
    /// always accumulates into one shard in observation order, which keeps
    /// the merged f64 sum bit-identical across replays.
    static SHARD: usize = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS;
}

fn shard_index() -> usize {
    SHARD.with(|s| *s)
}

/// Atomically add `delta` to an f64 stored as bits in `cell`.
fn atomic_f64_add(cell: &AtomicU64, delta: f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let next = (f64::from_bits(cur) + delta).to_bits();
        match cell.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// A monotonically increasing event count.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
    on: bool,
}

impl Counter {
    /// A standalone recording counter, not registered anywhere. Useful
    /// where a count is wanted even without a registry (a detached
    /// `Counter::default()` is a no-op instead).
    pub fn live() -> Counter {
        Counter {
            cell: Arc::default(),
            on: true,
        }
    }

    /// Count one event.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Count `n` events.
    pub fn add(&self, n: u64) {
        if self.on {
            self.cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A point-in-time f64 value (queue depth, load, in-flight count).
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    cell: Arc<AtomicU64>,
    on: bool,
}

impl Gauge {
    /// Overwrite the value.
    pub fn set(&self, v: f64) {
        if self.on {
            self.cell.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Adjust the value by `delta` (use negative deltas to decrement).
    pub fn add(&self, delta: f64) {
        if self.on {
            atomic_f64_add(&self.cell, delta);
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.cell.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
struct Shard {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum_bits: AtomicU64,
}

impl Shard {
    fn new(n_buckets: usize) -> Shard {
        Shard {
            buckets: (0..n_buckets).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0),
        }
    }
}

#[derive(Debug)]
struct HistogramInner {
    bounds: Box<[f64]>,
    shards: Vec<Shard>,
}

/// A fixed-bucket latency histogram with lock-sharded accumulation.
#[derive(Debug, Clone)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
    on: bool,
}

impl Histogram {
    fn new(bounds: &[f64], on: bool) -> Histogram {
        debug_assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "bucket bounds must be strictly increasing"
        );
        let n = bounds.len() + 1; // +1 overflow bucket
        Histogram {
            inner: Arc::new(HistogramInner {
                bounds: bounds.into(),
                shards: (0..SHARDS).map(|_| Shard::new(n)).collect(),
            }),
            on,
        }
    }

    /// Record one observation (seconds).
    pub fn observe(&self, v: f64) {
        if !self.on {
            return;
        }
        let shard = &self.inner.shards[shard_index()];
        let idx = self.inner.bounds.partition_point(|b| v > *b);
        shard.buckets[idx].fetch_add(1, Ordering::Relaxed);
        shard.count.fetch_add(1, Ordering::Relaxed);
        atomic_f64_add(&shard.sum_bits, v);
    }

    /// Merge every shard into one immutable snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let n = self.inner.bounds.len() + 1;
        let mut counts = vec![0u64; n];
        let mut count = 0u64;
        let mut sum = 0.0f64;
        for shard in &self.inner.shards {
            for (acc, cell) in counts.iter_mut().zip(shard.buckets.iter()) {
                *acc += cell.load(Ordering::Relaxed);
            }
            count += shard.count.load(Ordering::Relaxed);
            sum += f64::from_bits(shard.sum_bits.load(Ordering::Relaxed));
        }
        HistogramSnapshot {
            bounds: self.inner.bounds.to_vec(),
            counts,
            count,
            sum,
        }
    }
}

/// Times one phase against a [`Clock`](crate::Clock); the same code path
/// measures wall time in the runtime and virtual time in the simulator.
#[derive(Debug, Clone, Copy)]
pub struct PhaseTimer {
    start: f64,
}

impl PhaseTimer {
    /// Start timing now.
    pub fn start(clock: &dyn crate::Clock) -> PhaseTimer {
        PhaseTimer { start: clock.now() }
    }

    /// Seconds elapsed so far.
    pub fn elapsed(&self, clock: &dyn crate::Clock) -> f64 {
        (clock.now() - self.start).max(0.0)
    }

    /// Stop, record the elapsed seconds into `hist`, and return them.
    pub fn stop(self, clock: &dyn crate::Clock, hist: &Histogram) -> f64 {
        let dt = self.elapsed(clock);
        hist.observe(dt);
        dt
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    enabled: bool,
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

/// A family of named instruments with one snapshot/export point.
///
/// Cloning is cheap (an `Arc` bump); every layer of a backend can hold
/// its own handle. Instrument lookup takes a short-lived lock, so fetch
/// handles once (at construction/spawn time) and record through them on
/// the hot path.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<RegistryInner>,
}

impl MetricsRegistry {
    /// An enabled registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry {
            inner: Arc::new(RegistryInner {
                enabled: true,
                ..RegistryInner::default()
            }),
        }
    }

    /// A registry whose instruments are all no-ops — the baseline the
    /// `soak obs_overhead` gate compares against.
    pub fn disabled() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// The counter `name{labels}` (created on first use).
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        if !self.inner.enabled {
            return Counter::default();
        }
        let key = metric_key(name, labels);
        self.inner
            .counters
            .lock()
            .entry(key)
            .or_insert_with(|| Counter {
                cell: Arc::default(),
                on: true,
            })
            .clone()
    }

    /// The gauge `name{labels}` (created on first use).
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        if !self.inner.enabled {
            return Gauge::default();
        }
        let key = metric_key(name, labels);
        self.inner
            .gauges
            .lock()
            .entry(key)
            .or_insert_with(|| Gauge {
                cell: Arc::default(),
                on: true,
            })
            .clone()
    }

    /// The histogram `name{labels}` with the default seconds ladder.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        self.histogram_with(name, labels, DEFAULT_SECONDS_BUCKETS)
    }

    /// The histogram `name{labels}` with explicit bucket upper bounds.
    /// Bounds are fixed at creation; later callers get the existing
    /// ladder regardless of what they pass.
    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)], bounds: &[f64]) -> Histogram {
        if !self.inner.enabled {
            return Histogram::new(bounds, false);
        }
        let key = metric_key(name, labels);
        self.inner
            .histograms
            .lock()
            .entry(key)
            .or_insert_with(|| Histogram::new(bounds, true))
            .clone()
    }

    /// A deterministically ordered snapshot of every instrument.
    pub fn snapshot(&self) -> Snapshot {
        let counters = self
            .inner
            .counters
            .lock()
            .iter()
            .map(|(k, c)| (k.clone(), c.get()))
            .collect();
        let gauges = self
            .inner
            .gauges
            .lock()
            .iter()
            .map(|(k, g)| (k.clone(), g.get()))
            .collect();
        let histograms = self
            .inner
            .histograms
            .lock()
            .iter()
            .map(|(k, h)| (k.clone(), h.snapshot()))
            .collect();
        Snapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ManualClock;

    #[test]
    fn counters_accumulate_and_share_cells() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("dqa_test_total", &[("kind", "x")]);
        let b = reg.counter("dqa_test_total", &[("kind", "x")]);
        a.inc();
        b.add(4);
        assert_eq!(a.get(), 5);
        let snap = reg.snapshot();
        assert_eq!(snap.counters[r#"dqa_test_total{kind="x"}"#], 5);
    }

    #[test]
    fn gauges_set_and_adjust() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("dqa_depth", &[]);
        g.set(3.0);
        g.add(2.5);
        g.add(-1.5);
        assert_eq!(g.get(), 4.0);
    }

    #[test]
    fn histogram_observations_land_in_le_buckets() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram_with("dqa_t", &[], &[1.0, 2.0]);
        h.observe(0.5); // le 1.0
        h.observe(1.0); // le 1.0 (le is inclusive)
        h.observe(1.5); // le 2.0
        h.observe(9.0); // overflow
        let s = h.snapshot();
        assert_eq!(s.counts, vec![2, 1, 1]);
        assert_eq!(s.count, 4);
        assert!((s.sum - 12.0).abs() < 1e-12);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let reg = MetricsRegistry::disabled();
        let c = reg.counter("dqa_test_total", &[]);
        let g = reg.gauge("dqa_g", &[]);
        let h = reg.histogram("dqa_h", &[]);
        c.inc();
        g.set(5.0);
        h.observe(1.0);
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 0.0);
        assert_eq!(h.snapshot().count, 0);
        let snap = reg.snapshot();
        assert!(snap.counters.is_empty() && snap.gauges.is_empty() && snap.histograms.is_empty());
    }

    #[test]
    fn phase_timer_records_virtual_durations() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("dqa_phase_seconds", &[("module", "PR")]);
        let clock = ManualClock::new();
        clock.set(10.0);
        let t = PhaseTimer::start(&clock);
        clock.set(12.5);
        assert_eq!(t.elapsed(&clock), 2.5);
        let dt = t.stop(&clock, &h);
        assert_eq!(dt, 2.5);
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        assert!((s.sum - 2.5).abs() < 1e-12);
    }

    #[test]
    fn concurrent_recording_is_conserved() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram_with("dqa_mt", &[], &[0.5, 1.0, 2.0]);
        let c = reg.counter("dqa_mt_total", &[]);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let h = h.clone();
                let c = c.clone();
                s.spawn(move || {
                    for i in 0..1000 {
                        h.observe((i % 4) as f64 * 0.6);
                        c.inc();
                    }
                });
            }
        });
        let snap = h.snapshot();
        assert_eq!(snap.count, 4000);
        assert_eq!(c.get(), 4000);
        assert_eq!(snap.counts.iter().sum::<u64>(), 4000);
    }
}
