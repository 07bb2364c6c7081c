//! Property tests for the histogram pipeline: lock-sharded recording
//! must conserve observations exactly, and nearest-rank quantile
//! estimates must stay within one bucket width of the true value.

use dqa_obs::MetricsRegistry;
use qa_types::rng::cases;

/// Merging shards loses nothing: whatever the thread interleaving,
/// the snapshot's count and per-bucket tallies equal a serial
/// single-thread recording of the same values, and the sum matches
/// the serial sum up to f64 reassociation error.
#[test]
fn sharded_recording_conserves_observations() {
    cases(0x0b5_0001, 256, |rng| {
        let values = rng.vec(1..=399, |r| r.uniform(0.0..700.0));
        let threads = rng.range(1..=7) as usize;
        let registry = MetricsRegistry::new();
        let hist = registry.histogram("dqa_prop_seconds", &[]);
        let chunk = values.len().div_ceil(threads);
        std::thread::scope(|scope| {
            for part in values.chunks(chunk) {
                let hist = hist.clone();
                scope.spawn(move || {
                    for v in part {
                        hist.observe(*v);
                    }
                });
            }
        });
        let snap = registry.snapshot();
        let h = &snap.histograms["dqa_prop_seconds"];
        assert_eq!(h.count, values.len() as u64);
        assert_eq!(h.counts.iter().sum::<u64>(), h.count);
        let serial: f64 = values.iter().sum();
        assert!(
            (h.sum - serial).abs() <= 1e-6 * serial.abs().max(1.0),
            "merged sum {} drifted from serial sum {serial}",
            h.sum
        );

        let serial_reg = MetricsRegistry::new();
        let serial_hist = serial_reg.histogram("dqa_prop_seconds", &[]);
        for v in &values {
            serial_hist.observe(*v);
        }
        let serial_snap = serial_reg.snapshot();
        assert_eq!(
            &h.counts,
            &serial_snap.histograms["dqa_prop_seconds"].counts
        );
    });
}

/// The quantile estimate is the upper bound of the bucket holding
/// the nearest-rank true value: the truth lies in the half-open
/// bucket `(previous_bound, estimate]` for in-range samples.
#[test]
fn quantile_estimate_is_within_one_bucket() {
    cases(0x0b5_0002, 256, |rng| {
        let values = rng.vec(1..=199, |r| r.uniform(1e-4..600.0));
        // `0.0..=1.0`: both ends are cases worth their own draw.
        let q = match rng.below(16) {
            0 => 0.0,
            1 => 1.0,
            _ => rng.f64(),
        };
        let registry = MetricsRegistry::new();
        let hist = registry.histogram("dqa_prop_q_seconds", &[]);
        for v in &values {
            hist.observe(*v);
        }
        let snap = registry.snapshot();
        let h = &snap.histograms["dqa_prop_q_seconds"];
        let est = h.quantile(q);

        let mut sorted = values.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        let truth = sorted[rank - 1];

        assert!(truth <= est, "true quantile {truth} above estimate {est}");
        let idx = h
            .bounds
            .iter()
            .position(|b| *b == est)
            .expect("estimate is one of the bucket bounds");
        let prev = if idx == 0 { 0.0 } else { h.bounds[idx - 1] };
        assert!(
            truth > prev,
            "true quantile {truth} more than one bucket below estimate {est} (prev bound {prev})"
        );
    });
}
