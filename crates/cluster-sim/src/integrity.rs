//! Virtual-time mirror of the runtime's scrub-and-repair engine.
//!
//! Where [`crate::workload`] simulates the paper's scheduling experiments,
//! this module simulates the *data-integrity* tier: corruption faults fire
//! at scheduled virtual times against per-sub-collection segment state, a
//! background scrubber walks the shard directory under the same
//! admission-headroom throttle the runtime uses, and question arrivals
//! exercise the read-path sampled check. The point of the mirror is
//! quantitative: time-to-repair, scrub/foreground interference and the
//! detection split (scrub vs read path) in *virtual* seconds, decoupled
//! from wall-clock noise — and bit-identical across runs, which the
//! `soak integrity` gate asserts by running every scenario twice.
//!
//! Everything is deterministic: arrivals are periodic, detection draws go
//! through the same splitmix64 construction the fault framework uses, and
//! the event loop orders ties by `(time, class, sequence)`.

use faults::{CorruptTarget, FaultEvent, FaultSchedule};
use qa_types::rng::{mix, unit_f64};
use rebalance::MigrationThrottle;
use serde::Serialize;

/// A piecewise-constant window of modeled foreground load: the admission
/// gate holds `in_flight` questions throughout `[from, until)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadWindow {
    /// Window start (virtual seconds).
    pub from: f64,
    /// Window end (virtual seconds).
    pub until: f64,
    /// Foreground questions in flight inside the window.
    pub in_flight: usize,
}

/// Question arrival period: one question every `QUESTION_EVERY` virtual
/// seconds.
const QUESTION_EVERY: f64 = 0.5;

/// Term blocks per shard region in the modeled segment.
const BLOCKS_PER_SHARD: usize = 32;

/// Virtual seconds between scrub steps.
const SCRUB_EVERY: f64 = 1.0;

/// Configuration of one integrity simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct IntegritySimConfig {
    /// Number of sub-collections (shard regions in the segment).
    pub shards: u32,
    /// Simulation horizon (virtual seconds).
    pub horizon_secs: f64,
    /// Term blocks the read path spot-checks per shard (`0` disables the
    /// read check; `>= BLOCKS_PER_SHARD` makes it exhaustive).
    pub read_sample_blocks: usize,
    /// Shard regions verified per scrub step.
    pub scrub_quantum: usize,
    /// Admission-headroom throttle pacing the scrubber (same shape as the
    /// runtime's).
    pub throttle: MigrationThrottle,
    /// Admission-gate capacity the throttle's headroom is measured against.
    pub capacity: usize,
    /// Modeled foreground load, first matching window wins; outside every
    /// window the gate is empty.
    pub load: Vec<LoadWindow>,
    /// Corruption events (index-segment targets fire; everything else is
    /// ignored here) plus the decision seed.
    pub faults: FaultSchedule,
    /// Sub-collections whose *replica* region is also damaged, forcing the
    /// rebuild repair path.
    pub replica_damaged: Vec<u32>,
}

impl Default for IntegritySimConfig {
    fn default() -> Self {
        IntegritySimConfig {
            shards: 8,
            horizon_secs: 120.0,
            read_sample_blocks: 4,
            scrub_quantum: 2,
            throttle: MigrationThrottle::default(),
            capacity: 8,
            load: Vec::new(),
            faults: FaultSchedule::seeded(1),
            replica_damaged: Vec::new(),
        }
    }
}

/// Aggregate outcome of one [`run_integrity_sim`] run. Every field is
/// deterministic for a given config; the soak bench diffs two runs'
/// serialized reports byte for byte.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct IntegritySimReport {
    /// Corruption events that damaged a segment region.
    pub injected: usize,
    /// Corruptions first caught by the background scrubber.
    pub detected_by_scrub: usize,
    /// Corruptions first caught by a question's read-path spot check.
    pub detected_by_read: usize,
    /// Repairs spliced from the replica.
    pub repaired_replica: usize,
    /// Repairs re-encoded from the source of truth.
    pub repaired_rebuild: usize,
    /// Questions that skipped quarantined shards and closed with reduced,
    /// explicitly annotated coverage.
    pub degraded_questions: usize,
    /// Questions that saw a fully healthy segment.
    pub clean_questions: usize,
    /// Questions that read a corrupt, not-yet-quarantined region without
    /// the sampled check catching it — the silent-wrongness exposure the
    /// tier exists to drive to zero. Exhaustive read sampling
    /// (`read_sample_blocks >= BLOCKS_PER_SHARD`) guarantees `0`.
    pub silently_exposed: usize,
    /// Scrub steps that verified at least one region.
    pub scrub_steps: usize,
    /// Scrub steps deferred by the headroom throttle.
    pub throttled_steps: usize,
    /// Mean virtual seconds from corruption to completed repair.
    pub mean_time_to_repair_secs: f64,
    /// Worst-case virtual seconds from corruption to completed repair.
    pub max_time_to_repair_secs: f64,
    /// Corruptions still unrepaired at the horizon.
    pub unrepaired_at_horizon: usize,
}

/// Per-shard segment state in the model.
#[derive(Debug, Clone, Copy, PartialEq)]
enum ShardState {
    Clean,
    /// Damaged, not yet detected. Carries the corruption time.
    Corrupt(f64),
    /// Detected and quarantined; awaiting scrub repair. Carries the
    /// corruption time (for time-to-repair accounting).
    Quarantined(f64),
}

/// Event classes, in tie-break order: corruption lands before the scrub or
/// a question observes the same instant, and scrub runs before questions so
/// a repair completed "at" t serves the question arriving at t.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum EventClass {
    Corrupt,
    Scrub,
    Question,
}

/// Run the integrity DES to its horizon.
pub fn run_integrity_sim(cfg: &IntegritySimConfig) -> IntegritySimReport {
    let mut report = IntegritySimReport::default();
    let n = cfg.shards.max(1);
    let mut shard: Vec<ShardState> = vec![ShardState::Clean; n as usize];
    let mut cursor = 0usize;
    let mut repair_times: Vec<f64> = Vec::new();

    // Build the time-ordered event list up front: corruption fires from
    // the schedule; scrub and question arrivals are periodic.
    let mut events: Vec<(f64, EventClass, u64)> = Vec::new();
    let mut seq = 0u64;
    for ev in &cfg.faults.events {
        let (CorruptTarget::IndexSegment { sub }, at) = match *ev {
            FaultEvent::BitFlip { target, at } | FaultEvent::TornWrite { target, at } => {
                (target, at)
            }
            _ => continue,
        };
        if at <= cfg.horizon_secs && sub < n {
            events.push((at, EventClass::Corrupt, u64::from(sub)));
        }
    }
    let mut t = SCRUB_EVERY;
    while t <= cfg.horizon_secs {
        events.push((t, EventClass::Scrub, 0));
        t += SCRUB_EVERY;
    }
    let mut t = QUESTION_EVERY;
    while t <= cfg.horizon_secs {
        events.push((t, EventClass::Question, seq));
        seq += 1;
        t += QUESTION_EVERY;
    }
    events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));

    // Decision seed for read-path sampling draws, domain-separated from
    // the judge's corruption decisions.
    let seed = mix(cfg.faults.seed, 0x5c2b_b3ad_0000_0001, 0);
    let in_flight_at = |t: f64| -> usize {
        cfg.load
            .iter()
            .find(|w| t >= w.from && t < w.until)
            .map_or(0, |w| w.in_flight)
    };
    let mut repair = |s: u32, since: f64, now: f64, report: &mut IntegritySimReport| {
        if cfg.replica_damaged.contains(&s) {
            report.repaired_rebuild += 1;
        } else {
            report.repaired_replica += 1;
        }
        repair_times.push(now - since);
    };

    for (t, class, payload) in events {
        match class {
            EventClass::Corrupt => {
                let s = payload as usize;
                // Re-corrupting a damaged region changes nothing the
                // model tracks; keep the earliest corruption time.
                if shard[s] == ShardState::Clean {
                    shard[s] = ShardState::Corrupt(t);
                    report.injected += 1;
                }
            }
            EventClass::Scrub => {
                if cfg.throttle.yields(in_flight_at(t), Some(cfg.capacity)) {
                    report.throttled_steps += 1;
                    continue;
                }
                report.scrub_steps += 1;
                let quantum = cfg.scrub_quantum.max(1).min(n as usize);
                for _ in 0..quantum {
                    let s = cursor % n as usize;
                    cursor += 1;
                    if let ShardState::Corrupt(since) = shard[s] {
                        report.detected_by_scrub += 1;
                        shard[s] = ShardState::Quarantined(since);
                    }
                }
                // Repair everything quarantined, exactly like the runtime's
                // scrub step.
                for (s, st) in shard.iter_mut().enumerate() {
                    if let ShardState::Quarantined(since) = *st {
                        repair(s as u32, since, t, &mut report);
                        *st = ShardState::Clean;
                    }
                }
            }
            EventClass::Question => {
                let qid = payload;
                let mut skipped = 0usize;
                let mut exposed = 0usize;
                for (s, st) in shard.iter_mut().enumerate() {
                    match *st {
                        ShardState::Clean => {}
                        ShardState::Quarantined(_) => skipped += 1,
                        ShardState::Corrupt(since) => {
                            // Sampled read check: drawing `read_sample_blocks`
                            // of `BLOCKS_PER_SHARD` blocks hits the (single)
                            // damaged block with p = sample/blocks; the draw
                            // is a splitmix unit-interval per (question, shard).
                            let sample = cfg.read_sample_blocks;
                            let hit = if sample >= BLOCKS_PER_SHARD {
                                true
                            } else if sample == 0 {
                                false
                            } else {
                                let u = unit_f64(mix(seed, qid, s as u64));
                                u < sample as f64 / BLOCKS_PER_SHARD as f64
                            };
                            if hit {
                                report.detected_by_read += 1;
                                *st = ShardState::Quarantined(since);
                                skipped += 1;
                            } else {
                                exposed += 1;
                            }
                        }
                    }
                }
                if exposed > 0 {
                    report.silently_exposed += 1;
                } else if skipped > 0 {
                    report.degraded_questions += 1;
                } else {
                    report.clean_questions += 1;
                }
            }
        }
    }

    for st in &shard {
        if !matches!(st, ShardState::Clean) {
            report.unrepaired_at_horizon += 1;
        }
    }
    if !repair_times.is_empty() {
        report.mean_time_to_repair_secs =
            repair_times.iter().sum::<f64>() / repair_times.len() as f64;
        report.max_time_to_repair_secs = repair_times.iter().fold(0.0f64, |a, &b| a.max(b));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg_with_faults() -> IntegritySimConfig {
        IntegritySimConfig {
            faults: FaultSchedule::seeded(11)
                .bit_flip_index(1, 3.0)
                .torn_write_index(4, 20.0)
                .bit_flip_index(6, 45.0),
            ..IntegritySimConfig::default()
        }
    }

    #[test]
    fn double_run_is_bit_identical() {
        let cfg = cfg_with_faults();
        let a = run_integrity_sim(&cfg);
        let b = run_integrity_sim(&cfg);
        assert_eq!(a, b);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "serialized reports must match byte for byte"
        );
    }

    #[test]
    fn every_corruption_is_detected_and_repaired() {
        let cfg = cfg_with_faults();
        let r = run_integrity_sim(&cfg);
        assert_eq!(r.injected, 3);
        assert_eq!(r.detected_by_scrub + r.detected_by_read, 3);
        assert_eq!(r.repaired_replica + r.repaired_rebuild, 3);
        assert_eq!(r.unrepaired_at_horizon, 0);
        assert!(r.max_time_to_repair_secs > 0.0);
        assert!(r.mean_time_to_repair_secs <= r.max_time_to_repair_secs);
    }

    #[test]
    fn exhaustive_read_sampling_never_exposes_corruption() {
        let cfg = IntegritySimConfig {
            read_sample_blocks: usize::MAX,
            ..cfg_with_faults()
        };
        let r = run_integrity_sim(&cfg);
        assert_eq!(r.silently_exposed, 0);
        assert!(
            r.degraded_questions > 0,
            "quarantine skips show up as degraded"
        );
        assert!(r.clean_questions > 0);
    }

    #[test]
    fn disabled_read_check_leaves_detection_to_the_scrubber() {
        let cfg = IntegritySimConfig {
            read_sample_blocks: 0,
            ..cfg_with_faults()
        };
        let r = run_integrity_sim(&cfg);
        assert_eq!(r.detected_by_read, 0);
        assert_eq!(r.detected_by_scrub, 3);
        assert!(
            r.silently_exposed > 0,
            "without the read check, questions race the scrubber and lose"
        );
    }

    #[test]
    fn foreground_load_throttles_the_scrubber_and_delays_repair() {
        let busy = IntegritySimConfig {
            // Gate pinned at capacity for the first half of the run.
            load: vec![LoadWindow {
                from: 0.0,
                until: 60.0,
                in_flight: 8,
            }],
            ..cfg_with_faults()
        };
        let idle = cfg_with_faults();
        let r_busy = run_integrity_sim(&busy);
        let r_idle = run_integrity_sim(&idle);
        assert!(r_busy.throttled_steps > 0);
        assert_eq!(r_idle.throttled_steps, 0);
        assert!(
            r_busy.max_time_to_repair_secs >= r_idle.max_time_to_repair_secs,
            "yielding to foreground cannot make repair faster"
        );
    }

    #[test]
    fn replica_damage_forces_rebuild_repairs() {
        let cfg = IntegritySimConfig {
            replica_damaged: vec![1, 4, 6],
            ..cfg_with_faults()
        };
        let r = run_integrity_sim(&cfg);
        assert_eq!(r.repaired_replica, 0);
        assert_eq!(r.repaired_rebuild, 3);
    }
}
