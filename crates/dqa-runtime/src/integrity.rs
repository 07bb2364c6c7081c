//! Data-integrity runtime: the self-verifying segment store, quarantine
//! bookkeeping and scrub-and-repair engine behind [`crate::Cluster`].
//!
//! The store holds the coordinator's persisted `DQAIDX3` image (the bytes a
//! real deployment would have on disk) plus the federation replica's copy of
//! the same segment. Corruption faults damage those bytes in place; nothing
//! in the hot path trusts them again until a checksum passes:
//!
//! * **Detection** — the scrubber walks shard regions with
//!   [`ir_engine::verify_shard`]; question admission spot-checks the shards
//!   it is about to read with [`ir_engine::verify_shard_sampled`]. Either
//!   failure quarantines the sub-collection.
//! * **Quarantine** — quarantined sub-collections are skipped by
//!   [`crate::Cluster::ask`]; answers close with explicitly reduced
//!   [`qa_types::Coverage`] and a `quarantined` cause tag, never with bytes
//!   that failed a checksum.
//! * **Repair** — the damaged shard region is spliced back from the
//!   replica's copy when the replica's checksums hold, else rebuilt from
//!   the in-memory index (the corpus-derived source of truth). `DQAIDX3`
//!   encoding is deterministic, so both sources produce byte-identical
//!   regions and the splice is exact.
//!
//! Scrubbing is paced by the same admission-headroom throttle that gates
//! live re-sharding ([`rebalance::MigrationThrottle`]): under foreground
//! pressure the scrubber yields rather than competing with questions.

use std::collections::BTreeMap;
use std::sync::Arc;

use faults::{CorruptTarget, CorruptionJudge, FaultEvent};
use ir_engine::{
    encode_index_v2, shard_regions, verify_shard, verify_shard_sampled, IntegrityError,
    ShardedIndex,
};
use rebalance::MigrationThrottle;

/// Tuning knobs for the integrity layer. All fields have workable defaults;
/// construct with `IntegrityConfig::default()` and override as needed.
#[derive(Debug, Clone)]
pub struct IntegrityConfig {
    /// Admission-headroom pacing for the background scrubber — the same
    /// shape that gates re-sharding migration steps.
    pub throttle: MigrationThrottle,
    /// Shard regions verified per scrub step.
    pub scrub_quantum: usize,
    /// Term blocks spot-checked per shard on the question read path
    /// (`0` disables read-path sampling).
    pub read_sample_blocks: usize,
}

/// Seed for the sampled-verification block draw; XORed with the question
/// id on the read path so different questions probe different blocks.
const VERIFY_SEED: u64 = 0xd1a6_05e6_1717_0001;

impl Default for IntegrityConfig {
    fn default() -> Self {
        IntegrityConfig {
            throttle: MigrationThrottle::default(),
            scrub_quantum: 2,
            read_sample_blocks: 4,
        }
    }
}

/// Where a repaired shard region came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairSource {
    /// Spliced from the federation replica's checksum-clean copy.
    Replica,
    /// Re-encoded from the in-memory index (source-of-truth rebuild).
    Rebuild,
}

/// What one scrub step (or full scrub cycle) did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Shard regions whose checksums were verified clean this step.
    pub verified: usize,
    /// Sub-collections newly quarantined by this step's verification.
    pub detected: Vec<u32>,
    /// Sub-collections repaired by splicing the replica's region.
    pub repaired_replica: Vec<u32>,
    /// Sub-collections repaired by re-encoding from the in-memory index.
    pub repaired_rebuild: Vec<u32>,
    /// Steps the throttle deferred in favor of foreground traffic.
    pub throttled: usize,
}

impl ScrubReport {
    /// Fold another step's report into this one.
    pub fn absorb(&mut self, other: ScrubReport) {
        self.verified += other.verified;
        self.detected.extend(other.detected);
        self.repaired_replica.extend(other.repaired_replica);
        self.repaired_rebuild.extend(other.repaired_rebuild);
        self.throttled += other.throttled;
    }

    /// Total repairs from either source.
    pub fn repaired(&self) -> usize {
        self.repaired_replica.len() + self.repaired_rebuild.len()
    }
}

/// The persisted segment image, its replica, and quarantine state.
///
/// Both images are full `DQAIDX3` encodings of the same index. Because the
/// encoding is deterministic they are byte-identical when healthy, and the
/// per-shard directory gives every sub-collection a fixed `(offset, len)`
/// region in both — which is what makes region splicing a sound repair.
pub struct IntegrityStore {
    segment: Vec<u8>,
    replica: Vec<u8>,
    quarantined: BTreeMap<u32, String>,
    cursor: usize,
}

impl IntegrityStore {
    /// Encode `index` into the primary segment image and its replica.
    pub fn new(index: &ShardedIndex) -> IntegrityStore {
        let segment = encode_index_v2(index);
        let replica = segment.clone();
        IntegrityStore {
            segment,
            replica,
            quarantined: BTreeMap::new(),
            cursor: 0,
        }
    }

    /// The primary segment image (what the read path would load).
    pub fn segment(&self) -> &[u8] {
        &self.segment
    }

    /// Sub-collection ids in directory order.
    pub fn shard_ids(&self) -> Vec<u32> {
        shard_regions(&self.segment)
            .map(|r| r.iter().map(|&(sub, _, _)| sub).collect())
            .unwrap_or_default()
    }

    fn region(data: &[u8], sub: u32) -> Option<(usize, usize)> {
        shard_regions(data)
            .ok()?
            .iter()
            .find(|&&(s, _, _)| s == sub)
            .map(|&(_, off, len)| (off, len))
    }

    fn damage(data: &mut [u8], judge: &CorruptionJudge, sub: u32, torn: bool) -> Option<usize> {
        let (off, len) = Self::region(data, sub)?;
        let target = CorruptTarget::IndexSegment { sub };
        let region = &mut data[off..off + len];
        if torn {
            // A torn write leaves the region's suffix stale/zeroed. The
            // region keeps its length so the directory stays valid — the
            // damage is to content, not layout.
            let point = judge.tear_point(target, region.len());
            for b in &mut region[point..] {
                *b = 0;
            }
            Some(off + point)
        } else {
            judge.flip(target, region).map(|p| off + p)
        }
    }

    /// Damage `sub`'s region in the primary image. Returns the absolute
    /// byte offset of the damage, or `None` when the region is missing.
    pub fn corrupt(&mut self, judge: &CorruptionJudge, sub: u32, torn: bool) -> Option<usize> {
        Self::damage(&mut self.segment, judge, sub, torn)
    }

    /// Damage `sub`'s region in the replica image (models a fault domain
    /// that takes out both copies, forcing a rebuild repair).
    pub fn corrupt_replica(
        &mut self,
        judge: &CorruptionJudge,
        sub: u32,
        torn: bool,
    ) -> Option<usize> {
        Self::damage(&mut self.replica, judge, sub, torn)
    }

    /// Full checksum verification of one shard region in the primary image.
    pub fn verify(&self, sub: u32) -> Result<(), IntegrityError> {
        verify_shard(&self.segment, sub)
    }

    /// Sampled (read-path) verification of one shard region.
    pub fn verify_sampled(
        &self,
        sub: u32,
        seed: u64,
        max_blocks: usize,
    ) -> Result<(), IntegrityError> {
        verify_shard_sampled(&self.segment, sub, seed, max_blocks)
    }

    /// Mark `sub` quarantined with a human-readable reason. Returns `true`
    /// when this is a new quarantine (not already recorded).
    pub fn quarantine(&mut self, sub: u32, why: String) -> bool {
        self.quarantined.insert(sub, why).is_none()
    }

    /// Whether `sub` is currently quarantined.
    pub fn is_quarantined(&self, sub: u32) -> bool {
        self.quarantined.contains_key(&sub)
    }

    /// Currently quarantined sub-collections, ascending.
    pub fn quarantined_subs(&self) -> Vec<u32> {
        self.quarantined.keys().copied().collect()
    }

    /// The next `quantum` sub-collections under the scrub cursor,
    /// advancing it with wraparound.
    pub fn scrub_targets(&mut self, quantum: usize) -> Vec<u32> {
        let ids = self.shard_ids();
        if ids.is_empty() || quantum == 0 {
            return Vec::new();
        }
        let take = quantum.min(ids.len());
        let picked = (0..take)
            .map(|i| ids[(self.cursor + i) % ids.len()])
            .collect();
        self.cursor = (self.cursor + take) % ids.len();
        picked
    }

    /// Fraction of the shard directory the cursor has covered this pass.
    pub fn scrub_progress(&self) -> f64 {
        let n = self.shard_ids().len();
        if n == 0 {
            return 1.0;
        }
        self.cursor as f64 / n as f64
    }

    /// Repair a quarantined sub-collection and lift the quarantine.
    ///
    /// Prefers splicing the replica's region when the replica's checksums
    /// hold; falls back to re-encoding from `index`. Either way the healed
    /// region is re-verified before the quarantine lifts, and the replica
    /// is healed too when it was the damaged copy. Returns `None` if `sub`
    /// was not quarantined or the region cannot be restored.
    pub fn repair(&mut self, sub: u32, index: &ShardedIndex) -> Option<RepairSource> {
        if !self.quarantined.contains_key(&sub) {
            return None;
        }
        let (off, len) = Self::region(&self.segment, sub)?;
        let source = if verify_shard(&self.replica, sub).is_ok() {
            self.segment[off..off + len].copy_from_slice(&self.replica[off..off + len]);
            RepairSource::Replica
        } else {
            let rebuilt = encode_index_v2(index);
            let (roff, rlen) = Self::region(&rebuilt, sub)?;
            if rlen != len {
                return None;
            }
            self.segment[off..off + len].copy_from_slice(&rebuilt[roff..roff + rlen]);
            self.replica[off..off + len].copy_from_slice(&rebuilt[roff..roff + rlen]);
            RepairSource::Rebuild
        };
        if verify_shard(&self.segment, sub).is_err() {
            return None;
        }
        self.quarantined.remove(&sub);
        Some(source)
    }
}

/// Config + store + the source-of-truth index: everything the cluster's
/// integrity hooks need behind one mutex.
pub struct IntegrityRuntime {
    /// Tuning knobs (scrub pacing, read sampling, seeds).
    pub cfg: IntegrityConfig,
    /// Segment images and quarantine state.
    pub store: IntegrityStore,
    index: Arc<ShardedIndex>,
}

impl IntegrityRuntime {
    /// Build the runtime around the retriever's index.
    pub fn new(cfg: IntegrityConfig, index: Arc<ShardedIndex>) -> IntegrityRuntime {
        let store = IntegrityStore::new(&index);
        IntegrityRuntime { cfg, store, index }
    }

    /// Apply one scheduled corruption fault. Returns `true` when the event
    /// was a corruption and damaged bytes.
    pub fn inject(&mut self, event: &FaultEvent, judge: &CorruptionJudge) -> bool {
        let (CorruptTarget::IndexSegment { sub }, torn) = match *event {
            FaultEvent::BitFlip { target, .. } => (target, false),
            FaultEvent::TornWrite { target, .. } => (target, true),
            _ => return false,
        };
        self.store.corrupt(judge, sub, torn).is_some()
    }

    /// Read-path spot check: sample-verify each shard a question is about
    /// to touch, quarantining on failure. Returns the sub-collections
    /// *newly* quarantined by this check (already-quarantined shards are
    /// skipped upstream and not re-checked).
    pub fn read_check(&mut self, subs: &[u32], question_seed: u64) -> Vec<u32> {
        let max = self.cfg.read_sample_blocks;
        if max == 0 {
            return Vec::new();
        }
        let seed = VERIFY_SEED ^ question_seed;
        let mut fresh = Vec::new();
        for &sub in subs {
            if self.store.is_quarantined(sub) {
                continue;
            }
            if let Err(e) = self.store.verify_sampled(sub, seed, max) {
                self.store.quarantine(sub, e.to_string());
                fresh.push(sub);
            }
        }
        fresh
    }

    /// One unthrottled scrub step: verify the next quantum of shard
    /// regions, then repair everything quarantined. (The caller applies
    /// the throttle verdict and metric accounting.)
    pub fn scrub_quantum(&mut self) -> ScrubReport {
        let mut report = ScrubReport::default();
        for sub in self.store.scrub_targets(self.cfg.scrub_quantum) {
            if self.store.is_quarantined(sub) {
                continue;
            }
            match self.store.verify(sub) {
                Ok(()) => report.verified += 1,
                Err(e) => {
                    self.store.quarantine(sub, e.to_string());
                    report.detected.push(sub);
                }
            }
        }
        for sub in self.store.quarantined_subs() {
            match self.store.repair(sub, &self.index) {
                Some(RepairSource::Replica) => report.repaired_replica.push(sub),
                Some(RepairSource::Rebuild) => report.repaired_rebuild.push(sub),
                None => {}
            }
        }
        report
    }

    /// Number of steps in one full pass over the shard directory.
    pub fn steps_per_pass(&self) -> usize {
        let n = self.store.shard_ids().len();
        let q = self.cfg.scrub_quantum.max(1);
        n.div_ceil(q).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corpus::{Corpus, CorpusConfig};
    use faults::FaultSchedule;

    fn index() -> Arc<ShardedIndex> {
        let c = Corpus::generate(CorpusConfig::small(77)).unwrap();
        Arc::new(ShardedIndex::build(&c.documents, c.config.sub_collections))
    }

    fn judge() -> CorruptionJudge {
        FaultSchedule::seeded(41).corruption_judge()
    }

    #[test]
    fn corruption_is_detected_and_repaired_from_replica() {
        let idx = index();
        let mut store = IntegrityStore::new(&idx);
        let clean = store.segment().to_vec();
        assert!(store.corrupt(&judge(), 1, false).is_some());
        let err = store.verify(1).expect_err("bit flip must fail checksums");
        assert!(store.quarantine(1, err.to_string()));
        assert_eq!(
            store.repair(1, &idx),
            Some(RepairSource::Replica),
            "replica intact, so repair splices it"
        );
        assert!(store.verify(1).is_ok());
        assert_eq!(store.segment(), &clean[..], "repair restores exact bytes");
        assert!(store.quarantined_subs().is_empty());
    }

    #[test]
    fn double_fault_falls_back_to_rebuild() {
        let idx = index();
        let mut store = IntegrityStore::new(&idx);
        let clean = store.segment().to_vec();
        let j = judge();
        assert!(store.corrupt(&j, 2, true).is_some());
        assert!(store.corrupt_replica(&j, 2, true).is_some());
        store.quarantine(2, "torn write".into());
        assert_eq!(
            store.repair(2, &idx),
            Some(RepairSource::Rebuild),
            "replica also damaged, so repair re-encodes from the index"
        );
        assert!(store.verify(2).is_ok());
        assert_eq!(store.segment(), &clean[..]);
    }

    #[test]
    fn torn_write_keeps_region_layout_valid() {
        let idx = index();
        let mut store = IntegrityStore::new(&idx);
        let before = store.segment().len();
        store.corrupt(&judge(), 0, true);
        assert_eq!(store.segment().len(), before, "torn write never resizes");
        // Other shards still verify: the damage is contained to region 0.
        for sub in store.shard_ids() {
            if sub != 0 {
                assert!(store.verify(sub).is_ok(), "shard {sub} should be clean");
            }
        }
        assert!(store.verify(0).is_err());
    }

    #[test]
    fn scrub_cursor_wraps_and_reports_progress() {
        let idx = index();
        let mut store = IntegrityStore::new(&idx);
        let n = store.shard_ids().len();
        assert!(n > 2, "small corpus should still shard into several subs");
        let mut seen = Vec::new();
        // Two full passes: every shard visited twice, in order.
        for _ in 0..(2 * n) {
            seen.extend(store.scrub_targets(1));
        }
        let ids = store.shard_ids();
        assert_eq!(&seen[..n], &ids[..]);
        assert_eq!(&seen[n..], &ids[..]);
        assert_eq!(store.scrub_progress(), 0.0, "cursor wrapped to start");
    }

    #[test]
    fn runtime_scrub_detects_and_repairs_in_one_pass() {
        let idx = index();
        let mut rt = IntegrityRuntime::new(IntegrityConfig::default(), idx);
        let j = judge();
        let victim = rt.store.shard_ids()[0];
        assert!(rt.store.corrupt(&j, victim, false).is_some());
        let mut total = ScrubReport::default();
        for _ in 0..rt.steps_per_pass() {
            total.absorb(rt.scrub_quantum());
        }
        assert_eq!(total.detected, vec![victim]);
        assert_eq!(total.repaired(), 1, "detected shard repaired same pass");
        assert!(rt.store.quarantined_subs().is_empty());
        assert!(rt.store.verify(victim).is_ok());
    }

    #[test]
    fn read_check_quarantines_only_damaged_shards() {
        let idx = index();
        let mut rt = IntegrityRuntime::new(IntegrityConfig::default(), idx);
        // Sampling with a generous budget degenerates to check-all, so a
        // single flipped bit cannot hide from the read path.
        rt.cfg.read_sample_blocks = usize::MAX;
        let j = judge();
        rt.store.corrupt(&j, 3, false);
        let subs = rt.store.shard_ids();
        let fresh = rt.read_check(&subs, 0xfeed);
        assert_eq!(fresh, vec![3]);
        assert!(rt.store.is_quarantined(3));
        // Second check: already quarantined, nothing new.
        assert!(rt.read_check(&subs, 0xfeed).is_empty());
    }

    #[test]
    fn inject_routes_only_corruption_events() {
        let idx = index();
        let mut rt = IntegrityRuntime::new(IntegrityConfig::default(), idx);
        let j = judge();
        let flip = FaultEvent::BitFlip {
            target: CorruptTarget::IndexSegment { sub: 1 },
            at: 0.5,
        };
        assert!(rt.inject(&flip, &j));
        assert!(rt.store.verify(1).is_err());
        let stall = FaultEvent::RebalanceStall {
            from: 0.5,
            until: 1.0,
        };
        assert!(!rt.inject(&stall, &j), "not a corruption");
    }
}
