//! The sub-collection ownership map — the state the elastic tier defends.
//!
//! Ownership is control-plane routing state, not data placement: in the
//! thread runtime every node can physically serve any shard of the shared
//! index, and in the DES any node can run any PR chunk. What the map
//! decides is which node is *responsible* for each sub-collection — the
//! node PR dispatch routes that sub-collection's chunks to. Migration is
//! therefore a journaled ownership transfer, throttled and exactly-once,
//! never a data copy.
//!
//! The invariant ([`OwnershipMap::verify_complete`]): **every
//! sub-collection is owned by exactly one live node.** Faults break it
//! (a dead owner), plans repair it, and the soak benches assert it holds
//! again after healing.

use qa_types::{NodeId, SubCollectionId};
use std::collections::BTreeMap;

use crate::plan::MigrationStep;

/// Why [`OwnershipMap::verify_complete`] failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConvergenceError {
    /// A sub-collection's owner is not in the live set.
    DeadOwner {
        /// The orphaned sub-collection.
        sub: SubCollectionId,
        /// Its (dead) owner.
        owner: NodeId,
    },
    /// A sub-collection has no owner at all.
    Unowned {
        /// The unowned sub-collection.
        sub: SubCollectionId,
    },
}

impl std::fmt::Display for ConvergenceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConvergenceError::DeadOwner { sub, owner } => {
                write!(f, "sub-collection {sub} is owned by dead node {owner}")
            }
            ConvergenceError::Unowned { sub } => write!(f, "sub-collection {sub} has no owner"),
        }
    }
}

impl std::error::Error for ConvergenceError {}

/// Which live node owns each sub-collection, plus a monotone epoch that
/// bumps on every applied migration step (the staleness fence for cached
/// routing decisions).
#[derive(Debug, Clone, PartialEq)]
pub struct OwnershipMap {
    owners: BTreeMap<SubCollectionId, NodeId>,
    epoch: u64,
}

impl OwnershipMap {
    /// Balanced initial placement: sub-collection `s` goes to
    /// `nodes[s % nodes.len()]` — the paper's static striping, now just
    /// the epoch-0 state.
    pub fn balanced(shards: u32, nodes: &[NodeId]) -> OwnershipMap {
        assert!(!nodes.is_empty(), "ownership needs at least one node");
        OwnershipMap {
            owners: (0..shards)
                .map(|s| (SubCollectionId::new(s), nodes[s as usize % nodes.len()]))
                .collect(),
            epoch: 0,
        }
    }

    /// The current owner of `sub`.
    pub fn owner(&self, sub: SubCollectionId) -> Option<NodeId> {
        self.owners.get(&sub).copied()
    }

    /// Every sub-collection owned by `node`, in id order.
    pub fn owned_by(&self, node: NodeId) -> Vec<SubCollectionId> {
        self.owners
            .iter()
            .filter(|(_, n)| **n == node)
            .map(|(s, _)| *s)
            .collect()
    }

    /// The distinct owners, in id order.
    pub fn owners(&self) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self.owners.values().copied().collect();
        out.sort();
        out.dedup();
        out
    }

    /// Per-node owned-sub-collection counts for the given candidate set
    /// (zero rows included), in node order — the deterministic input the
    /// planners balance on.
    pub fn counts(&self, nodes: &[NodeId]) -> Vec<(NodeId, usize)> {
        let mut nodes: Vec<NodeId> = nodes.to_vec();
        nodes.sort();
        nodes.dedup();
        nodes
            .into_iter()
            .map(|n| (n, self.owners.values().filter(|o| **o == n).count()))
            .collect()
    }

    /// Number of sub-collections tracked.
    pub fn len(&self) -> usize {
        self.owners.len()
    }

    /// Whether the map tracks no sub-collections.
    pub fn is_empty(&self) -> bool {
        self.owners.is_empty()
    }

    /// Monotone change counter: bumps once per applied step.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Apply one migration step. Returns `true` when the step changed the
    /// map (and bumped the epoch); a step whose `sub` already sits on
    /// `to` is absorbed silently — the idempotence that makes journal
    /// replay and crash-resumed plans exactly-once.
    pub fn apply_step(&mut self, step: &MigrationStep) -> bool {
        match self.owners.get_mut(&step.sub) {
            Some(owner) if *owner != step.to => {
                *owner = step.to;
                self.epoch += 1;
                true
            }
            Some(_) => false,
            None => {
                self.owners.insert(step.sub, step.to);
                self.epoch += 1;
                true
            }
        }
    }

    /// Force-set an owner (journal-replay fold path). Idempotent; bumps
    /// the epoch only on change.
    pub fn set_owner(&mut self, sub: SubCollectionId, node: NodeId) -> bool {
        self.apply_step(&MigrationStep {
            sub,
            from: self.owner(sub).unwrap_or(node),
            to: node,
        })
    }

    /// The convergence invariant: every sub-collection owned by exactly
    /// one node from `live`. (Exactly-one-owner is structural — the map
    /// is keyed by sub-collection — so the checkable part is liveness and
    /// completeness.)
    pub fn verify_complete(&self, shards: u32, live: &[NodeId]) -> Result<(), ConvergenceError> {
        for s in 0..shards {
            let sub = SubCollectionId::new(s);
            match self.owner(sub) {
                None => return Err(ConvergenceError::Unowned { sub }),
                Some(owner) if !live.contains(&owner) => {
                    return Err(ConvergenceError::DeadOwner { sub, owner })
                }
                Some(_) => {}
            }
        }
        Ok(())
    }

    /// Count-skew across `nodes`: max minus min owned sub-collections.
    /// The load-skew trigger uses gauge values instead; this structural
    /// skew is what the planners minimize.
    pub fn count_skew(&self, nodes: &[NodeId]) -> usize {
        let counts = self.counts(nodes);
        let max = counts.iter().map(|(_, c)| *c).max().unwrap_or(0);
        let min = counts.iter().map(|(_, c)| *c).min().unwrap_or(0);
        max - min
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn sub(i: u32) -> SubCollectionId {
        SubCollectionId::new(i)
    }

    #[test]
    fn balanced_stripes_round_robin() {
        let map = OwnershipMap::balanced(8, &[n(0), n(1), n(2)]);
        assert_eq!(map.owner(sub(0)), Some(n(0)));
        assert_eq!(map.owner(sub(4)), Some(n(1)));
        assert_eq!(map.owned_by(n(0)), vec![sub(0), sub(3), sub(6)]);
        assert_eq!(map.epoch(), 0);
        assert_eq!(map.count_skew(&[n(0), n(1), n(2)]), 1);
        map.verify_complete(8, &[n(0), n(1), n(2)]).unwrap();
    }

    #[test]
    fn apply_step_is_idempotent_and_epoch_monotone() {
        let mut map = OwnershipMap::balanced(4, &[n(0), n(1)]);
        let step = MigrationStep {
            sub: sub(0),
            from: n(0),
            to: n(1),
        };
        assert!(map.apply_step(&step));
        assert_eq!(map.epoch(), 1);
        // Replaying the same step (journal replay, resumed plan): no-op.
        assert!(!map.apply_step(&step));
        assert_eq!(map.epoch(), 1);
        assert_eq!(map.owner(sub(0)), Some(n(1)));
    }

    #[test]
    fn verify_complete_names_the_violation() {
        let mut map = OwnershipMap::balanced(4, &[n(0), n(1)]);
        map.verify_complete(4, &[n(0), n(1)]).unwrap();
        let err = map.verify_complete(4, &[n(0)]).unwrap_err();
        assert_eq!(
            err,
            ConvergenceError::DeadOwner {
                sub: sub(1),
                owner: n(1)
            }
        );
        assert!(err.to_string().contains("dead node"));
        // Heal it: move node 1's subs to node 0.
        for s in map.owned_by(n(1)) {
            map.apply_step(&MigrationStep {
                sub: s,
                from: n(1),
                to: n(0),
            });
        }
        map.verify_complete(4, &[n(0)]).unwrap();
        let err = map.verify_complete(5, &[n(0)]).unwrap_err();
        assert_eq!(err, ConvergenceError::Unowned { sub: sub(4) });
    }

    #[test]
    fn counts_include_zero_rows_for_candidates() {
        let map = OwnershipMap::balanced(4, &[n(0)]);
        assert_eq!(map.counts(&[n(0), n(1)]), vec![(n(0), 4), (n(1), 0)]);
    }
}
