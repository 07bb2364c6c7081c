//! The question dispatcher: migrate-or-stay decisions (§3.1).
//!
//! "If the DNS-allocated node is over-loaded, the dispatcher migrates the
//! Q/A task to another node … The dispatcher's strategy is to select the
//! processor with the smallest average load for the Q/A task. To avoid
//! useless migrations, a question is migrated only if the difference between
//! the load of the source node and the load of the destination node is
//! greater than the average workload of a single question."

use loadsim::functions::LoadFunctions;
use qa_types::{NodeId, QaModule, ResourceVector};

/// Migration decision logic shared by all three scheduling points.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuestionDispatcher {
    /// The load functions in force (Table-3 weights by default).
    pub functions: LoadFunctions,
    /// The hysteresis threshold: the load-function delta one average
    /// question contributes. Migration requires
    /// `load(src) − load(dst) > hysteresis`.
    pub hysteresis: f64,
}

impl QuestionDispatcher {
    /// Paper defaults: Table-3 weights; one question's load on a node that
    /// can host four is ≈ 0.25 on both resources.
    pub fn paper() -> Self {
        Self {
            functions: LoadFunctions::paper(),
            hysteresis: LoadFunctions::paper()
                .qa
                .load(ResourceVector::new(0.25, 0.25)),
        }
    }

    /// Decide whether to migrate a task currently placed on `current`.
    ///
    /// `loads` is this node's view of every live node (from the load
    /// table), *including* `current`. Returns `Some(target)` when migration
    /// is worthwhile, `None` to stay. `module` selects the load function:
    /// the question dispatcher passes [`QaModule::Qp`] (whole-task weights),
    /// the PR/AP dispatchers pass their module.
    pub fn decide(
        &self,
        module: QaModule,
        current: NodeId,
        loads: &[(NodeId, ResourceVector)],
    ) -> Option<NodeId> {
        let src_load = loads
            .iter()
            .find(|(n, _)| *n == current)
            .map(|(_, v)| self.functions.load_for(module, *v))?;

        let (best, best_load) = loads
            .iter()
            .filter(|(n, _)| *n != current)
            .map(|(n, v)| (*n, self.functions.load_for(module, *v)))
            .min_by(|a, b| {
                a.1.partial_cmp(&b.1)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.0.cmp(&b.0))
            })?;

        if src_load - best_load > self.hysteresis {
            Some(best)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn v(cpu: f64, disk: f64) -> ResourceVector {
        ResourceVector::new(cpu, disk)
    }

    #[test]
    fn overloaded_source_migrates_to_least_loaded() {
        let d = QuestionDispatcher::paper();
        let loads = vec![
            (n(0), v(1.5, 1.0)),
            (n(1), v(0.1, 0.1)),
            (n(2), v(0.6, 0.4)),
        ];
        assert_eq!(d.decide(QaModule::Qp, n(0), &loads), Some(n(1)));
    }

    #[test]
    fn small_imbalance_stays_put() {
        let d = QuestionDispatcher::paper();
        let loads = vec![(n(0), v(0.30, 0.30)), (n(1), v(0.20, 0.20))];
        // Delta 0.10 < hysteresis 0.25: no migration.
        assert_eq!(d.decide(QaModule::Qp, n(0), &loads), None);
    }

    #[test]
    fn already_least_loaded_stays() {
        let d = QuestionDispatcher::paper();
        let loads = vec![(n(0), v(0.0, 0.0)), (n(1), v(1.0, 1.0))];
        assert_eq!(d.decide(QaModule::Qp, n(0), &loads), None);
    }

    #[test]
    fn module_specific_weights_change_the_decision() {
        let d = QuestionDispatcher::paper();
        // Source is disk-saturated but CPU-idle; candidate is the reverse.
        let loads = vec![(n(0), v(0.0, 1.8)), (n(1), v(0.9, 0.0))];
        // The AP dispatcher (pure CPU) prefers the disk-bound node 0 — stay.
        assert_eq!(d.decide(QaModule::Ap, n(0), &loads), None);
        // The PR dispatcher (80 % disk) migrates to the CPU-bound node 1:
        // load_PR(src) = 0.8·1.8 = 1.44, load_PR(dst) = 0.2·0.9 = 0.18.
        assert_eq!(d.decide(QaModule::Pr, n(0), &loads), Some(n(1)));
    }

    #[test]
    fn single_node_system_never_migrates() {
        let d = QuestionDispatcher::paper();
        let loads = vec![(n(0), v(5.0, 5.0))];
        assert_eq!(d.decide(QaModule::Qp, n(0), &loads), None);
    }

    #[test]
    fn unknown_current_node_stays() {
        let d = QuestionDispatcher::paper();
        let loads = vec![(n(1), v(0.0, 0.0))];
        assert_eq!(d.decide(QaModule::Qp, n(0), &loads), None);
    }

    #[test]
    fn tie_breaks_on_node_id() {
        let d = QuestionDispatcher::paper();
        let loads = vec![
            (n(0), v(2.0, 2.0)),
            (n(2), v(0.0, 0.0)),
            (n(1), v(0.0, 0.0)),
        ];
        assert_eq!(d.decide(QaModule::Qp, n(0), &loads), Some(n(1)));
    }
}
