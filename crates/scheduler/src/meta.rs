//! The meta-scheduling algorithm (Fig. 4).
//!
//! ```text
//! metaScheduler(task, loadFunction, underloadCondition)
//! 1. select all processors P with underloadCondition(P) true
//! 2. if none selected, select the processor with the smallest loadFunction
//! 3. assign each selected P an unnormalized weight
//!    w'_P = (maxLoad - loadFunction(P)) / maxLoad,
//!    where maxLoad is the largest load observed in the selected set
//! 4. normalize: w_P = w'_P / Σ w'
//! 5. assign each selected P the fraction w_P of the task
//! ```
//!
//! When every selected processor reports the same load (e.g. an idle
//! homogeneous cluster) all unnormalized weights are zero; the algorithm
//! then degenerates to a uniform split, which matches the paper's Fig. 7
//! traces where four idle nodes each receive ~¼ of the paragraphs.

use qa_types::{NodeId, QaError, ResourceVector};

/// One processor's share of a partitioned task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Allocation {
    /// The processor.
    pub node: NodeId,
    /// Normalized task fraction in `(0, 1]`; allocations sum to 1.
    pub weight: f64,
}

/// Run the meta-scheduler over candidate processors.
///
/// `candidates` pairs each live node with its current load vector. Returns
/// the selected nodes with normalized weights, largest weight first (ties
/// broken by node id). Errors only when `candidates` is empty.
///
/// # Examples
/// ```
/// use loadsim::functions::LoadFunctions;
/// use qa_types::{NodeId, QaModule, ResourceVector};
/// use scheduler::meta::meta_schedule;
///
/// let f = LoadFunctions::paper();
/// let idle = ResourceVector::new(0.0, 0.0);
/// let nodes = vec![(NodeId::new(0), idle), (NodeId::new(1), idle)];
/// let alloc = meta_schedule(
///     &nodes,
///     |v| f.load_for(QaModule::Ap, v),
///     |v| f.is_underloaded(QaModule::Ap, v),
/// )
/// .unwrap();
/// assert_eq!(alloc.len(), 2);
/// assert!((alloc[0].weight - 0.5).abs() < 1e-9);
/// ```
pub fn meta_schedule(
    candidates: &[(NodeId, ResourceVector)],
    load_fn: impl Fn(ResourceVector) -> f64,
    underload: impl Fn(ResourceVector) -> bool,
) -> Result<Vec<Allocation>, QaError> {
    if candidates.is_empty() {
        return Err(QaError::InvalidConfig(
            "meta_schedule: no candidates".into(),
        ));
    }

    // Step 1: all under-loaded processors.
    let mut selected: Vec<(NodeId, f64)> = candidates
        .iter()
        .filter(|(_, v)| underload(*v))
        .map(|(n, v)| (*n, load_fn(*v)))
        .collect();

    // Step 2: none under-loaded → single least-loaded processor.
    if selected.is_empty() {
        let (node, load) = candidates
            .iter()
            .map(|(n, v)| (*n, load_fn(*v)))
            .min_by(|a, b| {
                a.1.partial_cmp(&b.1)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.0.cmp(&b.0))
            })
            .expect("non-empty candidates");
        let _ = load;
        return Ok(vec![Allocation { node, weight: 1.0 }]);
    }

    // Steps 3–4: weight by available resources. A near-zero maximum means
    // an (effectively) idle set: fall back to uniform weights rather than
    // amplifying floating-point noise into exclusions.
    let max_load = selected.iter().map(|(_, l)| *l).fold(f64::MIN, f64::max);
    let raw: Vec<f64> = if max_load <= 1e-9 {
        vec![1.0; selected.len()]
    } else {
        selected
            .iter()
            .map(|(_, l)| (max_load - l) / max_load)
            .collect()
    };
    let sum: f64 = raw.iter().sum();
    let weights: Vec<f64> = if sum <= 0.0 {
        vec![1.0 / selected.len() as f64; selected.len()]
    } else {
        raw.iter().map(|w| w / sum).collect()
    };

    let mut out: Vec<Allocation> = selected
        .drain(..)
        .zip(weights)
        .map(|((node, _), weight)| Allocation { node, weight })
        .collect();
    out.sort_by(|a, b| {
        b.weight
            .partial_cmp(&a.weight)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.node.cmp(&b.node))
    });
    // Drop zero-weight processors (the max-loaded member of the selected
    // set): they would receive no items anyway.
    let nonzero: Vec<Allocation> = out.iter().copied().filter(|a| a.weight > 0.0).collect();
    Ok(if nonzero.is_empty() { out } else { nonzero })
}

#[cfg(test)]
mod tests {
    use super::*;
    use loadsim::functions::{pr_load, LoadFunctions};
    use qa_types::QaModule;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn idle_homogeneous_cluster_splits_uniformly() {
        let idle = ResourceVector::new(0.0, 0.0);
        let cands = vec![(n(0), idle), (n(1), idle), (n(2), idle), (n(3), idle)];
        let f = LoadFunctions::paper();
        let alloc = meta_schedule(
            &cands,
            |v| f.load_for(QaModule::Ap, v),
            |v| f.is_underloaded(QaModule::Ap, v),
        )
        .unwrap();
        assert_eq!(alloc.len(), 4);
        for a in &alloc {
            assert!((a.weight - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn weights_sum_to_one() {
        let cands = vec![
            (n(0), ResourceVector::new(0.1, 0.1)),
            (n(1), ResourceVector::new(0.5, 0.2)),
            (n(2), ResourceVector::new(0.8, 0.1)),
        ];
        let f = LoadFunctions::paper();
        let alloc = meta_schedule(
            &cands,
            |v| f.load_for(QaModule::Ap, v),
            |v| f.is_underloaded(QaModule::Ap, v),
        )
        .unwrap();
        let sum: f64 = alloc.iter().map(|a| a.weight).sum();
        assert!((sum - 1.0).abs() < 1e-9);
        // Least loaded node gets the largest share.
        assert_eq!(alloc[0].node, n(0));
    }

    #[test]
    fn no_underloaded_falls_back_to_single_least_loaded() {
        // All nodes CPU-saturated: nobody is AP-under-loaded.
        let cands = vec![
            (n(0), ResourceVector::new(1.4, 0.0)),
            (n(1), ResourceVector::new(1.1, 0.0)),
            (n(2), ResourceVector::new(2.0, 0.0)),
        ];
        let f = LoadFunctions::paper();
        let alloc = meta_schedule(
            &cands,
            |v| f.load_for(QaModule::Ap, v),
            |v| f.is_underloaded(QaModule::Ap, v),
        )
        .unwrap();
        assert_eq!(alloc.len(), 1);
        assert_eq!(alloc[0].node, n(1));
        assert_eq!(alloc[0].weight, 1.0);
    }

    #[test]
    fn max_loaded_selected_node_is_dropped() {
        // Two under-loaded nodes with different loads: the busier one has
        // zero available weight and is dropped.
        let cands = vec![
            (n(0), ResourceVector::new(0.0, 0.0)),
            (n(1), ResourceVector::new(0.5, 0.5)),
        ];
        let f = LoadFunctions::paper();
        let alloc = meta_schedule(
            &cands,
            |v| f.load_for(QaModule::Pr, v),
            |v| f.is_underloaded(QaModule::Pr, v),
        )
        .unwrap();
        assert_eq!(alloc.len(), 1);
        assert_eq!(alloc[0].node, n(0));
        assert_eq!(alloc[0].weight, 1.0);
    }

    #[test]
    fn empty_candidates_error() {
        let f = LoadFunctions::paper();
        assert!(meta_schedule(&[], pr_load, |v| f.is_underloaded(QaModule::Pr, v)).is_err());
    }

    #[test]
    fn deterministic_ordering_on_ties() {
        let idle = ResourceVector::new(0.0, 0.0);
        let cands = vec![(n(3), idle), (n(1), idle), (n(2), idle)];
        let f = LoadFunctions::paper();
        let alloc = meta_schedule(
            &cands,
            |v| f.load_for(QaModule::Ap, v),
            |v| f.is_underloaded(QaModule::Ap, v),
        )
        .unwrap();
        let ids: Vec<_> = alloc.iter().map(|a| a.node).collect();
        assert_eq!(ids, vec![n(1), n(2), n(3)]);
    }
}
