//! Property tests of the meta-scheduler.

use loadsim::functions::LoadFunctions;
use qa_types::rng::cases;
use qa_types::{NodeId, QaModule, ResourceVector};
use scheduler::meta::meta_schedule;

fn candidates(loads: &[(f64, f64)]) -> Vec<(NodeId, ResourceVector)> {
    loads
        .iter()
        .enumerate()
        .map(|(i, &(c, d))| (NodeId::new(i as u32), ResourceVector::new(c, d)))
        .collect()
}

#[test]
fn weights_normalize_and_nodes_come_from_candidates() {
    cases(0x5c4e_d001, 256, |rng| {
        let loads = rng.vec(1..=15, |r| (r.uniform(0.0..3.0), r.uniform(0.0..3.0)));
        let candidates = candidates(&loads);
        let f = LoadFunctions::paper();
        for module in [QaModule::Pr, QaModule::Ap] {
            let alloc = meta_schedule(
                &candidates,
                |v| f.load_for(module, v),
                |v| f.is_underloaded(module, v),
            )
            .unwrap();
            assert!(!alloc.is_empty());
            let sum: f64 = alloc.iter().map(|a| a.weight).sum();
            assert!((sum - 1.0).abs() < 1e-6, "weights sum {sum}");
            for a in &alloc {
                assert!(a.weight > 0.0 && a.weight <= 1.0 + 1e-9);
                assert!(candidates.iter().any(|(n, _)| *n == a.node));
            }
            // No node appears twice.
            let mut ids: Vec<_> = alloc.iter().map(|a| a.node).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), alloc.len());
        }
    });
}

#[test]
fn less_loaded_nodes_never_get_smaller_weights() {
    cases(0x5c4e_d002, 256, |rng| {
        // All CPU-only loads below the AP under-load threshold: every node
        // selected; weights must be monotone non-increasing in load.
        let loads = rng.vec(2..=9, |r| (r.uniform(0.0..0.9), 0.0));
        let f = LoadFunctions::paper();
        let alloc = meta_schedule(
            &candidates(&loads),
            |v| f.load_for(QaModule::Ap, v),
            |v| f.is_underloaded(QaModule::Ap, v),
        )
        .unwrap();
        for a in &alloc {
            for b in &alloc {
                let la = loads[a.node.index()].0;
                let lb = loads[b.node.index()].0;
                if la < lb {
                    assert!(
                        a.weight >= b.weight - 1e-9,
                        "load {la} got weight {} < load {lb}'s {}",
                        a.weight,
                        b.weight
                    );
                }
            }
        }
    });
}
