//! The three scheduling points of Fig. 3 as pure decisions.
//!
//! Both backends — `dqa-runtime` on threads and wall time, `cluster-sim`
//! on an event queue and virtual time — place a question and allocate its
//! PR and AP phases by calling the two functions here. Each is a function
//! of a cluster view (`&[(NodeId, ResourceVector)]`, ascending node id)
//! and the policy: no clock, no I/O, no metrics handle. What differs per
//! backend arrives as a value — the hysteresis inside `decide`, the
//! question's own load, how many questions a node hosts — and what a
//! decision *costs* (a counter, a breaker trip on the load board, a
//! journal record) is the caller's to carry out from the returned data.

use crate::meta::meta_schedule;
use loadsim::functions::LoadFunctions;
use qa_types::{NodeId, OverloadPolicy, QaModule, ResourceVector};

/// Where scheduling point 1 put an arriving question.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// The question has a home.
    Placed {
        /// The node the arrival reached: the DNS target, or — when that
        /// one cannot take a question — the next placeable node up the
        /// ring.
        dns: NodeId,
        /// The home after the arrival decision.
        home: NodeId,
        /// Whether the arrival decision overrode `dns` (a Table 7
        /// question migration). A DNS fallback is not one.
        migrated: bool,
    },
    /// Every node in view hosts `max_per_node` questions already (or the
    /// view is empty): the question bounces, it does not queue on a node.
    Saturated,
}

/// Scheduling point 1: place one arriving question.
///
/// 1. Nodes hosting `policy.max_per_node` questions already (`resident`
///    says how many) leave the view; nothing left ⇒ [`Placement::Saturated`].
/// 2. If `dns` is not among the remaining nodes — dead, draining or at its
///    cap — the arrival walks the ring upward (wrapping) to the next node
///    that is.
/// 3. `decide(receiver, candidates)` is the strategy's arrival decision
///    (question dispatcher, diffusion, …; `None` = stay). It sees the
///    capped view and may weigh it through the receiver's own, staler load
///    table.
pub fn place(
    view: &[(NodeId, ResourceVector)],
    dns: NodeId,
    policy: &OverloadPolicy,
    resident: impl Fn(NodeId) -> usize,
    decide: impl FnOnce(NodeId, &[(NodeId, ResourceVector)]) -> Option<NodeId>,
) -> Placement {
    let capped: Vec<(NodeId, ResourceVector)>;
    let candidates = match policy.max_per_node {
        Some(cap) => {
            capped = view
                .iter()
                .copied()
                .filter(|(n, _)| resident(*n) < cap)
                .collect();
            &capped[..]
        }
        None => view,
    };
    let Some(receiver) = candidates
        .iter()
        .map(|(n, _)| *n)
        .find(|n| *n >= dns)
        .or_else(|| candidates.first().map(|(n, _)| *n))
    else {
        return Placement::Saturated;
    };
    let decision = decide(receiver, candidates);
    Placement::Placed {
        dns: receiver,
        home: decision.unwrap_or(receiver),
        migrated: decision.is_some(),
    }
}

/// What scheduling points 2 and 3 decided for one module of one question.
#[derive(Debug, Clone, PartialEq)]
pub struct Allocated {
    /// The nodes the module runs on, largest share first; never empty.
    pub nodes: Vec<NodeId>,
    /// Nodes whose load for this module exceeded `policy.breaker_load` and
    /// were excluded. The caller counts them (and, where it has a load
    /// board, opens their breaker).
    pub tripped: Vec<NodeId>,
    /// Whether work left the home node (a Table 7 PR/AP migration).
    pub left_home: bool,
}

/// Scheduling points 2 and 3: the node set for `module` of a question
/// homed on `home`.
///
/// The dispatcher schedules the *remainder* of the question, so `own` —
/// the load the question itself contributes to its home row — is
/// subtracted first, or an otherwise idle home would be pushed out of its
/// own partition set. Then nodes past the breaker threshold go, then
/// nodes that fail `owns` (PR under elastic membership: sub-collection
/// owners only; `|_| true` otherwise), and the meta-scheduler of Fig. 4
/// runs over the rest. Whenever a filter leaves
/// nothing, the home node serves alone rather than stalling the question.
pub fn allocate(
    mut view: Vec<(NodeId, ResourceVector)>,
    home: NodeId,
    module: QaModule,
    functions: &LoadFunctions,
    own: ResourceVector,
    policy: &OverloadPolicy,
    owns: impl Fn(NodeId) -> bool,
) -> Allocated {
    let mut out = Allocated {
        nodes: vec![home],
        tripped: Vec::new(),
        left_home: false,
    };
    if let Some(entry) = view.iter_mut().find(|(n, _)| *n == home) {
        entry.1.cpu = (entry.1.cpu - own.cpu).max(0.0);
        entry.1.disk = (entry.1.disk - own.disk).max(0.0);
    }
    if let Some(threshold) = policy.breaker_load {
        view.retain(|(n, v)| {
            let within = functions.load_for(module, *v) <= threshold;
            if !within {
                out.tripped.push(*n);
            }
            within
        });
    }
    view.retain(|(n, _)| owns(*n));
    if let Ok(alloc) = meta_schedule(
        &view,
        |v| functions.load_for(module, v),
        |v| functions.is_underloaded(module, v),
    ) {
        out.nodes = alloc.iter().map(|a| a.node).collect();
        out.left_home = out.nodes.iter().any(|n| *n != home);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatcher::QuestionDispatcher;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn view(loads: &[(u32, f64)]) -> Vec<(NodeId, ResourceVector)> {
        loads
            .iter()
            .map(|&(i, l)| (n(i), ResourceVector::new(l, l)))
            .collect()
    }

    #[test]
    fn place_table() {
        let dispatch = |at: NodeId, v: &[(NodeId, ResourceVector)]| {
            QuestionDispatcher {
                functions: LoadFunctions::paper(),
                hysteresis: 0.25,
            }
            .decide(QaModule::Qp, at, v)
        };
        let placed = |dns: u32, home: u32| Placement::Placed {
            dns: n(dns),
            home: n(home),
            migrated: dns != home,
        };
        let no_cap = OverloadPolicy::default();
        let cap = |c| OverloadPolicy::default().with_per_node_cap(c);
        // (case, view, resident per node id, dns, policy, want)
        type Row<'a> = (
            &'a str,
            Vec<(NodeId, ResourceVector)>,
            [usize; 4],
            u32,
            OverloadPolicy,
            Placement,
        );
        let rows: Vec<Row> = vec![
            (
                "balanced: stay on the DNS target",
                view(&[(0, 0.2), (1, 0.2), (2, 0.2)]),
                [0; 4],
                1,
                no_cap,
                placed(1, 1),
            ),
            (
                "overloaded DNS target: the dispatcher migrates",
                view(&[(0, 2.0), (1, 0.0), (2, 0.5)]),
                [0; 4],
                0,
                no_cap,
                placed(0, 1),
            ),
            (
                "DNS target dead: next up the ring, not the lowest id, \
                 not the least loaded — then the dispatcher runs there",
                view(&[(0, 0.20), (2, 0.30), (3, 0.10)]),
                [0; 4],
                1,
                no_cap,
                placed(2, 2),
            ),
            (
                "DNS target dead and the ring neighbour overloaded: \
                 walk, then migrate",
                view(&[(0, 0.3), (2, 2.0), (3, 0.1)]),
                [0; 4],
                1,
                no_cap,
                placed(2, 3),
            ),
            (
                "DNS target dead at the top of the ring: wrap to node 0",
                view(&[(0, 0.2), (1, 0.2)]),
                [0; 4],
                3,
                no_cap,
                placed(0, 0),
            ),
            (
                "DNS target at its resident cap: skipped like a dead one",
                view(&[(0, 0.1), (1, 0.1), (2, 0.1)]),
                [0, 2, 0, 0],
                1,
                cap(2),
                placed(2, 2),
            ),
            (
                "a capped node is no migration target either",
                view(&[(0, 2.0), (1, 0.0), (2, 0.5)]),
                [0, 2, 0, 0],
                0,
                cap(2),
                placed(0, 2),
            ),
            (
                "every node at max_per_node: saturated",
                view(&[(0, 0.1), (1, 0.1)]),
                [3, 3, 0, 0],
                0,
                cap(3),
                Placement::Saturated,
            ),
            (
                "a zero cap saturates an idle cluster",
                view(&[(0, 0.0), (1, 0.0)]),
                [0; 4],
                0,
                cap(0),
                Placement::Saturated,
            ),
            (
                "empty view: nowhere to place",
                Vec::new(),
                [0; 4],
                0,
                no_cap,
                Placement::Saturated,
            ),
        ];
        for (case, v, resident, dns, policy, want) in rows {
            let got = place(&v, n(dns), &policy, |node| resident[node.index()], dispatch);
            assert_eq!(got, want, "{case}");
        }
    }

    #[test]
    fn allocate_table() {
        let f = LoadFunctions::paper();
        let none = ResourceVector::default();
        let breaker = |l| OverloadPolicy::default().with_breaker(l);
        let open = OverloadPolicy::default();
        let ids = |v: &[u32]| v.iter().map(|&i| n(i)).collect::<Vec<_>>();
        // (case, view, home, own, policy, owners, nodes, tripped, left_home)
        type Row<'a> = (
            &'a str,
            Vec<(NodeId, ResourceVector)>,
            u32,
            ResourceVector,
            OverloadPolicy,
            Option<Vec<u32>>,
            Vec<u32>,
            Vec<u32>,
            bool,
        );
        let rows: Vec<Row> = vec![
            (
                "idle cluster: uniform partition over everyone",
                view(&[(0, 0.0), (1, 0.0), (2, 0.0)]),
                0,
                none,
                open,
                None,
                vec![0, 1, 2],
                vec![],
                true,
            ),
            (
                "own load subtracted: an otherwise idle home stays in its \
                 own partition set",
                view(&[(0, 0.5), (1, 0.0)]),
                0,
                ResourceVector::new(0.5, 0.5),
                open,
                None,
                vec![0, 1],
                vec![],
                true,
            ),
            (
                "nobody under-loaded: pure migration to the least loaded",
                view(&[(0, 9.0), (1, 5.0), (2, 7.0)]),
                0,
                none,
                open,
                None,
                vec![1],
                vec![],
                true,
            ),
            (
                "nobody under-loaded and home is the least loaded: stay",
                view(&[(0, 5.0), (1, 9.0)]),
                0,
                none,
                open,
                None,
                vec![0],
                vec![],
                false,
            ),
            (
                "breaker trips the saturated node out of the set",
                view(&[(0, 0.0), (1, 8.0), (2, 0.0)]),
                0,
                none,
                breaker(4.0),
                None,
                vec![0, 2],
                vec![1],
                true,
            ),
            (
                "every node over breaker_load: home serves alone",
                view(&[(0, 8.0), (1, 9.0)]),
                1,
                none,
                breaker(4.0),
                None,
                vec![1],
                vec![0, 1],
                false,
            ),
            (
                "owner filter: only owners take PR chunks",
                view(&[(0, 0.0), (1, 0.0), (2, 0.0), (3, 0.0)]),
                3,
                none,
                open,
                Some(vec![0, 2]),
                vec![0, 2],
                vec![],
                true,
            ),
            (
                "no owner in view: home serves as the degraded fallback",
                view(&[(0, 0.0), (1, 0.0)]),
                1,
                none,
                open,
                Some(vec![5]),
                vec![1],
                vec![],
                false,
            ),
            (
                "empty view: home",
                Vec::new(),
                2,
                none,
                open,
                None,
                vec![2],
                vec![],
                false,
            ),
        ];
        for (case, v, home, own, policy, owners, nodes, tripped, left_home) in rows {
            let owns = |node: NodeId| owners.as_ref().is_none_or(|o| o.contains(&node.raw()));
            let got = allocate(v, n(home), QaModule::Pr, &f, own, &policy, owns);
            let mut got_nodes = got.nodes.clone();
            got_nodes.sort();
            assert_eq!(got_nodes, ids(&nodes), "{case}: nodes");
            assert_eq!(got.tripped, ids(&tripped), "{case}: tripped");
            assert_eq!(got.left_home, left_home, "{case}: left_home");
        }
    }
}
