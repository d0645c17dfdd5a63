//! Gluttonous greedy Steiner forest (Gupta–Kumar, *Greedy Algorithms for
//! Steiner Forest*, arXiv:1412.7693).
//!
//! The algorithm repeatedly connects the pair of partial trees whose
//! connection cost **per unit of satisfied demand** is lowest: distances
//! are measured in the graph with the already-selected edge set
//! *contracted* (selected edges cost 0, so growing an existing tree is
//! free), and a merge of trees `A` and `B` satisfies one unit of demand
//! per input component with terminals on both sides. This is the
//! sequential "beat the 2+ε line" reference the conformance lab measures
//! the paper's solvers against — Gupta–Kumar prove a constant
//! approximation factor for exactly this rule.
//!
//! Everything is deterministic: candidate trees are scanned in ascending
//! root-node order, distances use the workspace-wide `(dist, hops,
//! parent-id)` tie-breaking of [`dsf_graph::dijkstra`], and score ties
//! fall back to `(cost, source id, target id)`.

use dsf_graph::union_find::UnionFind;
use dsf_graph::{dijkstra, EdgeId, NodeId, Weight, WeightedGraph, INF};

use crate::instance::Instance;
use crate::solution::ForestSolution;

/// One candidate merge, ordered by greedy score then deterministically.
struct Candidate {
    /// Contracted connection cost between the two trees.
    cost: Weight,
    /// Input components with terminals on both sides (demand units).
    units: u64,
    /// Source terminal (smallest id in its tree).
    source: NodeId,
    /// Target terminal (smallest id achieving `cost` in the other tree).
    target: NodeId,
}

impl Candidate {
    /// `self` scores strictly better than `other`: smaller
    /// `cost / units`, ties broken by `(cost, source, target)`.
    fn beats(&self, other: &Candidate) -> bool {
        let lhs = u128::from(self.cost) * u128::from(other.units);
        let rhs = u128::from(other.cost) * u128::from(self.units);
        lhs < rhs
            || (lhs == rhs
                && (self.cost, self.source, self.target) < (other.cost, other.source, other.target))
    }
}

/// Solves `inst` on `g` with the gluttonous greedy rule and returns the
/// pruned minimal forest.
///
/// Deterministic: no randomness, no dependence on iteration order beyond
/// the documented tie-breaking.
///
/// # Example
///
/// ```
/// use dsf_graph::{generators, NodeId};
/// use dsf_steiner::{greedy, InstanceBuilder};
///
/// let g = generators::gnp_connected(20, 0.2, 10, 1);
/// let inst = InstanceBuilder::new(&g)
///     .component(&[NodeId(0), NodeId(7)])
///     .component(&[NodeId(3), NodeId(12), NodeId(19)])
///     .build()
///     .unwrap();
/// let f = greedy::solve_greedy(&g, &inst);
/// assert!(inst.is_feasible(&g, &f));
/// assert!(f.is_forest(&g));
/// ```
pub fn solve_greedy(g: &WeightedGraph, inst: &Instance) -> ForestSolution {
    let inst = inst.make_minimal();
    let mut selected = vec![false; g.m()];
    let mut uf = UnionFind::new(g.n());
    // Upper bound on merges: each merge joins two trees holding terminals,
    // and there are at most t terminal-holding trees initially.
    let max_merges = inst.t().max(1);
    for _ in 0..max_merges {
        let Some(best) = best_candidate(g, &inst, &selected, &mut uf) else {
            break; // every input component is connected
        };
        // Realize the connection along the contracted shortest path.
        let sp = dijkstra::multi_source_to(g, &[best.source], &[best.target], |e| {
            if selected[e.idx()] {
                0
            } else {
                g.weight(e)
            }
        });
        for e in sp.path_edges(best.target) {
            selected[e.idx()] = true;
            let ed = g.edge(e);
            uf.union(ed.u.idx(), ed.v.idx());
        }
    }
    debug_assert!(unsatisfied(&inst, &mut uf).is_empty(), "greedy stalled");
    let picked: ForestSolution = (0..g.m() as u32)
        .map(EdgeId)
        .filter(|e| selected[e.idx()])
        .collect();
    // Contracted shortest paths never close a cycle (unselected edges have
    // positive weight, so re-entering a tree is strictly worse than
    // staying inside it), but restore the invariants defensively and drop
    // anything a later, cheaper connection made redundant.
    picked
        .lightest_spanning_forest(g)
        .prune_to_minimal(g, &inst)
}

/// Input components whose terminals span more than one tree.
fn unsatisfied(inst: &Instance, uf: &mut UnionFind) -> Vec<usize> {
    (0..inst.k())
        .filter(|&c| {
            let terms = &inst.components()[c];
            terms
                .iter()
                .any(|t| uf.find(t.idx()) != uf.find(terms[0].idx()))
        })
        .collect()
}

/// The best merge under the gluttonous rule, or `None` when feasible.
///
/// One contracted Dijkstra per active tree: with selected edges at weight
/// 0, every node of a tree sits at the same distance from any other tree,
/// so the smallest-id terminal of each tree stands in for the whole tree.
/// Each run stops once it has settled the later trees that share an open
/// component with its source (the only distances it reads), and a tree
/// that shares none with any later tree runs no search at all.
fn best_candidate(
    g: &WeightedGraph,
    inst: &Instance,
    selected: &[bool],
    uf: &mut UnionFind,
) -> Option<Candidate> {
    let open = unsatisfied(inst, uf);
    if open.is_empty() {
        return None;
    }
    // Trees that hold a terminal of an unsatisfied component, keyed by
    // union-find root: (representative terminal, set of open components).
    let mut trees: Vec<(usize, NodeId, Vec<usize>)> = Vec::new();
    for &c in &open {
        for &t in &inst.components()[c] {
            let root = uf.find(t.idx());
            match trees.iter_mut().find(|(r, _, _)| *r == root) {
                Some((_, rep, comps)) => {
                    if t < *rep {
                        *rep = t;
                    }
                    if !comps.contains(&c) {
                        comps.push(c);
                    }
                }
                None => trees.push((root, t, vec![c])),
            }
        }
    }
    trees.sort_by_key(|&(_, rep, _)| rep);

    let mut best: Option<Candidate> = None;
    for (i, &(_, source, ref comps)) in trees.iter().enumerate() {
        let shares = |other: &Vec<usize>| comps.iter().filter(|c| other.contains(c)).count() as u64;
        let targets: Vec<NodeId> = trees[i + 1..]
            .iter()
            .filter(|(_, _, other)| shares(other) > 0)
            .map(|&(_, target, _)| target)
            .collect();
        if targets.is_empty() {
            continue;
        }
        let sp = dijkstra::multi_source_to(g, &[source], &targets, |e| {
            if selected[e.idx()] {
                0
            } else {
                g.weight(e)
            }
        });
        for &(_, target, ref other) in &trees[i + 1..] {
            let units = shares(other);
            if units == 0 || sp.dist[target.idx()] >= INF {
                continue;
            }
            let cand = Candidate {
                cost: sp.dist[target.idx()],
                units,
                source,
                target,
            };
            if best.as_ref().is_none_or(|b| cand.beats(b)) {
                best = Some(cand);
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceBuilder;
    use dsf_graph::generators;

    #[test]
    fn connects_a_single_pair_along_the_shortest_path() {
        let g = generators::path(5, 3);
        let inst = InstanceBuilder::new(&g)
            .component(&[NodeId(0), NodeId(4)])
            .build()
            .unwrap();
        let f = solve_greedy(&g, &inst);
        assert_eq!(f.len(), 4);
        assert_eq!(f.weight(&g), 12);
    }

    #[test]
    fn reuses_contracted_edges_across_components() {
        // Star: center 0, leaves 1..=4, unit spokes. Components {1,2} and
        // {3,4}: greedy pays each spoke once, never double-counts.
        let g = generators::star(5, 1, 0);
        let inst = InstanceBuilder::new(&g)
            .component(&[NodeId(1), NodeId(2)])
            .component(&[NodeId(3), NodeId(4)])
            .build()
            .unwrap();
        let f = solve_greedy(&g, &inst);
        assert!(inst.is_feasible(&g, &f));
        assert_eq!(f.weight(&g), 4);
    }

    #[test]
    fn is_feasible_and_acyclic_on_random_instances() {
        for seed in 0..6 {
            let g = generators::gnp_connected(26, 0.2, 11, seed);
            let inst = crate::random_instance(&g, 4, 3, seed);
            let f = solve_greedy(&g, &inst);
            assert!(inst.is_feasible(&g, &f), "seed {seed}");
            assert!(f.is_forest(&g), "seed {seed}");
            // Deterministic.
            assert_eq!(f, solve_greedy(&g, &inst), "seed {seed}");
        }
    }

    #[test]
    fn matches_the_exact_optimum_on_small_instances() {
        // Greedy has no guarantee to hit OPT, but stays within its
        // constant factor; on tiny instances it is usually exact — pin a
        // loose 2x envelope against the exact solver.
        for seed in 0..4 {
            let g = generators::gnp_connected(14, 0.3, 8, seed);
            let inst = crate::random_instance(&g, 2, 2, seed);
            let f = solve_greedy(&g, &inst);
            let opt = crate::exact::solve(&g, &inst).weight;
            assert!(
                f.weight(&g) <= 2 * opt,
                "seed {seed}: greedy {} vs opt {opt}",
                f.weight(&g)
            );
        }
    }

    #[test]
    fn empty_instance_yields_empty_forest() {
        let g = generators::path(4, 1);
        let inst = InstanceBuilder::new(&g).build().unwrap();
        assert!(solve_greedy(&g, &inst).is_empty());
    }

    #[test]
    fn singleton_components_are_ignored() {
        let g = generators::path(5, 2);
        let inst = InstanceBuilder::new(&g)
            .component(&[NodeId(0)])
            .component(&[NodeId(1), NodeId(3)])
            .build()
            .unwrap();
        let f = solve_greedy(&g, &inst);
        assert_eq!(f.weight(&g), 4); // just the 1..3 path
        assert!(inst.make_minimal().is_feasible(&g, &f));
    }
}
