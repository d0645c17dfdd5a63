//! Local-search post-processing for Steiner forests (Groß, Gupta, Kumar,
//! Matuschke, *A Local-Search Algorithm for Steiner Forest*,
//! arXiv:1707.02753).
//!
//! [`improve`] takes *any* feasible [`ForestSolution`] and iterates two
//! move families to a local optimum:
//!
//! * **edge swap** — add one non-forest edge and drop the heaviest edge on
//!   the tree cycle it closes (via
//!   [`ForestSolution::lightest_spanning_forest`], i.e. Kruskal on the
//!   union), accepted when the weight strictly decreases;
//! * **path replace** — remove one forest edge and, if feasibility
//!   requires it, reconnect the two sides along the cheapest contracted
//!   path (remaining forest edges cost 0), accepted when the replacement
//!   is strictly cheaper than the removed edge.
//!
//! Every accepted move is followed by
//! [`ForestSolution::prune_to_minimal`], so redundant branches exposed by
//! a swap are dropped immediately. Moves are scanned in ascending edge-id
//! order (first improvement wins), which makes the whole procedure
//! deterministic; integer weights strictly decrease on every accepted
//! move, so termination is guaranteed even without the defensive
//! [`MAX_MOVES`] cap. Groß et al. prove forests that survive these moves
//! are constant-approximate regardless of the starting solution.

use dsf_graph::{dijkstra, EdgeId, NodeId, Weight, WeightedGraph, INF};

use crate::instance::Instance;
use crate::solution::ForestSolution;

/// Defensive cap on accepted moves per [`improve`] call. Weights strictly
/// decrease per move, so this only triggers on a bug, never on a real
/// corpus instance.
pub const MAX_MOVES: usize = 10_000;

/// The move family an accepted improvement came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MoveKind {
    /// Added a non-forest edge, dropped the heaviest cycle edge.
    Swap(EdgeId),
    /// Removed a forest edge, reconnected along a cheaper path (or not at
    /// all, when pruning already made it redundant).
    Replace(EdgeId),
}

/// Full trace of one [`improve`] run.
#[derive(Debug, Clone)]
pub struct Improvement {
    /// The locally optimal forest.
    pub forest: ForestSolution,
    /// `(move, total weight after the move)` per accepted move, in order.
    /// Weights are strictly decreasing.
    pub accepted: Vec<(MoveKind, Weight)>,
    /// Whether [`MAX_MOVES`] stopped the search before a local optimum.
    pub capped: bool,
}

/// Improves `f` to a swap/replace local optimum. Never increases weight,
/// never breaks feasibility; idempotent at a local optimum.
///
/// # Example
///
/// ```
/// use dsf_graph::{generators, NodeId};
/// use dsf_steiner::{local_search, InstanceBuilder};
///
/// let g = generators::gnp_connected(20, 0.25, 10, 5);
/// let inst = InstanceBuilder::new(&g)
///     .component(&[NodeId(1), NodeId(18)])
///     .build()
///     .unwrap();
/// // Start from a deliberately bloated solution: every edge.
/// let all: dsf_steiner::ForestSolution = (0..g.m() as u32).map(dsf_graph::EdgeId).collect();
/// let better = local_search::improve(&g, &inst, &all);
/// assert!(inst.is_feasible(&g, &better));
/// assert!(better.weight(&g) <= all.weight(&g));
/// ```
pub fn improve(g: &WeightedGraph, inst: &Instance, f: &ForestSolution) -> ForestSolution {
    improve_detailed(g, inst, f).forest
}

/// [`improve`] with the accepted-move trace (used by the conformance lab
/// and the improver property tests).
pub fn improve_detailed(g: &WeightedGraph, inst: &Instance, f: &ForestSolution) -> Improvement {
    // Normalize: restore forest-ness (identity on forests) and minimality.
    // Both steps only ever drop edges, so weight cannot increase.
    let mut cur = f.lightest_spanning_forest(g).prune_to_minimal(g, inst);
    let mut accepted = Vec::new();
    let mut capped = false;
    loop {
        if accepted.len() >= MAX_MOVES {
            capped = true;
            break;
        }
        let before = cur.weight(g);
        let next = swap_move(g, inst, &cur).or_else(|| replace_move(g, inst, &cur));
        match next {
            Some((kind, forest)) => {
                let after = forest.weight(g);
                debug_assert!(after < before, "{kind:?} did not decrease weight");
                accepted.push((kind, after));
                cur = forest;
            }
            None => break, // local optimum
        }
    }
    Improvement {
        forest: cur,
        accepted,
        capped,
    }
}

/// First improving edge swap in ascending edge-id order.
///
/// Adding a non-forest edge whose endpoints share a tree closes exactly
/// one cycle; Kruskal on the union keeps the lightest spanning forest of
/// the same components, so the swap is accepted iff the closed cycle's
/// heaviest edge outweighs the added one.
fn swap_move(
    g: &WeightedGraph,
    inst: &Instance,
    cur: &ForestSolution,
) -> Option<(MoveKind, ForestSolution)> {
    let comps = g.components_of(cur.edges());
    let before = cur.weight(g);
    for e in (0..g.m() as u32).map(EdgeId) {
        if cur.contains(e) {
            continue;
        }
        let ed = g.edge(e);
        // Endpoints in different trees: adding e only merges trees and
        // adds weight — never an improvement on a minimal forest.
        if comps[ed.u.idx()] != comps[ed.v.idx()] {
            continue;
        }
        let mut union = cur.edges().to_vec();
        union.push(e);
        let swapped = ForestSolution::from_edges(union)
            .lightest_spanning_forest(g)
            .prune_to_minimal(g, inst);
        if swapped.weight(g) < before {
            return Some((MoveKind::Swap(e), swapped));
        }
    }
    None
}

/// First improving path replacement in ascending edge-id order.
///
/// Dropping forest edge `e` splits its tree in two. If the instance no
/// longer needs the two sides joined, the drop alone improves; otherwise
/// the sides are rejoined along the cheapest path in the contracted
/// metric (remaining forest edges free), an improvement iff that path is
/// strictly cheaper than `e`.
fn replace_move(
    g: &WeightedGraph,
    inst: &Instance,
    cur: &ForestSolution,
) -> Option<(MoveKind, ForestSolution)> {
    let before = cur.weight(g);
    for &e in cur.edges() {
        let rest: Vec<EdgeId> = cur.edges().iter().copied().filter(|&x| x != e).collect();
        let dropped = ForestSolution::from_edges(rest);
        let candidate = if inst.is_feasible(g, &dropped) {
            dropped.prune_to_minimal(g, inst)
        } else {
            let ed = g.edge(e);
            match reconnect(g, &dropped, ed.u, ed.v) {
                Some(path) if !path.is_empty() => dropped
                    .union(&ForestSolution::from_edges(path))
                    .lightest_spanning_forest(g)
                    .prune_to_minimal(g, inst),
                _ => continue,
            }
        };
        if candidate.weight(g) < before && inst.is_feasible(g, &candidate) {
            return Some((MoveKind::Replace(e), candidate));
        }
    }
    None
}

/// Cheapest contracted path between the two sides of a dropped edge:
/// edges of `dropped` cost 0, everything else its graph weight. Returns
/// `None` when `v` is unreachable (cannot happen on connected graphs).
fn reconnect(
    g: &WeightedGraph,
    dropped: &ForestSolution,
    u: NodeId,
    v: NodeId,
) -> Option<Vec<EdgeId>> {
    let sp = dijkstra::multi_source_to(g, &[u], &[v], |e| {
        if dropped.contains(e) {
            0
        } else {
            g.weight(e)
        }
    });
    (sp.dist[v.idx()] < INF).then(|| {
        sp.path_edges(v)
            .into_iter()
            .filter(|e| !dropped.contains(*e))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceBuilder;
    use dsf_graph::{generators, GraphBuilder};

    /// Square 0-1-2-3-0 with one heavy side; demand {0, 2}.
    fn square() -> (WeightedGraph, Instance) {
        let mut b = GraphBuilder::new(4);
        b.add_edge(NodeId(0), NodeId(1), 1).unwrap(); // e0
        b.add_edge(NodeId(1), NodeId(2), 1).unwrap(); // e1
        b.add_edge(NodeId(2), NodeId(3), 1).unwrap(); // e2
        b.add_edge(NodeId(3), NodeId(0), 9).unwrap(); // e3
        let g = b.build().unwrap();
        let inst = InstanceBuilder::new(&g)
            .component(&[NodeId(0), NodeId(2)])
            .build()
            .unwrap();
        (g, inst)
    }

    #[test]
    fn replace_move_reroutes_a_heavy_detour() {
        let (g, inst) = square();
        // Feasible but silly: reach node 2 over the heavy side.
        let bad = ForestSolution::from_edges(vec![EdgeId(2), EdgeId(3)]);
        let out = improve_detailed(&g, &inst, &bad);
        assert_eq!(out.forest.edges(), &[EdgeId(0), EdgeId(1)]);
        assert_eq!(out.forest.weight(&g), 2);
        assert!(!out.capped);
        assert!(!out.accepted.is_empty());
        // Per-move weights strictly decrease from the starting weight.
        let mut prev = bad.weight(&g);
        for &(_, w) in &out.accepted {
            assert!(w < prev, "non-decreasing move: {w} after {prev}");
            prev = w;
        }
    }

    #[test]
    fn swap_move_trades_a_heavy_tree_edge_for_a_light_chord() {
        // Triangle 0-1 (7), 1-2 (1), 0-2 (1); demand {0, 1}. The direct
        // heavy edge is swapped for the two light ones... which pruning
        // then cannot split, so the local optimum is the 2-edge path.
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1), 7).unwrap();
        b.add_edge(NodeId(1), NodeId(2), 1).unwrap();
        b.add_edge(NodeId(0), NodeId(2), 1).unwrap();
        let g = b.build().unwrap();
        let inst = InstanceBuilder::new(&g)
            .component(&[NodeId(0), NodeId(1)])
            .build()
            .unwrap();
        let bad = ForestSolution::from_edges(vec![EdgeId(0)]);
        let out = improve(&g, &inst, &bad);
        assert_eq!(out.weight(&g), 2);
        assert!(inst.is_feasible(&g, &out));
    }

    #[test]
    fn idempotent_at_a_local_optimum() {
        for seed in 0..5 {
            let g = generators::gnp_connected(22, 0.25, 12, seed);
            let inst = crate::random_instance(&g, 3, 3, seed);
            let all: ForestSolution = (0..g.m() as u32).map(EdgeId).collect();
            let once = improve(&g, &inst, &all);
            let twice = improve(&g, &inst, &once);
            assert_eq!(once, twice, "seed {seed}");
            assert!(
                improve_detailed(&g, &inst, &once).accepted.is_empty(),
                "seed {seed}: local optimum still had moves"
            );
        }
    }

    #[test]
    fn never_increases_weight_or_breaks_feasibility() {
        for seed in 0..5 {
            let g = generators::gnp_connected(24, 0.2, 10, seed + 50);
            let inst = crate::random_instance(&g, 4, 2, seed);
            let start = crate::greedy::solve_greedy(&g, &inst);
            let out = improve(&g, &inst, &start);
            assert!(out.weight(&g) <= start.weight(&g), "seed {seed}");
            assert!(inst.is_feasible(&g, &out), "seed {seed}");
            assert!(out.is_forest(&g), "seed {seed}");
        }
    }

    #[test]
    fn empty_solution_stays_empty() {
        let g = generators::path(4, 1);
        let inst = InstanceBuilder::new(&g).build().unwrap();
        let out = improve_detailed(&g, &inst, &ForestSolution::empty());
        assert!(out.forest.is_empty());
        assert!(out.accepted.is_empty());
        assert!(!out.capped);
    }
}
