//! The deterministic algorithm of Theorem 4.17: the merge-phase engine
//! under its exact rule.

use dsf_congest::{CongestConfig, RoundLedger, SimError};
use dsf_graph::dyadic::Dyadic;
use dsf_graph::{EdgeId, NodeId, WeightedGraph};
use dsf_steiner::{ForestSolution, Instance};

use super::phases::{run_phases, PhaseRule};

/// Configuration of the deterministic solver.
#[derive(Debug, Clone, Default)]
pub struct DetConfig {
    /// Override of the per-edge bandwidth (None: `CongestConfig::for_graph`).
    pub bandwidth_bits: Option<usize>,
    /// Edges whose traffic is metered (lower-bound experiments).
    pub metered_cut: Vec<EdgeId>,
}

/// One accepted merge.
#[derive(Debug, Clone)]
pub struct DetMerge {
    /// Terminal of the first moat (smaller node id).
    pub v: NodeId,
    /// Terminal of the second moat.
    pub w: NodeId,
    /// Cumulative growth within the phase at which the moats met.
    pub mu: Dyadic,
    /// Merge phase index (1-based).
    pub phase: usize,
    /// The inducing boundary edge.
    pub edge: EdgeId,
}

/// Result of the deterministic distributed algorithm.
#[derive(Debug, Clone)]
pub struct DetOutput {
    /// The minimal feasible solution (the algorithm's output).
    pub forest: ForestSolution,
    /// The realization of *all* accepted merges (before minimal-subset
    /// selection) — the analogue of Algorithm 1's `F_imax`.
    pub raw: ForestSolution,
    /// Itemized round accounting.
    pub rounds: RoundLedger,
    /// Number of merge phases executed (Lemma 4.4: `≤ 2k`).
    pub phases: usize,
    /// The merge log, in global order.
    pub merges: Vec<DetMerge>,
}

/// Solves DSF-IC with the deterministic distributed algorithm
/// (Theorem 4.17: 2-approximate, `O(ks + t)` rounds).
///
/// # Example
///
/// ```
/// use dsf_core::det::{solve_deterministic, DetConfig};
/// use dsf_graph::{generators, NodeId};
/// use dsf_steiner::InstanceBuilder;
///
/// let g = generators::gnp_connected(16, 0.25, 9, 5);
/// let inst = InstanceBuilder::new(&g)
///     .component(&[NodeId(0), NodeId(11)])
///     .build()
///     .unwrap();
/// let out = solve_deterministic(&g, &inst, &DetConfig::default()).unwrap();
/// assert!(inst.is_feasible(&g, &out.forest));
/// // Fully deterministic: running again reproduces forest and ledger.
/// let again = solve_deterministic(&g, &inst, &DetConfig::default()).unwrap();
/// assert_eq!(out.forest, again.forest);
/// assert_eq!(out.rounds, again.rounds);
/// ```
///
/// # Errors
///
/// Propagates CONGEST model violations from the simulator (none occur for
/// well-formed instances; they indicate bugs, not user errors).
///
/// # Panics
///
/// Panics if internal invariants are violated (e.g. a phase without an
/// activity-changing merge, which Lemma 4.4 rules out).
pub fn solve_deterministic(
    g: &WeightedGraph,
    inst: &Instance,
    cfg: &DetConfig,
) -> Result<DetOutput, SimError> {
    let mut congest = CongestConfig::for_graph(g);
    if let Some(b) = cfg.bandwidth_bits {
        congest.bandwidth_bits = b;
    }
    congest.metered_cut = cfg.metered_cut.iter().copied().collect();
    Ok(run_phases(g, inst, &congest, PhaseRule::Exact)?.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsf_graph::generators;
    use dsf_steiner::{exact, moat, random_instance, InstanceBuilder};

    fn check_instance(g: &WeightedGraph, inst: &Instance, tag: &str) -> DetOutput {
        let out = solve_deterministic(g, inst, &DetConfig::default()).unwrap();
        assert!(inst.is_feasible(g, &out.forest), "{tag}: infeasible");
        assert!(out.forest.is_forest(g), "{tag}: cyclic output");
        let central = moat::grow(g, inst);
        assert_eq!(
            out.forest.weight(g),
            central.forest.weight(g),
            "{tag}: weight differs from centralized Algorithm 1"
        );
        // Same merge pair multiset, in the same global order.
        let dist_pairs: Vec<(NodeId, NodeId)> = out.merges.iter().map(|m| (m.v, m.w)).collect();
        let cent_pairs: Vec<(NodeId, NodeId)> = central.merges.iter().map(|m| (m.v, m.w)).collect();
        assert_eq!(dist_pairs, cent_pairs, "{tag}: merge order differs");
        out
    }

    #[test]
    fn matches_centralized_on_small_instances() {
        for seed in 0..8 {
            let g = generators::gnp_connected(16, 0.25, 10, seed);
            let inst = random_instance(&g, 2, 2, seed + 7);
            check_instance(&g, &inst, &format!("seed {seed}"));
        }
    }

    #[test]
    fn matches_centralized_on_geometric_graphs() {
        for seed in 0..4 {
            let g = generators::random_geometric(24, 0.3, seed);
            let inst = random_instance(&g, 3, 3, seed);
            check_instance(&g, &inst, &format!("geo seed {seed}"));
        }
    }

    #[test]
    fn two_approximation_vs_exact() {
        for seed in 0..6 {
            let g = generators::gnp_connected(14, 0.3, 8, seed + 50);
            let inst = random_instance(&g, 3, 2, seed);
            let out = solve_deterministic(&g, &inst, &DetConfig::default()).unwrap();
            let opt = exact::solve(&g, &inst).weight;
            assert!(
                out.forest.weight(&g) <= 2 * opt,
                "seed {seed}: {} > 2·{opt}",
                out.forest.weight(&g)
            );
        }
    }

    #[test]
    fn phase_count_respects_lemma_4_4() {
        for seed in 0..5 {
            let g = generators::gnp_connected(20, 0.2, 12, seed);
            let k = 4;
            let inst = random_instance(&g, k, 2, seed);
            let out = solve_deterministic(&g, &inst, &DetConfig::default()).unwrap();
            assert!(out.phases <= 2 * k, "seed {seed}: {} phases", out.phases);
        }
    }

    #[test]
    fn mst_specialization_is_exact() {
        // k = 1, t = n: the output must be an exact MST (paper Section 1).
        for seed in 0..5 {
            let g = generators::gnp_connected(12, 0.3, 20, seed + 3);
            let all: Vec<NodeId> = g.nodes().collect();
            let inst = InstanceBuilder::new(&g).component(&all).build().unwrap();
            let out = solve_deterministic(&g, &inst, &DetConfig::default()).unwrap();
            let mst = dsf_graph::mst::kruskal(&g);
            assert_eq!(out.forest.weight(&g), mst.weight, "seed {seed}");
        }
    }

    #[test]
    fn empty_and_singleton_instances() {
        let g = generators::path(4, 1);
        let empty = InstanceBuilder::new(&g).build().unwrap();
        let out = solve_deterministic(&g, &empty, &DetConfig::default()).unwrap();
        assert!(out.forest.is_empty());
        assert_eq!(out.phases, 0);

        let single = InstanceBuilder::new(&g)
            .component(&[NodeId(2)])
            .build()
            .unwrap();
        let out = solve_deterministic(&g, &single, &DetConfig::default()).unwrap();
        assert!(out.forest.is_empty());
    }

    #[test]
    fn ledger_itemizes_phases() {
        let g = generators::gnp_connected(15, 0.25, 6, 2);
        let inst = random_instance(&g, 2, 2, 2);
        let out = solve_deterministic(&g, &inst, &DetConfig::default()).unwrap();
        let labels: Vec<&str> = out
            .rounds
            .entries()
            .iter()
            .map(|e| e.label.as_str())
            .collect();
        assert!(labels.iter().any(|l| l.contains("BFS")));
        assert!(labels.iter().any(|l| l.contains("terminal decomposition")));
        assert!(labels
            .iter()
            .any(|l| l.contains("filtered merge collection")));
        assert!(out.rounds.total() > 0);
        assert!(out.rounds.simulated() > 0);
    }
}
