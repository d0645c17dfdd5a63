//! The growth-phase variant (Section 4.2): the distributed emulation of
//! **Algorithm 2** (rounded moat radii).
//!
//! Moats change their activity status only at *checkpoints* — radii where
//! the cumulative growth hits the threshold `μ̂`, which then advances by
//! the factor `1 + ε/2` (quantized exactly as the centralized
//! [`dsf_steiner::moat_rounded`], so the two runs are comparable
//! merge-for-merge). Between checkpoints, merge phases end only at merges
//! that involve an inactive moat (Definition 4.19); merged moats stay
//! active (Algorithm 2 line 33).
//!
//! The payoff (Corollary 4.20): the number of *growth phases* is
//! `O(log WD / ε)` (Lemma F.1), so the expensive global activity
//! recomputation — in the paper, the small/large-moat machinery with
//! matchings (Appendix F.1) — happens `O(log n/ε)` times instead of once
//! per component. We reproduce the checkpoint structure at message level
//! and charge each checkpoint's activity recomputation at the paper's
//! `O(k + D)` bound (Lemma 2.4 machinery; see DESIGN.md §3 for the
//! small/large-moat substitution note). Experiment E12 compares the
//! resulting round counts against the plain Theorem-4.17 driver as `t`
//! grows.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use dsf_congest::{CongestConfig, RoundLedger, SimError};
use dsf_graph::dyadic::Dyadic;
use dsf_graph::{EdgeId, NodeId, WeightedGraph};
use dsf_steiner::moat_rounded::next_mu_hat;
use dsf_steiner::{ForestSolution, Instance};

use crate::primitives::{
    build_bfs_tree, filtered_upcast, flood_items, FloodItem, UpcastCandidate, UpcastMode,
    UpcastRootVerdict,
};

use super::book::MoatBook;
use super::voronoi::{decompose, VorStatus};

/// Configuration of the growth-phase solver.
#[derive(Debug, Clone)]
pub struct GrowthConfig {
    /// The `ε` of the `(2+ε)` approximation (a positive dyadic, e.g.
    /// `Dyadic::new(1, 1)` for `ε = 1/2`).
    pub eps: Dyadic,
    /// Bandwidth override.
    pub bandwidth_bits: Option<usize>,
    /// Safety bound on the merge-phase loop.
    pub max_iterations: usize,
}

impl Default for GrowthConfig {
    fn default() -> Self {
        GrowthConfig {
            eps: Dyadic::new(1, 1),
            bandwidth_bits: None,
            max_iterations: 100_000,
        }
    }
}

/// Result of the growth-phase algorithm.
#[derive(Debug, Clone)]
pub struct GrowthOutput {
    /// The minimal feasible solution.
    pub forest: ForestSolution,
    /// Round accounting.
    pub rounds: RoundLedger,
    /// Number of growth phases (checkpoints); Lemma F.1: `O(log WD/ε)`.
    pub growth_phases: usize,
    /// Number of merge phases (Voronoi recomputations).
    pub merge_phases: usize,
    /// Merge log: `(v, w, μ cumulative in its merge phase, merge phase)`.
    pub merges: Vec<(NodeId, NodeId, Dyadic, usize)>,
}

/// Solves DSF-IC with the distributed growth-phase algorithm
/// (Corollary 4.20: `(2+ε)`-approximate).
///
/// # Errors
///
/// Propagates CONGEST model violations from the simulator.
///
/// # Panics
///
/// Panics if `eps` is not positive or internal invariants break.
pub fn solve_growth(
    g: &WeightedGraph,
    inst: &Instance,
    cfg: &GrowthConfig,
) -> Result<GrowthOutput, SimError> {
    assert!(cfg.eps.is_positive(), "epsilon must be positive");
    let mut congest = CongestConfig::for_graph(g);
    if let Some(b) = cfg.bandwidth_bits {
        congest.bandwidth_bits = b;
    }
    let mut ledger = RoundLedger::new();

    let minimal = inst.make_minimal();
    let terms = minimal.terminals();
    if terms.is_empty() {
        return Ok(GrowthOutput {
            forest: ForestSolution::empty(),
            rounds: ledger,
            growth_phases: 0,
            merge_phases: 0,
            merges: Vec::new(),
        });
    }
    let tidx: HashMap<NodeId, u32> = terms
        .iter()
        .enumerate()
        .map(|(i, &t)| (t, i as u32))
        .collect();

    let bfs = build_bfs_tree(g, NodeId(0), &congest)?;
    ledger.record("BFS tree construction", &bfs.metrics);
    let label_items: Vec<Vec<FloodItem>> = g
        .nodes()
        .map(|v| match minimal.label(v) {
            Some(l) => vec![FloodItem {
                payload: ((v.0 as u128) << 32) | l.0 as u128,
                bits: 64,
            }],
            None => Vec::new(),
        })
        .collect();
    let lf = flood_items(g, label_items, &congest)?;
    ledger.record("terminal label broadcast", &lf.metrics);

    let n = g.n();
    let mut book = MoatBook::new(&minimal, &terms);
    let mut owner: Vec<Option<u32>> = vec![None; n];
    let mut rel: Vec<Dyadic> = vec![Dyadic::ZERO; n];
    let mut parent_ptr: Vec<Option<NodeId>> = vec![None; n];
    for (i, &t) in terms.iter().enumerate() {
        owner[t.idx()] = Some(i as u32);
    }

    let mut accepted_all: Vec<UpcastCandidate> = Vec::new();
    let mut merges_log: Vec<(NodeId, NodeId, Dyadic, usize)> = Vec::new();
    let mut mu_hat = Dyadic::ONE;
    let mut elapsed = Dyadic::ZERO;
    let mut growth_phases = 0usize;
    let mut merge_phases = 0usize;

    while book.active_moats() > 0 {
        merge_phases += 1;
        assert!(
            merge_phases <= cfg.max_iterations,
            "merge-phase loop exceeded safety bound"
        );
        let remaining = mu_hat - elapsed;
        debug_assert!(!remaining.is_negative());

        // Terminal decomposition (identical to the Theorem 4.17 driver).
        let status: Vec<VorStatus> = g
            .nodes()
            .map(|u| match owner[u.idx()] {
                Some(i) => {
                    if book.moat_active(i as usize) {
                        VorStatus::Source {
                            owner: i,
                            offset: rel[u.idx()],
                        }
                    } else {
                        VorStatus::Blocked
                    }
                }
                None => VorStatus::Free,
            })
            .collect();
        let vor = decompose(g, &status, &congest)?;
        ledger.record(
            format!("merge phase {merge_phases}: terminal decomposition"),
            &vor.metrics,
        );
        ledger.charge(
            format!("merge phase {merge_phases}: BF termination O(D)"),
            bfs.height() as u64,
        );

        let view = |u: usize| -> Option<(u32, Dyadic, bool)> {
            match owner[u] {
                Some(i) => Some((i, rel[u], status[u] != VorStatus::Blocked)),
                None => vor.tentative[u].map(|(off, i, _)| (i, off, true)),
            }
        };
        let mut local: Vec<Vec<UpcastCandidate>> = vec![Vec::new(); n];
        for (ei, e) in g.edges().iter().enumerate() {
            let (u, w) = (e.u.idx(), e.v.idx());
            let (Some((iu, offu, au)), Some((iw, offw, aw))) = (view(u), view(w)) else {
                continue;
            };
            if iu == iw || (!au && !aw) {
                continue;
            }
            let gap = offu + Dyadic::from_weight(e.w) + offw;
            let mu = if au && aw { gap.half() } else { gap };
            let (a, b) = if iu < iw { (iu, iw) } else { (iw, iu) };
            local[u.min(w)].push(UpcastCandidate {
                mu,
                a,
                b,
                edge: EdgeId(ei as u32),
            });
        }
        ledger.charge(format!("merge phase {merge_phases}: boundary exchange"), 1);

        // Collection: stop *before* any candidate beyond the checkpoint
        // (Algorithm 2 line 16) and *at* any merge involving an inactive
        // moat (Definition 4.19).
        let prior: Vec<u32> = (0..terms.len())
            .map(|i| book.moats.find_const(i) as u32)
            .collect();
        let mut sim = book.clone();
        // `Arc<AtomicBool>` rather than `Rc<Cell<_>>`: the closure is
        // owned by a protocol node, and protocol nodes must be `Send` so
        // the sharded executor may run them on worker threads.
        let hit_checkpoint = Arc::new(AtomicBool::new(false));
        let hit_flag = hit_checkpoint.clone();
        let verdict = move |c: &UpcastCandidate| {
            // Algorithm 2 line 16 merges only while elapsed + μ < μ̂
            // *strictly*; equality belongs to the checkpoint.
            if c.mu >= remaining {
                hit_flag.store(true, Ordering::Relaxed);
                return UpcastRootVerdict::StopBefore;
            }
            let involved_inactive = sim.apply_deferred(c.a as usize, c.b as usize);
            if involved_inactive {
                UpcastRootVerdict::AcceptAndStop
            } else {
                UpcastRootVerdict::Accept
            }
        };
        let up = filtered_upcast(
            g,
            &bfs.parent,
            &bfs.children,
            local,
            &prior,
            UpcastMode::PhaseDetect(Box::new(verdict)),
            &congest,
        )?;
        ledger.record(
            format!("merge phase {merge_phases}: filtered merge collection"),
            &up.metrics,
        );
        ledger.charge(
            format!("merge phase {merge_phases}: collection termination O(D)"),
            bfs.height() as u64,
        );
        // A drained stream without a stop also means "no merge before the
        // checkpoint" (e.g. a lone active moat with no candidates left).
        let checkpoint = hit_checkpoint.load(Ordering::Relaxed) || !up.stopped_early;
        let mu_step = if checkpoint {
            remaining
        } else {
            up.accepted.last().expect("stopped at a merge").mu
        };

        // Broadcast F_c^{(j)} and μ (root-computed).
        let mut items: Vec<FloodItem> = up
            .accepted
            .iter()
            .map(|c| FloodItem {
                payload: ((c.a as u128) << 64) | ((c.b as u128) << 40) | (c.edge.0 as u128),
                bits: 64,
            })
            .collect();
        let (m, e) = mu_step.raw();
        assert!((0..(1i128 << 80)).contains(&m) && e < 256);
        items.push(FloodItem {
            payload: (1u128 << 120) | ((m as u128) << 8) | e as u128,
            bits: 96,
        });
        let mut initial = vec![Vec::new(); n];
        initial[bfs.root.idx()] = items;
        let fl = flood_items(g, initial, &congest)?;
        ledger.record(
            format!("merge phase {merge_phases}: broadcast F_c^(j)"),
            &fl.metrics,
        );

        // Local updates using activity at phase start.
        for u in 0..n {
            match owner[u] {
                Some(_) => {
                    if matches!(status[u], VorStatus::Source { .. }) {
                        rel[u] -= mu_step;
                    }
                }
                None => {
                    if let Some((off, i, par)) = vor.tentative[u] {
                        if off <= mu_step {
                            owner[u] = Some(i);
                            rel[u] = off - mu_step;
                            parent_ptr[u] = Some(par);
                        }
                    }
                }
            }
        }
        for c in &up.accepted {
            book.apply_deferred(c.a as usize, c.b as usize);
            merges_log.push((terms[c.a as usize], terms[c.b as usize], c.mu, merge_phases));
            accepted_all.push(*c);
        }
        elapsed += mu_step;

        if checkpoint {
            growth_phases += 1;
            book.checkpoint_activities();
            mu_hat = next_mu_hat(mu_hat, cfg.eps);
            // Activity recomputation is global information exchange; the
            // paper performs it with the Lemma 2.4 machinery (small moats
            // communicate internally, large moats over the BFS tree) in
            // O(k + D); see DESIGN.md for the small/large-moat note.
            ledger.charge(
                format!("checkpoint {growth_phases}: activity recomputation O(k + D)"),
                (minimal.k() + 2 * bfs.height() as usize) as u64,
            );
        }
    }

    // Final selection: identical to the Theorem 4.17 driver.
    let mut tb = dsf_graph::GraphBuilder::new(terms.len());
    for c in &accepted_all {
        tb.add_edge(NodeId(c.a), NodeId(c.b), 1)
            .expect("accepted merges form a forest");
    }
    let tg = tb.build_unchecked();
    let mut ib = dsf_steiner::InstanceBuilder::new(&tg);
    for comp in minimal.components() {
        let mapped: Vec<NodeId> = comp.iter().map(|t| NodeId(tidx[t])).collect();
        ib = ib.component(&mapped);
    }
    let inst_t = ib.build().expect("components are disjoint");
    let all_tg: ForestSolution = (0..tg.m() as u32).map(EdgeId).collect();
    let fmin = all_tg.prune_to_minimal(&tg, &inst_t);

    let mut max_hops = 0u64;
    let mut edges: Vec<EdgeId> = Vec::new();
    for te in fmin.edges() {
        let c = &accepted_all[te.idx()];
        edges.push(c.edge);
        let e = g.edge(c.edge);
        for endpoint in [e.u, e.v] {
            let mut cur = endpoint;
            let mut hops = 0u64;
            while let Some(p) = parent_ptr[cur.idx()] {
                edges.push(g.find_edge(cur, p).expect("parent is a neighbor"));
                cur = p;
                hops += 1;
                assert!(hops <= g.n() as u64, "parent pointer loop");
            }
            max_hops = max_hops.max(hops);
        }
    }
    ledger.charge(
        "final selection: token marking O(s + D)",
        max_hops + bfs.height() as u64,
    );

    Ok(GrowthOutput {
        forest: ForestSolution::from_edges(edges),
        rounds: ledger,
        growth_phases,
        merge_phases,
        merges: merges_log,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsf_graph::generators;
    use dsf_steiner::{exact, moat_rounded, random_instance, InstanceBuilder};

    #[test]
    fn matches_centralized_algorithm_two_merges() {
        // The *merge sequences* must coincide (Lemma 4.13 transported to
        // Algorithm 2). Exact weight equality is not guaranteed: the paper
        // assumes unique path weights (Section 2), and under shortest-path
        // ties the two implementations may realize a merge with different
        // equal-weight paths whose unions differ. We therefore compare the
        // merge logs exactly and keep the weights within a small tie slack.
        for seed in 0..6 {
            let g = generators::gnp_connected(15, 0.25, 9, seed);
            let inst = random_instance(&g, 2, 2, seed + 21);
            let out = solve_growth(&g, &inst, &GrowthConfig::default()).unwrap();
            assert!(inst.is_feasible(&g, &out.forest), "seed {seed}");
            let central = moat_rounded::grow_rounded(&g, &inst, Dyadic::new(1, 1));
            let dist_pairs: Vec<(NodeId, NodeId)> =
                out.merges.iter().map(|&(v, w, _, _)| (v, w)).collect();
            let cent_pairs: Vec<(NodeId, NodeId)> =
                central.merges.iter().map(|m| (m.v, m.w)).collect();
            assert_eq!(dist_pairs, cent_pairs, "seed {seed}: merge order differs");
            let (dw, cw) = (
                out.forest.weight(&g) as f64,
                central.forest.weight(&g) as f64,
            );
            assert!(
                (dw - cw).abs() <= 0.25 * cw + 2.0,
                "seed {seed}: weights diverge beyond tie slack: {dw} vs {cw}"
            );
        }
    }

    #[test]
    fn two_plus_eps_approximation() {
        for seed in 0..5 {
            let g = generators::gnp_connected(14, 0.3, 8, seed + 60);
            let inst = random_instance(&g, 3, 2, seed);
            for eps in [Dyadic::new(1, 2), Dyadic::from_int(1)] {
                let cfg = GrowthConfig {
                    eps,
                    ..GrowthConfig::default()
                };
                let out = solve_growth(&g, &inst, &cfg).unwrap();
                assert!(inst.is_feasible(&g, &out.forest));
                let opt = exact::solve(&g, &inst).weight as f64;
                assert!(
                    out.forest.weight(&g) as f64 <= (2.0 + eps.to_f64()) * opt + 1e-6,
                    "seed {seed}"
                );
            }
        }
    }

    #[test]
    fn growth_phase_count_matches_centralized() {
        let g = generators::path(30, 40);
        let inst = InstanceBuilder::new(&g)
            .component(&[NodeId(0), NodeId(29)])
            .build()
            .unwrap();
        let out = solve_growth(&g, &inst, &GrowthConfig::default()).unwrap();
        let central = moat_rounded::grow_rounded(&g, &inst, Dyadic::new(1, 1));
        // Same schedule, same instance: phase counts within ±1 (the
        // distributed run may skip the trailing checkpoint).
        let diff = (out.growth_phases as i64 - central.growth_phases as i64).abs();
        assert!(
            diff <= 1,
            "{} vs {}",
            out.growth_phases,
            central.growth_phases
        );
    }

    #[test]
    fn empty_instance() {
        let g = generators::path(3, 1);
        let inst = InstanceBuilder::new(&g).build().unwrap();
        let out = solve_growth(&g, &inst, &GrowthConfig::default()).unwrap();
        assert!(out.forest.is_empty());
        assert_eq!(out.growth_phases, 0);
    }
}
