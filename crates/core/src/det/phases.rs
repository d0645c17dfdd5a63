//! The merge-phase engine shared by the Theorem 4.17 algorithm
//! ([`super::solve_deterministic`]) and its growth-phase variant
//! ([`super::solve_growth`], Algorithm 2). Both run the same stages
//! (Section 4.1, Lemma 4.13); a [`PhaseRule`] decides only when a phase
//! ends, how far moats grow in it, and whether a merge settles the merged
//! moat's activity at once or at the next checkpoint.

use dsf_congest::{CongestConfig, RoundLedger, SimError};
use dsf_graph::dyadic::Dyadic;
use dsf_graph::{EdgeId, GraphBuilder, NodeId, WeightedGraph};
use dsf_steiner::moat_rounded::next_mu_hat;
use dsf_steiner::{ForestSolution, Instance, InstanceBuilder};

use crate::primitives::{
    build_bfs_tree, filtered_upcast, flood_items, FloodItem, UpcastCandidate, UpcastMode,
    UpcastRootVerdict,
};

use super::book::MoatBook;
use super::driver::{DetMerge, DetOutput};
use super::voronoi::{decompose, VorStatus};

/// Safety bound on the rounded rule's merge phases (the exact rule is
/// bounded by Lemma 4.4's `2k + 1`).
const ROUNDED_PHASE_LIMIT: usize = 100_000;

/// When a merge phase ends, and what a merge does to moat activity.
#[derive(Debug, Clone, Copy)]
pub(super) enum PhaseRule {
    /// Theorem 4.17: a phase ends at the first activity-changing merge,
    /// which settles the merged moat's activity.
    Exact,
    /// Algorithm 2 with the `ε` of the `(2+ε)` approximation: a phase
    /// ends at the checkpoint `μ̂` or at a merge involving an inactive
    /// moat (Definition 4.19); merged moats stay active until the
    /// checkpoint (line 33).
    Rounded { eps: Dyadic },
}

/// Packs an accepted candidate for flooding.
fn pack_candidate(c: &UpcastCandidate) -> FloodItem {
    let payload = ((c.a as u128) << 64) | ((c.b as u128) << 40) | (c.edge.0 as u128);
    FloodItem { payload, bits: 64 }
}

/// Packs the phase growth `μ^{(j)}` (a non-negative dyadic).
fn pack_mu(mu: Dyadic) -> FloodItem {
    let (m, e) = mu.raw();
    assert!(
        (0..(1i128 << 80)).contains(&m) && e < 256,
        "phase growth exceeds encoding"
    );
    FloodItem {
        payload: (1u128 << 120) | ((m as u128) << 8) | e as u128,
        bits: 96,
    }
}

/// Realizes the `picked` merges (edge ids of the terminal graph, i.e.
/// indices into `merges`): each inducing edge plus the region-tree paths
/// from its endpoints to their terminals. Returns the edges and the
/// longest path walked.
fn realize(
    g: &WeightedGraph,
    parent_ptr: &[Option<NodeId>],
    merges: &[DetMerge],
    picked: &[EdgeId],
) -> (ForestSolution, u64) {
    let mut max_hops = 0u64;
    let mut edges: Vec<EdgeId> = Vec::new();
    for te in picked {
        let inducing = merges[te.idx()].edge;
        edges.push(inducing);
        let e = g.edge(inducing);
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
    (ForestSolution::from_edges(edges), max_hops)
}

/// Runs the merge phases under `rule`, then the final selection. Returns
/// the output and the number of checkpoints passed (0 under the exact
/// rule).
pub(super) fn run_phases(
    g: &WeightedGraph,
    inst: &Instance,
    congest: &CongestConfig,
    rule: PhaseRule,
) -> Result<(DetOutput, usize), SimError> {
    // The rules' ledger spellings: phase prefix, label-flood suffix and
    // termination-charge infix.
    let (phase_label, step1, detection) = match rule {
        PhaseRule::Exact => ("phase", " (Step 1)", " detection"),
        PhaseRule::Rounded { .. } => ("merge phase", "", ""),
    };
    let settle = matches!(rule, PhaseRule::Exact);
    let mut ledger = RoundLedger::new();

    let minimal = inst.make_minimal();
    let terms = minimal.terminals();
    if terms.is_empty() {
        let out = DetOutput {
            forest: ForestSolution::empty(),
            raw: ForestSolution::empty(),
            rounds: ledger,
            phases: 0,
            merges: Vec::new(),
        };
        return Ok((out, 0));
    }
    let phase_limit = match rule {
        PhaseRule::Exact => 2 * minimal.k() + 1,
        PhaseRule::Rounded { .. } => ROUNDED_PHASE_LIMIT,
    };

    // Step 1: BFS tree + global broadcast of (terminal, label).
    let bfs = build_bfs_tree(g, NodeId(0), congest)?;
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
    let lf = flood_items(g, label_items, congest)?;
    ledger.record(format!("terminal label broadcast{step1}"), &lf.metrics);

    // Replicated bookkeeping + per-node region state.
    let mut book = MoatBook::new(&minimal, &terms);
    let n = g.n();
    let mut owner: Vec<Option<u32>> = vec![None; n];
    let mut rel: Vec<Dyadic> = vec![Dyadic::ZERO; n];
    let mut parent_ptr: Vec<Option<NodeId>> = vec![None; n];
    for (i, &t) in terms.iter().enumerate() {
        owner[t.idx()] = Some(i as u32);
    }

    let mut merges: Vec<DetMerge> = Vec::new();
    let mut phase = 0usize;
    // Rounded rule: the checkpoint threshold and the growth so far.
    let mut mu_hat = Dyadic::ONE;
    let mut elapsed = Dyadic::ZERO;
    let mut growth_phases = 0usize;

    while book.active_moats() > 0 {
        phase += 1;
        assert!(phase <= phase_limit, "merge-phase count exceeds its bound");
        let remaining = match rule {
            PhaseRule::Exact => None,
            PhaseRule::Rounded { .. } => Some(mu_hat - elapsed),
        };

        // Stage a: terminal decomposition (Lemma 4.8).
        let status: Vec<VorStatus> = g
            .nodes()
            .map(|u| match owner[u.idx()] {
                Some(i) if book.moat_active(i as usize) => VorStatus::Source {
                    owner: i,
                    offset: rel[u.idx()],
                },
                Some(_) => VorStatus::Blocked,
                None => VorStatus::Free,
            })
            .collect();
        let vor = decompose(g, &status, congest)?;
        ledger.record(
            format!("{phase_label} {phase}: terminal decomposition"),
            &vor.metrics,
        );
        ledger.charge(
            format!("{phase_label} {phase}: BF termination{detection} O(D)"),
            bfs.height() as u64,
        );

        // Combined view of this phase's (owner, offset, active?) per node.
        let view = |u: usize| -> Option<(u32, Dyadic, bool)> {
            match owner[u] {
                Some(i) => Some((i, rel[u], status[u] != VorStatus::Blocked)),
                None => vor.tentative[u].map(|(off, i, _)| (i, off, true)),
            }
        };

        // Stage b: candidate proposal over boundary edges (Def. 4.11).
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
        ledger.charge(format!("{phase_label} {phase}: boundary exchange"), 1);

        // Stage c: filtered collection with phase-end detection (Cor 4.16).
        let prior: Vec<u32> = (0..terms.len())
            .map(|i| book.moats.find_const(i) as u32)
            .collect();
        let mut sim = book.clone();
        let mut hit_checkpoint = false;
        let verdict = |c: &UpcastCandidate| {
            // Algorithm 2 line 16 merges only while elapsed + μ < μ̂
            // *strictly*; equality belongs to the checkpoint.
            if remaining.is_some_and(|remaining| c.mu >= remaining) {
                hit_checkpoint = true;
                return UpcastRootVerdict::StopBefore;
            }
            let (involved_inactive, new_active) = sim.apply(c.a as usize, c.b as usize, settle);
            if involved_inactive || !new_active {
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
            congest,
        )?;
        ledger.record(
            format!("{phase_label} {phase}: filtered merge collection"),
            &up.metrics,
        );
        ledger.charge(
            format!("{phase_label} {phase}: collection termination O(D)"),
            bfs.height() as u64,
        );
        // A drained stream without a stop also means "no merge before the
        // checkpoint" (e.g. a lone active moat with no candidates left);
        // without a checkpoint, Lemma 4.4 rules it out.
        let checkpoint = hit_checkpoint || !up.stopped_early;
        let mu_phase = if checkpoint {
            remaining.expect("every phase ends with an activity-changing merge")
        } else {
            up.accepted.last().expect("stopped at a merge").mu
        };
        debug_assert!(!mu_phase.is_negative(), "negative phase growth");

        // Stage d: flood F_c^{(j)} and μ^{(j)} from the root.
        let mut items: Vec<FloodItem> = up.accepted.iter().map(pack_candidate).collect();
        items.push(pack_mu(mu_phase));
        let mut initial = vec![Vec::new(); n];
        initial[bfs.root.idx()] = items;
        let fl = flood_items(g, initial, congest)?;
        ledger.record(
            format!("{phase_label} {phase}: broadcast F_c^(j)"),
            &fl.metrics,
        );

        // Local updates (radii, capture, parents) — act must be read at
        // phase start, i.e. before merges are applied to `book`.
        // Terminals are Voronoi sources, so their radii grow here too:
        // rad(v) += μ ⟺ rel(v) −= μ.
        for u in 0..n {
            match (status[u], vor.tentative[u]) {
                (VorStatus::Source { .. }, _) => rel[u] -= mu_phase,
                (VorStatus::Free, Some((off, i, par))) if off <= mu_phase => {
                    owner[u] = Some(i);
                    rel[u] = off - mu_phase;
                    parent_ptr[u] = Some(par);
                }
                _ => {}
            }
        }

        // Apply merges to the canonical bookkeeping.
        for c in &up.accepted {
            book.apply(c.a as usize, c.b as usize, settle);
            merges.push(DetMerge {
                v: terms[c.a as usize],
                w: terms[c.b as usize],
                mu: c.mu,
                phase,
                edge: c.edge,
            });
        }
        if let PhaseRule::Rounded { eps } = rule {
            elapsed += mu_phase;
            if checkpoint {
                growth_phases += 1;
                book.checkpoint_activities();
                mu_hat = next_mu_hat(mu_hat, eps);
                // Activity recomputation is global information exchange;
                // the paper performs it with the Lemma 2.4 machinery (small
                // moats communicate internally, large moats over the BFS
                // tree, with matchings, Appendix F.1) in O(k + D). The
                // simulation recomputes activity centrally and charges
                // that bound.
                ledger.charge(
                    format!("checkpoint {growth_phases}: activity recomputation O(k + D)"),
                    (minimal.k() + 2 * bfs.height() as usize) as u64,
                );
            }
        }
    }

    // Final selection (E.1 Steps 4-6): minimal candidate subset in G_c,
    // computed locally from global knowledge, then realized by marking
    // region-tree paths.
    let tindex = |t: &NodeId| NodeId(terms.binary_search(t).expect("a terminal") as u32);
    let mut tb = GraphBuilder::new(terms.len());
    for m in &merges {
        tb.add_edge(tindex(&m.v), tindex(&m.w), 1)
            .expect("accepted merges form a forest");
    }
    let tg = tb.build_unchecked();
    let mut ib = InstanceBuilder::new(&tg);
    for comp in minimal.components() {
        ib = ib.component(&comp.iter().map(tindex).collect::<Vec<_>>());
    }
    let inst_t = ib.build().expect("components are disjoint");
    let all_tg: ForestSolution = (0..tg.m() as u32).map(EdgeId).collect();
    let fmin = all_tg.prune_to_minimal(&tg, &inst_t);

    let (forest, fmin_hops) = realize(g, &parent_ptr, &merges, fmin.edges());
    let (raw, raw_hops) = realize(g, &parent_ptr, &merges, all_tg.edges());
    // The exact rule charges its token marking over every accepted merge
    // (Algorithm 1's `F_imax`), the rounded rule over `F_min` only.
    let marked = match rule {
        PhaseRule::Exact => raw_hops,
        PhaseRule::Rounded { .. } => fmin_hops,
    };
    ledger.charge(
        "final selection: token marking O(s + D)",
        marked + bfs.height() as u64,
    );

    let out = DetOutput {
        forest,
        raw,
        rounds: ledger,
        phases: phase,
        merges,
    };
    Ok((out, growth_phases))
}
