//! Experiments E1–E13: each regenerates the quantitative content of one
//! of the paper's claims (`docs/PAPER_MAP.md` names the experiment that
//! backs each paper item).

use dsf_baselines::khan::{solve_khan, KhanConfig};
use dsf_baselines::solve_collect_at_root;
use dsf_congest::CongestConfig;
use dsf_core::det::{solve_deterministic, solve_growth, DetConfig, GrowthConfig};
use dsf_core::randomized::{solve_randomized, RandConfig};
use dsf_core::transforms;
use dsf_embed::{le_lists, random_ranks, Embedding, EmbeddingConfig};
use dsf_graph::dyadic::Dyadic;
use dsf_graph::{dijkstra, generators, metrics, mst, NodeId};
use dsf_lower_bounds::{measure_cr_gadget, measure_ic_gadget};
use dsf_steiner::{
    exact, moat, moat_rounded, random_instance, ConnectionRequests, InstanceBuilder,
};

use crate::table::{f3, Table};

fn stats(xs: &[f64]) -> (f64, f64, f64) {
    let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
    let max = xs.iter().copied().fold(0.0f64, f64::max);
    let mean = xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    (min, mean, max)
}

/// E1 — Theorem 4.1 / Lemma C.4: Algorithm 1 is 2-approximate and its dual
/// lower-bounds OPT.
pub fn e1_centralized_two_approx(quick: bool) -> Vec<Table> {
    let seeds: u64 = if quick { 4 } else { 20 };
    let mut t = Table::new(
        "E1 — Algorithm 1 (centralized moat growing): ratio to OPT and dual certificate",
        &[
            "graph",
            "n",
            "k",
            "ratio min",
            "ratio mean",
            "ratio max",
            "dual/OPT mean",
            "2·dual ≥ W(F) always",
        ],
    );
    for (label, mk) in [("G(n,p)", true), ("geometric", false)] {
        let mut ratios = Vec::new();
        let mut dual_fracs = Vec::new();
        let mut certified = true;
        for seed in 0..seeds {
            let g = if mk {
                generators::gnp_connected(16, 0.25, 12, seed)
            } else {
                generators::random_geometric(16, 0.4, seed)
            };
            let inst = random_instance(&g, 3, 2, seed + 77);
            let run = moat::grow(&g, &inst);
            let opt = exact::solve(&g, &inst).weight as f64;
            let w = run.forest.weight(&g) as f64;
            ratios.push(w / opt);
            dual_fracs.push(run.dual.to_f64() / opt);
            certified &= w <= 2.0 * run.dual.to_f64() + 1e-9;
        }
        let (mn, me, mx) = stats(&ratios);
        let (_, dm, _) = stats(&dual_fracs);
        t.row(vec![
            label.into(),
            "16".into(),
            "3".into(),
            f3(mn),
            f3(me),
            f3(mx),
            f3(dm),
            if certified { "yes" } else { "NO" }.into(),
        ]);
    }
    t.note(
        "Paper: ratio ≤ 2 (Theorem 4.1); dual Σ actᵢμᵢ ≤ OPT (Lemma C.4). \
         Measured ratios stay below 2 and the primal-dual certificate \
         W(F) < 2·dual holds on every instance.",
    );
    vec![t]
}

/// E2 — Theorem 4.2: Algorithm 2's `(2+ε)` guarantee degrades gently in ε.
pub fn e2_rounded_epsilon(quick: bool) -> Vec<Table> {
    let seeds: u64 = if quick { 4 } else { 16 };
    let mut t = Table::new(
        "E2 — Algorithm 2 (rounded radii): ratio and growth phases vs ε",
        &[
            "ε",
            "ratio mean",
            "ratio max",
            "bound 2+ε",
            "growth phases mean",
        ],
    );
    for (eps, label) in [
        (Dyadic::new(1, 3), "1/8"),
        (Dyadic::new(1, 1), "1/2"),
        (Dyadic::from_int(1), "1"),
        (Dyadic::from_int(2), "2"),
    ] {
        let mut ratios = Vec::new();
        let mut phases = Vec::new();
        for seed in 0..seeds {
            let g = generators::gnp_connected(16, 0.25, 12, seed + 30);
            let inst = random_instance(&g, 3, 2, seed);
            let run = moat_rounded::grow_rounded(&g, &inst, eps);
            let opt = exact::solve(&g, &inst).weight as f64;
            ratios.push(run.forest.weight(&g) as f64 / opt);
            phases.push(run.growth_phases as f64);
        }
        let (_, me, mx) = stats(&ratios);
        let (_, pm, _) = stats(&phases);
        t.row(vec![
            label.into(),
            f3(me),
            f3(mx),
            f3(2.0 + eps.to_f64()),
            f3(pm),
        ]);
    }
    t.note(
        "Paper: (2+ε)-approximation with O(log WD/ε) growth phases \
         (Theorem 4.2, Lemma F.1). Measured max ratio stays within the bound \
         and phases shrink as ε grows.",
    );
    vec![t]
}

/// E3 — Theorem 4.17: deterministic distributed rounds scale like `O(ks+t)`
/// and the output matches centralized Algorithm 1.
pub fn e3_deterministic_rounds(quick: bool) -> Vec<Table> {
    let mut k_table = Table::new(
        "E3a — deterministic distributed: k-sweep on a 4×8 grid (s ≈ const)",
        &[
            "k",
            "t",
            "s",
            "D",
            "phases",
            "rounds",
            "rounds/k",
            "matches Alg 1",
        ],
    );
    let grid = generators::grid(4, 8, 6, 9);
    let p = metrics::parameters(&grid);
    let kmax = if quick { 3 } else { 6 };
    for k in 1..=kmax {
        let inst = random_instance(&grid, k, 2, 5);
        let out = solve_deterministic(&grid, &inst, &DetConfig::default()).unwrap();
        let central = moat::grow(&grid, &inst);
        k_table.row(vec![
            k.to_string(),
            inst.t().to_string(),
            p.shortest_path_diameter.to_string(),
            p.diameter.to_string(),
            out.phases.to_string(),
            out.rounds.total().to_string(),
            f3(out.rounds.total() as f64 / k as f64),
            if out.forest.weight(&grid) == central.forest.weight(&grid) {
                "yes"
            } else {
                "NO"
            }
            .into(),
        ]);
    }
    k_table.note(
        "Paper: O(ks + t) rounds (Theorem 4.17), ≤ 2k merge phases \
         (Lemma 4.4), output identical to Algorithm 1 (Lemma 4.13). \
         Rounds grow roughly linearly in k at fixed s.",
    );

    let mut s_table = Table::new(
        "E3b — deterministic distributed: s-sweep on paths (k = 2 fixed)",
        &["n", "s", "rounds", "rounds/s"],
    );
    let sizes: &[usize] = if quick { &[12, 24] } else { &[12, 24, 36, 48] };
    for &n in sizes {
        let g = generators::path(n, 3);
        let quarter = n / 4;
        let inst = InstanceBuilder::new(&g)
            .component(&[NodeId(0), NodeId(quarter as u32)])
            .component(&[NodeId((n - 1 - quarter) as u32), NodeId((n - 1) as u32)])
            .build()
            .unwrap();
        let out = solve_deterministic(&g, &inst, &DetConfig::default()).unwrap();
        let s = metrics::shortest_path_diameter(&g);
        s_table.row(vec![
            n.to_string(),
            s.to_string(),
            out.rounds.total().to_string(),
            f3(out.rounds.total() as f64 / s as f64),
        ]);
    }
    s_table.note("Rounds grow linearly in s at fixed k — the `ks` term of Theorem 4.17.");
    vec![k_table, s_table]
}

/// E4 — Theorem 5.2 vs \[14\]: the improved selection multiplexes components
/// while the baseline pays per component.
pub fn e4_randomized_vs_khan(quick: bool) -> Vec<Table> {
    let mut t = Table::new(
        "E4 — rounds vs k: randomized (Thm 5.2) vs Khan et al. [14] baseline",
        &["k", "randomized rounds", "khan rounds", "khan/randomized"],
    );
    let n = if quick { 24 } else { 40 };
    let g = generators::gnp_connected(n, 0.12, 10, 5);
    let ks: &[usize] = if quick { &[1, 2, 4] } else { &[1, 2, 4, 6, 8] };
    for &k in ks {
        let inst = random_instance(&g, k, 2, 1);
        let rand_out = solve_randomized(
            &g,
            &inst,
            &RandConfig {
                seed: 2,
                repetitions: 1,
                force_truncation: Some(false),
                ..RandConfig::default()
            },
        )
        .unwrap();
        let khan_out = solve_khan(
            &g,
            &inst,
            &KhanConfig {
                seed: 2,
                repetitions: 1,
            },
        )
        .unwrap();
        let r = rand_out.rounds.total();
        let kh = khan_out.rounds.total();
        t.row(vec![
            k.to_string(),
            r.to_string(),
            kh.to_string(),
            f3(kh as f64 / r as f64),
        ]);
    }
    t.note(
        "Paper: [14] takes Õ(sk); the improved selection is Õ(s + k) per \
         embedding (Section 5). The baseline/improved ratio grows with k — \
         the paper's headline improvement.",
    );
    vec![t]
}

/// E5 — Theorem 5.2 quality: O(log n) approximation; embedding stretch.
pub fn e5_randomized_quality(quick: bool) -> Vec<Table> {
    let seeds: u64 = if quick { 4 } else { 12 };
    let mut t = Table::new(
        "E5a — randomized algorithm: ratio to OPT (3 embeddings/run)",
        &["n", "ratio min", "ratio mean", "ratio max", "3·ln n"],
    );
    for &n in &[16usize, 20] {
        let mut ratios = Vec::new();
        for seed in 0..seeds {
            let g = generators::gnp_connected(n, 0.25, 10, seed + 40);
            let inst = random_instance(&g, 2, 2, seed);
            let out = solve_randomized(
                &g,
                &inst,
                &RandConfig {
                    seed,
                    ..RandConfig::default()
                },
            )
            .unwrap();
            let opt = exact::solve(&g, &inst).weight as f64;
            ratios.push(out.forest.weight(&g) as f64 / opt);
        }
        let (mn, me, mx) = stats(&ratios);
        t.row(vec![
            n.to_string(),
            f3(mn),
            f3(me),
            f3(mx),
            f3(3.0 * (n as f64).ln()),
        ]);
    }
    t.note("Paper: O(log n)-approximation w.h.p. (Theorem 5.2).");

    let mut s = Table::new(
        "E5b — tree embedding stretch (expected O(log n), [14])",
        &[
            "n",
            "mean stretch",
            "p95 stretch",
            "max stretch",
            "dominates d_G",
        ],
    );
    let n = if quick { 24 } else { 40 };
    let g = generators::random_geometric(n, 0.3, 7);
    let ap = dijkstra::all_pairs(&g);
    let mut all: Vec<f64> = Vec::new();
    let mut dominated = true;
    for seed in 0..seeds {
        let emb = Embedding::build(&g, &EmbeddingConfig::new(seed));
        for u in 0..g.n() {
            for v in (u + 1)..g.n() {
                let dt = emb.tree_distance(NodeId::from(u), NodeId::from(v));
                dominated &= dt >= ap[u][v];
                all.push(dt as f64 / ap[u][v] as f64);
            }
        }
    }
    all.sort_by(f64::total_cmp);
    let (_, mean, max) = stats(&all);
    let p95 = all[(all.len() as f64 * 0.95) as usize];
    s.row(vec![
        n.to_string(),
        f3(mean),
        f3(p95),
        f3(max),
        if dominated { "yes" } else { "NO" }.into(),
    ]);
    s.note("Domination d_T ≥ d_G holds on every pair; stretch is O(log n)-flavoured.");
    vec![t, s]
}

/// E6 — Lemma G.1(2): only O(log n) distinct root-paths traverse any node.
pub fn e6_path_congestion(quick: bool) -> Vec<Table> {
    let mut t = Table::new(
        "E6 — per-node distinct path destinations and LE-list sizes",
        &[
            "n",
            "max paths/node",
            "mean paths/node",
            "max |LE list|",
            "mean |LE list|",
            "log2 n",
        ],
    );
    let sizes: &[usize] = if quick { &[32] } else { &[32, 64, 96] };
    for &n in sizes {
        let g = generators::gnp_connected(n, 3.0 / n as f64, 12, 3);
        let emb = Embedding::build(&g, &EmbeddingConfig::new(11));
        let counts: Vec<f64> = g.nodes().map(|v| emb.path_count(v) as f64).collect();
        let (_, cm, cx) = stats(&counts);
        let lists = le_lists(&g, &random_ranks(n, 11));
        let sizes_le: Vec<f64> = lists.iter().map(|l| l.len() as f64).collect();
        let (_, lm, lx) = stats(&sizes_le);
        t.row(vec![
            n.to_string(),
            cx.to_string(),
            f3(cm),
            lx.to_string(),
            f3(lm),
            f3((n as f64).log2()),
        ]);
    }
    t.note(
        "Paper: w.h.p. at most O(log n) distinct least-weight paths pass \
         through any node (Section 5 / Lemma G.1), and E|LE list| = H_n. \
         Both statistics track log n.",
    );
    vec![t]
}

/// E7 — MST specialization: k=1, t=n ⇒ the deterministic algorithm returns
/// an exact MST (paper Section 1, Main Techniques).
pub fn e7_mst_specialization(quick: bool) -> Vec<Table> {
    let seeds: u64 = if quick { 3 } else { 8 };
    let mut t = Table::new(
        "E7 — MST specialization (k=1, t=n): exactness check",
        &["n", "seeds", "exact MST weight always", "mean rounds"],
    );
    for &n in &[10usize, 14] {
        let mut all_exact = true;
        let mut rounds = Vec::new();
        for seed in 0..seeds {
            let g = generators::gnp_connected(n, 0.3, 20, seed + 3);
            let all: Vec<NodeId> = g.nodes().collect();
            let inst = InstanceBuilder::new(&g).component(&all).build().unwrap();
            let out = solve_deterministic(&g, &inst, &DetConfig::default()).unwrap();
            all_exact &= out.forest.weight(&g) == mst::kruskal(&g).weight;
            rounds.push(out.rounds.total() as f64);
        }
        let (_, rm, _) = stats(&rounds);
        t.row(vec![
            n.to_string(),
            seeds.to_string(),
            if all_exact { "yes" } else { "NO" }.into(),
            f3(rm),
        ]);
    }
    t.note(
        "Paper: for k=1 the output is induced by an MST of the terminal \
         metric; with t=n this is exactly the graph MST.",
    );
    vec![t]
}

/// E8 — Lemmas 2.3/2.4: transformation rounds scale with t (resp. k).
pub fn e8_transformations(quick: bool) -> Vec<Table> {
    let mut t = Table::new(
        "E8a — DSF-CR → DSF-IC (Lemma 2.3): rounds vs t on a 32-path",
        &["t", "D", "rounds", "rounds/(t+D)"],
    );
    let n = 32usize;
    let g = generators::path(n, 1);
    let cfg = CongestConfig::for_graph(&g);
    let ts: &[u32] = if quick { &[4, 12] } else { &[4, 8, 12, 16, 20] };
    for &tt in ts {
        let mut cr = ConnectionRequests::new(n);
        for i in 0..tt / 2 {
            cr.request(NodeId(i), NodeId(n as u32 - 1 - i));
        }
        let (_, ledger) = transforms::cr_to_ic(&g, &cr, &cfg).unwrap();
        let d = (n - 1) as f64;
        t.row(vec![
            tt.to_string(),
            (n - 1).to_string(),
            ledger.total().to_string(),
            f3(ledger.total() as f64 / (tt as f64 + d)),
        ]);
    }
    t.note("Paper: O(t + D) rounds. The normalized column stays near a constant.");

    let mut m = Table::new(
        "E8b — minimalization (Lemma 2.4): rounds vs k on a 32-path",
        &["k", "rounds", "rounds/(k+D)"],
    );
    let ks: &[usize] = if quick { &[2, 6] } else { &[2, 4, 6, 8, 10] };
    for &k in ks {
        let mut b = InstanceBuilder::new(&g);
        for c in 0..k {
            b = b.component(&[NodeId(2 * c as u32), NodeId(2 * c as u32 + 1)]);
        }
        // Add singletons to give the transform something to drop.
        for c in 0..k {
            b = b.component(&[NodeId((2 * k + c) as u32)]);
        }
        let inst = b.build().unwrap();
        let (min, ledger) = transforms::minimalize(&g, &inst, &cfg).unwrap();
        assert_eq!(min.k(), k);
        let d = (n - 1) as f64;
        m.row(vec![
            (2 * k).to_string(),
            ledger.total().to_string(),
            f3(ledger.total() as f64 / (2.0 * k as f64 + d)),
        ]);
    }
    m.note("Paper: O(k + D) rounds regardless of t.");
    vec![t, m]
}

/// E9 — Figure 1 left / Lemma 3.1: DSF-CR gadget cut communication.
pub fn e9_cr_gadget(quick: bool) -> Vec<Table> {
    let mut t = Table::new(
        "E9 — DSF-CR gadget (Figure 1 left): bits over the 4-edge cut",
        &[
            "universe",
            "instance",
            "decoded",
            "correct",
            "cut bits",
            "bits/universe",
        ],
    );
    let sizes: &[usize] = if quick { &[8, 16] } else { &[8, 16, 32, 48] };
    for &u in sizes {
        for intersect in [false, true] {
            let exp = measure_cr_gadget(u, intersect, 7);
            t.row(vec![
                u.to_string(),
                if intersect { "A∩B≠∅" } else { "disjoint" }.into(),
                if exp.decoded_disjoint {
                    "disjoint"
                } else {
                    "A∩B≠∅"
                }
                .into(),
                if exp.correct() { "yes" } else { "NO" }.into(),
                exp.cut_bits.to_string(),
                f3(exp.cut_bits as f64 / u as f64),
            ]);
        }
    }
    t.note(
        "Paper (Lemma 3.1): any finite-ratio DSF-CR algorithm solves Set \
         Disjointness through this gadget, so Ω(t) bits must cross the cut. \
         Decoding from our solver's output is always correct, and the \
         measured bits grow linearly in the universe (bits/universe ≈ const).",
    );
    vec![t]
}

/// E10 — Figure 1 right / Lemma 3.3: DSF-IC gadget cut communication.
pub fn e10_ic_gadget(quick: bool) -> Vec<Table> {
    let mut t = Table::new(
        "E10 — DSF-IC gadget (Figure 1 right): bits over the (a0,b0) bridge",
        &["universe (=k)", "instance", "correct", "cut bits", "bits/k"],
    );
    let sizes: &[usize] = if quick { &[8, 16] } else { &[8, 16, 32, 48] };
    for &u in sizes {
        for intersect in [false, true] {
            let exp = measure_ic_gadget(u, intersect, 9);
            t.row(vec![
                u.to_string(),
                if intersect { "A∩B≠∅" } else { "disjoint" }.into(),
                if exp.correct() { "yes" } else { "NO" }.into(),
                exp.cut_bits.to_string(),
                f3(exp.cut_bits as f64 / u as f64),
            ]);
        }
    }
    t.note(
        "Paper (Lemma 3.3): Ω(k) bits must cross the single bridge edge. \
         The Lemma 2.4 minimalization is where our pipeline pays it: \
         deciding which of the k labels spans both stars is exactly the Set \
         Disjointness computation.",
    );
    vec![t]
}

/// E11 — the headline comparison (paper §1): all algorithms on one suite.
pub fn e11_headline(quick: bool) -> Vec<Table> {
    let mut t = Table::new(
        "E11 — headline: rounds and weight on a common instance suite",
        &["graph", "algorithm", "guarantee", "rounds", "weight"],
    );
    let n = if quick { 24 } else { 36 };
    let g = generators::gnp_connected(n, 0.12, 10, 13);
    let inst = random_instance(&g, 4, 2, 13);
    let det = solve_deterministic(&g, &inst, &DetConfig::default()).unwrap();
    let growth = solve_growth(&g, &inst, &GrowthConfig::default()).unwrap();
    let rand_out = solve_randomized(
        &g,
        &inst,
        &RandConfig {
            seed: 13,
            repetitions: 3,
            ..RandConfig::default()
        },
    )
    .unwrap();
    let khan = solve_khan(
        &g,
        &inst,
        &KhanConfig {
            seed: 13,
            repetitions: 3,
        },
    )
    .unwrap();
    let collect = solve_collect_at_root(&g, &inst).unwrap();
    let label = format!("G({n},0.12), k=4");
    for (alg, guar, rounds, weight) in [
        (
            "deterministic (Thm 4.17)",
            "2",
            det.rounds.total(),
            det.forest.weight(&g),
        ),
        (
            "growth phases (Cor 4.20, ε=1/2)",
            "2.5",
            growth.rounds.total(),
            growth.forest.weight(&g),
        ),
        (
            "randomized (Thm 5.2)",
            "O(log n)",
            rand_out.rounds.total(),
            rand_out.forest.weight(&g),
        ),
        (
            "Khan et al. [14]",
            "O(log n)",
            khan.rounds.total(),
            khan.forest.weight(&g),
        ),
        (
            "collect-at-root",
            "2",
            collect.rounds.total(),
            collect.forest.weight(&g),
        ),
    ] {
        t.row(vec![
            label.clone(),
            alg.into(),
            guar.into(),
            rounds.to_string(),
            weight.to_string(),
        ]);
    }
    t.note(
        "The deterministic algorithm wins on quality; the randomized one \
         trades weight for fewer rounds at larger k; the [14] baseline pays \
         the per-component selection; collect-at-root pays m.",
    );
    vec![t]
}

/// E12 — Corollary 4.20: the growth-phase variant vs the plain driver as
/// the terminal count grows.
pub fn e12_growth_phases(quick: bool) -> Vec<Table> {
    let mut t = Table::new(
        "E12 — growth-phase variant vs Theorem 4.17 driver",
        &[
            "k",
            "t",
            "det rounds",
            "det phases",
            "growth rounds",
            "growth merge-phases",
            "growth checkpoints",
        ],
    );
    let ks: &[usize] = if quick { &[2, 4] } else { &[2, 4, 6, 8] };
    for &k in ks {
        let g = generators::caterpillar(10, 3, 4, 3);
        let inst = random_instance(&g, k, 3, 3);
        let det = solve_deterministic(&g, &inst, &DetConfig::default()).unwrap();
        let growth = solve_growth(&g, &inst, &GrowthConfig::default()).unwrap();
        t.row(vec![
            k.to_string(),
            inst.t().to_string(),
            det.rounds.total().to_string(),
            det.phases.to_string(),
            growth.rounds.total().to_string(),
            growth.merge_phases.to_string(),
            growth.growth_phases.to_string(),
        ]);
    }
    t.note(
        "Paper: Algorithm 2's activity changes are confined to O(log WD/ε) \
         checkpoints (Lemma F.1), the prerequisite for the Õ(sk+√min{st,n}) \
         bound of Corollary 4.20/4.21. Checkpoint counts stay flat as k and \
         t grow, while the plain driver's phase count tracks 2k.",
    );
    vec![t]
}

/// E13 — ablation: repetition amplification of the randomized algorithm
/// (the `c·log n` repetitions in the proof of Theorem 5.2).
pub fn e13_repetition_ablation(quick: bool) -> Vec<Table> {
    let mut t = Table::new(
        "E13 — ablation: randomized quality and rounds vs repetition count",
        &["repetitions", "ratio mean", "ratio max", "rounds mean"],
    );
    let seeds: u64 = if quick { 4 } else { 10 };
    let reps_list: &[usize] = if quick { &[1, 3] } else { &[1, 2, 4, 8] };
    for &reps in reps_list {
        let mut ratios = Vec::new();
        let mut rounds = Vec::new();
        for seed in 0..seeds {
            let g = generators::gnp_connected(16, 0.25, 10, seed + 70);
            let inst = random_instance(&g, 2, 2, seed);
            let out = solve_randomized(
                &g,
                &inst,
                &RandConfig {
                    seed,
                    repetitions: reps,
                    force_truncation: Some(false),
                    ..RandConfig::default()
                },
            )
            .unwrap();
            let opt = exact::solve(&g, &inst).weight as f64;
            ratios.push(out.forest.weight(&g) as f64 / opt);
            rounds.push(out.rounds.total() as f64);
        }
        let (_, rm, rx) = stats(&ratios);
        let (_, rd, _) = stats(&rounds);
        t.row(vec![reps.to_string(), f3(rm), f3(rx), f3(rd)]);
    }
    t.note(
        "Paper: the expected O(log n) stretch is amplified to w.h.p. by \
         c·log n independent embeddings, keeping the lightest (proof of \
         Theorem 5.2 via Markov). Quality improves with repetitions while \
         rounds grow linearly — the constant-factor knob of the algorithm.",
    );
    vec![t]
}

#[cfg(test)]
mod tests {
    #[test]
    fn all_experiments_run_quick() {
        for id in crate::ALL_EXPERIMENTS {
            let tables = crate::run_experiment(id, true);
            assert!(!tables.is_empty(), "{id} produced no tables");
            for t in &tables {
                assert!(!t.rows.is_empty(), "{id}: empty table {}", t.title);
            }
        }
    }
}
