//! Property-based tests for the graph substrate: shortest paths against a
//! Floyd–Warshall oracle, metric axioms, parameter orderings, and MST/
//! Steiner-tree relations.

use proptest::prelude::*;

use dsf_graph::union_find::UnionFind;
use dsf_graph::{dijkstra, dreyfus_wagner, generators, metrics, mst, EdgeId, NodeId, Weight, INF};
use std::collections::BTreeSet;

fn floyd_warshall(g: &dsf_graph::WeightedGraph) -> Vec<Vec<Weight>> {
    let n = g.n();
    let mut d = vec![vec![INF; n]; n];
    for (i, row) in d.iter_mut().enumerate() {
        row[i] = 0;
    }
    for e in g.edges() {
        let (u, v) = (e.u.idx(), e.v.idx());
        d[u][v] = d[u][v].min(e.w);
        d[v][u] = d[v][u].min(e.w);
    }
    for k in 0..n {
        for i in 0..n {
            for j in 0..n {
                if d[i][k] + d[k][j] < d[i][j] {
                    d[i][j] = d[i][k] + d[k][j];
                }
            }
        }
    }
    d
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn dijkstra_matches_floyd_warshall(seed in 0u64..500, n in 4usize..20, p in 0.15f64..0.6) {
        let g = generators::gnp_connected(n, p, 15, seed);
        let fw = floyd_warshall(&g);
        for v in g.nodes() {
            let sp = dijkstra::shortest_paths(&g, v);
            prop_assert_eq!(&sp.dist, &fw[v.idx()]);
        }
    }

    #[test]
    fn path_edges_reconstruct_distance(seed in 0u64..500, n in 4usize..20) {
        let g = generators::gnp_connected(n, 0.3, 12, seed);
        let sp = dijkstra::shortest_paths(&g, NodeId(0));
        for v in g.nodes() {
            let edges = sp.path_edges(v);
            let w: Weight = edges.iter().map(|&e| g.weight(e)).sum();
            prop_assert_eq!(w, sp.dist[v.idx()]);
            prop_assert_eq!(edges.len() as u32, sp.hops[v.idx()]);
        }
    }

    #[test]
    fn targeted_dijkstra_matches_the_settle_everything_run(
        seed in 0u64..1000,
        n in 2usize..40,
        p in 0.05f64..0.5,
    ) {
        // The callers' weight overrides: a contraction mask (selected
        // edges at 0) and one edge priced out at INF, which can cut the
        // graph and leave targets unreachable.
        let g = generators::gnp_connected(n, p, 12, seed);
        let mut h = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = move |bound: usize| {
            h ^= h << 13;
            h ^= h >> 7;
            h ^= h << 17;
            (h % bound as u64) as usize
        };
        let free: Vec<bool> = (0..g.m()).map(|_| next(3) == 0).collect();
        let cut = EdgeId(next(g.m()) as u32);
        let weight = |e: EdgeId| {
            if e == cut {
                INF
            } else if free[e.idx()] {
                0
            } else {
                g.weight(e)
            }
        };
        let sources: Vec<NodeId> = (0..1 + next(3)).map(|_| NodeId(next(n) as u32)).collect();
        let targets: Vec<NodeId> = (0..next(6)).map(|_| NodeId(next(n) as u32)).collect();
        let full = dijkstra::multi_source_with(&g, &sources, weight);
        let part = dijkstra::multi_source_to(&g, &sources, &targets, weight);
        for &t in &targets {
            prop_assert_eq!(part.dist[t.idx()], full.dist[t.idx()]);
            prop_assert_eq!(part.hops[t.idx()], full.hops[t.idx()]);
            if full.dist[t.idx()] < INF {
                prop_assert_eq!(part.path_edges(t), full.path_edges(t));
            }
        }
    }

    #[test]
    fn metric_axioms(seed in 0u64..300, n in 4usize..14) {
        let g = generators::gnp_connected(n, 0.4, 9, seed);
        let ap = dijkstra::all_pairs(&g);
        for i in 0..n {
            prop_assert_eq!(ap[i][i], 0);
            for j in 0..n {
                prop_assert_eq!(ap[i][j], ap[j][i]);
                for k in 0..n {
                    prop_assert!(ap[i][j] <= ap[i][k] + ap[k][j]);
                }
            }
        }
    }

    #[test]
    fn parameter_ordering(seed in 0u64..300, n in 4usize..16) {
        let g = generators::gnp_connected(n, 0.3, 20, seed);
        let p = metrics::parameters(&g);
        // D ≤ s ≤ n-1 and D ≤ WD (weights ≥ 1).
        prop_assert!(p.diameter <= p.shortest_path_diameter);
        prop_assert!((p.shortest_path_diameter as usize) < n);
        prop_assert!(u64::from(p.diameter) <= p.weighted_diameter);
        prop_assert!(metrics::parameters_consistent(&p));
    }

    #[test]
    fn mst_lower_bounds_steiner_tree_supersets(seed in 0u64..200, n in 5usize..14) {
        let g = generators::gnp_connected(n, 0.4, 10, seed);
        let m = mst::kruskal(&g);
        // Steiner tree over a subset of nodes is at most the MST weight.
        let terms: Vec<NodeId> = generators::sample_nodes(n, 3.min(n), seed);
        let st = dreyfus_wagner::steiner_tree(&g, &terms);
        prop_assert!(st.weight <= m.weight);
        // And monotone in the terminal set.
        let fewer = dreyfus_wagner::steiner_tree(&g, &terms[..2]);
        prop_assert!(fewer.weight <= st.weight);
    }

    #[test]
    fn steiner_tree_matches_pair_distance(seed in 0u64..200, n in 4usize..16) {
        let g = generators::gnp_connected(n, 0.3, 12, seed);
        let sp = dijkstra::shortest_paths(&g, NodeId(0));
        let target = NodeId((n - 1) as u32);
        let st = dreyfus_wagner::steiner_tree(&g, &[NodeId(0), target]);
        prop_assert_eq!(st.weight, sp.dist[target.idx()]);
    }

    #[test]
    fn generators_respect_weight_bounds(seed in 0u64..200, n in 2usize..30, w in 1u64..50) {
        let g = generators::gnp_connected(n, 0.2, w, seed);
        prop_assert!(g.edges().iter().all(|e| (1..=w).contains(&e.w)));
        prop_assert!(g.is_connected());
    }

    #[test]
    fn union_find_unions_are_idempotent(seed in 0u64..500, n in 2usize..40, ops in 1usize..60) {
        // Replaying the same union sequence must be a no-op: every union
        // returns false the second time and the partition is unchanged.
        let pairs: Vec<(usize, usize)> = (0..ops)
            .map(|i| {
                let h = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(i as u64);
                ((h % n as u64) as usize, ((h >> 17) % n as u64) as usize)
            })
            .collect();
        let mut uf = UnionFind::new(n);
        let mut merges = 0usize;
        for &(a, b) in &pairs {
            if uf.union(a, b) {
                merges += 1;
            }
        }
        prop_assert_eq!(uf.num_sets(), n - merges);
        let partition_before: Vec<usize> = (0..n).map(|x| uf.find_const(x)).collect();
        for &(a, b) in &pairs {
            prop_assert!(!uf.union(a, b), "replayed union({a}, {b}) merged again");
        }
        let partition_after: Vec<usize> = (0..n).map(|x| uf.find_const(x)).collect();
        prop_assert_eq!(partition_before, partition_after);
        prop_assert_eq!(uf.num_sets(), n - merges);
    }

    #[test]
    fn union_find_find_is_stable(seed in 0u64..500, n in 2usize..40, ops in 0usize..60) {
        // `find` is a projection: find(find(x)) == find(x), repeated calls
        // agree, and the compressing `find` matches `find_const`.
        let mut uf = UnionFind::new(n);
        for i in 0..ops {
            let h = seed.wrapping_mul(0x2545_f491_4f6c_dd1d).wrapping_add(i as u64);
            uf.union((h % n as u64) as usize, ((h >> 23) % n as u64) as usize);
        }
        for x in 0..n {
            let r = uf.find(x);
            prop_assert_eq!(uf.find(r), r, "representative is not a fixed point");
            prop_assert_eq!(uf.find(x), r, "repeated find changed answer");
            prop_assert_eq!(uf.find_const(x), r, "find_const disagrees with find");
            prop_assert!(uf.same(x, r));
        }
        // Set sizes partition the universe.
        let reps: BTreeSet<usize> = (0..n).map(|x| uf.find(x)).collect();
        let total: usize = reps.iter().map(|&r| uf.set_size(r)).sum();
        prop_assert_eq!(total, n);
    }

    #[test]
    fn mst_weight_at_most_collect_at_root_tree(seed in 0u64..300, n in 2usize..25, p in 0.15f64..0.6) {
        // The collect-at-root baseline routes everything over the
        // shortest-path tree of a BFS root; the MST can only be lighter
        // (both are spanning trees, Kruskal is optimal among them).
        let g = generators::gnp_connected(n, p, 15, seed);
        let m = mst::kruskal(&g);
        prop_assert_eq!(m.edges.len(), n - 1);
        let sp = dijkstra::shortest_paths(&g, NodeId(0));
        let spt_edges: BTreeSet<EdgeId> = g
            .nodes()
            .flat_map(|v| sp.path_edges(v))
            .collect();
        let spt_weight: Weight = spt_edges.iter().map(|&e| g.weight(e)).sum();
        prop_assert_eq!(spt_edges.len(), n - 1, "SPT is not a spanning tree");
        prop_assert!(
            m.weight <= spt_weight,
            "MST weight {} exceeds shortest-path-tree baseline {}",
            m.weight,
            spt_weight
        );
        // And the MST really spans: replaying its edges connects everything.
        let mut uf = UnionFind::new(n);
        for &e in &m.edges {
            let ed = g.edge(e);
            uf.union(ed.u.idx(), ed.v.idx());
        }
        prop_assert_eq!(uf.num_sets(), 1);
    }

    #[test]
    fn sample_nodes_is_a_duplicate_free_sorted_subset(
        seed in 0u64..500,
        n in 1usize..60,
        frac in 0usize..=100,
    ) {
        // Any count in 0..=n (both boundaries included) yields exactly
        // `count` distinct, sorted, in-range nodes, deterministically.
        let count = n * frac / 100;
        let s = generators::sample_nodes(n, count, seed);
        prop_assert_eq!(s.len(), count);
        let distinct: BTreeSet<NodeId> = s.iter().copied().collect();
        prop_assert_eq!(distinct.len(), count, "duplicates in sample");
        for w in s.windows(2) {
            prop_assert!(w[0] < w[1], "sample not strictly sorted");
        }
        prop_assert!(s.iter().all(|v| v.idx() < n));
        prop_assert_eq!(s, generators::sample_nodes(n, count, seed));
    }

    #[test]
    fn sample_nodes_boundary_counts(seed in 0u64..500, n in 1usize..60) {
        // count == 0: empty. count == n: the full, sorted node range.
        prop_assert!(generators::sample_nodes(n, 0, seed).is_empty());
        let all = generators::sample_nodes(n, n, seed);
        let expect: Vec<NodeId> = (0..n).map(NodeId::from).collect();
        prop_assert_eq!(all, expect);
    }

    #[test]
    fn tree_with_noise_connectivity_and_edge_count(
        seed in 0u64..300,
        n in 1usize..40,
        noise in 0usize..20,
    ) {
        let g = generators::tree_with_noise(n, noise, 9, seed);
        prop_assert!(g.is_connected());
        // Tree skeleton plus at most `noise` extras, never beyond simple.
        prop_assert!(g.m() >= n.saturating_sub(1));
        prop_assert!(g.m() <= (n.saturating_sub(1) + noise).min(n * n.saturating_sub(1) / 2));
    }

    #[test]
    fn barbell_connectivity(seed in 0u64..300, clique in 1usize..8, bridge in 0usize..10) {
        let g = generators::barbell(clique, bridge, 7, seed);
        prop_assert_eq!(g.n(), 2 * clique + bridge);
        prop_assert!(g.is_connected());
        prop_assert_eq!(g.m(), clique * (clique - 1) + bridge + 1);
    }

    #[test]
    fn clustered_geometric_connectivity(
        seed in 0u64..300,
        clusters in 1usize..6,
        per in 1usize..8,
    ) {
        let g = generators::clustered_geometric(clusters, per, seed);
        prop_assert_eq!(g.n(), clusters * per);
        prop_assert!(g.is_connected());
        let intra = clusters * per * (per - 1) / 2;
        prop_assert_eq!(g.m(), intra + (clusters - 1));
    }

    #[test]
    fn rmat_seeded_determinism(seed in 0u64..300, n in 1usize..200, ef in 1usize..6) {
        let a = generators::rmat(n, ef, 25, seed);
        let b = generators::rmat(n, ef, 25, seed);
        prop_assert_eq!(a.n(), n);
        prop_assert_eq!(a.edges(), b.edges());
        prop_assert!(a.edges().iter().all(|e| (1..=25).contains(&e.w)));
    }

    #[test]
    fn rmat_edge_count_bounds(seed in 0u64..300, n in 1usize..200, ef in 1usize..6) {
        // Simple + connected: at least a spanning tree, at most the sampled
        // pairs plus one stitch per non-root node (and never beyond simple).
        let g = generators::rmat(n, ef, 9, seed);
        prop_assert!(g.m() >= n.saturating_sub(1));
        prop_assert!(g.m() <= (ef * n + n.saturating_sub(1)).min(n * n.saturating_sub(1) / 2));
    }

    #[test]
    fn rmat_connectivity_after_stitching(seed in 0u64..300, n in 1usize..200, ef in 1usize..6) {
        // RMAT sampling alone leaves stray components; the generator's
        // recursive-tree stitch must always repair them.
        let g = generators::rmat(n, ef, 9, seed);
        prop_assert!(g.is_connected());
        // The stitched graph is simple: the sorted adjacency has no
        // duplicate (neighbor, edge) target.
        for v in g.nodes() {
            for w in g.neighbors(v).windows(2) {
                prop_assert!(w[0].0 != w[1].0, "duplicate edge at {:?}", v);
            }
        }
    }

    #[test]
    fn heavy_tailed_connectivity_and_caps(
        seed in 0u64..300,
        n in 1usize..40,
        cap in 1u64..100_000,
    ) {
        let g = generators::heavy_tailed(n, 0.12, 2.0, cap, seed);
        prop_assert!(g.is_connected());
        prop_assert!(g.edges().iter().all(|e| (1..=cap.max(1)).contains(&e.w)));
    }
}
