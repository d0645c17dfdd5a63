//! The virtual tree: ancestor chains, physical routing tables, tree metric,
//! tree-optimal forests, and the `S`-truncation of Section 5.

use std::collections::HashMap;

use dsf_congest::CongestConfig;
use dsf_graph::{dijkstra, metrics, NodeId, Weight, WeightedGraph};
use dsf_steiner::Instance;

use crate::distributed::le_lists_distributed;
use crate::le_list::LeList;
use crate::{random_ranks, Beta};

/// Configuration of an embedding.
#[derive(Debug, Clone, Copy)]
pub struct EmbeddingConfig {
    /// Seed for ranks and `β`.
    pub seed: u64,
    /// If `Some(size)`, compute the `S`-truncation with `|S| = size`
    /// (the paper uses `√n` when `s > √n`).
    pub truncate: Option<usize>,
}

impl EmbeddingConfig {
    /// Untruncated embedding with the given seed.
    pub fn new(seed: u64) -> Self {
        EmbeddingConfig {
            seed,
            truncate: None,
        }
    }
}

/// Truncation data for one node (Section 5, Step 1): the node's ancestor
/// chain is cut at the first ancestor mapped to `S`; the node instead
/// learns its closest `S`-member.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TruncatedChain {
    /// Chain prefix levels that survive (ancestors not in `S`);
    /// `prefix_len == iv` in the paper's notation.
    pub prefix_len: usize,
    /// The closest node of `S` (`ṽ_{iv}`).
    pub closest_s: NodeId,
    /// Weighted distance to it.
    pub dist_s: Weight,
    /// First hop towards it (`None` when the node is in `S` itself).
    pub next_hop_s: Option<NodeId>,
}

/// A constructed virtual tree embedding.
#[derive(Debug, Clone)]
pub struct Embedding {
    /// Random ranks (a permutation of `0..n`).
    pub ranks: Vec<u32>,
    /// The scale factor `β ∈ [1, 2)`.
    pub beta: Beta,
    /// Number of internal levels: ancestors exist for `i = 0..=top_level`.
    pub top_level: u32,
    /// Per-node LE lists.
    pub lists: Vec<LeList>,
    /// `chains[v][i]` = the level-`i` ancestor (recentered chain).
    pub chains: Vec<Vec<NodeId>>,
    /// Installed routes as one CSR array: node `x`'s `(destination, next
    /// hop)` pairs are `routes[route_start[x]..route_start[x + 1]]`,
    /// sorted by destination.
    route_start: Vec<usize>,
    routes: Vec<(NodeId, NodeId)>,
    /// `chain_hops[v·(top_level + 1) + i]`: hop length of the installed
    /// path from `v` to `chains[v][i]`.
    chain_hops: Vec<u32>,
    /// Every distinct center, sorted.
    centers: Vec<NodeId>,
    /// `S`-truncation data (present iff configured).
    pub truncation: Option<Vec<TruncatedChain>>,
    /// The set `S` (highest-rank nodes), sorted by id; empty when not
    /// truncating.
    pub s_set: Vec<NodeId>,
}

impl Embedding {
    /// Builds the embedding on `g` from scratch: ranks from `cfg.seed`,
    /// LE lists from the simulated CONGEST protocol
    /// ([`le_lists_distributed`] at [`CongestConfig::for_graph`]), and the
    /// weighted diameter from an all-pairs sweep, handed to
    /// [`Embedding::from_lists`]. The solvers call `from_lists` directly
    /// with the lists their own protocol run produced.
    ///
    /// # Panics
    ///
    /// Panics if the graph is disconnected.
    pub fn build(g: &WeightedGraph, cfg: &EmbeddingConfig) -> Self {
        let ranks = random_ranks(g.n(), cfg.seed);
        let (lists, _) = le_lists_distributed(g, &ranks, &CongestConfig::for_graph(g))
            .expect("the default configuration fits an LE entry");
        let wd = metrics::weighted_diameter(g);
        Self::from_lists(g, cfg, ranks, lists, wd)
    }

    /// Builds the embedding from the LE `lists` of `ranks` (as the
    /// protocol of [`crate::distributed`] computes them), where `wd` is the
    /// weighted diameter of `g` and fixes the top level.
    ///
    /// Chains are read off the lists. Routes follow the tie-broken shortest
    /// path from each node to each of its ancestors: per distinct center
    /// `c`, one [`dijkstra::multi_source_to`] search from `c` that stops
    /// once every node whose chain names `c` is settled. Settled entries
    /// and their whole paths equal those of a full search (see the
    /// `dijkstra` module docs), so every route is the full search's.
    ///
    /// # Panics
    ///
    /// Panics if `ranks` or `lists` do not have one entry per node, or if
    /// the graph is disconnected.
    pub fn from_lists(
        g: &WeightedGraph,
        cfg: &EmbeddingConfig,
        ranks: Vec<u32>,
        lists: Vec<LeList>,
        wd: Weight,
    ) -> Self {
        let n = g.n();
        assert_eq!(ranks.len(), n, "one rank per node");
        assert_eq!(lists.len(), n, "one LE list per node");
        let beta = Beta::sample(cfg.seed);
        let mut top_level = 0u32;
        while !beta.ball_contains(wd, top_level) {
            top_level += 1;
        }
        let levels = top_level as usize + 1;

        // Recentered ancestor chains: c_0(v) = max rank in B(v, β);
        // c_{i+1} = max rank in B(c_i, β·2^{i+1}).
        let mut chains: Vec<Vec<NodeId>> = vec![Vec::with_capacity(levels); n];
        for v in g.nodes() {
            let mut cur = lists[v.idx()]
                .ancestor_within(|d| beta.ball_contains(d, 0))
                .expect("ball of radius >= 1 contains v itself")
                .node;
            chains[v.idx()].push(cur);
            for i in 1..=top_level {
                cur = lists[cur.idx()]
                    .ancestor_within(|d| beta.ball_contains(d, i))
                    .expect("ball contains the center")
                    .node;
                chains[v.idx()].push(cur);
            }
        }

        // The paper embeds "via a shortest path from each node v to each of
        // its L+1 ancestors", drawn from the Dijkstra tree rooted at the
        // ancestor, so that "the union of all least-weight paths ending at
        // a specific node induces a tree" (Main Techniques). Group the
        // (center, node) pairs by center and search from each center only
        // as far as the nodes that name it.
        let mut named: Vec<(NodeId, NodeId)> = g
            .nodes()
            .flat_map(|v| chains[v.idx()].iter().map(move |&c| (c, v)))
            .collect();
        named.sort_unstable();
        named.dedup();
        let mut centers = Vec::new();
        let mut chain_hops = vec![0u32; n * levels];
        // (node, center, next hop), one per node on a path to the center.
        let mut installed: Vec<(NodeId, NodeId, NodeId)> = Vec::new();
        // Per node, the last center whose tree already passes through it.
        let mut on_tree = vec![usize::MAX; n];
        let mut targets = Vec::new();
        for group in named.chunk_by(|a, b| a.0 == b.0) {
            let c = group[0].0;
            targets.clear();
            targets.extend(group.iter().map(|&(_, v)| v));
            let sp = dijkstra::multi_source_to(g, &[c], &targets, |e| g.weight(e));
            let ci = centers.len();
            centers.push(c);
            for &v in &targets {
                for (i, &at) in chains[v.idx()].iter().enumerate() {
                    if at == c {
                        chain_hops[v.idx() * levels + i] = sp.hops[v.idx()];
                    }
                }
                // Walk v's path until it joins c's tree installed so far.
                let mut cur = v;
                while cur != c && on_tree[cur.idx()] != ci {
                    on_tree[cur.idx()] = ci;
                    let (next, _) = sp.parent[cur.idx()].expect("graph is connected");
                    installed.push((cur, c, next));
                    cur = next;
                }
            }
        }
        installed.sort_unstable();
        let mut route_start = vec![0usize; n + 1];
        for &(x, _, _) in &installed {
            route_start[x.idx() + 1] += 1;
        }
        for x in 0..n {
            route_start[x + 1] += route_start[x];
        }
        let routes = installed.iter().map(|&(_, c, next)| (c, next)).collect();

        // S-truncation (Section 5 Step 1): S = the `size` highest-rank
        // nodes; chains are cut at the first S-ancestor.
        let (s_set, truncation) = match cfg.truncate {
            None => (Vec::new(), None),
            Some(size) => {
                let size = size.min(n);
                let mut by_rank: Vec<NodeId> = g.nodes().collect();
                by_rank.sort_by_key(|v| std::cmp::Reverse(ranks[v.idx()]));
                let mut s: Vec<NodeId> = by_rank[..size].to_vec();
                s.sort_unstable();
                // Closest S member per node, with consistent tie-breaking.
                let msp = dijkstra::multi_source(g, &s);
                let owner = dijkstra::voronoi_owner(&msp, &s);
                let mut trunc = Vec::with_capacity(n);
                for v in g.nodes() {
                    let prefix_len = chains[v.idx()]
                        .iter()
                        .position(|c| s.binary_search(c).is_ok())
                        .unwrap_or(chains[v.idx()].len());
                    trunc.push(TruncatedChain {
                        prefix_len,
                        closest_s: owner[v.idx()].expect("graph connected"),
                        dist_s: msp.dist[v.idx()],
                        next_hop_s: msp.parent[v.idx()].map(|(p, _)| p),
                    });
                }
                (s, Some(trunc))
            }
        };

        Embedding {
            ranks,
            beta,
            top_level,
            lists,
            chains,
            route_start,
            routes,
            chain_hops,
            centers,
            truncation,
            s_set,
        }
    }

    /// `x`'s installed `(destination, next hop)` pairs, sorted by
    /// destination.
    fn routes_at(&self, x: NodeId) -> &[(NodeId, NodeId)] {
        &self.routes[self.route_start[x.idx()]..self.route_start[x.idx() + 1]]
    }

    /// Next hop at `x` towards destination center `dest`, if `x` is on an
    /// installed path.
    pub fn next_hop(&self, x: NodeId, dest: NodeId) -> Option<NodeId> {
        let row = self.routes_at(x);
        row.binary_search_by_key(&dest, |&(c, _)| c)
            .ok()
            .map(|i| row[i].1)
    }

    /// Number of distinct path destinations traversing `x`
    /// (Lemma G.1: `O(log n)` w.h.p.; experiment E6): its route entries,
    /// plus one if `x` is a center itself.
    pub fn path_count(&self, x: NodeId) -> usize {
        self.routes_at(x).len() + usize::from(self.centers.binary_search(&x).is_ok())
    }

    /// Hop length of the installed path from `x` to `center`. Answers only
    /// for the centers on `x`'s own chain (the only paths installed from
    /// `x`); `None` for any other node.
    pub fn hops_to(&self, x: NodeId, center: NodeId) -> Option<u32> {
        let levels = self.top_level as usize + 1;
        self.chains[x.idx()]
            .iter()
            .position(|&c| c == center)
            .map(|i| self.chain_hops[x.idx() * levels + i])
    }

    /// Tree-metric distance between two leaves: both chains are walked to
    /// their first common ancestor at level `i`; the distance is
    /// `2·Σ_{j=0..=i} β·2^j`.
    pub fn tree_distance(&self, u: NodeId, v: NodeId) -> Weight {
        if u == v {
            return 0;
        }
        let (cu, cv) = (&self.chains[u.idx()], &self.chains[v.idx()]);
        let mut meet = None;
        for i in 0..cu.len() {
            if cu[i] == cv[i] {
                meet = Some(i);
                break;
            }
        }
        let i = meet.expect("chains share the top-level root");
        2 * (0..=i as u32).map(|j| self.beta.scaled(j)).sum::<Weight>()
    }

    /// Weight of the optimal Steiner forest **on the virtual tree** for
    /// `inst` (union over components of the minimal spanning subtree of
    /// their leaves). This is the quantity Lemma G.8 compares the
    /// first-stage edge set against.
    pub fn tree_opt_weight(&self, inst: &Instance) -> Weight {
        let mut total: Weight = 0;
        for comp in inst.components() {
            if comp.len() < 2 {
                continue;
            }
            // Leaf edges: each terminal's edge to its level-0 ancestor.
            total += comp.len() as Weight * self.beta.scaled(0);
            // Level edges: ancestor at level i -> level i+1 is in the
            // subtree iff the leaves below it are a proper nonempty subset.
            for i in 0..self.top_level as usize {
                let mut below: HashMap<NodeId, usize> = HashMap::new();
                for &t in comp {
                    *below.entry(self.chains[t.idx()][i]).or_insert(0) += 1;
                }
                for (_, cnt) in below {
                    if cnt < comp.len() {
                        total += self.beta.scaled(i as u32 + 1);
                    }
                }
            }
        }
        total
    }

    /// All distinct centers (internal virtual nodes), sorted.
    pub fn centers(&self) -> &[NodeId] {
        &self.centers
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;
    use crate::le_list::le_lists;
    use dsf_graph::dijkstra::ShortestPaths;
    use dsf_graph::generators;
    use dsf_steiner::InstanceBuilder;

    fn build(n: usize, seed: u64) -> (WeightedGraph, Embedding) {
        let g = generators::gnp_connected(n, 0.15, 16, seed);
        let emb = Embedding::build(&g, &EmbeddingConfig::new(seed));
        (g, emb)
    }

    #[test]
    fn chains_converge_to_common_root() {
        let (g, emb) = build(30, 1);
        let top = emb.top_level as usize;
        let root = emb.chains[0][top];
        for v in g.nodes() {
            assert_eq!(emb.chains[v.idx()][top], root, "node {v}");
        }
        // The root is the global max-rank node.
        let max_rank = g.nodes().max_by_key(|v| emb.ranks[v.idx()]).unwrap();
        assert_eq!(root, max_rank);
    }

    #[test]
    fn chains_are_rank_monotone() {
        let (g, emb) = build(25, 2);
        for v in g.nodes() {
            let chain = &emb.chains[v.idx()];
            for w in chain.windows(2) {
                assert!(
                    emb.ranks[w[1].idx()] >= emb.ranks[w[0].idx()],
                    "rank must not decrease along the chain"
                );
            }
        }
    }

    #[test]
    fn tree_metric_dominates_graph_metric() {
        for seed in 0..8 {
            let (g, emb) = build(20, seed);
            let ap = dijkstra::all_pairs(&g);
            for u in g.nodes() {
                for v in g.nodes() {
                    assert!(
                        emb.tree_distance(u, v) >= ap[u.idx()][v.idx()],
                        "seed {seed}: d_T({u},{v}) < d_G"
                    );
                }
            }
        }
    }

    #[test]
    fn average_stretch_is_moderate() {
        // Expected stretch O(log n); over seeds the mean should be tame.
        let g = generators::random_geometric(40, 0.25, 3);
        let ap = dijkstra::all_pairs(&g);
        let mut ratios = Vec::new();
        for seed in 0..10 {
            let emb = Embedding::build(&g, &EmbeddingConfig::new(seed));
            for u in 0..g.n() {
                for v in (u + 1)..g.n() {
                    ratios.push(
                        emb.tree_distance(NodeId::from(u), NodeId::from(v)) as f64
                            / ap[u][v] as f64,
                    );
                }
            }
        }
        let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
        assert!(mean < 60.0, "mean stretch {mean} looks broken");
        assert!(mean >= 1.0);
    }

    #[test]
    fn routes_walk_to_their_destination() {
        let (g, emb) = build(25, 5);
        for v in g.nodes() {
            let dest = emb.chains[v.idx()][0];
            let mut cur = v;
            let mut hops = 0;
            while cur != dest {
                cur = emb.next_hop(cur, dest).expect("installed path");
                hops += 1;
                assert!(hops <= g.n() as u32, "routing loop");
            }
        }
    }

    #[test]
    fn path_counts_are_logarithmicish() {
        let (g, emb) = build(60, 7);
        let max_count = g.nodes().map(|v| emb.path_count(v)).max().unwrap();
        // Lemma G.1-flavoured: a node serves few distinct destinations.
        assert!(max_count <= 40, "max path count {max_count}");
    }

    #[test]
    fn tree_opt_weight_bounds_component_distance() {
        let (g, emb) = build(20, 9);
        let inst = InstanceBuilder::new(&g)
            .component(&[NodeId(0), NodeId(10)])
            .build()
            .unwrap();
        let w = emb.tree_opt_weight(&inst);
        // The tree solution connects 0 and 10, so it weighs at least their
        // tree distance minus the doubled leaf edges, and at least d_G.
        assert!(w as f64 >= emb.tree_distance(NodeId(0), NodeId(10)) as f64 / 2.0);
    }

    #[test]
    fn truncation_prefix_and_closest_s() {
        let g = generators::random_geometric(36, 0.3, 11);
        let cfg = EmbeddingConfig {
            seed: 11,
            truncate: Some(6),
        };
        let emb = Embedding::build(&g, &cfg);
        let trunc = emb.truncation.as_ref().unwrap();
        assert_eq!(emb.s_set.len(), 6);
        let in_s: HashSet<_> = emb.s_set.iter().copied().collect();
        for v in g.nodes() {
            let t = &trunc[v.idx()];
            // Prefix ancestors are outside S; the cut ancestor (if any) is in S.
            for i in 0..t.prefix_len {
                assert!(!in_s.contains(&emb.chains[v.idx()][i]));
            }
            if t.prefix_len < emb.chains[v.idx()].len() {
                assert!(in_s.contains(&emb.chains[v.idx()][t.prefix_len]));
            }
            // Closest-S data is consistent.
            assert!(in_s.contains(&t.closest_s));
            if in_s.contains(&v) {
                assert_eq!(t.dist_s, 0);
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let g = generators::gnp_connected(20, 0.2, 9, 3);
        let a = Embedding::build(&g, &EmbeddingConfig::new(42));
        let b = Embedding::build(&g, &EmbeddingConfig::new(42));
        assert_eq!(a.chains, b.chains);
        assert_eq!(a.ranks, b.ranks);
    }

    /// Routes built with one full search per center, installed into
    /// per-node maps: the construction the targeted searches replace.
    struct FullRoutes {
        route: Vec<HashMap<NodeId, NodeId>>,
        path_dests: Vec<HashSet<NodeId>>,
        from_center: HashMap<NodeId, ShortestPaths>,
    }

    fn full_routes(g: &WeightedGraph, chains: &[Vec<NodeId>]) -> FullRoutes {
        let mut from_center = HashMap::new();
        for &c in chains.iter().flatten() {
            from_center
                .entry(c)
                .or_insert_with(|| dijkstra::shortest_paths(g, c));
        }
        let mut route = vec![HashMap::new(); g.n()];
        let mut path_dests = vec![HashSet::new(); g.n()];
        for v in g.nodes() {
            for &c in &chains[v.idx()] {
                let sp: &ShortestPaths = &from_center[&c];
                let mut cur = v;
                loop {
                    path_dests[cur.idx()].insert(c);
                    if cur == c {
                        break;
                    }
                    let (next, _) = sp.parent[cur.idx()].unwrap();
                    route[cur.idx()].insert(c, next);
                    cur = next;
                }
            }
        }
        FullRoutes {
            route,
            path_dests,
            from_center,
        }
    }

    #[test]
    fn protocol_lists_and_targeted_routes_match_the_full_construction() {
        let mut graphs = Vec::new();
        for seed in 0..2 {
            graphs.push(("gnp", generators::gnp_connected(40, 0.1, 16, seed)));
            graphs.push(("grid", generators::grid(6, 7, 9, seed)));
            graphs.push(("rmat", generators::rmat(48, 3, 20, seed)));
            graphs.push(("geometric", generators::random_geometric(40, 0.3, seed)));
        }
        for (i, (family, g)) in graphs.iter().enumerate() {
            let n = g.n();
            let wd = metrics::weighted_diameter(g);
            let sqrt_n = (n as f64).sqrt().ceil() as usize;
            for truncate in [None, Some(sqrt_n)] {
                let seed = 7 + i as u64;
                let cfg = EmbeddingConfig { seed, truncate };
                let case = format!("{family} #{i}, truncate {truncate:?}");
                let ranks = random_ranks(n, seed);
                let (lists, _) =
                    le_lists_distributed(g, &ranks, &CongestConfig::for_graph(g)).unwrap();
                let central = le_lists(g, &ranks);
                let emb = Embedding::from_lists(g, &cfg, ranks.clone(), lists, wd);
                let oracle = Embedding::from_lists(g, &cfg, ranks, central, wd);
                assert_eq!(emb.chains, oracle.chains, "{case}: chains");
                assert_eq!(emb.s_set, oracle.s_set, "{case}: S");
                assert_eq!(emb.truncation, oracle.truncation, "{case}: truncation");
                assert_eq!(
                    Embedding::build(g, &cfg).chains,
                    emb.chains,
                    "{case}: build"
                );

                let full = full_routes(g, &emb.chains);
                let mut centers: Vec<NodeId> = full.from_center.keys().copied().collect();
                centers.sort_unstable();
                assert_eq!(emb.centers(), &centers[..], "{case}: centers");
                for x in g.nodes() {
                    for &c in &centers {
                        assert_eq!(
                            emb.next_hop(x, c),
                            full.route[x.idx()].get(&c).copied(),
                            "{case}: next hop at {x} towards {c}"
                        );
                    }
                    assert_eq!(
                        emb.path_count(x),
                        full.path_dests[x.idx()].len(),
                        "{case}: path count at {x}"
                    );
                    for &c in &emb.chains[x.idx()] {
                        assert_eq!(
                            emb.hops_to(x, c),
                            Some(full.from_center[&c].hops[x.idx()]),
                            "{case}: hops from {x} to {c}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn hops_to_answers_only_on_the_chain() {
        let (g, emb) = build(30, 4);
        for v in g.nodes() {
            for c in g.nodes() {
                if !emb.chains[v.idx()].contains(&c) {
                    assert_eq!(emb.hops_to(v, c), None);
                }
            }
        }
    }
}
