//! The core immutable weighted-graph type and its builder.

use std::fmt;
use std::sync::Arc;

use crate::{Weight, INF};

/// Identifier of a node; nodes are numbered `0..n`.
///
/// In the CONGEST model each node initially knows its own identifier, the
/// identifiers of its neighbors and the weights of its incident edges
/// (paper, Section 2); this type is that identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Index into per-node arrays.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl From<usize> for NodeId {
    fn from(i: usize) -> Self {
        NodeId(u32::try_from(i).expect("node index exceeds u32"))
    }
}

/// Identifier of an (undirected) edge; edges are numbered `0..m` in insertion
/// order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct EdgeId(pub u32);

impl EdgeId {
    /// Index into per-edge arrays.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// An undirected weighted edge `{u, v}` with `u < v`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Edge {
    /// Smaller endpoint.
    pub u: NodeId,
    /// Larger endpoint.
    pub v: NodeId,
    /// Positive integer weight.
    pub w: Weight,
}

impl Edge {
    /// The endpoint that is not `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not an endpoint of this edge.
    #[inline]
    pub fn other(&self, x: NodeId) -> NodeId {
        if x == self.u {
            self.v
        } else {
            assert_eq!(x, self.v, "node {x} is not an endpoint");
            self.u
        }
    }
}

/// Errors raised while constructing a [`WeightedGraph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An endpoint was `>= n`.
    NodeOutOfRange { node: NodeId, n: usize },
    /// Both endpoints were equal.
    SelfLoop(NodeId),
    /// The same unordered pair was added twice.
    DuplicateEdge(NodeId, NodeId),
    /// Edge weight was zero (the model requires weights in `N`).
    ZeroWeight(NodeId, NodeId),
    /// The finished graph is not connected (required by the model: the
    /// network is a single connected component).
    Disconnected,
    /// The graph has no nodes.
    Empty,
    /// The total edge weight would reach [`INF`]. Below that bound no
    /// path sum can reach Dijkstra's `INF` clamp, so "unreachable" keeps
    /// meaning unreachable.
    TotalWeightOverflow,
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, n } => {
                write!(f, "node {node} out of range for graph with {n} nodes")
            }
            GraphError::SelfLoop(v) => write!(f, "self loop at {v}"),
            GraphError::DuplicateEdge(u, v) => write!(f, "duplicate edge {{{u}, {v}}}"),
            GraphError::ZeroWeight(u, v) => write!(f, "zero weight on edge {{{u}, {v}}}"),
            GraphError::Disconnected => write!(f, "graph is not connected"),
            GraphError::Empty => write!(f, "graph has no nodes"),
            GraphError::TotalWeightOverflow => {
                write!(f, "total edge weight reaches INF (u64::MAX / 4)")
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// Refuses a total edge weight at or above [`INF`] (summed in `u128`, so
/// the sum itself cannot overflow).
fn check_total_weight(weights: impl Iterator<Item = Weight>) -> Result<(), GraphError> {
    let total: u128 = weights.map(u128::from).sum();
    if total < u128::from(INF) {
        Ok(())
    } else {
        Err(GraphError::TotalWeightOverflow)
    }
}

/// Incrementally assembles a [`WeightedGraph`], validating as it goes.
///
/// # Example
///
/// ```
/// use dsf_graph::{GraphBuilder, NodeId};
/// # fn main() -> Result<(), dsf_graph::GraphError> {
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(NodeId(0), NodeId(1), 1)?;
/// b.add_edge(NodeId(1), NodeId(2), 4)?;
/// let g = b.build()?;
/// assert_eq!(g.m(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<Edge>,
    seen: std::collections::HashSet<(u32, u32)>,
}

impl GraphBuilder {
    /// Starts a builder for a graph on `n` nodes (ids `0..n`).
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::new(),
            seen: std::collections::HashSet::new(),
        }
    }

    /// Adds the undirected edge `{u, v}` with weight `w`.
    ///
    /// # Errors
    ///
    /// Returns an error on self loops, duplicate edges, zero weights or
    /// out-of-range endpoints. The builder is left unchanged on error.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, w: Weight) -> Result<EdgeId, GraphError> {
        if u.idx() >= self.n {
            return Err(GraphError::NodeOutOfRange { node: u, n: self.n });
        }
        if v.idx() >= self.n {
            return Err(GraphError::NodeOutOfRange { node: v, n: self.n });
        }
        if u == v {
            return Err(GraphError::SelfLoop(u));
        }
        if w == 0 {
            return Err(GraphError::ZeroWeight(u, v));
        }
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        if !self.seen.insert((a.0, b.0)) {
            return Err(GraphError::DuplicateEdge(a, b));
        }
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(Edge { u: a, v: b, w });
        Ok(id)
    }

    /// Returns `true` if the unordered pair `{u, v}` has already been added.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        self.seen.contains(&(a.0, b.0))
    }

    /// Number of edges added so far.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Finishes the graph, checking connectivity and the total weight.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Disconnected`] if the graph is not connected,
    /// [`GraphError::Empty`] if `n == 0`, and
    /// [`GraphError::TotalWeightOverflow`] if the total edge weight reaches
    /// [`INF`].
    pub fn build(self) -> Result<WeightedGraph, GraphError> {
        if self.n == 0 {
            return Err(GraphError::Empty);
        }
        check_total_weight(self.edges.iter().map(|e| e.w))?;
        let g = self.build_unchecked();
        if !g.is_connected() {
            return Err(GraphError::Disconnected);
        }
        Ok(g)
    }

    /// Finishes the graph without the connectivity and total-weight
    /// checks.
    ///
    /// Useful for intermediate graphs (e.g. the forest `(V, F)` of selected
    /// edges, which is intentionally disconnected).
    pub fn build_unchecked(self) -> WeightedGraph {
        WeightedGraph::assemble(self.n, self.edges)
    }
}

/// An immutable, undirected, positively-weighted graph.
///
/// The graph is the communication network *and* the problem instance domain:
/// in the CONGEST model the input graph and the network coincide.
///
/// Adjacency is stored in compressed-sparse-row form — one flat
/// `(neighbor, edge id)` array sliced by a per-node offset table — instead
/// of one `Vec` per node. At the 10M-node scale tier this saves the 24
/// bytes/node of inner-`Vec` headers plus their reallocation slack, and
/// keeps every neighbor scan on a single contiguous allocation. Weights
/// live only in the edge list, so the adjacency sits behind one [`Arc`]
/// that clones and re-priced copies ([`WeightedGraph::with_weight`])
/// share.
#[derive(Debug, Clone)]
pub struct WeightedGraph {
    n: usize,
    edges: Vec<Edge>,
    adj: Arc<Adjacency>,
}

/// The CSR adjacency of a [`WeightedGraph`].
#[derive(Debug)]
struct Adjacency {
    /// Offsets: node `v`'s adjacency is `slots[off[v]..off[v+1]]`.
    off: Vec<u32>,
    /// Flat `(neighbor, edge id)` entries, each node's slice sorted by
    /// neighbor id.
    slots: Vec<(NodeId, EdgeId)>,
}

impl WeightedGraph {
    /// Builds the CSR adjacency for `edges` on `n` nodes via counting sort
    /// (no per-node allocations, no hashing).
    fn assemble(n: usize, edges: Vec<Edge>) -> WeightedGraph {
        let slots = u32::try_from(edges.len() * 2)
            .expect("directed adjacency exceeds the u32 CSR offset range");
        let mut adj_off = vec![0u32; n + 1];
        for e in &edges {
            adj_off[e.u.idx() + 1] += 1;
            adj_off[e.v.idx() + 1] += 1;
        }
        for v in 0..n {
            adj_off[v + 1] += adj_off[v];
        }
        let mut cursor = adj_off.clone();
        let mut adj = vec![(NodeId(0), EdgeId(0)); slots as usize];
        for (i, e) in edges.iter().enumerate() {
            let id = EdgeId(i as u32);
            adj[cursor[e.u.idx()] as usize] = (e.v, id);
            cursor[e.u.idx()] += 1;
            adj[cursor[e.v.idx()] as usize] = (e.u, id);
            cursor[e.v.idx()] += 1;
        }
        for v in 0..n {
            adj[adj_off[v] as usize..adj_off[v + 1] as usize].sort_unstable();
        }
        WeightedGraph {
            n,
            edges,
            adj: Arc::new(Adjacency {
                off: adj_off,
                slots: adj,
            }),
        }
    }

    /// Builds a validated graph directly from an edge list, without the
    /// per-edge hashing [`GraphBuilder`] pays for incremental duplicate
    /// detection — the O(n + m) construction path the scale-tier
    /// generators use (a `HashSet` over 20M+ edges costs more transient
    /// memory than the finished graph).
    ///
    /// Edges may be given in either orientation; they are normalized to
    /// `u < v`. Duplicates are detected from the sorted adjacency instead
    /// of a hash set.
    ///
    /// # Errors
    ///
    /// Returns the same [`GraphError`]s as the builder path: out-of-range
    /// endpoints, self loops, zero weights, a total weight at [`INF`],
    /// duplicate edges, disconnectedness, or an empty node set.
    pub fn from_edges(n: usize, edges: Vec<Edge>) -> Result<WeightedGraph, GraphError> {
        if n == 0 {
            return Err(GraphError::Empty);
        }
        let mut edges = edges;
        for e in &mut edges {
            if e.u.idx() >= n {
                return Err(GraphError::NodeOutOfRange { node: e.u, n });
            }
            if e.v.idx() >= n {
                return Err(GraphError::NodeOutOfRange { node: e.v, n });
            }
            if e.u == e.v {
                return Err(GraphError::SelfLoop(e.u));
            }
            if e.w == 0 {
                return Err(GraphError::ZeroWeight(e.u, e.v));
            }
            if e.u > e.v {
                std::mem::swap(&mut e.u, &mut e.v);
            }
        }
        check_total_weight(edges.iter().map(|e| e.w))?;
        let g = WeightedGraph::assemble(n, edges);
        for v in g.nodes() {
            for w in g.neighbors(v).windows(2) {
                if w[0].0 == w[1].0 {
                    let u = w[0].0;
                    let (a, b) = if u < v { (u, v) } else { (v, u) };
                    return Err(GraphError::DuplicateEdge(a, b));
                }
            }
        }
        if !g.is_connected() {
            return Err(GraphError::Disconnected);
        }
        Ok(g)
    }

    /// A copy of this graph with edge `e` re-priced to `w`.
    ///
    /// Edge ids, endpoints and every other weight are unchanged, so the
    /// copy shares this graph's adjacency (one [`Arc`]) and only the edge
    /// list is copied: no re-sort, no connectivity check. It fingerprints
    /// exactly like a [`WeightedGraph::from_edges`] rebuild of the patched
    /// edge list.
    ///
    /// # Errors
    ///
    /// [`GraphError::ZeroWeight`] for `w == 0`, and
    /// [`GraphError::TotalWeightOverflow`] when the copy's total edge
    /// weight would reach [`INF`]. Below that bound every path sum stays
    /// below Dijkstra's clamp.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range.
    pub fn with_weight(&self, e: EdgeId, w: Weight) -> Result<WeightedGraph, GraphError> {
        let ed = *self.edge(e);
        if w == 0 {
            return Err(GraphError::ZeroWeight(ed.u, ed.v));
        }
        let others = self.edges.iter().enumerate().filter(|&(i, _)| i != e.idx());
        check_total_weight(others.map(|(_, x)| x.w).chain([w]))?;
        let mut edges = self.edges.clone();
        edges[e.idx()].w = w;
        Ok(WeightedGraph {
            n: self.n,
            edges,
            adj: Arc::clone(&self.adj),
        })
    }

    /// Number of nodes `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of edges `m`.
    #[inline]
    pub fn m(&self) -> usize {
        self.edges.len()
    }

    /// All edges, indexed by [`EdgeId`].
    #[inline]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// The edge with the given id.
    #[inline]
    pub fn edge(&self, e: EdgeId) -> &Edge {
        &self.edges[e.idx()]
    }

    /// Weight of the edge with the given id.
    #[inline]
    pub fn weight(&self, e: EdgeId) -> Weight {
        self.edges[e.idx()].w
    }

    /// Neighbors of `v` as `(neighbor, edge id)` pairs, sorted by neighbor id.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[(NodeId, EdgeId)] {
        let off = &self.adj.off;
        &self.adj.slots[off[v.idx()] as usize..off[v.idx() + 1] as usize]
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        (self.adj.off[v.idx() + 1] - self.adj.off[v.idx()]) as usize
    }

    /// Iterator over all node ids `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.n as u32).map(NodeId)
    }

    /// Looks up the edge id of `{u, v}`, if present.
    pub fn find_edge(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        let a = self.neighbors(u);
        a.binary_search_by_key(&v, |&(nb, _)| nb)
            .ok()
            .map(|i| a[i].1)
    }

    /// Total weight of an edge subset.
    pub fn total_weight<'a>(&self, edges: impl IntoIterator<Item = &'a EdgeId>) -> Weight {
        edges.into_iter().map(|&e| self.weight(e)).sum()
    }

    /// Whether the graph is connected (vacuously true for `n == 1`).
    pub fn is_connected(&self) -> bool {
        if self.n == 0 {
            return false;
        }
        let mut seen = vec![false; self.n];
        let mut stack = vec![NodeId(0)];
        seen[0] = true;
        let mut cnt = 1;
        while let Some(v) = stack.pop() {
            for &(u, _) in self.neighbors(v) {
                if !seen[u.idx()] {
                    seen[u.idx()] = true;
                    cnt += 1;
                    stack.push(u);
                }
            }
        }
        cnt == self.n
    }

    /// Connected components of the subgraph `(V, F)` induced by an edge set.
    ///
    /// Returns a component label per node; labels are the smallest node id in
    /// the component.
    pub fn components_of(&self, edge_set: &[EdgeId]) -> Vec<NodeId> {
        let mut uf = crate::union_find::UnionFind::new(self.n);
        for &e in edge_set {
            let ed = self.edge(e);
            uf.union(ed.u.idx(), ed.v.idx());
        }
        // Canonicalize to the smallest node id in each class.
        let mut min_rep: Vec<usize> = (0..self.n).collect();
        for v in 0..self.n {
            let r = uf.find(v);
            if v < min_rep[r] {
                min_rep[r] = v;
            }
        }
        (0..self.n)
            .map(|v| NodeId::from(min_rep[uf.find(v)]))
            .collect()
    }

    /// Number of bits needed to encode a node identifier (`ceil(log2 n)`,
    /// at least 1).
    pub fn id_bits(&self) -> usize {
        (usize::BITS - (self.n.max(2) - 1).leading_zeros()) as usize
    }

    /// A 64-bit FNV-1a fingerprint of the weighted topology: `n`, `m`, and
    /// every `(u, v, w)` triple in edge-id order.
    ///
    /// Weights are part of the digest, so reweighting a single edge changes
    /// the fingerprint — cache keys built on it distinguish instances that
    /// agree on shape but not on metric. Two graphs built from the same
    /// edge list (in either orientation — edges are normalized to `u < v`)
    /// fingerprint identically. The usual 64-bit collision caveat applies:
    /// this is a cache key, not a cryptographic identity.
    pub fn fingerprint(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut mix = |word: u64| {
            for byte in word.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(FNV_PRIME);
            }
        };
        mix(self.n as u64);
        mix(self.edges.len() as u64);
        for e in &self.edges {
            mix(u64::from(e.u.0));
            mix(u64::from(e.v.0));
            mix(e.w);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> WeightedGraph {
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1), 1).unwrap();
        b.add_edge(NodeId(1), NodeId(2), 2).unwrap();
        b.add_edge(NodeId(2), NodeId(0), 3).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn builds_and_indexes() {
        let g = triangle();
        assert_eq!(g.n(), 3);
        assert_eq!(g.m(), 3);
        assert_eq!(g.weight(EdgeId(1)), 2);
        assert_eq!(g.degree(NodeId(1)), 2);
        assert_eq!(g.find_edge(NodeId(0), NodeId(2)), Some(EdgeId(2)));
        assert_eq!(g.find_edge(NodeId(2), NodeId(0)), Some(EdgeId(2)));
    }

    #[test]
    fn rejects_self_loop() {
        let mut b = GraphBuilder::new(2);
        assert_eq!(
            b.add_edge(NodeId(0), NodeId(0), 1),
            Err(GraphError::SelfLoop(NodeId(0)))
        );
    }

    #[test]
    fn rejects_duplicate_regardless_of_orientation() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(NodeId(0), NodeId(1), 1).unwrap();
        assert_eq!(
            b.add_edge(NodeId(1), NodeId(0), 2),
            Err(GraphError::DuplicateEdge(NodeId(0), NodeId(1)))
        );
    }

    #[test]
    fn rejects_zero_weight() {
        let mut b = GraphBuilder::new(2);
        assert_eq!(
            b.add_edge(NodeId(0), NodeId(1), 0),
            Err(GraphError::ZeroWeight(NodeId(0), NodeId(1)))
        );
    }

    #[test]
    fn rejects_disconnected() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(NodeId(0), NodeId(1), 1).unwrap();
        b.add_edge(NodeId(2), NodeId(3), 1).unwrap();
        assert_eq!(b.build().err(), Some(GraphError::Disconnected));
    }

    #[test]
    fn rejects_out_of_range() {
        let mut b = GraphBuilder::new(2);
        assert!(matches!(
            b.add_edge(NodeId(0), NodeId(5), 1),
            Err(GraphError::NodeOutOfRange { .. })
        ));
    }

    #[test]
    fn components_of_edge_subsets() {
        let g = triangle();
        let comps = g.components_of(&[EdgeId(0)]);
        assert_eq!(comps[0], comps[1]);
        assert_ne!(comps[0], comps[2]);
        let all = g.components_of(&[EdgeId(0), EdgeId(1)]);
        assert!(all.iter().all(|&c| c == NodeId(0)));
    }

    #[test]
    fn edge_other_endpoint() {
        let g = triangle();
        let e = g.edge(EdgeId(0));
        assert_eq!(e.other(NodeId(0)), NodeId(1));
        assert_eq!(e.other(NodeId(1)), NodeId(0));
    }

    #[test]
    fn id_bits_reasonable() {
        let g = triangle();
        assert_eq!(g.id_bits(), 2);
    }

    #[test]
    fn from_edges_matches_builder_output() {
        let edges = vec![
            Edge {
                u: NodeId(1),
                v: NodeId(0),
                w: 1,
            }, // reversed orientation is normalized
            Edge {
                u: NodeId(1),
                v: NodeId(2),
                w: 2,
            },
            Edge {
                u: NodeId(2),
                v: NodeId(0),
                w: 3,
            },
        ];
        let g = WeightedGraph::from_edges(3, edges).unwrap();
        let b = triangle();
        assert_eq!(g.edges(), b.edges());
        for v in g.nodes() {
            assert_eq!(g.neighbors(v), b.neighbors(v));
        }
    }

    #[test]
    fn fingerprint_tracks_topology_and_weights() {
        let g = triangle();
        // Stable across clones and rebuilds of the same edge list.
        assert_eq!(g.fingerprint(), g.clone().fingerprint());
        assert_eq!(
            g.fingerprint(),
            WeightedGraph::from_edges(3, g.edges().to_vec())
                .unwrap()
                .fingerprint()
        );
        // A single reweight changes it.
        let mut reweighted = g.edges().to_vec();
        reweighted[1].w += 1;
        let g2 = WeightedGraph::from_edges(3, reweighted).unwrap();
        assert_ne!(g.fingerprint(), g2.fingerprint());
        // A different shape on the same node count changes it.
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1), 1).unwrap();
        b.add_edge(NodeId(1), NodeId(2), 2).unwrap();
        let path = b.build().unwrap();
        assert_ne!(g.fingerprint(), path.fingerprint());
    }

    #[test]
    fn with_weight_copies_only_the_edge_list() {
        let g = crate::generators::grid(4, 5, 9, 3);
        let e = EdgeId(7);
        let w = g.weight(e) + 5;
        let h = g.with_weight(e, w).unwrap();
        assert_eq!(h.weight(e), w);
        // Fingerprints exactly like a from-scratch rebuild of the patched
        // edge list.
        let mut edges = g.edges().to_vec();
        edges[e.idx()].w = w;
        let rebuilt = WeightedGraph::from_edges(g.n(), edges).unwrap();
        assert_eq!(h.fingerprint(), rebuilt.fingerprint());
        assert_ne!(h.fingerprint(), g.fingerprint());
        // Every neighbor slice is kept, in the very same allocation.
        for v in g.nodes() {
            assert_eq!(h.neighbors(v), rebuilt.neighbors(v));
            assert_eq!(h.neighbors(v).as_ptr(), g.neighbors(v).as_ptr());
        }
        assert_eq!(
            g.with_weight(e, 0).unwrap_err(),
            GraphError::ZeroWeight(g.edge(e).u, g.edge(e).v)
        );
    }

    #[test]
    fn with_weight_keeps_the_total_weight_below_inf() {
        let g = triangle(); // weights 1, 2, 3
        let others = 1 + 3;
        assert_eq!(
            g.with_weight(EdgeId(1), u64::MAX).unwrap_err(),
            GraphError::TotalWeightOverflow
        );
        assert_eq!(
            g.with_weight(EdgeId(1), INF - others).unwrap_err(),
            GraphError::TotalWeightOverflow
        );
        let h = g.with_weight(EdgeId(1), INF - others - 1).unwrap();
        assert_eq!(h.total_weight(&[EdgeId(0), EdgeId(1), EdgeId(2)]), INF - 1);
    }

    #[test]
    fn from_edges_rejects_what_the_builder_rejects() {
        let e = |u: u32, v: u32, w: Weight| Edge {
            u: NodeId(u),
            v: NodeId(v),
            w,
        };
        assert_eq!(
            WeightedGraph::from_edges(0, vec![]).unwrap_err(),
            GraphError::Empty
        );
        assert_eq!(
            WeightedGraph::from_edges(2, vec![e(0, 0, 1)]).unwrap_err(),
            GraphError::SelfLoop(NodeId(0))
        );
        assert_eq!(
            WeightedGraph::from_edges(2, vec![e(0, 1, 0)]).unwrap_err(),
            GraphError::ZeroWeight(NodeId(0), NodeId(1))
        );
        assert!(matches!(
            WeightedGraph::from_edges(2, vec![e(0, 5, 1)]).unwrap_err(),
            GraphError::NodeOutOfRange { .. }
        ));
        // Duplicates are caught from the sorted adjacency, in either
        // orientation.
        assert_eq!(
            WeightedGraph::from_edges(2, vec![e(0, 1, 1), e(1, 0, 2)]).unwrap_err(),
            GraphError::DuplicateEdge(NodeId(0), NodeId(1))
        );
        assert_eq!(
            WeightedGraph::from_edges(4, vec![e(0, 1, 1), e(2, 3, 1)]).unwrap_err(),
            GraphError::Disconnected
        );
    }
}
