//! Distributed input transformations.
//!
//! * [`cr_to_ic`] — Lemma 2.3: converts connection requests (DSF-CR) into
//!   equivalent input components (DSF-IC) in `O(t + D)` rounds: requests
//!   stream up a BFS tree with cycle filtering (a forest on `T` has at most
//!   `t − 1` edges), the surviving forest is broadcast, and every node
//!   locally labels each terminal with the smallest terminal id of its
//!   connectivity class.
//! * [`minimalize`] — Lemma 2.4: drops singleton components in `O(k + D)`
//!   rounds: for each label at most two `(λ, terminal)` witnesses are
//!   forwarded towards the root, which broadcasts the set of labels with
//!   at least two terminals.

use std::collections::{HashMap, HashSet};

use dsf_congest::{
    id_bits, CongestConfig, Message, NodeCtx, Outbox, Protocol, RoundLedger, SimError,
};
use dsf_graph::dyadic::Dyadic;
use dsf_graph::union_find::UnionFind;
use dsf_graph::{EdgeId, NodeId, WeightedGraph};
use dsf_steiner::{ConnectionRequests, Instance, InstanceBuilder};

use crate::primitives::{
    build_bfs_tree, filtered_upcast, flood_items, flood_items_on, Engine, FloodItem,
    UpcastCandidate, UpcastMode,
};

/// Lemma 2.3: transforms a DSF-CR input into an equivalent DSF-IC instance.
///
/// Returns the instance together with the round ledger
/// (`O(t + D)` total).
///
/// # Errors
///
/// Propagates simulator errors.
pub fn cr_to_ic(
    g: &WeightedGraph,
    cr: &ConnectionRequests,
    cfg: &CongestConfig,
) -> Result<(Instance, RoundLedger), SimError> {
    let mut ledger = RoundLedger::new();
    let terminals = cr.terminals();
    let tidx: HashMap<NodeId, u32> = terminals
        .iter()
        .enumerate()
        .map(|(i, &t)| (t, i as u32))
        .collect();

    let bfs = build_bfs_tree(g, NodeId(0), cfg)?;
    ledger.record("BFS tree construction", &bfs.metrics);

    // Requests as zero-weight candidates over terminal indices; the
    // filtered upcast keeps a spanning forest of the request graph
    // (at most t−1 items survive — the paper's pipelining argument).
    let mut local: Vec<Vec<UpcastCandidate>> = vec![Vec::new(); g.n()];
    let mut synth = 0u32;
    for v in g.nodes() {
        for &w in cr.of(v) {
            let (a, b) = {
                let (ia, ib) = (tidx[&v], tidx[&w]);
                if ia < ib {
                    (ia, ib)
                } else {
                    (ib, ia)
                }
            };
            local[v.idx()].push(UpcastCandidate {
                mu: Dyadic::ZERO,
                a,
                b,
                edge: EdgeId(synth), // synthetic id: only a tiebreaker here
            });
            synth += 1;
        }
    }
    let prior: Vec<u32> = (0..terminals.len() as u32).collect();
    let up = filtered_upcast(
        g,
        &bfs.parent,
        &bfs.children,
        local,
        &prior,
        UpcastMode::DrainAll,
        cfg,
    )?;
    ledger.record("request forest convergecast (≤ t−1 items)", &up.metrics);
    ledger.charge("convergecast termination O(D)", bfs.height() as u64);

    // Broadcast the surviving forest.
    let items: Vec<FloodItem> = up
        .accepted
        .iter()
        .map(|c| FloodItem {
            payload: ((c.a as u128) << 32) | c.b as u128,
            bits: 2 * id_bits(g.n()).max(16) as u16,
        })
        .collect();
    let mut initial = vec![Vec::new(); g.n()];
    initial[bfs.root.idx()] = items;
    let fl = flood_items(g, initial, cfg)?;
    ledger.record("request forest broadcast", &fl.metrics);

    // Local labeling: connectivity classes of the request forest, labeled
    // by smallest terminal id.
    let mut uf = UnionFind::new(terminals.len());
    for c in &up.accepted {
        uf.union(c.a as usize, c.b as usize);
    }
    let mut groups: HashMap<usize, Vec<NodeId>> = HashMap::new();
    for (i, &t) in terminals.iter().enumerate() {
        groups.entry(uf.find(i)).or_default().push(t);
    }
    let mut keys: Vec<usize> = groups.keys().copied().collect();
    keys.sort_by_key(|&r| groups[&r][0]);
    let mut b = InstanceBuilder::new(g);
    for key in keys {
        b = b.component(&groups[&key]);
    }
    let inst = b.build().expect("request classes are disjoint");
    Ok((inst, ledger))
}

/// A `(label, witness-or-many)` report flowing towards the root.
#[derive(Debug, Clone, Copy)]
enum MinMsg {
    /// A distinct terminal witness for a label.
    Witness { label: u32, term: NodeId },
    /// The label is known to have ≥ 2 terminals.
    Many { label: u32 },
}

impl Message for MinMsg {
    fn encoded_bits(&self) -> usize {
        match self {
            MinMsg::Witness { label, term } => {
                1 + id_bits(*label as usize + 1) + id_bits(term.0 as usize + 1)
            }
            MinMsg::Many { label } => 1 + id_bits(*label as usize + 1),
        }
    }
}

/// What a node has heard about one label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Heard {
    /// One terminal witness.
    One(NodeId),
    /// Two or more distinct terminals (or a `Many` report).
    Many,
}

/// Convergecast node: forwards at most one witness per label and
/// collapses a second one into `Many`, so each node sends `O(k)` messages
/// in total.
#[derive(Debug)]
struct MinNode {
    parent: Option<NodeId>,
    /// Per label heard of, sorted by label.
    heard: Vec<(u32, Heard)>,
    /// Reports for the parent, in order; the first `sent` are sent.
    outq: Vec<MinMsg>,
    sent: usize,
}

impl MinNode {
    fn ingest(&mut self, msg: MinMsg) {
        let (label, term) = match msg {
            MinMsg::Witness { label, term } => (label, Some(term)),
            MinMsg::Many { label } => (label, None),
        };
        let report = match self.heard.binary_search_by_key(&label, |&(l, _)| l) {
            Err(i) => {
                let heard = term.map_or(Heard::Many, Heard::One);
                self.heard.insert(i, (label, heard));
                match heard {
                    Heard::One(term) => MinMsg::Witness { label, term },
                    Heard::Many => MinMsg::Many { label },
                }
            }
            Ok(i) => match self.heard[i].1 {
                Heard::Many => return,
                Heard::One(first) if Some(first) == term => return,
                Heard::One(_) => {
                    self.heard[i].1 = Heard::Many;
                    MinMsg::Many { label }
                }
            },
        };
        // The root reports to no one.
        if self.parent.is_some() {
            self.outq.push(report);
        }
    }

    fn flush(&mut self, out: &mut Outbox<MinMsg>) {
        if let (Some(p), Some(&m)) = (self.parent, self.outq.get(self.sent)) {
            out.send(p, m);
            self.sent += 1;
        }
    }
}

impl Protocol for MinNode {
    type Msg = MinMsg;

    fn init(&mut self, _ctx: &NodeCtx, out: &mut Outbox<MinMsg>) {
        self.flush(out);
    }

    fn round(&mut self, _ctx: &NodeCtx, inbox: &[(NodeId, MinMsg)], out: &mut Outbox<MinMsg>) {
        for &(_, msg) in inbox {
            self.ingest(msg);
        }
        self.flush(out);
    }

    fn done(&self) -> bool {
        self.sent == self.outq.len()
    }
}

/// Determines which labels currently have **two or more** distinct holders
/// (Lemma 2.4's convergecast, also Step 3a of the randomized algorithm):
/// `holders[v]` lists the labels node `v` currently holds. Runs the capped
/// convergecast (`≤ 2` witnesses per label) followed by a broadcast of the
/// multi-holder label set; `O(k + D)` rounds, recorded into `ledger`.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn multi_holder_labels(
    g: &WeightedGraph,
    bfs: &crate::primitives::BfsOutcome,
    holders: &[Vec<u32>],
    cfg: &CongestConfig,
    ledger: &mut RoundLedger,
) -> Result<HashSet<u32>, SimError> {
    multi_holder_labels_on(Engine::Event, g, bfs, holders, cfg, ledger)
}

/// [`multi_holder_labels`] on the given engine.
pub(crate) fn multi_holder_labels_on(
    engine: Engine,
    g: &WeightedGraph,
    bfs: &crate::primitives::BfsOutcome,
    holders: &[Vec<u32>],
    cfg: &CongestConfig,
    ledger: &mut RoundLedger,
) -> Result<HashSet<u32>, SimError> {
    let nodes: Vec<MinNode> = g
        .nodes()
        .map(|v| {
            let mut node = MinNode {
                parent: bfs.parent[v.idx()],
                heard: Vec::new(),
                outq: Vec::new(),
                sent: 0,
            };
            for &l in &holders[v.idx()] {
                node.ingest(MinMsg::Witness { label: l, term: v });
            }
            node
        })
        .collect();
    let res = engine.run(g, nodes, cfg)?;
    ledger.record(
        "label multiplicity convergecast (≤ 2 per label)",
        &res.metrics,
    );
    ledger.charge("convergecast termination O(D)", bfs.height() as u64);

    let root_state = &res.states[bfs.root.idx()];
    let keep: HashSet<u32> = root_state
        .heard
        .iter()
        .filter(|(_, heard)| *heard == Heard::Many)
        .map(|&(l, _)| l)
        .collect();
    let items: Vec<FloodItem> = keep
        .iter()
        .map(|&l| FloodItem {
            payload: l as u128,
            bits: id_bits(keep.len().max(2)).max(8) as u16,
        })
        .collect();
    let mut initial = vec![Vec::new(); g.n()];
    initial[bfs.root.idx()] = items;
    let fl = flood_items_on(engine, g, initial, cfg)?;
    ledger.record("multi-holder label broadcast (k items)", &fl.metrics);
    Ok(keep)
}

/// Lemma 2.4: produces the equivalent minimal instance (singleton
/// components dropped) in `O(k + D)` rounds.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn minimalize(
    g: &WeightedGraph,
    inst: &Instance,
    cfg: &CongestConfig,
) -> Result<(Instance, RoundLedger), SimError> {
    let mut ledger = RoundLedger::new();
    let bfs = build_bfs_tree(g, NodeId(0), cfg)?;
    ledger.record("BFS tree construction", &bfs.metrics);

    let holders: Vec<Vec<u32>> = g
        .nodes()
        .map(|v| inst.label(v).map(|l| vec![l.0]).unwrap_or_default())
        .collect();
    let keep = multi_holder_labels(g, &bfs, &holders, cfg, &mut ledger)?;

    // Locally drop labels outside `keep`.
    let mut b = InstanceBuilder::new(g);
    for (li, comp) in inst.components().iter().enumerate() {
        if keep.contains(&(li as u32)) {
            b = b.component(comp);
        }
    }
    Ok((b.build().expect("subset of a valid instance"), ledger))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primitives::engine::testing::assert_engines_agree;
    use dsf_graph::generators;

    #[test]
    fn multi_holder_engines_agree() {
        assert_engines_agree(|g, engine| {
            let cfg = CongestConfig::for_graph(g);
            let bfs = build_bfs_tree(g, NodeId(0), &cfg).unwrap();
            // Labels 0..6 on every other node (label 5 on one node only),
            // two labels on some nodes.
            let holders: Vec<Vec<u32>> = g
                .nodes()
                .map(|v| match v.0 % 6 {
                    0 => vec![(v.0 / 6) % 5],
                    2 => vec![(v.0 / 6) % 5, ((v.0 / 6) + 2) % 5],
                    4 if v.0 == 4 => vec![5],
                    _ => Vec::new(),
                })
                .collect();
            let mut ledger = RoundLedger::new();
            let keep =
                multi_holder_labels_on(engine, g, &bfs, &holders, &cfg, &mut ledger).unwrap();
            let mut keep: Vec<u32> = keep.into_iter().collect();
            keep.sort_unstable();
            assert!(!keep.contains(&5));
            (keep, ledger)
        });
    }

    #[test]
    fn cr_to_ic_matches_centralized_reference() {
        let g = generators::gnp_connected(20, 0.2, 8, 3);
        let mut cr = ConnectionRequests::new(g.n());
        cr.request(NodeId(0), NodeId(5));
        cr.request(NodeId(5), NodeId(9));
        cr.request(NodeId(2), NodeId(11));
        cr.request(NodeId(11), NodeId(2)); // symmetric duplicate
        let cfg = CongestConfig::for_graph(&g);
        let (inst, ledger) = cr_to_ic(&g, &cr, &cfg).unwrap();
        let reference = cr.to_components(&g);
        assert_eq!(inst.k(), reference.k());
        for v in g.nodes() {
            assert_eq!(
                inst.label(v).is_some(),
                reference.label(v).is_some(),
                "terminal status differs at {v}"
            );
        }
        // 0,5,9 transitively share a component.
        assert_eq!(inst.label(NodeId(0)), inst.label(NodeId(9)));
        assert_ne!(inst.label(NodeId(0)), inst.label(NodeId(2)));
        assert!(ledger.total() > 0);
    }

    #[test]
    fn cr_to_ic_rounds_scale_with_t_plus_d() {
        // Many requests on a path: rounds must stay near D + t, not D·t.
        let n = 24;
        let g = generators::path(n, 1);
        let mut cr = ConnectionRequests::new(n);
        for i in 0..10u32 {
            cr.request(NodeId(i), NodeId(i + 10));
        }
        let cfg = CongestConfig::for_graph(&g);
        let (_, ledger) = cr_to_ic(&g, &cr, &cfg).unwrap();
        let bound = 3 * (n as u64 - 1) + 3 * 20 + 20; // ~3D + 3t slack
        assert!(ledger.total() <= bound, "{} > {bound}", ledger.total());
    }

    #[test]
    fn minimalize_drops_singletons() {
        let g = generators::gnp_connected(15, 0.25, 6, 1);
        let inst = InstanceBuilder::new(&g)
            .component(&[NodeId(0)])
            .component(&[NodeId(1), NodeId(2)])
            .component(&[NodeId(5)])
            .component(&[NodeId(7), NodeId(8), NodeId(9)])
            .build()
            .unwrap();
        let cfg = CongestConfig::for_graph(&g);
        let (min, ledger) = minimalize(&g, &inst, &cfg).unwrap();
        assert_eq!(min.k(), 2);
        assert!(min.is_minimal());
        assert_eq!(min.label(NodeId(0)), None);
        assert_eq!(min.label(NodeId(5)), None);
        assert!(min.label(NodeId(8)).is_some());
        assert!(ledger.total() > 0);
    }

    #[test]
    fn minimalize_is_identity_on_minimal_instances() {
        let g = generators::gnp_connected(12, 0.3, 5, 2);
        let inst = dsf_steiner::random_instance(&g, 3, 2, 2);
        let cfg = CongestConfig::for_graph(&g);
        let (min, _) = minimalize(&g, &inst, &cfg).unwrap();
        assert_eq!(min.k(), inst.k());
        assert_eq!(min.t(), inst.t());
    }

    #[test]
    fn minimalize_message_budget_is_k_bound() {
        // Component count small, terminal count large: convergecast
        // messages must scale with k, not t.
        let n = 30;
        let g = generators::path(n, 1);
        let all: Vec<NodeId> = g.nodes().collect();
        let inst = InstanceBuilder::new(&g).component(&all).build().unwrap();
        let cfg = CongestConfig::for_graph(&g);
        let (_, ledger) = minimalize(&g, &inst, &cfg).unwrap();
        // One label: every node forwards at most 2 witnesses + 1 many.
        let conv = &ledger.entries()[1];
        assert!(
            conv.messages <= 3 * n as u64,
            "messages {} not O(k·D)",
            conv.messages
        );
    }
}
