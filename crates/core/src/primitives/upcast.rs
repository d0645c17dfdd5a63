//! Pipelined, cycle-filtered convergecast of candidate merges —
//! the MST-style "edge elimination" of Garay–Kutten–Peleg, as used by
//! Lemma 4.14 and Corollary 4.16.
//!
//! Every node holds a set of candidates (weighted edges of the candidate
//! multigraph `G_c` over terminals). Candidates stream up a BFS tree in
//! ascending order, one per edge per round; each node discards candidates
//! that close a cycle with smaller candidates it has already seen (safe by
//! the matroid argument: a locally-discarded candidate is also globally
//! redundant). The root consumes a globally ascending stream and either
//! drains it fully ([`UpcastMode::DrainAll`], used by Lemma 2.3's request
//! collection) or applies a verdict function that can accept-and-stop
//! ([`UpcastMode::PhaseDetect`], used per merge phase by Corollary 4.16,
//! where the phase ends at the first activity-changing merge); stopping
//! floods a `Stop` wave that aborts the remaining stream.
//!
//! The ascending-order guarantee is enforced with per-child watermarks:
//! a node forwards its minimal pending candidate only once every non-
//! exhausted child has streamed something at least as large (child streams
//! are themselves ascending). Exhaustion is signalled by `Done` messages
//! propagating up once subtrees drain.
//!
//! Node state is flat: a node borrows its children list from the tree,
//! its per-child watermarks live in one per-run arena with an entry per
//! tree edge, and the cycle filter (a union-find over the terminals) is
//! built only at nodes that hold a candidate. A node waiting on a child
//! (one that has not spoken yet, or whose watermark is below the next
//! pending candidate) votes done, so the executor lets it sleep until the
//! child's next message wakes it; the stream and every message are the
//! same as if it were invoked every round.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use dsf_congest::{
    id_bits, CongestConfig, Message, NodeCtx, Outbox, Protocol, RunMetrics, SimError,
};
use dsf_graph::dyadic::Dyadic;
use dsf_graph::union_find::UnionFind;
use dsf_graph::{EdgeId, NodeId, WeightedGraph};

use super::arena::Carve;
use super::{Children, Engine};

/// A candidate merge: an edge `{a, b}` of the candidate multigraph with
/// its merge time `mu`, induced by graph edge `edge`.
///
/// The derived ordering `(mu, a, b, edge)` is the paper's lexicographic
/// candidate order (Definition 4.12 / Lemma 4.13).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct UpcastCandidate {
    /// Merge time / reduced weight.
    pub mu: Dyadic,
    /// Smaller terminal index.
    pub a: u32,
    /// Larger terminal index.
    pub b: u32,
    /// The inducing graph edge.
    pub edge: EdgeId,
}

#[derive(Debug, Clone, Copy)]
enum UpMsg {
    Cand(UpcastCandidate),
    Done,
    Stop,
}

impl Message for UpMsg {
    fn encoded_bits(&self) -> usize {
        match self {
            UpMsg::Cand(c) => {
                c.mu.encoded_bits()
                    + id_bits(c.a as usize + 1)
                    + id_bits(c.b as usize + 1)
                    + id_bits(c.edge.0 as usize + 1)
                    + 2
            }
            UpMsg::Done | UpMsg::Stop => 2,
        }
    }
}

/// The root's decision for an accepted (cycle-free) candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpcastRootVerdict {
    /// Keep collecting.
    Accept,
    /// This candidate ends the phase: accept it and stop the stream.
    AcceptAndStop,
    /// Stop *without* accepting this candidate (used by the growth-phase
    /// variant when a candidate's merge time lies beyond the checkpoint
    /// threshold `μ̂`, Algorithm 2 line 16).
    StopBefore,
}

/// How the root terminates.
pub enum UpcastMode<'a> {
    /// Drain the entire stream.
    DrainAll,
    /// Ask the verdict function after each accepted candidate. The
    /// closure is `Send` because it lives inside a protocol node, which
    /// the sharded executor may move to a worker thread.
    PhaseDetect(Box<dyn FnMut(&UpcastCandidate) -> UpcastRootVerdict + Send + 'a>),
}

/// What a node knows of one child's candidate stream.
#[derive(Debug, Clone, Copy)]
enum ChildStream {
    /// Nothing received yet: nothing may be emitted until it speaks.
    Silent,
    /// The last candidate received (the stream is ascending).
    At(UpcastCandidate),
    /// The child's subtree has drained.
    Done,
}

struct UpcastNode<'a> {
    parent: Option<NodeId>,
    children: &'a [NodeId],
    /// Per child, in `children` order: this node's part of the run's
    /// arena, which has one entry per tree edge.
    streams: &'a mut [ChildStream],
    pending: BinaryHeap<Reverse<UpcastCandidate>>,
    /// The cycle filter: `prior` plus every candidate this node has let
    /// through. Built on first use, so nodes that never hold a candidate
    /// never build one.
    uf: Option<UnionFind>,
    prior: &'a [u32],
    sent_done: bool,
    stopped: bool,
    forwarded_stop: bool,
    /// Root only: accepted candidates and the verdict function.
    accepted: Vec<UpcastCandidate>,
    mode: Option<UpcastMode<'a>>,
    emit_stop: bool,
}

impl std::fmt::Debug for UpcastNode<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UpcastNode")
            .field("pending", &self.pending.len())
            .field("stopped", &self.stopped)
            .finish()
    }
}

impl UpcastNode<'_> {
    fn is_root(&self) -> bool {
        self.parent.is_none()
    }

    fn filter(&mut self) -> &mut UnionFind {
        let prior = self.prior;
        self.uf.get_or_insert_with(|| {
            let mut uf = UnionFind::new(prior.len());
            for (i, &rep) in prior.iter().enumerate() {
                uf.union(i, rep as usize);
            }
            uf
        })
    }

    /// Index of child `from`, searching forward from `hint`. Inbox
    /// senders are in ascending id order, and so are the children lists
    /// `build_bfs_tree` makes, so one walk serves the whole inbox; any
    /// other order falls back to a scan.
    fn child_index(&self, from: NodeId, hint: &mut usize) -> usize {
        while *hint < self.children.len() && self.children[*hint] < from {
            *hint += 1;
        }
        if self.children.get(*hint) != Some(&from) {
            *hint = self
                .children
                .iter()
                .position(|&c| c == from)
                .expect("only children send candidates and done");
        }
        *hint
    }

    /// Largest candidate we may currently emit: the min watermark over
    /// children that are still streaming (`None` = must wait).
    fn emit_bound(&self) -> Option<Option<UpcastCandidate>> {
        // Returns Some(bound) where bound=None means "unbounded";
        // outer None means "blocked by a silent child".
        let mut bound: Option<UpcastCandidate> = None;
        for stream in self.streams.iter() {
            match *stream {
                ChildStream::Done => {}
                ChildStream::Silent => return None,
                ChildStream::At(w) => bound = Some(bound.map_or(w, |b| b.min(w))),
            }
        }
        Some(bound)
    }

    /// Whether `step` would do anything on an empty inbox: pass on (or
    /// discard) a candidate, or report the subtree drained.
    fn can_act(&self) -> bool {
        let Some(bound) = self.emit_bound() else {
            return false;
        };
        match self.pending.peek() {
            Some(&Reverse(top)) => bound.is_none_or(|b| top <= b),
            None => !self.is_root() && !self.sent_done && bound.is_none(),
        }
    }

    /// Pops the minimal pending candidate that survives cycle filtering and
    /// respects the emit bound.
    fn next_emittable(&mut self) -> Option<UpcastCandidate> {
        let bound = self.emit_bound()?;
        loop {
            let &Reverse(top) = self.pending.peek()?;
            if let Some(b) = bound {
                if top > b {
                    return None;
                }
            }
            self.pending.pop();
            if self.filter().union(top.a as usize, top.b as usize) {
                return Some(top);
            }
            // Cycle with smaller candidates: discard and continue.
        }
    }

    fn step(&mut self, out: &mut Outbox<UpMsg>) {
        if self.stopped {
            if !self.forwarded_stop {
                self.forwarded_stop = true;
                for &c in self.children {
                    out.send(c, UpMsg::Stop);
                }
            }
            return;
        }
        if self.is_root() {
            // Consume as much of the globally-ascending stream as possible.
            // The verdict runs *before* the union so that `StopBefore` can
            // reject a candidate without distorting the cycle filter.
            while let Some(bound) = self.emit_bound() {
                let Some(&Reverse(top)) = self.pending.peek() else {
                    break;
                };
                if let Some(b) = bound {
                    if top > b {
                        break;
                    }
                }
                self.pending.pop();
                if self.filter().same(top.a as usize, top.b as usize) {
                    continue; // cycle with smaller accepted candidates
                }
                let verdict = match &mut self.mode {
                    Some(UpcastMode::DrainAll) | None => UpcastRootVerdict::Accept,
                    Some(UpcastMode::PhaseDetect(f)) => f(&top),
                };
                let stop = match verdict {
                    UpcastRootVerdict::Accept => {
                        self.filter().union(top.a as usize, top.b as usize);
                        self.accepted.push(top);
                        false
                    }
                    UpcastRootVerdict::AcceptAndStop => {
                        self.filter().union(top.a as usize, top.b as usize);
                        self.accepted.push(top);
                        true
                    }
                    UpcastRootVerdict::StopBefore => true,
                };
                if stop {
                    self.stopped = true;
                    self.emit_stop = true;
                    self.forwarded_stop = true;
                    for &ch in self.children {
                        out.send(ch, UpMsg::Stop);
                    }
                    return;
                }
            }
        } else {
            // Forward one candidate to the parent per round.
            if let Some(c) = self.next_emittable() {
                out.send(self.parent.unwrap(), UpMsg::Cand(c));
            } else if !self.sent_done
                && self.pending.is_empty()
                && self.streams.iter().all(|s| matches!(s, ChildStream::Done))
            {
                self.sent_done = true;
                out.send(self.parent.unwrap(), UpMsg::Done);
            }
        }
    }
}

impl Protocol for UpcastNode<'_> {
    type Msg = UpMsg;

    fn init(&mut self, _ctx: &NodeCtx, out: &mut Outbox<UpMsg>) {
        self.step(out);
    }

    fn round(&mut self, _ctx: &NodeCtx, inbox: &[(NodeId, UpMsg)], out: &mut Outbox<UpMsg>) {
        let mut hint = 0;
        for &(from, msg) in inbox {
            match msg {
                UpMsg::Cand(c) => {
                    let i = self.child_index(from, &mut hint);
                    self.streams[i] = ChildStream::At(c);
                    self.pending.push(Reverse(c));
                }
                UpMsg::Done => {
                    let i = self.child_index(from, &mut hint);
                    self.streams[i] = ChildStream::Done;
                }
                UpMsg::Stop => {
                    self.stopped = true;
                }
            }
        }
        self.step(out);
    }

    /// Done once the node has nothing left to do, or while it is waiting
    /// for a child: a node that cannot act before a message arrives may
    /// sleep, and the message wakes it.
    fn done(&self) -> bool {
        if self.stopped {
            return self.forwarded_stop || self.children.is_empty();
        }
        !self.can_act()
    }
}

/// Result of a filtered upcast.
#[derive(Debug, Clone)]
pub struct UpcastOutcome {
    /// Candidates accepted at the root, in ascending order.
    pub accepted: Vec<UpcastCandidate>,
    /// Whether the root stopped the stream early.
    pub stopped_early: bool,
    /// Simulation metrics.
    pub metrics: RunMetrics,
}

/// Runs the filtered upcast.
///
/// * `parent`, `children`: a BFS tree (root has `parent=None`), its
///   children lists ascending by id in one CSR array;
/// * `local`: per-node candidate sets;
/// * `prior`: component representative per terminal index (the connectivity
///   of `(T, F'_c)` from previous phases — Lemma 4.14's tagging);
/// * `mode`: drain fully or detect a phase end.
///
/// # Errors
///
/// Propagates simulator errors.
pub fn filtered_upcast(
    g: &WeightedGraph,
    parent: &[Option<NodeId>],
    children: &Children,
    local: Vec<Vec<UpcastCandidate>>,
    prior: &[u32],
    mode: UpcastMode<'_>,
    cfg: &CongestConfig,
) -> Result<UpcastOutcome, SimError> {
    let tree = (parent, children);
    filtered_upcast_on(Engine::Event, g, tree, local, prior, mode, cfg)
}

/// [`filtered_upcast`] on the given engine; `tree` is `(parent, children)`.
pub(crate) fn filtered_upcast_on(
    engine: Engine,
    g: &WeightedGraph,
    (parent, children): (&[Option<NodeId>], &Children),
    local: Vec<Vec<UpcastCandidate>>,
    prior: &[u32],
    mode: UpcastMode<'_>,
    cfg: &CongestConfig,
) -> Result<UpcastOutcome, SimError> {
    assert_eq!(local.len(), g.n());
    let root = g
        .nodes()
        .find(|v| parent[v.idx()].is_none())
        .expect("tree has a root");
    let mut streams = vec![ChildStream::Silent; children.edges()];
    let mut carve = Carve::new(&mut streams);
    let mut mode_slot = Some(mode);
    let nodes: Vec<UpcastNode> = g
        .nodes()
        .zip(local)
        .map(|(v, cands)| UpcastNode {
            parent: parent[v.idx()],
            children: children.of(v),
            streams: carve.take(children.of(v).len()),
            pending: cands.into_iter().map(Reverse).collect::<Vec<_>>().into(),
            uf: None,
            prior,
            sent_done: false,
            stopped: false,
            forwarded_stop: false,
            accepted: Vec::new(),
            mode: if v == root { mode_slot.take() } else { None },
            emit_stop: false,
        })
        .collect();
    let mut res = engine.run(g, nodes, cfg)?;
    let root_state = &mut res.states[root.idx()];
    Ok(UpcastOutcome {
        accepted: std::mem::take(&mut root_state.accepted),
        stopped_early: root_state.emit_stop,
        metrics: res.metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primitives::build_bfs_tree;
    use crate::primitives::engine::testing::assert_engines_agree;
    use dsf_graph::generators;

    /// One candidate per graph edge over 12 terminals, held by the
    /// smaller endpoint, through the BFS tree from node 0.
    fn upcast_on_edges(g: &WeightedGraph, engine: Engine, mode: UpcastMode<'_>) -> UpcastOutcome {
        let cfg = CongestConfig::for_graph(g);
        let bfs = build_bfs_tree(g, NodeId(0), &cfg).unwrap();
        let mut local = vec![Vec::new(); g.n()];
        for (i, e) in g.edges().iter().enumerate() {
            let (x, y) = ((e.u.0 * 7) % 12, (e.v.0 * 5 + 1) % 12);
            if x == y {
                continue;
            }
            local[e.u.idx().min(e.v.idx())].push(UpcastCandidate {
                mu: Dyadic::from_int(i128::from(e.w)),
                a: x.min(y),
                b: x.max(y),
                edge: EdgeId(i as u32),
            });
        }
        let prior: Vec<u32> = (0..12).map(|i| if i == 11 { 10 } else { i }).collect();
        let tree = (&bfs.parent[..], &bfs.children);
        filtered_upcast_on(engine, g, tree, local, &prior, mode, &cfg).unwrap()
    }

    #[test]
    fn engines_agree_draining() {
        assert_engines_agree(|g, engine| {
            let out = upcast_on_edges(g, engine, UpcastMode::DrainAll);
            assert!(!out.accepted.is_empty());
            (out.accepted, out.stopped_early, out.metrics)
        });
    }

    #[test]
    fn engines_agree_detecting_a_phase_end() {
        assert_engines_agree(|g, engine| {
            let mut seen = 0;
            let verdict = move |c: &UpcastCandidate| {
                seen += 1;
                if c.mu >= Dyadic::from_int(12) {
                    UpcastRootVerdict::StopBefore
                } else if seen == 4 {
                    UpcastRootVerdict::AcceptAndStop
                } else {
                    UpcastRootVerdict::Accept
                }
            };
            let out = upcast_on_edges(g, engine, UpcastMode::PhaseDetect(Box::new(verdict)));
            assert!(out.stopped_early);
            (out.accepted, out.stopped_early, out.metrics)
        });
    }

    fn cand(mu: i128, a: u32, b: u32, e: u32) -> UpcastCandidate {
        UpcastCandidate {
            mu: Dyadic::from_int(mu),
            a,
            b,
            edge: EdgeId(e),
        }
    }

    fn run_upcast(
        g: &WeightedGraph,
        local: Vec<Vec<UpcastCandidate>>,
        nterms: usize,
        mode: UpcastMode<'_>,
    ) -> UpcastOutcome {
        let cfg = CongestConfig::for_graph(g);
        let bfs = build_bfs_tree(g, NodeId(0), &cfg).unwrap();
        let prior: Vec<u32> = (0..nterms as u32).collect();
        filtered_upcast(g, &bfs.parent, &bfs.children, local, &prior, mode, &cfg).unwrap()
    }

    #[test]
    fn collects_in_ascending_order_and_filters_cycles() {
        let g = generators::path(6, 1);
        let mut local = vec![Vec::new(); 6];
        local[5] = vec![cand(3, 0, 1, 0)];
        local[2] = vec![cand(1, 1, 2, 1), cand(7, 0, 2, 2)]; // the 7 closes a cycle
        local[4] = vec![cand(2, 2, 3, 3)];
        let out = run_upcast(&g, local, 4, UpcastMode::DrainAll);
        let mus: Vec<i128> = out.accepted.iter().map(|c| c.mu.raw().0).collect();
        assert_eq!(mus, vec![1, 2, 3]);
        assert!(!out.stopped_early);
    }

    #[test]
    fn duplicate_pairs_are_deduplicated() {
        let g = generators::path(4, 1);
        let mut local = vec![Vec::new(); 4];
        local[1] = vec![cand(1, 0, 1, 0)];
        local[3] = vec![cand(2, 0, 1, 1)]; // same pair, larger mu: filtered
        let out = run_upcast(&g, local, 2, UpcastMode::DrainAll);
        assert_eq!(out.accepted.len(), 1);
        assert_eq!(out.accepted[0].mu, Dyadic::from_int(1));
    }

    #[test]
    fn phase_detect_stops_the_stream() {
        let g = generators::path(8, 1);
        let mut local = vec![Vec::new(); 8];
        for i in 0..7u32 {
            local[(i + 1) as usize] = vec![cand(i as i128 + 1, i, i + 1, i)];
        }
        let mut count = 0;
        let out = run_upcast(
            &g,
            local,
            8,
            UpcastMode::PhaseDetect(Box::new(move |_c| {
                count += 1;
                if count == 3 {
                    UpcastRootVerdict::AcceptAndStop
                } else {
                    UpcastRootVerdict::Accept
                }
            })),
        );
        assert_eq!(out.accepted.len(), 3);
        assert!(out.stopped_early);
        let mus: Vec<i128> = out.accepted.iter().map(|c| c.mu.raw().0).collect();
        assert_eq!(mus, vec![1, 2, 3]);
    }

    #[test]
    fn prior_partition_filters_known_cycles() {
        let g = generators::path(4, 1);
        let mut local = vec![Vec::new(); 4];
        local[2] = vec![cand(5, 0, 1, 0), cand(6, 2, 3, 1)];
        // Terminals 0 and 1 already share a component.
        let cfg = CongestConfig::for_graph(&g);
        let bfs = build_bfs_tree(&g, NodeId(0), &cfg).unwrap();
        let prior = vec![0, 0, 2, 3];
        let out = filtered_upcast(
            &g,
            &bfs.parent,
            &bfs.children,
            local,
            &prior,
            UpcastMode::DrainAll,
            &cfg,
        )
        .unwrap();
        assert_eq!(out.accepted.len(), 1);
        assert_eq!(out.accepted[0].a, 2);
    }

    #[test]
    fn pipelining_rounds_linear_in_items() {
        // All candidates at the far end of a path: rounds ≈ D + #items.
        let n = 16usize;
        let g = generators::path(n, 1);
        let items = 30u32;
        let mut local = vec![Vec::new(); n];
        local[n - 1] = (0..items)
            .map(|i| cand(i as i128 + 1, 2 * i, 2 * i + 1, i))
            .collect();
        let out = run_upcast(&g, local, (2 * items) as usize, UpcastMode::DrainAll);
        assert_eq!(out.accepted.len(), items as usize);
        assert!(
            out.metrics.rounds <= (n as u64 + items as u64 + 4),
            "rounds = {}",
            out.metrics.rounds
        );
    }

    #[test]
    fn empty_upcast_terminates() {
        let g = generators::path(5, 1);
        let out = run_upcast(&g, vec![Vec::new(); 5], 2, UpcastMode::DrainAll);
        assert!(out.accepted.is_empty());
    }
}
