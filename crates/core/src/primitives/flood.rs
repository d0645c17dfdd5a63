//! Flood-set dissemination: a set of `O(log n)`-bit items, initially
//! scattered over the nodes, must become known to *every* node.
//!
//! The paper broadcasts the terminal labels (distributed algorithm
//! Step 1), the per-phase merge sets `F_c^{(j)}` and the sets of the
//! Lemma 2.3/2.4 transformations over the BFS tree: pipelined, that takes
//! `O(D + #items)` rounds and `n − 1` messages per item. This module does
//! not use the tree. It gossips: every node forwards every item it learns
//! over each incident edge except the one the item came in on, one item
//! per edge per round, in per-edge FIFO order. Rounds stay
//! `O(D + #items)`, but each item costs `2m − n + 1` messages instead of
//! `n − 1`. Moving the root broadcasts onto the tree is ROADMAP item 3.
//!
//! # Node state
//!
//! The per-edge queues are not stored. Each node keeps an append-only log
//! of the items it has learned, in the order it learned them, and each of
//! its directed edge slots keeps a cursor into that log. A slot's queue is
//! the log past its cursor minus the items that arrived over that slot,
//! which is exactly what a FIFO per edge would hold, so the send order is
//! the same. Items get dense ids (their rank among the distinct items), so
//! "already known?" is one bit of a per-node bitset, and the wire message
//! carries the dense id, charged at the item's declared width. Logs,
//! cursors and bitsets are three per-run arenas: `n × #items` log entries
//! (what every node ends up holding anyway), one cursor per directed slot,
//! and `n × ⌈#items/64⌉` bitset words.

use dsf_congest::{CongestConfig, Message, NodeCtx, Outbox, Protocol, RunMetrics, SimError};
use dsf_graph::{NodeId, WeightedGraph};

use super::arena::{bit, set_bit, Carve};
use super::Engine;

/// An item being flooded: an opaque `u128` payload with a declared bit
/// width (checked against the bandwidth budget).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FloodItem {
    /// Payload bits.
    pub payload: u128,
    /// Number of meaningful bits (must be `O(log n)`).
    pub bits: u16,
}

/// The wire message: an item's dense id, charged at the item's declared
/// width.
#[derive(Debug, Clone, Copy)]
struct FloodMsg {
    id: u32,
    bits: u16,
}

impl Message for FloodMsg {
    fn encoded_bits(&self) -> usize {
        self.bits as usize
    }
}

/// Slot of the log entries a node held from the start.
const HELD: u32 = u32::MAX;

/// One learned item: its dense id and the local slot it arrived over.
#[derive(Debug, Clone, Copy, Default)]
struct Learned {
    id: u32,
    slot: u32,
}

#[derive(Debug)]
struct FloodNode<'a> {
    /// Learned items in learning order; the first `len` entries are set.
    log: &'a mut [Learned],
    len: u32,
    /// Per incident slot: the next log position to consider sending.
    cursor: &'a mut [u32],
    /// Bitset of known dense ids.
    known: &'a mut [u64],
    /// Declared width per dense id (shared by every node).
    widths: &'a [u16],
    /// Slots that still have an item to send.
    busy: u32,
}

impl FloodNode<'_> {
    /// Sends the head of every slot's queue and recounts the busy slots.
    fn flush(&mut self, ctx: &NodeCtx, out: &mut Outbox<FloodMsg>) {
        let log = &self.log[..self.len as usize];
        // The first log position at or after `c` that `slot` must send.
        let head = |mut c: usize, slot: u32| {
            while c < log.len() && log[c].slot == slot {
                c += 1;
            }
            c
        };
        let mut busy = 0;
        for (slot, (&(nb, _), cur)) in ctx
            .neighbors()
            .iter()
            .zip(self.cursor.iter_mut())
            .enumerate()
        {
            let slot = slot as u32;
            let mut c = head(*cur as usize, slot);
            if c < log.len() {
                let id = log[c].id;
                out.send(
                    nb,
                    FloodMsg {
                        id,
                        bits: self.widths[id as usize],
                    },
                );
                c = head(c + 1, slot);
                busy += u32::from(c < log.len());
            }
            *cur = c as u32;
        }
        self.busy = busy;
    }
}

impl Protocol for FloodNode<'_> {
    type Msg = FloodMsg;

    fn init(&mut self, ctx: &NodeCtx, out: &mut Outbox<FloodMsg>) {
        self.flush(ctx, out);
    }

    fn round(&mut self, ctx: &NodeCtx, inbox: &[(NodeId, FloodMsg)], out: &mut Outbox<FloodMsg>) {
        // Senders arrive in ascending id order and neighbors are sorted by
        // id, so one forward walk finds every sender's slot.
        let nbrs = ctx.neighbors();
        let mut slot = 0;
        for &(from, msg) in inbox {
            while nbrs[slot].0 != from {
                slot += 1;
            }
            if set_bit(self.known, msg.id as usize) {
                self.log[self.len as usize] = Learned {
                    id: msg.id,
                    slot: slot as u32,
                };
                self.len += 1;
            }
        }
        self.flush(ctx, out);
    }

    fn done(&self) -> bool {
        self.busy == 0
    }
}

/// Result of a flood.
#[derive(Debug, Clone)]
pub struct FloodOutcome {
    /// The union of all items (identical at every node on completion;
    /// asserted), sorted.
    pub items: Vec<FloodItem>,
    /// Simulation metrics.
    pub metrics: RunMetrics,
}

/// Floods `initial[v]` (items held by node `v`) until every node knows the
/// union; returns the union.
///
/// # Errors
///
/// Propagates simulator errors (e.g. an item wider than the bandwidth).
pub fn flood_items(
    g: &WeightedGraph,
    initial: Vec<Vec<FloodItem>>,
    cfg: &CongestConfig,
) -> Result<FloodOutcome, SimError> {
    flood_items_on(Engine::Event, g, initial, cfg)
}

/// [`flood_items`] on the given engine.
pub(crate) fn flood_items_on(
    engine: Engine,
    g: &WeightedGraph,
    initial: Vec<Vec<FloodItem>>,
    cfg: &CongestConfig,
) -> Result<FloodOutcome, SimError> {
    assert_eq!(initial.len(), g.n());
    let mut dense: Vec<FloodItem> = initial.iter().flatten().copied().collect();
    dense.sort_unstable();
    dense.dedup();
    let (d, words) = (dense.len(), dense.len().div_ceil(64));
    let widths: Vec<u16> = dense.iter().map(|item| item.bits).collect();
    let mut log = vec![Learned::default(); g.n() * d];
    let mut cursor = vec![0u32; 2 * g.m()];
    let mut known = vec![0u64; g.n() * words];
    let (mut logs, mut cursors, mut knowns) = (
        Carve::new(&mut log),
        Carve::new(&mut cursor),
        Carve::new(&mut known),
    );
    let nodes: Vec<FloodNode> = g
        .nodes()
        .map(|v| {
            let (log, known) = (logs.take(d), knowns.take(words));
            // A node starts with its distinct initial items, in item order.
            let mut len = 0;
            for item in &initial[v.idx()] {
                let id = dense.binary_search(item).expect("every item has an id");
                if set_bit(known, id) {
                    log[len] = Learned {
                        id: id as u32,
                        slot: HELD,
                    };
                    len += 1;
                }
            }
            log[..len].sort_unstable_by_key(|l| l.id);
            FloodNode {
                log,
                len: len as u32,
                cursor: cursors.take(g.degree(v)),
                known,
                widths: &widths,
                busy: 0,
            }
        })
        .collect();
    drop(initial);
    let res = engine.run(g, nodes, cfg)?;
    let items: Vec<FloodItem> = (0..d)
        .filter(|&i| bit(res.states[0].known, i))
        .map(|i| dense[i])
        .collect();
    for s in &res.states {
        debug_assert_eq!(s.len as usize, items.len(), "flood did not converge");
    }
    Ok(FloodOutcome {
        items,
        metrics: res.metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primitives::engine::testing::assert_engines_agree;
    use dsf_graph::generators;

    fn item(x: u128) -> FloodItem {
        FloodItem {
            payload: x,
            bits: 32,
        }
    }

    #[test]
    fn all_nodes_learn_everything() {
        let g = generators::gnp_connected(15, 0.2, 5, 1);
        let mut initial = vec![Vec::new(); 15];
        initial[3] = vec![item(100), item(101)];
        initial[9] = vec![item(200)];
        let out = flood_items(&g, initial, &CongestConfig::for_graph(&g)).unwrap();
        assert_eq!(out.items, vec![item(100), item(101), item(200)]);
    }

    #[test]
    fn pipelines_on_a_path() {
        // 40 items at one end of a 20-path: rounds ≈ D + #items, not D·#items.
        let g = generators::path(20, 1);
        let mut initial = vec![Vec::new(); 20];
        initial[0] = (0..40).map(item).collect();
        let out = flood_items(&g, initial, &CongestConfig::for_graph(&g)).unwrap();
        assert_eq!(out.items.len(), 40);
        assert!(
            out.metrics.rounds <= (19 + 40 + 2) as u64,
            "rounds = {} — pipelining broken",
            out.metrics.rounds
        );
    }

    #[test]
    fn empty_flood_is_instant() {
        let g = generators::path(5, 1);
        let out = flood_items(&g, vec![Vec::new(); 5], &CongestConfig::for_graph(&g)).unwrap();
        assert!(out.items.is_empty());
        assert_eq!(out.metrics.rounds, 0);
    }

    #[test]
    fn engines_agree() {
        assert_engines_agree(|g, engine| {
            // Items on every third node, some held twice, two widths.
            let mut initial = vec![Vec::new(); g.n()];
            for v in (0..g.n()).step_by(3) {
                initial[v].push(item(v as u128 % 5));
                initial[v].push(FloodItem {
                    payload: v as u128,
                    bits: 16,
                });
            }
            let out = flood_items_on(engine, g, initial, &CongestConfig::for_graph(g)).unwrap();
            assert_eq!(out.items.len(), 5 + g.n().div_ceil(3));
            (out.items, out.metrics)
        });
    }
}
