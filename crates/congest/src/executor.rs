//! The synchronous round executor: shared model types plus the naive
//! reference implementation.
//!
//! The production executor is the event-driven active-set scheduler in
//! [`crate::scheduler`] (re-exported as [`crate::run`]). This module keeps
//! the model vocabulary — [`CongestConfig`], [`Protocol`], [`Outbox`],
//! [`RunMetrics`], [`SimError`] — and [`run_reference`], the
//! call-everyone-every-round loop whose observable behavior the scheduler
//! must reproduce bit-for-bit (property-tested in
//! `tests/scheduler_equivalence.rs`).

use std::collections::HashSet;
use std::fmt;

use dsf_graph::{EdgeId, NodeId, Weight, WeightedGraph};

use crate::message::{id_bits, Message};

/// Configuration of a simulation run.
#[derive(Debug, Clone)]
pub struct CongestConfig {
    /// Per-edge per-round bandwidth budget in bits (`B(n) = Θ(log n)`).
    pub bandwidth_bits: usize,
    /// Abort the run after this many rounds (guards against protocols that
    /// fail to reach quiescence).
    pub max_rounds: u64,
    /// Edges whose traffic is metered separately (lower-bound experiments
    /// measure the bits crossing the Alice/Bob cut of Figure 1).
    pub metered_cut: HashSet<EdgeId>,
}

impl CongestConfig {
    /// Default budget for an `n`-node network.
    ///
    /// The model allows `c · log n` bits; we fix the generous but honest
    /// constant `c = 32` plus a 192-bit slack so that one message can carry
    /// a small constant number of ids, one weight, and one dyadic value.
    /// All protocol messages in this repository fit; anything larger is a
    /// pipelining bug and aborts the run.
    pub fn for_graph(g: &WeightedGraph) -> Self {
        CongestConfig {
            bandwidth_bits: 32 * id_bits(g.n()) + 192,
            max_rounds: 4_000_000,
            metered_cut: HashSet::new(),
        }
    }

    /// Same as [`CongestConfig::for_graph`] with a metered edge cut.
    pub fn with_metered_cut(g: &WeightedGraph, cut: impl IntoIterator<Item = EdgeId>) -> Self {
        let mut cfg = Self::for_graph(g);
        cfg.metered_cut = cut.into_iter().collect();
        cfg
    }
}

/// Errors aborting a simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A message exceeded the bandwidth budget.
    BandwidthExceeded {
        /// Sender.
        from: NodeId,
        /// Receiver.
        to: NodeId,
        /// Offending message size.
        bits: usize,
        /// Configured budget.
        budget: usize,
        /// Round in which it happened.
        round: u64,
    },
    /// Two messages were enqueued on the same edge in the same round.
    DuplicateSend {
        /// Sender.
        from: NodeId,
        /// Receiver.
        to: NodeId,
        /// Round in which it happened.
        round: u64,
    },
    /// A node attempted to message a non-neighbor.
    NotANeighbor {
        /// Sender.
        from: NodeId,
        /// Intended receiver.
        to: NodeId,
    },
    /// The protocol did not reach quiescence within `max_rounds`.
    MaxRoundsExceeded {
        /// The configured limit.
        limit: u64,
    },
    /// Node count mismatch: the protocol states handed to the executor,
    /// or the instance handed to a solver session, do not cover the
    /// graph's nodes one to one.
    WrongNodeCount {
        /// Nodes in the graph.
        expected: usize,
        /// Protocol states, or instance nodes, supplied.
        got: usize,
    },
    /// The graph exceeds the compact executor's u32 arena: node ids,
    /// slot offsets, and shard bounds are all `u32`, so `n` or the
    /// directed-slot count `2m` reaching `u32::MAX` is rejected up front
    /// instead of truncating ids.
    ArenaOverflow {
        /// Nodes in the graph.
        nodes: usize,
        /// Undirected edges in the graph.
        edges: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::BandwidthExceeded {
                from,
                to,
                bits,
                budget,
                round,
            } => write!(
                f,
                "round {round}: message {from}->{to} is {bits} bits, budget {budget}"
            ),
            SimError::DuplicateSend { from, to, round } => {
                write!(f, "round {round}: duplicate send {from}->{to}")
            }
            SimError::NotANeighbor { from, to } => {
                write!(f, "{from} attempted to message non-neighbor {to}")
            }
            SimError::MaxRoundsExceeded { limit } => {
                write!(f, "no quiescence within {limit} rounds")
            }
            SimError::WrongNodeCount { expected, got } => {
                write!(
                    f,
                    "graph has {expected} nodes but {got} states or instance nodes were given"
                )
            }
            SimError::ArenaOverflow { nodes, edges } => {
                write!(
                    f,
                    "graph with {nodes} nodes / {edges} edges exceeds the u32 slot arena \
                     (need n < u32::MAX and 2m < u32::MAX)"
                )
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Read-only view a node has of its surroundings: its id, its neighbors and
/// incident edge weights, plus the globally known scalars `n` and the
/// current round (a synchronous network has a shared round counter).
#[derive(Debug, Clone, Copy)]
pub struct NodeCtx<'a> {
    /// This node's identifier.
    pub id: NodeId,
    /// Total number of nodes (CONGEST algorithms may assume `n` known; the
    /// paper's footnote 2 shows how to compute it in `O(D)` otherwise).
    pub n: usize,
    /// Current round number (0 during `init`).
    pub round: u64,
    graph: &'a WeightedGraph,
}

impl<'a> NodeCtx<'a> {
    pub(crate) fn new(id: NodeId, n: usize, round: u64, graph: &'a WeightedGraph) -> Self {
        NodeCtx {
            id,
            n,
            round,
            graph,
        }
    }

    /// Neighbors of this node: `(neighbor, edge id)`, sorted by neighbor id.
    pub fn neighbors(&self) -> &'a [(NodeId, EdgeId)] {
        self.graph.neighbors(self.id)
    }

    /// Weight of an incident edge.
    pub fn weight(&self, e: EdgeId) -> Weight {
        self.graph.weight(e)
    }

    /// Degree of this node.
    pub fn degree(&self) -> usize {
        self.graph.degree(self.id)
    }
}

/// Per-round outgoing message buffer.
///
/// Model enforcement — at most one message per neighbor per round, only to
/// neighbors, within the bandwidth budget — happens when the executor
/// commits the round; violations surface as [`SimError`]. `send` itself is
/// O(1): the old per-send duplicate scan (O(degree²) per node per round in
/// the worst case) moved into the executor's flat-buffer commit, which
/// checks a per-target seen mark instead.
#[derive(Debug)]
pub struct Outbox<M> {
    from: NodeId,
    msgs: Vec<(NodeId, M)>,
}

impl<M: Message> Outbox<M> {
    pub(crate) fn new(from: NodeId) -> Self {
        Outbox {
            from,
            msgs: Vec::new(),
        }
    }

    /// An outbox reusing previously allocated storage (cleared).
    pub(crate) fn recycled(from: NodeId, mut storage: Vec<(NodeId, M)>) -> Self {
        storage.clear();
        Outbox {
            from,
            msgs: storage,
        }
    }

    /// Returns the storage for reuse by the next node.
    pub(crate) fn into_storage(self) -> Vec<(NodeId, M)> {
        self.msgs
    }

    pub(crate) fn from(&self) -> NodeId {
        self.from
    }

    pub(crate) fn msgs_mut(&mut self) -> &mut Vec<(NodeId, M)> {
        &mut self.msgs
    }

    /// Sends `msg` to neighbor `to`. At most one message per neighbor per
    /// round; violations surface as [`SimError`] when the round is
    /// committed.
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.msgs.push((to, msg));
    }

    /// Sends a copy of `msg` to every neighbor.
    pub fn send_all(&mut self, ctx: &NodeCtx, msg: M) {
        for &(nb, _) in ctx.neighbors() {
            self.send(nb, msg.clone());
        }
    }

    /// Whether anything was enqueued this round.
    pub fn is_empty(&self) -> bool {
        self.msgs.is_empty()
    }
}

/// A per-node state machine executing in the CONGEST model.
///
/// One value of the implementing type exists per node. The executor calls
/// [`Protocol::init`] once (round 0, output delivered in round 1) and then
/// [`Protocol::round`] until quiescence: every node reports
/// [`Protocol::done`] *and* no message is in flight.
pub trait Protocol {
    /// Message type of this protocol.
    type Msg: Message;

    /// One-time initialization; may send messages.
    fn init(&mut self, ctx: &NodeCtx, out: &mut Outbox<Self::Msg>);

    /// One synchronous round: consume last round's messages, send this
    /// round's.
    fn round(&mut self, ctx: &NodeCtx, inbox: &[(NodeId, Self::Msg)], out: &mut Outbox<Self::Msg>);

    /// Local termination vote: "I have no pending local work".
    ///
    /// The run quiesces once all nodes vote done and the network is quiet;
    /// a done node may be woken by a late message and may then change its
    /// vote.
    ///
    /// **Contract:** a node voting done must be a no-op on an empty inbox —
    /// its `round` must neither send nor change state until a message
    /// arrives. The event-driven executor ([`crate::run`]) relies on this
    /// to skip idle nodes entirely; a protocol that votes done and keeps
    /// talking terminates early there (the skipped sends never happen).
    /// [`run_reference`] invokes every node every round and therefore
    /// exposes such contract violations as runaway or divergent runs.
    fn done(&self) -> bool;
}

/// Aggregate statistics of a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunMetrics {
    /// Number of executed rounds (quiescence round inclusive).
    pub rounds: u64,
    /// Total messages delivered.
    pub messages: u64,
    /// Total bits delivered.
    pub total_bits: u64,
    /// Largest single message observed, in bits.
    pub max_message_bits: usize,
    /// Bits that crossed the metered cut (0 if no cut configured).
    pub cut_bits: u64,
}

/// Scheduler work counters. Unlike [`RunMetrics`] these describe the
/// *executor's* effort, not the protocol's model cost, so they differ
/// between [`crate::run`] and [`run_reference`] on the same workload —
/// that difference is the point (see `bench_runner`).
///
/// The struct carries two kinds of fields with different contracts:
///
/// * **deterministic** (`activations`, `wakeups`) — per-node facts that
///   are bit-identical at every thread count; these and only these
///   participate in `==` (the manual [`PartialEq`] below), so the
///   cross-executor equivalence asserts stay meaningful;
/// * **report-only** (`workers`) — wall-clock-dependent scheduling
///   telemetry from the work-stealing engine that legitimately varies
///   from run to run and is excluded from equality. Consumers that
///   persist stats (the bench schema) must keep the same separation.
#[derive(Debug, Clone, Default, Eq)]
pub struct SchedStats {
    /// Number of [`Protocol::round`] invocations (`init` excluded).
    pub activations: u64,
    /// Invocations of nodes that had voted done and were woken by a
    /// delivery. Only tracked by the event-driven executor; 0 under
    /// [`run_reference`].
    pub wakeups: u64,
    /// Report-only per-worker effort counters, indexed by worker id.
    /// Empty for single-threaded runs; length = thread count under
    /// [`crate::run_sharded`]. **Not** part of `==`.
    pub workers: Vec<WorkerObs>,
}

impl PartialEq for SchedStats {
    /// Deterministic fields only: two runs compare equal when their
    /// scheduler did the same *observable* work, regardless of how the
    /// work-stealing engine happened to distribute it across workers.
    fn eq(&self, other: &Self) -> bool {
        self.activations == other.activations && self.wakeups == other.wakeups
    }
}

/// Report-only effort counters of one worker thread in a
/// [`crate::run_sharded`] run. All fields depend on OS scheduling and
/// steal timing — they describe load balance, never outcomes, and are
/// deliberately excluded from [`SchedStats`] equality.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerObs {
    /// Rounds in which this worker processed at least one chunk with work.
    pub rounds_participated: u64,
    /// Active-set slots (node invocations, `init` included) this worker
    /// executed.
    pub slots_processed: u64,
    /// Chunks this worker claimed from another worker's home range and
    /// found work in.
    pub chunks_stolen: u64,
    /// Rounds this worker reached the barrier without having processed
    /// any chunk with work.
    pub idle_waits: u64,
}

/// Outcome of a run: final per-node states plus metrics.
#[derive(Debug)]
pub struct RunResult<P> {
    /// Final protocol state of each node, indexed by node id.
    pub states: Vec<P>,
    /// Aggregate statistics.
    pub metrics: RunMetrics,
    /// Executor work counters.
    pub stats: SchedStats,
}

/// Naive pending-message state of the reference executor.
struct RefState<M> {
    pending: Vec<Vec<(NodeId, M)>>,
    seen: HashSet<NodeId>,
    in_flight: usize,
}

/// Validates and meters one node's outgoing messages (reference path).
/// Duplicate sends take precedence over per-message violations, exactly
/// as in the scheduler's flat-buffer commit.
fn commit_reference<M: Message>(
    g: &WeightedGraph,
    cfg: &CongestConfig,
    round: u64,
    out: &mut Outbox<M>,
    st: &mut RefState<M>,
    metrics: &mut RunMetrics,
) -> Result<(), SimError> {
    let from = out.from;
    st.seen.clear();
    for &(to, _) in &out.msgs {
        if !st.seen.insert(to) {
            return Err(SimError::DuplicateSend { from, to, round });
        }
    }
    for (to, msg) in out.msgs.drain(..) {
        let edge = g
            .find_edge(from, to)
            .ok_or(SimError::NotANeighbor { from, to })?;
        let bits = msg.encoded_bits();
        if bits > cfg.bandwidth_bits {
            return Err(SimError::BandwidthExceeded {
                from,
                to,
                bits,
                budget: cfg.bandwidth_bits,
                round,
            });
        }
        metrics.messages += 1;
        metrics.total_bits += bits as u64;
        metrics.max_message_bits = metrics.max_message_bits.max(bits);
        if cfg.metered_cut.contains(&edge) {
            metrics.cut_bits += bits as u64;
        }
        st.pending[to.idx()].push((from, msg));
        st.in_flight += 1;
    }
    Ok(())
}

/// The naive reference executor: invokes every node every round.
///
/// Θ(n) scheduling work per round makes this unsuitable for sparse
/// protocols at scale — use [`crate::run`] — but its simplicity makes it
/// the semantic oracle: the scheduler must produce bit-identical
/// [`RunMetrics`] and final states on every contract-abiding protocol,
/// and `bench_runner` measures the work the active-set scheduler saves
/// against it.
///
/// # Errors
///
/// Propagates any [`SimError`] raised by model enforcement.
pub fn run_reference<P: Protocol>(
    g: &WeightedGraph,
    mut nodes: Vec<P>,
    cfg: &CongestConfig,
) -> Result<RunResult<P>, SimError> {
    let n = g.n();
    if nodes.len() != n {
        return Err(SimError::WrongNodeCount {
            expected: n,
            got: nodes.len(),
        });
    }
    let mut metrics = RunMetrics::default();
    let mut stats = SchedStats::default();
    let mut inboxes: Vec<Vec<(NodeId, P::Msg)>> = vec![Vec::new(); n];
    let mut st = RefState {
        pending: vec![Vec::new(); n],
        seen: HashSet::new(),
        in_flight: 0,
    };

    // Round 0: init.
    for v in 0..n {
        let ctx = NodeCtx::new(NodeId::from(v), n, 0, g);
        let mut out = Outbox::new(ctx.id);
        nodes[v].init(&ctx, &mut out);
        commit_reference(g, cfg, 0, &mut out, &mut st, &mut metrics)?;
    }

    let mut round = 0u64;
    loop {
        if st.in_flight == 0 && nodes.iter().all(|p| p.done()) {
            break;
        }
        round += 1;
        if round > cfg.max_rounds {
            return Err(SimError::MaxRoundsExceeded {
                limit: cfg.max_rounds,
            });
        }
        // Deliver messages sent last round.
        std::mem::swap(&mut inboxes, &mut st.pending);
        st.in_flight = 0;
        for v in 0..n {
            let ctx = NodeCtx::new(NodeId::from(v), n, round, g);
            let inbox = std::mem::take(&mut inboxes[v]);
            let mut out = Outbox::new(ctx.id);
            nodes[v].round(&ctx, &inbox, &mut out);
            stats.activations += 1;
            commit_reference(g, cfg, round, &mut out, &mut st, &mut metrics)?;
        }
        metrics.rounds = round;
    }

    Ok(RunResult {
        states: nodes,
        metrics,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::run;
    use crate::shard::run_sharded;
    use dsf_graph::generators;

    type Exec<P> = fn(&WeightedGraph, Vec<P>, &CongestConfig) -> Result<RunResult<P>, SimError>;

    fn run_sharded3<P>(
        g: &WeightedGraph,
        nodes: Vec<P>,
        cfg: &CongestConfig,
    ) -> Result<RunResult<P>, SimError>
    where
        P: Protocol + Send,
        P::Msg: Send,
    {
        run_sharded(g, nodes, cfg, 3)
    }

    /// All three executors, to exercise model enforcement on each.
    fn executors<P>() -> [Exec<P>; 3]
    where
        P: Protocol + Send,
        P::Msg: Send + 'static,
    {
        [run::<P>, run_reference::<P>, run_sharded3::<P>]
    }

    #[derive(Clone, Debug)]
    struct Blob(usize);
    impl Message for Blob {
        fn encoded_bits(&self) -> usize {
            self.0
        }
    }

    /// Every node sends one oversized blob to its first neighbor in round 1.
    #[derive(Debug)]
    struct Oversize {
        fired: bool,
        size: usize,
    }
    impl Protocol for Oversize {
        type Msg = Blob;
        fn init(&mut self, _ctx: &NodeCtx, _out: &mut Outbox<Blob>) {}
        fn round(&mut self, ctx: &NodeCtx, _inbox: &[(NodeId, Blob)], out: &mut Outbox<Blob>) {
            if !self.fired {
                self.fired = true;
                let (nb, _) = ctx.neighbors()[0];
                out.send(nb, Blob(self.size));
            }
        }
        fn done(&self) -> bool {
            self.fired
        }
    }

    #[test]
    fn bandwidth_is_enforced() {
        let g = generators::path(3, 1);
        let cfg = CongestConfig::for_graph(&g);
        let too_big = cfg.bandwidth_bits + 1;
        for exec in executors() {
            let nodes = (0..3)
                .map(|_| Oversize {
                    fired: false,
                    size: too_big,
                })
                .collect();
            let err = exec(&g, nodes, &cfg).unwrap_err();
            assert!(matches!(err, SimError::BandwidthExceeded { .. }));
        }
    }

    #[test]
    fn within_budget_passes() {
        let g = generators::path(3, 1);
        let cfg = CongestConfig::for_graph(&g);
        for exec in executors() {
            let nodes = (0..3)
                .map(|_| Oversize {
                    fired: false,
                    size: cfg.bandwidth_bits,
                })
                .collect();
            let res = exec(&g, nodes, &cfg).unwrap();
            assert_eq!(res.metrics.messages, 3);
            assert_eq!(res.metrics.max_message_bits, cfg.bandwidth_bits);
        }
    }

    /// Sends two messages to the same neighbor in one round.
    #[derive(Debug)]
    struct DoubleSend {
        fired: bool,
    }
    impl Protocol for DoubleSend {
        type Msg = Blob;
        fn init(&mut self, ctx: &NodeCtx, out: &mut Outbox<Blob>) {
            if ctx.id == NodeId(0) {
                let (nb, _) = ctx.neighbors()[0];
                out.send(nb, Blob(1));
                out.send(nb, Blob(1));
            }
            self.fired = true;
        }
        fn round(&mut self, _: &NodeCtx, _: &[(NodeId, Blob)], _: &mut Outbox<Blob>) {}
        fn done(&self) -> bool {
            self.fired
        }
    }

    #[test]
    fn duplicate_send_is_rejected() {
        let g = generators::path(2, 1);
        for exec in executors() {
            let nodes = (0..2).map(|_| DoubleSend { fired: false }).collect();
            let err = exec(&g, nodes, &CongestConfig::for_graph(&g)).unwrap_err();
            assert_eq!(
                err,
                SimError::DuplicateSend {
                    from: NodeId(0),
                    to: NodeId(1),
                    round: 0
                }
            );
        }
    }

    /// A protocol that never quiesces: node 0 keeps sending forever and
    /// honestly never votes done.
    #[derive(Debug)]
    struct Chatter;
    impl Protocol for Chatter {
        type Msg = Blob;
        fn init(&mut self, ctx: &NodeCtx, out: &mut Outbox<Blob>) {
            if ctx.id == NodeId(0) {
                let (nb, _) = ctx.neighbors()[0];
                out.send(nb, Blob(1));
            }
        }
        fn round(&mut self, ctx: &NodeCtx, _: &[(NodeId, Blob)], out: &mut Outbox<Blob>) {
            if ctx.id == NodeId(0) {
                let (nb, _) = ctx.neighbors()[0];
                out.send(nb, Blob(1));
            }
        }
        fn done(&self) -> bool {
            false
        }
    }

    #[test]
    fn max_rounds_guard() {
        let g = generators::path(2, 1);
        let mut cfg = CongestConfig::for_graph(&g);
        cfg.max_rounds = 50;
        for exec in executors() {
            let err = exec(&g, vec![Chatter, Chatter], &cfg).unwrap_err();
            assert_eq!(err, SimError::MaxRoundsExceeded { limit: 50 });
        }
    }

    /// A protocol *violating* the `done` contract: it votes done but keeps
    /// talking. The reference executor, which invokes everyone, shows the
    /// true divergence; the event-driven executor trusts the vote and
    /// would stop scheduling the liar — which is why the contract exists.
    #[derive(Debug)]
    struct LyingChatter;
    impl Protocol for LyingChatter {
        type Msg = Blob;
        fn init(&mut self, ctx: &NodeCtx, out: &mut Outbox<Blob>) {
            if ctx.id == NodeId(0) {
                let (nb, _) = ctx.neighbors()[0];
                out.send(nb, Blob(1));
            }
        }
        fn round(&mut self, ctx: &NodeCtx, _: &[(NodeId, Blob)], out: &mut Outbox<Blob>) {
            if ctx.id == NodeId(0) {
                let (nb, _) = ctx.neighbors()[0];
                out.send(nb, Blob(1));
            }
        }
        fn done(&self) -> bool {
            true
        }
    }

    #[test]
    fn reference_executor_exposes_done_contract_violations() {
        let g = generators::path(2, 1);
        let mut cfg = CongestConfig::for_graph(&g);
        cfg.max_rounds = 50;
        let err = run_reference(&g, vec![LyingChatter, LyingChatter], &cfg).unwrap_err();
        assert_eq!(err, SimError::MaxRoundsExceeded { limit: 50 });
    }

    #[test]
    fn wrong_node_count() {
        let g = generators::path(3, 1);
        for exec in executors() {
            let err = exec(&g, vec![Chatter], &CongestConfig::for_graph(&g)).unwrap_err();
            assert!(matches!(err, SimError::WrongNodeCount { .. }));
        }
    }

    /// Echo counts: each endpoint of each edge sends a ping in round 1; cut
    /// metering must count exactly the pings over the metered edge.
    #[derive(Debug)]
    struct Ping {
        fired: bool,
    }
    impl Protocol for Ping {
        type Msg = Blob;
        fn init(&mut self, ctx: &NodeCtx, out: &mut Outbox<Blob>) {
            for &(nb, _) in ctx.neighbors() {
                out.send(nb, Blob(8));
            }
            self.fired = true;
        }
        fn round(&mut self, _: &NodeCtx, _: &[(NodeId, Blob)], _: &mut Outbox<Blob>) {}
        fn done(&self) -> bool {
            self.fired
        }
    }

    #[test]
    fn cut_metering() {
        let g = generators::path(4, 1); // edges 0-1, 1-2, 2-3
        let cut_edge = g.find_edge(NodeId(1), NodeId(2)).unwrap();
        let cfg = CongestConfig::with_metered_cut(&g, [cut_edge]);
        for exec in executors() {
            let nodes = (0..4).map(|_| Ping { fired: false }).collect();
            let res = exec(&g, nodes, &cfg).unwrap();
            assert_eq!(res.metrics.cut_bits, 16); // 8 bits each direction
            assert_eq!(res.metrics.total_bits, 6 * 8);
        }
    }

    /// Messages sent in round r arrive in round r+1 — the synchronous
    /// semantics every round bound relies on.
    #[derive(Debug)]
    struct Echo {
        sent_round: Option<u64>,
        got_round: Option<u64>,
    }
    impl Protocol for Echo {
        type Msg = Blob;
        fn init(&mut self, ctx: &NodeCtx, out: &mut Outbox<Blob>) {
            if ctx.id == NodeId(0) {
                out.send(NodeId(1), Blob(3));
                self.sent_round = Some(ctx.round);
            }
        }
        fn round(&mut self, ctx: &NodeCtx, inbox: &[(NodeId, Blob)], _: &mut Outbox<Blob>) {
            if !inbox.is_empty() && self.got_round.is_none() {
                self.got_round = Some(ctx.round);
            }
        }
        fn done(&self) -> bool {
            true
        }
    }

    #[test]
    fn one_round_message_latency() {
        let g = generators::path(2, 1);
        for exec in executors() {
            let nodes = vec![
                Echo {
                    sent_round: None,
                    got_round: None,
                },
                Echo {
                    sent_round: None,
                    got_round: None,
                },
            ];
            let res = exec(&g, nodes, &CongestConfig::for_graph(&g)).unwrap();
            assert_eq!(res.states[0].sent_round, Some(0));
            assert_eq!(res.states[1].got_round, Some(1));
        }
    }

    #[test]
    fn determinism() {
        let g = generators::gnp_connected(12, 0.3, 9, 5);
        let mk = || (0..12).map(|_| Ping { fired: false }).collect::<Vec<_>>();
        let cfg = CongestConfig::for_graph(&g);
        for exec in executors() {
            let a = exec(&g, mk(), &cfg).unwrap();
            let b = exec(&g, mk(), &cfg).unwrap();
            assert_eq!(a.metrics, b.metrics);
        }
    }
}
