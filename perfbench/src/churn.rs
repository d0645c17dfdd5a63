//! `churn-repair`: a closed loop of one client sending seeded streams of
//! demand arrivals, departures and edge re-pricings to warm
//! `SolverSession`s' delta API, each on its own 4k-node grid.
//!
//! Each stream follows the churn lab's shape (`dsf_workloads::churn`):
//! arrivals are locality-bounded (terminals within a few hops of a random
//! center) and the active demand count stays in a fixed band. The client
//! sends the streams' deltas round-robin, so one run averages over several
//! independent networks instead of riding one stream's luck. The first
//! `N_DIGEST` deltas are the deterministic window every run must
//! reproduce exactly; every `SAMPLE_STRIDE`-th of them is re-solved from
//! scratch after the timed loop for `weight_ratio` (and, traced, replayed
//! layer by layer).

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use dsf_bench::alloc_meter;
use dsf_graph::{dijkstra, generators, NodeId, Weight, WeightedGraph, INF};
use dsf_service::{DeltaError, DeltaOutcome, DemandId, SolveRequest, SolverKind, SolverSession};
use dsf_steiner::{greedy, local_search, repair, ForestSolution, Instance};
use dsf_workloads::churn::{instance_of, ChurnOp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::check::{self, Checker, Digest};
use crate::stats::{mean, median, p99};
use crate::trace::Tracer;
use crate::{repeated, timed, Pass, SetupTimes, Workload};

/// Grid shape: 64 × 64 = 4,096 nodes.
const SIDE: usize = 64;
/// Cache-seeding arrivals before the timed loop (as the churn lab).
const WARMUP_ADDS: usize = 5;
/// Active demand band after the warm-up (as the churn lab).
const MIN_ACTIVE: usize = 4;
const MAX_ACTIVE: usize = 6;
/// Hop radius arriving terminals are sampled within (as the churn lab).
const DEMAND_RADIUS: u32 = 3;
/// Independent streams (graph + session) a run interleaves. With 4, two
/// seeds' runs still read 15 % apart on every timing metric.
const STREAMS: usize = 16;
/// Deltas generated per stream; the loop stops earlier when time is up.
const MAX_OPS: usize = 20_000;
/// Leading deltas whose outputs form the cross-run digest.
const N_DIGEST: usize = 256;
/// Every this-many-th delta of the digest window is re-solved from
/// scratch (and by det, the anchor) after the timed loop; coprime with
/// `STREAMS`, so every stream is sampled.
const SAMPLE_STRIDE: usize = 7;

/// Inputs and references of the workload: per stream, the network and
/// its delta stream (warm-up arrivals first).
pub struct ChurnRepair {
    streams: Vec<(Arc<WeightedGraph>, Vec<ChurnOp>)>,
}

/// A stream's live state on the client side.
struct Live {
    session: SolverSession,
    /// Handles and terminals of the active demands, in arrival order.
    handles: Vec<DemandId>,
    active: Vec<Vec<NodeId>>,
}

impl Live {
    fn new(graph: &Arc<WeightedGraph>) -> Self {
        let mut session = SolverSession::new();
        session.install_graph(graph.clone());
        Live {
            session,
            handles: Vec::new(),
            active: Vec::new(),
        }
    }

    /// Sends one delta; returns the outcome and, for a departure, the
    /// terminals that left.
    fn apply(&mut self, op: &ChurnOp) -> Result<(DeltaOutcome, Vec<NodeId>), DeltaError> {
        match op {
            ChurnOp::Add { terminals } => self.session.add_demand(terminals).map(|(id, out)| {
                self.handles.push(id);
                self.active.push(terminals.clone());
                (out, Vec::new())
            }),
            ChurnOp::Remove { slot } => {
                let id = self.handles.remove(*slot);
                let removed = self.active.remove(*slot);
                self.session.remove_demand(id).map(|out| (out, removed))
            }
            ChurnOp::Reweight { edge, weight } => self
                .session
                .reweight_edge(*edge, *weight)
                .map(|o| (o, Vec::new())),
        }
    }
}

fn op_name(op: &ChurnOp) -> &'static str {
    match op {
        ChurnOp::Add { .. } => "add",
        ChurnOp::Remove { .. } => "remove",
        ChurnOp::Reweight { .. } => "reweight",
    }
}

/// Seeded stream generator: simulates the active set and the weights so
/// every op is valid by construction.
fn generate(g: &WeightedGraph, seed: u64) -> Vec<ChurnOp> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC4_0A11);
    let n = g.n();
    let mut weights: Vec<Weight> = g.edges().iter().map(|e| e.w).collect();
    let mut free: Vec<NodeId> = g.nodes().collect();
    let mut pos: Vec<usize> = (0..n).collect();
    let mut active: Vec<Vec<NodeId>> = Vec::new();
    let mut hop = vec![u32::MAX; n];
    let mut ops = Vec::with_capacity(MAX_OPS + WARMUP_ADDS);
    let take = |free: &mut Vec<NodeId>, pos: &mut Vec<usize>, v: NodeId| {
        let i = pos[v.idx()];
        let last = *free.last().expect("free node to take");
        free.swap_remove(i);
        if last != v {
            pos[last.idx()] = i;
        }
        pos[v.idx()] = usize::MAX;
    };
    let mut add = |rng: &mut StdRng,
                   free: &mut Vec<NodeId>,
                   pos: &mut Vec<usize>,
                   active: &mut Vec<Vec<NodeId>>| {
        let size = if rng.gen_range(0..4) == 0 { 3 } else { 2 };
        let center = free[rng.gen_range(0..free.len())];
        // BFS out from the center in hop order; keep the free nodes within
        // the radius, falling back to the nearest beyond it.
        let mut order = vec![center];
        hop[center.idx()] = 0;
        let (mut near, mut far) = (Vec::new(), Vec::new());
        let mut head = 0;
        while head < order.len() && far.len() < size {
            let v = order[head];
            head += 1;
            for &(w, _) in g.neighbors(v) {
                if hop[w.idx()] == u32::MAX {
                    hop[w.idx()] = hop[v.idx()] + 1;
                    order.push(w);
                    if pos[w.idx()] != usize::MAX {
                        if hop[w.idx()] <= DEMAND_RADIUS {
                            near.push(w);
                        } else {
                            far.push(w);
                        }
                    }
                }
            }
        }
        for v in &order {
            hop[v.idx()] = u32::MAX;
        }
        let mut terminals = vec![center];
        while terminals.len() < size && !near.is_empty() {
            let i = rng.gen_range(0..near.len());
            terminals.push(near.swap_remove(i));
        }
        terminals.extend(far.into_iter().take(size - terminals.len()));
        terminals.sort_unstable();
        for &t in &terminals {
            take(free, pos, t);
        }
        active.push(terminals.clone());
        ChurnOp::Add { terminals }
    };
    for _ in 0..WARMUP_ADDS {
        ops.push(add(&mut rng, &mut free, &mut pos, &mut active));
    }
    for _ in 0..MAX_OPS {
        let roll: u32 = rng.gen_range(0..100);
        let can_add = active.len() < MAX_ACTIVE && free.len() >= 3;
        let can_remove = active.len() > MIN_ACTIVE;
        let op = if active.len() < MIN_ACTIVE || (roll < 40 && can_add) {
            add(&mut rng, &mut free, &mut pos, &mut active)
        } else if roll < 70 && can_remove {
            let slot = rng.gen_range(0..active.len());
            for v in active.remove(slot) {
                pos[v.idx()] = free.len();
                free.push(v);
            }
            ChurnOp::Remove { slot }
        } else {
            let edge = dsf_graph::EdgeId(rng.gen_range(0..g.m() as u32));
            let old = weights[edge.idx()];
            let mut weight = rng.gen_range(1..=15);
            if weight == old {
                weight = if old == 1 { 2 } else { old - 1 };
            }
            weights[edge.idx()] = weight;
            ChurnOp::Reweight { edge, weight }
        };
        ops.push(op);
    }
    ops
}

/// A sampled delta as recorded inside the timed loop: only small data.
/// The post-delta network is rebuilt from the stream afterwards, so the
/// benchmark holds no graph copies while memory is metered.
struct Pending {
    step: usize,
    stream: usize,
    /// Index of the op in its stream (warm-up included).
    op_idx: usize,
    before: ForestSolution,
    removed: Vec<NodeId>,
    /// Active demands after the op, in arrival order.
    demands: Vec<Vec<NodeId>>,
    /// Fingerprint of the session's graph after the op.
    fingerprint: u64,
    weight: u64,
    delta_ms: f64,
}

/// A sampled delta: the state before it and after it.
struct Sample {
    step: usize,
    op: ChurnOp,
    before: ForestSolution,
    /// Terminals the op removed (removals only).
    removed: Vec<NodeId>,
    graph: Arc<WeightedGraph>,
    instance: Instance,
    weight: u64,
    delta_ms: f64,
}

impl Workload for ChurnRepair {
    const NAME: &'static str = "churn-repair";
    const TAG: &'static str = "churn";

    fn setup(seed: u64, chk: &mut Checker) -> (Self, SetupTimes) {
        let stream_seed = |i: usize| seed.wrapping_mul(STREAMS as u64).wrapping_add(i as u64);
        let (graphs, graphs_s) = repeated(|| {
            (0..STREAMS)
                .map(|i| Arc::new(generators::grid(SIDE, SIDE, 12, stream_seed(i) ^ 0x71)))
                .collect::<Vec<_>>()
        });
        let (ops, instances_s) = repeated(|| {
            graphs
                .iter()
                .enumerate()
                .map(|(i, g)| generate(g, stream_seed(i)))
                .collect::<Vec<_>>()
        });
        let streams: Vec<_> = graphs.into_iter().zip(ops).collect();
        // Reference: a det solve of the first stream's warmed demand set,
        // whose forest the negative self-test tampers with.
        let ((), references_s) = timed(|| {
            let (graph, ops) = &streams[0];
            let warm: Vec<Vec<NodeId>> = ops[..WARMUP_ADDS]
                .iter()
                .map(|op| match op {
                    ChurnOp::Add { terminals } => terminals.clone(),
                    _ => unreachable!("the warm-up is all arrivals"),
                })
                .collect();
            let req = SolveRequest::new(
                "anchor",
                graph.clone(),
                instance_of(graph, &warm),
                SolverKind::Deterministic,
                0,
            );
            let out = SolverSession::new()
                .solve(&req)
                .expect("anchor solve runs clean");
            chk.forest(Self::NAME, "anchor", graph, &req.instance, &out.forest);
            let d = Digest {
                weight: out.weight,
                rounds: out.rounds(),
                messages: out.messages(),
                moves: 0,
                items: 1,
            };
            match check::self_test(graph, &req.instance, &out.forest, &d) {
                Ok(()) => println!(
                    "{}: self-test: dropped-edge and tampered-digest checks fire",
                    Self::NAME
                ),
                Err(e) => chk.fail(Self::NAME, "self-test", e),
            }
        });
        (
            ChurnRepair { streams },
            SetupTimes {
                graphs: graphs_s,
                instances: instances_s,
                references: references_s,
                warmup: 0.0,
            },
        )
    }

    fn pass(&self, seconds: f64, tracer: &mut Tracer, chk: &mut Checker) -> Pass {
        let mut pass = Pass::default();
        let mut live: Vec<Live> = self.streams.iter().map(|(g, _)| Live::new(g)).collect();
        let (_, warmup_s) = timed(|| {
            for (l, (_, ops)) in live.iter_mut().zip(&self.streams) {
                for op in &ops[..WARMUP_ADDS] {
                    l.apply(op).expect("warm-up arrival");
                }
            }
        });
        pass.warmup_s = warmup_s;

        alloc_meter::reset_peak();
        let base_bytes = alloc_meter::current_bytes();
        let mut latency = Vec::new();
        let mut by_op: BTreeMap<&'static str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
        let mut pending = Vec::new();
        let mut busy = 0.0;
        let t0 = Instant::now();
        let per_stream = self.streams[0].1.len() - WARMUP_ADDS;
        for step in 0..STREAMS * per_stream {
            if t0.elapsed().as_secs_f64() >= seconds {
                break;
            }
            let (stream, op_idx) = (step % STREAMS, WARMUP_ADDS + step / STREAMS);
            let l = &mut live[stream];
            let op = &self.streams[stream].1[op_idx];
            let session = &l.session;
            let sampled = step < N_DIGEST && step % SAMPLE_STRIDE == 0;
            let before = sampled.then(|| session.cached_forest().cloned().unwrap_or_default());
            let request = format!("delta{step} ({})", op_name(op));
            pass.attempted += 1;
            let span = tracer.open(&format!("request.{}", op_name(op)), step as u64, None);
            let d0 = Instant::now();
            let res = l.apply(op);
            let ms = d0.elapsed().as_secs_f64() * 1e3;
            tracer.close(span);
            let (out, removed) = match res {
                Ok(r) => r,
                Err(e) => {
                    pass.failed += 1;
                    chk.fail(Self::NAME, &request, format!("delta rejected: {e}"));
                    continue;
                }
            };
            let g = l.session.cached_graph().expect("graph is installed");
            let inst = l.session.cached_instance().expect("graph is installed");
            if !chk.forest(Self::NAME, &request, g, inst, &out.forest) {
                pass.failed += 1;
                continue;
            }
            busy += ms / 1e3;
            latency.push(ms);
            let slot = by_op.entry(op_name(op)).or_default();
            slot.0.push(ms);
            slot.1.push(out.moves as f64);
            if step < N_DIGEST {
                pass.digest.weight += out.weight;
                pass.digest.moves += out.moves;
                pass.digest.items += 1;
            }
            if let Some(before) = before {
                pending.push(Pending {
                    step,
                    stream,
                    op_idx,
                    before,
                    removed,
                    demands: l.active.clone(),
                    fingerprint: g.fingerprint(),
                    weight: out.weight,
                    delta_ms: ms,
                });
            }
        }
        let elapsed = t0.elapsed().as_secs_f64();
        let peak_mib =
            alloc_meter::peak_bytes().saturating_sub(base_bytes) as f64 / (1 << 20) as f64;
        if (pass.digest.items as usize) < N_DIGEST {
            chk.fail(
                Self::NAME,
                "digest window",
                format!(
                    "only {} deltas ran; the digest covers {N_DIGEST}",
                    pass.digest.items
                ),
            );
        }

        let samples: Vec<Sample> = pending
            .into_iter()
            .map(|p| {
                let (g0, ops) = &self.streams[p.stream];
                let mut edges = g0.edges().to_vec();
                for op in &ops[..=p.op_idx] {
                    if let ChurnOp::Reweight { edge, weight } = op {
                        edges[edge.idx()].w = *weight;
                    }
                }
                let graph = Arc::new(
                    WeightedGraph::from_edges(g0.n(), edges).expect("reweighted graph stays valid"),
                );
                if graph.fingerprint() != p.fingerprint {
                    chk.fail(
                        Self::NAME,
                        &format!("delta{}", p.step),
                        "the session's post-delta graph differs from the stream's",
                    );
                }
                let instance = instance_of(&graph, &p.demands);
                Sample {
                    step: p.step,
                    op: ops[p.op_idx].clone(),
                    before: p.before,
                    removed: p.removed,
                    graph,
                    instance,
                    weight: p.weight,
                    delta_ms: p.delta_ms,
                }
            })
            .collect();

        // Outside the timed loop, each sampled post-delta instance is
        // solved from scratch by greedy + local search (the weight_ratio
        // base) and by det: churn has no CONGEST stage of its own, so the
        // det anchor gives the rounds and messages the paper's algorithm
        // would spend on the same states.
        let (mut repaired, mut scratch, mut scratch_ms, mut sampled_ms) = (0u64, 0u64, 0.0, 0.0);
        let mut anchors = SolverSession::new();
        for s in &samples {
            let anchor = SolveRequest::new(
                format!("anchor{}", s.step),
                s.graph.clone(),
                s.instance.clone(),
                SolverKind::Deterministic,
                0,
            );
            match anchors.solve(&anchor) {
                Ok(out)
                    if chk.forest(Self::NAME, &anchor.id, &s.graph, &s.instance, &out.forest) =>
                {
                    pass.digest.rounds += out.rounds();
                    pass.digest.messages += out.messages();
                }
                Ok(_) => {}
                Err(e) => chk.fail(Self::NAME, &anchor.id, format!("anchor solve failed: {e}")),
            }
            let req = s.step as u64;
            let root = tracer.open("replay.scratch", req, None);
            let t = Instant::now();
            let gr = tracer.span("steiner.greedy", req, root, || {
                greedy::solve_greedy(&s.graph, &s.instance)
            });
            let ls = tracer.span("steiner.local_search", req, root, || {
                local_search::improve(&s.graph, &s.instance, &gr)
            });
            scratch_ms += t.elapsed().as_secs_f64() * 1e3;
            tracer.close(root);
            sampled_ms += s.delta_ms;
            repaired += s.weight;
            scratch += ls.weight(&s.graph);
        }
        pass.notes.push(format!(
            "{} deltas in {elapsed:.3}s ({:.3}s inside the delta API); {} sampled for weight_ratio; \
             latency n={} ({} beyond p99)",
            latency.len(),
            busy,
            samples.len(),
            latency.len(),
            crate::stats::beyond_p99(&latency)
        ));
        for (op, (ms, moves)) in &by_op {
            pass.notes.push(format!(
                "{op}: n={} p50={:.4}ms p99={:.4}ms mean moves={:.3}",
                ms.len(),
                median(ms),
                p99(ms),
                mean(moves)
            ));
        }
        pass.e2e.insert("latency_p50_ms", median(&latency));
        pass.e2e.insert("latency_p99_ms", p99(&latency));
        pass.e2e
            .insert("goodput_rps", latency.len() as f64 / busy.max(1e-9));
        pass.e2e.insert(
            "completed_frac",
            1.0 - pass.failed as f64 / pass.attempted.max(1) as f64,
        );
        pass.e2e
            .insert("weight_ratio", repaired as f64 / scratch.max(1) as f64);
        pass.e2e.insert("sim_rounds", pass.digest.rounds as f64);
        pass.e2e.insert("sim_messages", pass.digest.messages as f64);
        pass.e2e.insert("peak_alloc_mib", peak_mib);
        pass.digest_key = format!("first {N_DIGEST} deltas");
        if tracer.on() {
            for (op, (ms, moves)) in &by_op {
                pass.layer
                    .push((format!("service.delta_ms.{op}.p50"), median(ms)));
                pass.layer
                    .push((format!("service.delta_ms.{op}.p99"), p99(ms)));
                pass.layer
                    .push((format!("service.delta_moves.{op}"), mean(moves)));
            }
            pass.layer.push((
                "service.repair_speedup".into(),
                scratch_ms / sampled_ms.max(1e-9),
            ));
            replay(tracer, &samples, &mut pass.layer);
        }
        pass
    }
}

/// Replays the repair steps of each sampled delta from outside: the
/// contracted-metric connection and scoped finishing pass of an arrival,
/// the prune and finishing pass of a departure, the alternative-route
/// Dijkstra and finishing pass of a re-pricing.
fn replay(tracer: &mut Tracer, samples: &[Sample], out: &mut Vec<(String, f64)>) {
    let mut covered: BTreeMap<&'static str, (f64, f64)> = BTreeMap::new();
    for s in samples {
        let req = s.step as u64;
        let g = s.graph.as_ref();
        let root = tracer.open(&format!("replay.{}", op_name(&s.op)), req, None);
        // The single-source Dijkstra an arrival's connection starts with,
        // timed apart from the replay (connect already contains one).
        let source = match &s.op {
            ChurnOp::Add { terminals } => {
                let connected = tracer.span("steiner.connect", req, root, || {
                    repair::connect_terminals(g, &s.before, terminals)
                });
                tracer.span("steiner.optimize", req, root, || {
                    repair::optimize(g, &s.instance, &connected, Some(terminals))
                });
                Some(terminals[0])
            }
            ChurnOp::Remove { .. } => {
                tracer.span("steiner.optimize", req, root, || {
                    let rolled = s.before.prune_to_minimal(g, &s.instance);
                    repair::optimize(g, &s.instance, &rolled, Some(&s.removed))
                });
                Some(s.removed[0])
            }
            ChurnOp::Reweight { edge, .. } => {
                let (e, ed) = (*edge, g.edge(*edge));
                let (u, v) = (ed.u, ed.v);
                tracer.span("graph.dijkstra", req, root, || {
                    dijkstra::multi_source_with(g, &[u], |x| if x == e { INF } else { g.weight(x) })
                });
                tracer.span("steiner.optimize", req, root, || {
                    repair::optimize(g, &s.instance, &s.before, Some(&[u, v]))
                });
                None
            }
        };
        tracer.close(root);
        let inside = tracer
            .spans()
            .iter()
            .filter(|sp| sp.parent == root)
            .map(|sp| sp.ms())
            .sum::<f64>();
        let slot = covered.entry(op_name(&s.op)).or_default();
        slot.0 += inside;
        slot.1 += s.delta_ms;
        if let Some(source) = source {
            tracer.span("graph.dijkstra", req, None, || {
                dijkstra::multi_source(g, &[source])
            });
        }
    }
    for op in ["add", "remove", "reweight"] {
        let (inside, total) = covered.get(op).copied().unwrap_or_default();
        out.push((
            format!("coverage.churn.{op}"),
            if total > 0.0 { inside / total } else { 0.0 },
        ));
    }
    for st in ["connect", "optimize", "greedy", "local_search"] {
        out.push((
            format!("steiner.{st}_ms"),
            median(&tracer.durations_ms(&format!("steiner.{st}"))),
        ));
    }
    out.push((
        "graph.dijkstra_ms".into(),
        median(&tracer.durations_ms("graph.dijkstra")),
    ));
}
