//! Failure injection: the simulator must *reject* runs that violate the
//! CONGEST model, and the solvers must surface those rejections instead of
//! silently producing numbers — that enforcement is what makes the round
//! counts in the experiment tables (`paper_tables`) meaningful.

use std::sync::Arc;

use steiner_forest::congest::{run, CongestConfig, Message, NodeCtx, Outbox, Protocol, SimError};
use steiner_forest::graph::{Edge, GraphError};
use steiner_forest::prelude::*;
use steiner_forest::steiner::random_instance;

#[test]
fn starved_bandwidth_aborts_deterministic_solver() {
    let g = generators::gnp_connected(16, 0.25, 10, 1);
    let inst = random_instance(&g, 2, 2, 1);
    let cfg = DetConfig {
        bandwidth_bits: Some(4), // far below any real message
        ..DetConfig::default()
    };
    let err = solve_deterministic(&g, &inst, &cfg).unwrap_err();
    assert!(
        matches!(err, SimError::BandwidthExceeded { .. }),
        "expected a bandwidth violation, got {err:?}"
    );
}

#[test]
fn starved_bandwidth_aborts_randomized_solver() {
    let g = generators::gnp_connected(16, 0.25, 10, 2);
    let inst = random_instance(&g, 2, 2, 2);
    let cfg = RandConfig {
        bandwidth_bits: Some(4),
        ..RandConfig::default()
    };
    let err = solve_randomized(&g, &inst, &cfg).unwrap_err();
    assert!(matches!(err, SimError::BandwidthExceeded { .. }));
}

#[test]
fn generous_bandwidth_does_not_change_outputs() {
    // Round counts and outputs are bandwidth-independent as long as every
    // message fits: the protocols never pack more than O(log n) bits.
    let g = generators::gnp_connected(18, 0.2, 10, 3);
    let inst = random_instance(&g, 3, 2, 3);
    let tight = solve_deterministic(&g, &inst, &DetConfig::default()).unwrap();
    let loose = solve_deterministic(
        &g,
        &inst,
        &DetConfig {
            bandwidth_bits: Some(1 << 20),
            ..DetConfig::default()
        },
    )
    .unwrap();
    assert_eq!(tight.forest, loose.forest);
    assert_eq!(tight.rounds.total(), loose.rounds.total());
}

/// A malicious protocol that messages a non-neighbor.
#[derive(Debug)]
struct Reacher {
    fired: bool,
}

#[derive(Debug, Clone)]
struct Ping;
impl Message for Ping {
    fn encoded_bits(&self) -> usize {
        1
    }
}

impl Protocol for Reacher {
    type Msg = Ping;
    fn init(&mut self, ctx: &NodeCtx, out: &mut Outbox<Ping>) {
        if ctx.id == NodeId(0) {
            // Node 0 tries to reach the far end of the path directly.
            out.send(NodeId((ctx.n - 1) as u32), Ping);
        }
        self.fired = true;
    }
    fn round(&mut self, _: &NodeCtx, _: &[(NodeId, Ping)], _: &mut Outbox<Ping>) {}
    fn done(&self) -> bool {
        self.fired
    }
}

#[test]
fn non_neighbor_sends_are_rejected() {
    let g = generators::path(5, 1);
    let nodes = (0..5).map(|_| Reacher { fired: false }).collect();
    let err = run(&g, nodes, &CongestConfig::for_graph(&g)).unwrap_err();
    assert!(matches!(err, SimError::NotANeighbor { .. }));
}

#[test]
fn max_rounds_guard_reports_instead_of_hanging() {
    let g = generators::gnp_connected(20, 0.2, 10, 4);
    let inst = random_instance(&g, 3, 2, 4);
    // Absurdly low cap: some stage must trip it.
    let mut congest = CongestConfig::for_graph(&g);
    congest.max_rounds = 1;
    let err =
        steiner_forest::core::primitives::build_bfs_tree(&g, NodeId(0), &congest).unwrap_err();
    assert!(matches!(err, SimError::MaxRoundsExceeded { .. }));
    // And the full solver still works with the default guard.
    assert!(solve_deterministic(&g, &inst, &DetConfig::default()).is_ok());
}

#[test]
fn adversarial_weights_heavy_bridge() {
    // Two cliques joined by a single very heavy bridge: the algorithms must
    // still terminate and only buy the bridge when a component spans it.
    let mut b = GraphBuilder::new(12);
    for i in 0..6u32 {
        for j in (i + 1)..6 {
            b.add_edge(NodeId(i), NodeId(j), 2).unwrap();
            b.add_edge(NodeId(i + 6), NodeId(j + 6), 2).unwrap();
        }
    }
    b.add_edge(NodeId(5), NodeId(6), 1_000_000).unwrap();
    let g = b.build().unwrap();

    // Components entirely inside the cliques: bridge unused.
    let local = InstanceBuilder::new(&g)
        .component(&[NodeId(0), NodeId(3)])
        .component(&[NodeId(7), NodeId(11)])
        .build()
        .unwrap();
    let out = solve_deterministic(&g, &local, &DetConfig::default()).unwrap();
    let bridge = g.find_edge(NodeId(5), NodeId(6)).unwrap();
    assert!(!out.forest.contains(bridge), "bridge bought unnecessarily");

    // A spanning component: bridge required.
    let spanning = InstanceBuilder::new(&g)
        .component(&[NodeId(0), NodeId(11)])
        .build()
        .unwrap();
    let out = solve_deterministic(&g, &spanning, &DetConfig::default()).unwrap();
    assert!(out.forest.contains(bridge));
    assert!(spanning.is_feasible(&g, &out.forest));
}

#[test]
fn unit_weight_ties_everywhere_stay_consistent() {
    // All weights equal: maximal tie pressure on the event ordering; the
    // distributed and centralized runs must still produce identical merge
    // sequences (the lexicographic tie-breaks of Definition 4.12).
    for seed in 0..4 {
        let g = generators::gnp_connected(14, 0.35, 1, seed);
        let inst = random_instance(&g, 3, 2, seed);
        let det = solve_deterministic(&g, &inst, &DetConfig::default()).unwrap();
        let central = steiner_forest::steiner::moat::grow(&g, &inst);
        let dp: Vec<_> = det.merges.iter().map(|m| (m.v, m.w)).collect();
        let cp: Vec<_> = central.merges.iter().map(|m| (m.v, m.w)).collect();
        assert_eq!(dp, cp, "seed {seed}");
        assert!(inst.is_feasible(&g, &det.forest));
    }
}

/// Regression: a 4-node path with every edge at 2^61 or 2^62 used to
/// build, and its path sums reached Dijkstra's `INF` clamp, so the far
/// terminal looked unreachable: `randomized` and `khan` returned an empty,
/// infeasible forest as `Ok` and `collect` panicked. Both graph
/// constructors now refuse a total weight at `INF`; at 2^40 the graph
/// builds and every solver is feasible.
#[test]
fn heavy_weights_are_refused_where_the_graph_is_built() {
    for w in [1u64 << 61, 1 << 62] {
        let mut b = GraphBuilder::new(4);
        for i in 0..3 {
            b.add_edge(NodeId(i), NodeId(i + 1), w).unwrap();
        }
        assert_eq!(b.build().unwrap_err(), GraphError::TotalWeightOverflow);
        let edges: Vec<Edge> = (0..3)
            .map(|i| Edge {
                u: NodeId(i),
                v: NodeId(i + 1),
                w,
            })
            .collect();
        assert_eq!(
            WeightedGraph::from_edges(4, edges).unwrap_err(),
            GraphError::TotalWeightOverflow
        );
    }
    let g = Arc::new(generators::path(4, 1 << 40));
    let inst = InstanceBuilder::new(&g)
        .component(&[NodeId(0), NodeId(3)])
        .build()
        .unwrap();
    for kind in SolverKind::ALL {
        let req = SolveRequest::new("heavy", g.clone(), inst.clone(), kind, 1);
        let out = SolverSession::new().solve(&req).expect("solves");
        assert!(inst.is_feasible(&g, &out.forest), "{kind:?}: infeasible");
    }
}

/// Regression: an instance built on a graph of another size used to panic
/// every session solver (in det's driver, the embedding, khan and
/// Dijkstra for a smaller graph; in `Instance` for a larger one). The
/// session now refuses the request with a typed error before any solver
/// runs.
#[test]
fn a_session_refuses_an_instance_of_another_size() {
    let ten = Arc::new(generators::gnp_connected(10, 0.4, 9, 3));
    let six = Arc::new(generators::gnp_connected(6, 0.5, 9, 4));
    let on_ten = random_instance(&ten, 2, 2, 5);
    let on_six = random_instance(&six, 2, 2, 6);
    for (graph, inst) in [(&six, &on_ten), (&ten, &on_six)] {
        for kind in SolverKind::ALL {
            let req = SolveRequest::new("mismatch", graph.clone(), inst.clone(), kind, 1);
            let err = SolverSession::new()
                .solve(&req)
                .expect_err("an instance of another size is refused");
            assert_eq!(
                err,
                SimError::WrongNodeCount {
                    expected: graph.n(),
                    got: inst.n(),
                },
                "{kind:?}"
            );
        }
    }
}
