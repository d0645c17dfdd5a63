//! Acceptance tests of the streaming server: admission control must
//! backpressure (never deadlock), every admitted job must be reported
//! exactly once — a panicking solve included — and queueing and batching
//! must be invisible in the results.

use std::sync::{mpsc, Arc};
use std::time::Duration;

use dsf_graph::{generators, GraphBuilder, NodeId, WeightedGraph};
use dsf_server::{
    AdmissionPolicy, BatchError, JobOptions, JobStatus, ServerConfig, ServerError, StreamingServer,
    DEFAULT_LARGE_NODE_THRESHOLD,
};
use dsf_service::{JobOutcome, ServiceReport, SolveRequest, SolverKind, SolverSession};
use dsf_steiner::{Instance, InstanceBuilder};

/// Upper bound on any single wait in these tests; a regression that
/// loses a job fails the test instead of hanging it.
const WAIT: Duration = Duration::from_secs(60);

fn small_case() -> (Arc<WeightedGraph>, Instance) {
    let g = Arc::new(generators::gnp_connected(24, 0.18, 9, 3));
    let inst = InstanceBuilder::new(&g)
        .component(&[NodeId(0), NodeId(11), NodeId(21)])
        .component(&[NodeId(4), NodeId(17)])
        .build()
        .unwrap();
    (g, inst)
}

fn request(id: &str, g: &Arc<WeightedGraph>, inst: &Instance, seed: u64) -> SolveRequest {
    SolveRequest::new(id, g.clone(), inst.clone(), SolverKind::Randomized, seed)
}

#[test]
fn streamed_results_are_bit_identical_to_direct_solves() {
    let (g, inst) = small_case();
    let mut server = StreamingServer::new(ServerConfig {
        workers: 3,
        ..Default::default()
    });
    let requests: Vec<_> = (0..9)
        .map(|s| request(&format!("job-{s}"), &g, &inst, s))
        .collect();
    let handles: Vec<_> = requests
        .iter()
        .map(|r| server.submit(r.clone()).expect("admitted"))
        .collect();
    for (handle, req) in handles.iter().zip(&requests) {
        let result = handle.wait();
        let reference = SolverSession::new().solve(req).expect("clean solve");
        let out = result.status.outcome().expect("completed");
        assert!(
            out.deterministic_eq(&reference),
            "queued job {} drifted from its direct solve",
            result.id
        );
    }
    server.shutdown();
    // The server-wide stream saw every job exactly once.
    let mut seen: Vec<u64> = std::iter::from_fn(|| server.try_next_result())
        .map(|r| r.job_id)
        .collect();
    seen.sort_unstable();
    assert_eq!(seen, (0..9).collect::<Vec<u64>>());
}

#[test]
fn full_queue_rejects_with_saturated_instead_of_deadlocking() {
    let (g, inst) = small_case();
    let server = StreamingServer::new(ServerConfig {
        workers: 1,
        queue_capacity: 3,
        admission: AdmissionPolicy::Reject,
        ..Default::default()
    });
    // Paused: nothing dispatches, so the queue fills deterministically.
    server.pause();
    for s in 0..3 {
        server
            .submit(request(&format!("q-{s}"), &g, &inst, s))
            .expect("under capacity");
    }
    assert_eq!(server.queued(), 3);
    let overflow = server.submit(request("overflow", &g, &inst, 99));
    assert_eq!(
        overflow.unwrap_err(),
        ServerError::Saturated { capacity: 3 },
        "a full queue under Reject must fail fast"
    );
    // Resuming drains the backlog; admission works again (Reject never
    // waits, so retry until the worker frees a slot).
    server.resume();
    let late = loop {
        match server.submit(request("late", &g, &inst, 7)) {
            Ok(handle) => break handle,
            Err(ServerError::Saturated { .. }) => std::thread::yield_now(),
            Err(e) => panic!("unexpected admission error: {e}"),
        }
    };
    assert!(late.wait_timeout(Duration::from_secs(60)).is_some());
}

#[test]
fn blocking_admission_backpressures_the_producer() {
    let (g, inst) = small_case();
    let server = StreamingServer::new(ServerConfig {
        workers: 1,
        queue_capacity: 1,
        admission: AdmissionPolicy::Block,
        ..Default::default()
    });
    // 6 jobs through a 1-deep queue: every submit past the first blocks
    // until the worker frees the slot — completing all of them proves the
    // producer was released each time (bounded memory, no deadlock).
    let handles: Vec<_> = (0..6)
        .map(|s| {
            server
                .submit(request(&format!("bp-{s}"), &g, &inst, s))
                .expect("blocking admission eventually admits")
        })
        .collect();
    for h in handles {
        assert!(h
            .wait_timeout(Duration::from_secs(60))
            .expect("drains")
            .status
            .is_completed());
    }
}

#[test]
fn priorities_order_dispatch_and_ties_stay_fifo() {
    let (g, inst) = small_case();
    let mut server = StreamingServer::new(ServerConfig {
        workers: 1,
        ..Default::default()
    });
    server.pause();
    let prios = [0, 5, -3, 5, 0];
    for (i, &p) in prios.iter().enumerate() {
        server
            .submit_with(
                request(&format!("p{p}-{i}"), &g, &inst, i as u64),
                JobOptions::default().with_priority(p),
            )
            .expect("admitted");
    }
    server.resume();
    let order: Vec<String> = (0..prios.len())
        .map(|_| {
            server
                .next_result_timeout(Duration::from_secs(60))
                .expect("drains")
                .id
        })
        .collect();
    // Highest priority first; equal priorities in submission order.
    assert_eq!(order, ["p5-1", "p5-3", "p0-0", "p0-4", "p-3-2"]);
    server.shutdown();
}

#[test]
fn cancelled_and_expired_jobs_are_reported_not_dropped() {
    let (g, inst) = small_case();
    let mut server = StreamingServer::new(ServerConfig {
        workers: 1,
        ..Default::default()
    });
    server.pause();
    let doomed = server
        .submit(request("doomed", &g, &inst, 1))
        .expect("admitted");
    let expired = server
        .submit_with(
            request("expired", &g, &inst, 2),
            JobOptions::default().with_deadline(std::time::Instant::now()),
        )
        .expect("admitted");
    let survivor = server
        .submit(request("survivor", &g, &inst, 3))
        .expect("admitted");
    assert!(doomed.cancel(), "cancel lands before dispatch");
    server.resume();

    assert!(matches!(doomed.wait().status, JobStatus::Cancelled));
    assert!(matches!(expired.wait().status, JobStatus::DeadlineExpired));
    assert!(survivor.wait().status.is_completed());
    server.shutdown();
    // All three reached the result stream too — nothing silently dropped.
    let mut results = 0;
    while server.try_next_result().is_some() {
        results += 1;
    }
    assert_eq!(results, 3);
}

#[test]
fn graph_with_exactly_threshold_nodes_takes_the_large_lane() {
    let (g, inst) = small_case();
    // Threshold == n: the job is large ("at least this many"), runs on
    // the large lane with the sharded executor, and still matches the
    // direct solve bit for bit.
    let server = StreamingServer::new(ServerConfig {
        workers: 2,
        large_node_threshold: g.n(),
        ..Default::default()
    });
    assert!(server.config().is_large(g.n()));
    assert!(!server.config().is_large(g.n() - 1));
    let req = request("boundary", &g, &inst, 5);
    let handle = server.submit(req.clone()).expect("admitted");
    let out = handle.wait();
    let reference = SolverSession::new().solve(&req).expect("clean solve");
    assert!(out
        .status
        .outcome()
        .expect("completed")
        .deterministic_eq(&reference));
}

#[test]
fn small_jobs_flow_while_a_large_job_drains() {
    let (small_g, small_inst) = small_case();
    let large_g = Arc::new(generators::grid(10, 10, 8, 1));
    let large_inst = InstanceBuilder::new(&large_g)
        .component(&[NodeId(0), NodeId(99)])
        .build()
        .unwrap();
    let mut server = StreamingServer::new(ServerConfig {
        workers: 2,
        // The 100-node grid is "large", the 24-node gnp stays small.
        large_node_threshold: 100,
        ..Default::default()
    });
    server.pause();
    let large = server
        .submit(SolveRequest::new(
            "large",
            large_g.clone(),
            large_inst.clone(),
            SolverKind::Deterministic,
            0,
        ))
        .expect("admitted");
    let smalls: Vec<_> = (0..6)
        .map(|s| {
            server
                .submit(request(&format!("small-{s}"), &small_g, &small_inst, s))
                .expect("admitted")
        })
        .collect();
    server.resume();
    // Both lanes drain concurrently and every result matches its direct
    // solve (lane choice is invisible in the outcome).
    let large_ref = SolverSession::new()
        .solve(&SolveRequest::new(
            "large",
            large_g,
            large_inst,
            SolverKind::Deterministic,
            0,
        ))
        .expect("clean solve");
    assert!(large
        .wait()
        .status
        .outcome()
        .expect("completed")
        .deterministic_eq(&large_ref));
    for (s, h) in smalls.iter().enumerate() {
        let reference = SolverSession::new()
            .solve(&request(
                &format!("small-{s}"),
                &small_g,
                &small_inst,
                s as u64,
            ))
            .expect("clean solve");
        assert!(h
            .wait()
            .status
            .outcome()
            .expect("completed")
            .deterministic_eq(&reference));
    }
    server.shutdown();
}

#[test]
fn submitting_after_shutdown_errors_and_shutdown_is_idempotent() {
    let (g, inst) = small_case();
    let mut server = StreamingServer::with_defaults();
    let handle = server
        .submit(request("pre", &g, &inst, 0))
        .expect("admitted");
    server.shutdown();
    assert!(handle.is_finished(), "shutdown drains admitted jobs");
    assert_eq!(
        server.submit(request("post", &g, &inst, 1)).unwrap_err(),
        ServerError::ShuttingDown
    );
    server.shutdown(); // second call is a no-op
}

#[test]
fn zero_workers_and_zero_capacity_are_clamped_to_one() {
    let server = StreamingServer::new(ServerConfig {
        workers: 0,
        queue_capacity: 0,
        ..Default::default()
    });
    assert_eq!(server.workers(), 1);
    assert_eq!(server.config().queue_capacity, 1);
    // And the clamped server actually works.
    let (g, inst) = small_case();
    let h = server
        .submit(request("clamped", &g, &inst, 0))
        .expect("admitted");
    assert!(h
        .wait_timeout(Duration::from_secs(60))
        .expect("drains")
        .status
        .is_completed());
}

/// A deterministic mixed batch: two graphs, all four solver kinds, two
/// seeds per kind (8 jobs).
fn mixed_requests() -> Vec<SolveRequest> {
    let (g1, i1) = small_case();
    let g2 = Arc::new(generators::grid(4, 6, 8, 1));
    let i2 = InstanceBuilder::new(&g2)
        .component(&[NodeId(0), NodeId(23)])
        .component(&[NodeId(5), NodeId(18)])
        .build()
        .unwrap();
    let mut reqs = Vec::new();
    for (s, &solver) in SolverKind::ALL.iter().enumerate() {
        for seed in [s as u64, s as u64 + 10] {
            let (g, inst) = if seed % 2 == 0 {
                (&g1, &i1)
            } else {
                (&g2, &i2)
            };
            reqs.push(SolveRequest::new(
                format!("{}-{seed}", solver.name()),
                g.clone(),
                inst.clone(),
                solver,
                seed,
            ));
        }
    }
    reqs
}

/// The one-at-a-time reference: every request on its own fresh session.
fn fresh_solves(requests: &[SolveRequest]) -> Vec<JobOutcome> {
    requests
        .iter()
        .map(|r| SolverSession::new().solve(r).expect("clean solve"))
        .collect()
}

fn assert_matches_fresh(report: &ServiceReport, reference: &[JobOutcome], ctx: &str) {
    assert_eq!(report.jobs.len(), reference.len(), "{ctx}");
    assert!(
        report.violations.is_empty(),
        "{ctx}: {:?}",
        report.violations
    );
    for (job, want) in report.jobs.iter().zip(reference) {
        assert!(
            job.deterministic_eq(want),
            "{ctx}: job {} diverged from its fresh-session solve",
            job.id
        );
    }
}

/// Runs `run_batch` on a helper thread that owns the server, so a hang
/// fails the test within [`WAIT`]; hands the server back for shutdown.
fn run_batch_bounded(
    server: StreamingServer,
    requests: Vec<SolveRequest>,
) -> (StreamingServer, Result<ServiceReport, BatchError>) {
    let (tx, rx) = mpsc::channel();
    let helper = std::thread::spawn(move || {
        let res = server.run_batch(&requests);
        let _ = tx.send((server, res));
    });
    let got = rx
        .recv_timeout(WAIT)
        .expect("run_batch returns in bounded time");
    helper
        .join()
        .expect("the batch helper thread does not panic");
    got
}

#[test]
fn batched_results_are_bit_identical_to_sequential_at_every_worker_count() {
    let requests = mixed_requests();
    let reference = fresh_solves(&requests);
    for workers in [1, 2, 4] {
        let server = StreamingServer::new(ServerConfig {
            workers,
            ..Default::default()
        });
        let report = server.run_batch(&requests).expect("clean batch");
        assert_eq!(report.workers, workers);
        assert_matches_fresh(&report, &reference, &format!("workers={workers}"));
    }
}

#[test]
fn large_jobs_take_the_whole_pool_and_still_match_sequential() {
    let requests = mixed_requests();
    // Threshold 1 node: every job is large and runs sharded on the large
    // lane with all four workers as executor threads.
    let server = StreamingServer::new(ServerConfig {
        workers: 4,
        large_node_threshold: 1,
        ..Default::default()
    });
    let report = server.run_batch(&requests).expect("clean batch");
    assert_matches_fresh(&report, &fresh_solves(&requests), "large lane");
}

#[test]
fn report_carries_ratios_and_request_order() {
    let g = Arc::new(generators::path(6, 2));
    let inst = InstanceBuilder::new(&g)
        .component(&[NodeId(0), NodeId(5)])
        .build()
        .unwrap();
    // OPT on a weight-2 path of 5 edges is exactly 10.
    let requests: Vec<_> = (0..3)
        .map(|seed| {
            SolveRequest::new(
                format!("p{seed}"),
                g.clone(),
                inst.clone(),
                SolverKind::Deterministic,
                seed,
            )
            .with_cert_upper(10)
        })
        .collect();
    let server = StreamingServer::new(ServerConfig {
        workers: 2,
        ..Default::default()
    });
    let report = server.run_batch(&requests).expect("clean batch");
    for (i, job) in report.jobs.iter().enumerate() {
        assert_eq!(job.id, format!("p{i}"), "request order preserved");
        assert_eq!(job.weight, 10);
        assert_eq!(job.ratio_milli, Some(1000));
    }
}

#[test]
fn warm_sessions_allocate_no_arenas_in_steady_state() {
    let requests = mixed_requests();
    let mut session = SolverSession::new();
    let cold: Vec<_> = requests
        .iter()
        .map(|r| session.solve(r).expect("clean solve"))
        .collect();
    let warm = session.pool_stats();
    assert!(warm.builds > 0, "the cold pass must have built arenas");
    let steady: Vec<_> = requests
        .iter()
        .map(|r| session.solve(r).expect("clean solve"))
        .collect();
    let stats = session.pool_stats();
    assert_eq!(
        stats.builds, warm.builds,
        "steady-state solves must not allocate arenas"
    );
    assert!(stats.reuses > warm.reuses, "reuse counters must grow");
    for (a, b) in cold.iter().zip(&steady) {
        assert!(a.deterministic_eq(b), "reuse perturbed {}", a.id);
    }
}

#[test]
fn run_batch_longer_than_the_queue_completes_under_reject() {
    let requests = mixed_requests();
    // 8 jobs through a 2-deep queue whose policy would refuse a plain
    // `submit`: the batch waits for space itself.
    let server = StreamingServer::new(ServerConfig {
        workers: 1,
        queue_capacity: 2,
        admission: AdmissionPolicy::Reject,
        ..Default::default()
    });
    let (mut server, res) = run_batch_bounded(server, requests.clone());
    let report = res.expect("a batch never sees Saturated");
    assert_matches_fresh(&report, &fresh_solves(&requests), "reject policy");
    server.shutdown();
}

/// Probe: a request pairing a 10-node graph with an instance built on a
/// 40-node graph used to panic inside the deterministic solver and kill
/// the lane worker, losing that job and every later one on the lane.
#[test]
fn mismatched_instance_is_refused_at_submit() {
    let g10 = Arc::new(generators::gnp_connected(10, 0.4, 9, 1));
    let g40 = generators::gnp_connected(40, 0.2, 9, 1);
    let inst40 = InstanceBuilder::new(&g40)
        .component(&[NodeId(0), NodeId(39)])
        .build()
        .unwrap();
    let bad = SolveRequest::new("bad", g10, inst40, SolverKind::Deterministic, 0);
    let mismatch = ServerError::InstanceMismatch {
        instance_nodes: 40,
        graph_nodes: 10,
    };
    let server = StreamingServer::new(ServerConfig {
        workers: 1,
        ..Default::default()
    });
    assert_eq!(server.submit(bad.clone()).unwrap_err(), mismatch);
    assert_eq!(server.queued(), 0, "a refused request is never queued");

    // The single worker still serves the next valid job.
    let (g, inst) = small_case();
    let next = request("next", &g, &inst, 3);
    let handle = server.submit(next.clone()).expect("admitted");
    let out = handle.wait_timeout(WAIT).expect("reported");
    let fresh = SolverSession::new().solve(&next).expect("clean solve");
    assert!(out
        .status
        .outcome()
        .expect("completed")
        .deterministic_eq(&fresh));

    // A batch naming the bad request fails on it, typed.
    let batch = vec![next, bad];
    let (mut server, res) = run_batch_bounded(server, batch);
    match res.expect_err("the batch holds a mismatched request") {
        BatchError::Refused { index, id, error } => {
            assert_eq!((index, id.as_str(), error), (1, "bad", mismatch));
        }
        other => panic!("expected a refusal, got {other}"),
    }
    server.shutdown();
}

/// Probe: `CollectAtRoot` on a disconnected graph (the public
/// `build_unchecked` makes one) panics inside the solver's BFS stage. A
/// request of the right size, so it reaches a lane: the panic must end
/// only its own job, on either lane.
#[test]
fn panicking_solve_is_reported_and_the_lane_survives() {
    let mut b = GraphBuilder::new(4);
    b.add_edge(NodeId(0), NodeId(1), 1).unwrap();
    b.add_edge(NodeId(2), NodeId(3), 1).unwrap();
    let split = Arc::new(b.build_unchecked());
    let split_inst = InstanceBuilder::new(&split)
        .component(&[NodeId(0), NodeId(3)])
        .build()
        .unwrap();
    let boom = SolveRequest::new("boom", split, split_inst, SolverKind::CollectAtRoot, 0);
    let (g, inst) = small_case();
    let next = request("next", &g, &inst, 4);
    let fresh = SolverSession::new().solve(&next).expect("clean solve");

    for threshold in [DEFAULT_LARGE_NODE_THRESHOLD, 1] {
        let server = StreamingServer::new(ServerConfig {
            workers: 1,
            large_node_threshold: threshold,
            ..Default::default()
        });
        let ctx = format!("threshold={threshold}");
        let bad = server.submit(boom.clone()).expect("admitted");
        let status = bad.wait_timeout(WAIT).expect("reported").status;
        assert!(
            matches!(status, JobStatus::Panicked(_)),
            "{ctx}: {status:?}"
        );

        // Same single worker, fresh session: the next job completes.
        let ok = server.submit(next.clone()).expect("admitted");
        let out = ok.wait_timeout(WAIT).expect("reported");
        assert!(
            out.status
                .outcome()
                .expect("completed")
                .deterministic_eq(&fresh),
            "{ctx}"
        );

        // A batch holding the panicking job names it.
        let batch = vec![next.clone(), boom.clone(), next.clone()];
        let (mut server, res) = run_batch_bounded(server, batch);
        match res.expect_err("the batch holds a panicking job") {
            BatchError::NotCompleted { index, id, status } => {
                assert_eq!((index, id.as_str()), (1, "boom"), "{ctx}");
                assert!(matches!(status, JobStatus::Panicked(_)), "{ctx}");
            }
            other => panic!("{ctx}: expected NotCompleted, got {other}"),
        }
        // Both the explicit shutdown and the drop after it return.
        server.shutdown();
    }

    // Dropping a server whose lane saw a panic returns normally too.
    let server = StreamingServer::new(ServerConfig {
        workers: 1,
        ..Default::default()
    });
    let bad = server.submit(boom).expect("admitted");
    assert!(bad.wait_timeout(WAIT).is_some());
    drop(server);
}
