//! `solve-large`: a closed loop of one client sending deterministic solves
//! of 16k-node graphs through the streaming server's large lane, which
//! runs each on the work-stealing executor at `WORKERS` threads.
//!
//! 16k rather than ~65k nodes: on a shared 2-core host, 65k-node solves
//! (~300 MiB of arenas each) slowed by up to 1.7× with the host's load,
//! far more than 16k-node ones, and a run held only 6–9 of them instead
//! of ~40. The server's large-lane threshold is lowered to the graphs'
//! size so they still run sharded.
//!
//! The client cycles through a fixed instance list and only stops at a
//! cycle boundary, so every run weighs the instances equally. The first
//! cycle's outputs are the references every later cycle must reproduce
//! bit for bit.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use dsf_bench::alloc_meter;
use dsf_bench::perf::gossip_nodes;
use dsf_congest::{
    run, run_sharded, sched_obs_totals, with_threads, CongestConfig, SchedObsTotals,
};
use dsf_core::det::voronoi::{decompose, VorStatus};
use dsf_core::primitives::{build_bfs_tree, flood_items, FloodItem};
use dsf_graph::dyadic::Dyadic;
use dsf_graph::{generators, NodeId};
use dsf_server::{AdmissionPolicy, ServerConfig, StreamingServer};
use dsf_service::{JobOutcome, SolveRequest, SolverKind, SolverSession};
use dsf_steiner::{greedy, random_instance};

use crate::check::{Checker, Digest};
use crate::spec::{family_of, LARGE_FAMILIES, WORKERS};
use crate::stats::{median, p99};
use crate::trace::Tracer;
use crate::{repeated, timed, Pass, SetupTimes, Workload};

/// Grid side (128² = 16,384 nodes) and RMAT node count.
const GRID_SIDE: usize = 128;
const RMAT_N: usize = 16_384;
/// The server's large-lane threshold: both graphs go sharded.
const LARGE_NODES: usize = 16_384;
/// Demand components per instance and terminals per component: grid,
/// RMAT. (Shapes whose det phase count does not swing with the seed.)
const K: [(usize, usize); 2] = [(8, 4), (8, 2)];
/// One closed-loop cycle: the grid solve twice and the RMAT solve once,
/// so the median request is a grid solve, whose work barely moves with
/// the seed (a two-point mix would put the median on the boundary
/// between the two instances).
const CYCLE: [usize; 3] = [0, 1, 0];
/// Gossip rounds of the executor replay.
const GOSSIP_ROUNDS: u32 = 10;

/// Inputs and references of the workload.
pub struct SolveLarge {
    reqs: Vec<SolveRequest>,
    /// From-scratch greedy weight per request (the `weight_ratio` base;
    /// local search is left out at this size, where it costs far more
    /// than the solves).
    greedy_weight: Vec<u64>,
}

impl Workload for SolveLarge {
    const NAME: &'static str = "solve-large";
    const TAG: &'static str = "large";

    fn setup(seed: u64, _chk: &mut Checker) -> (Self, SetupTimes) {
        let (graphs, graphs_s) = repeated(|| {
            [
                Arc::new(generators::grid(GRID_SIDE, GRID_SIDE, 16, seed ^ 0x61)),
                Arc::new(generators::rmat(RMAT_N, 3, 16, seed ^ 0x62)),
            ]
        });
        let (reqs, instances_s) = repeated(|| {
            graphs
                .iter()
                .zip(["grid", "rmat"])
                .zip(K)
                .map(|((g, fam), (k, size))| {
                    let inst = random_instance(g, k, size, seed ^ 0x63);
                    SolveRequest::new(
                        format!("{fam}/k={k}x{size}"),
                        g.clone(),
                        inst,
                        SolverKind::Deterministic,
                        0,
                    )
                })
                .collect::<Vec<_>>()
        });
        let (greedy_weight, references_s) = timed(|| {
            reqs.iter()
                .map(|r| greedy::solve_greedy(&r.graph, &r.instance).weight(&r.graph))
                .collect()
        });
        (
            SolveLarge {
                reqs,
                greedy_weight,
            },
            SetupTimes {
                graphs: graphs_s,
                instances: instances_s,
                references: references_s,
                warmup: 0.0,
            },
        )
    }

    fn pass(&self, seconds: f64, tracer: &mut Tracer, chk: &mut Checker) -> Pass {
        let mut server = StreamingServer::new(ServerConfig {
            workers: WORKERS,
            admission: AdmissionPolicy::Reject,
            large_node_threshold: LARGE_NODES,
            ..ServerConfig::default()
        });
        let mut pass = Pass::default();
        let mut first: Vec<Option<JobOutcome>> = vec![None; self.reqs.len()];
        let mut latency = Vec::new();
        let mut stages: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        let (mut weight, mut base) = (0u64, 0u64);
        alloc_meter::reset_peak();
        let base_bytes = alloc_meter::current_bytes();
        // Only this pass's solves run sharded, so the process-wide executor
        // counters' difference over the pass is theirs.
        let obs0 = sched_obs_totals();
        let t0 = Instant::now();
        let mut cycles = 0usize;
        let mut last_cycle = 0.0;
        loop {
            let c0 = Instant::now();
            let mut cycle = Digest::default();
            for (slot, &i) in CYCLE.iter().enumerate() {
                let r = &self.reqs[i];
                let job = (cycles * CYCLE.len() + slot) as u64;
                let request = format!("cycle{cycles}/{slot}/{}", r.id);
                pass.attempted += 1;
                let s0 = Instant::now();
                let handle = server.submit(r.clone());
                let s1 = Instant::now();
                let Ok(handle) = handle else {
                    pass.failed += 1;
                    chk.fail(Self::NAME, &request, "refused by the server");
                    continue;
                };
                let res = handle.wait();
                let done = Instant::now();
                let ms = done.duration_since(s0).as_secs_f64() * 1e3;
                let Some(out) = res.status.outcome() else {
                    pass.failed += 1;
                    chk.fail(
                        Self::NAME,
                        &request,
                        format!("not completed: {:?}", res.status),
                    );
                    continue;
                };
                if !chk.forest(Self::NAME, &request, &r.graph, &r.instance, &out.forest) {
                    pass.failed += 1;
                    continue;
                }
                match &first[i] {
                    None => first[i] = Some(out.clone()),
                    Some(f) if f.forest == out.forest && f.ledger == out.ledger => {}
                    Some(_) => {
                        pass.failed += 1;
                        chk.fail(Self::NAME, &request, "differs from the first cycle's solve");
                        continue;
                    }
                }
                latency.push(ms);
                cycle.weight += out.weight;
                cycle.rounds += out.rounds();
                cycle.messages += out.messages();
                cycle.items += 1;
                if cycles == 0 {
                    weight += out.weight;
                    base += self.greedy_weight[i];
                    if tracer.on() {
                        for e in out.ledger.entries() {
                            let slot = stages.entry(family_of(&e.label, e.simulated)).or_default();
                            slot.0 += e.simulated + e.charged;
                            slot.1 += e.messages;
                        }
                    }
                }
                if tracer.on() {
                    let root =
                        tracer.record("request.large", job, None, tracer.ns(s0), tracer.ns(done));
                    tracer.record("server.admit", job, root, tracer.ns(s0), tracer.ns(s1));
                    let q0 = tracer.ns(s1);
                    tracer.record("server.queue", job, root, q0, q0 + res.queued_ns);
                    let w0 = q0 + res.queued_ns;
                    tracer.record("service.solve.det_t2", job, root, w0, w0 + out.wall_ns);
                }
            }
            if cycles == 0 {
                pass.digest = cycle;
            } else {
                chk.digest_eq(Self::NAME, &format!("cycle{cycles}"), &cycle, &pass.digest);
            }
            cycles += 1;
            last_cycle = c0.elapsed().as_secs_f64().max(last_cycle);
            // Stop once another cycle would end more than half a cycle
            // past the deadline.
            if t0.elapsed().as_secs_f64() + last_cycle / 2.0 >= seconds {
                break;
            }
        }
        let elapsed = t0.elapsed().as_secs_f64();
        let obs1 = sched_obs_totals();
        let obs = SchedObsTotals {
            sharded_runs: obs1.sharded_runs - obs0.sharded_runs,
            worker_rounds: obs1.worker_rounds - obs0.worker_rounds,
            slots_processed: obs1.slots_processed - obs0.slots_processed,
            chunks_stolen: obs1.chunks_stolen - obs0.chunks_stolen,
            idle_waits: obs1.idle_waits - obs0.idle_waits,
        };
        let peak_mib =
            alloc_meter::peak_bytes().saturating_sub(base_bytes) as f64 / (1 << 20) as f64;
        server.shutdown();
        let mut streamed = 0u64;
        while server.try_next_result().is_some() {
            streamed += 1;
        }
        if streamed != pass.attempted - pass.failed {
            chk.fail(
                Self::NAME,
                "result stream",
                format!(
                    "{streamed} results streamed for {} completed jobs",
                    pass.attempted - pass.failed
                ),
            );
        }
        let solves = latency.len().max(1) as f64;
        pass.notes.push(format!(
            "{cycles} cycles of {} solves in {elapsed:.3}s; latency p50={:.3}ms max={:.3}ms (n={}, \
             too few for a p99: latency_p99_ms reports the max)",
            CYCLE.len(),
            median(&latency),
            latency.iter().copied().fold(0.0, f64::max),
            latency.len(),
        ));
        pass.notes.push(format!(
            "solve latencies (ms, in order): {}",
            latency
                .iter()
                .map(|ms| format!("{ms:.0}"))
                .collect::<Vec<_>>()
                .join(" ")
        ));
        pass.notes.push(format!(
            "executor per solve: sharded_runs={:.1} slots={:.0} steals={:.1} idle_waits={:.1}",
            obs.sharded_runs as f64 / solves,
            obs.slots_processed as f64 / solves,
            obs.chunks_stolen as f64 / solves,
            obs.idle_waits as f64 / solves
        ));
        pass.e2e.insert("latency_p50_ms", median(&latency));
        pass.e2e.insert("latency_p99_ms", p99(&latency));
        pass.e2e
            .insert("goodput_rps", latency.len() as f64 / elapsed);
        pass.e2e.insert(
            "completed_frac",
            1.0 - pass.failed as f64 / pass.attempted.max(1) as f64,
        );
        pass.e2e
            .insert("weight_ratio", weight as f64 / base.max(1) as f64);
        pass.e2e.insert("sim_rounds", pass.digest.rounds as f64);
        pass.e2e.insert("sim_messages", pass.digest.messages as f64);
        pass.e2e.insert("peak_alloc_mib", peak_mib);
        pass.digest_key = "cycle".into();
        if tracer.on() {
            let admit: Vec<f64> = tracer
                .durations_ms("server.admit")
                .iter()
                .map(|ms| ms * 1e3)
                .collect();
            pass.layer
                .push(("server.admit_us.large.p50".into(), median(&admit)));
            pass.layer.push((
                "server.queue_wait_ms.large.p50".into(),
                median(&tracer.durations_ms("server.queue")),
            ));
            let stage = |fam: &str| stages.get(fam).copied().unwrap_or_default();
            for fam in LARGE_FAMILIES {
                pass.layer.push((
                    format!("core.stage_rounds.large.{fam}"),
                    stage(fam).0 as f64,
                ));
            }
            for fam in LARGE_FAMILIES.iter().filter(|&&f| f != "charged") {
                pass.layer.push((
                    format!("core.stage_messages.large.{fam}"),
                    stage(fam).1 as f64,
                ));
            }
            pass.layer.push((
                "congest.sharded_runs".into(),
                obs.sharded_runs as f64 / solves,
            ));
            pass.layer
                .push(("congest.slots".into(), obs.slots_processed as f64 / solves));
            pass.layer
                .push(("congest.steals".into(), obs.chunks_stolen as f64 / solves));
            pass.layer.push((
                "congest.idle_wait_frac".into(),
                obs.idle_waits as f64 / (obs.worker_rounds + obs.idle_waits).max(1) as f64,
            ));
            pass.layer.push((
                "coverage.large.det_t2".into(),
                tracer.coverage("request.large"),
            ));
        }
        pass
    }

    fn layers(&self, tracer: &mut Tracer, chk: &mut Checker, out: &mut Vec<(String, f64)>) {
        // The session call the large lane makes, outside the server.
        let mut session = SolverSession::new();
        for (i, r) in self.reqs.iter().enumerate() {
            let req = 2_000_000 + i as u64;
            let got = tracer.span("replay.service.det_t2", req, None, || {
                session.solve_with_threads(r, WORKERS)
            });
            match got {
                Ok(o) if chk.forest(Self::NAME, &r.id, &r.graph, &r.instance, &o.forest) => {}
                Ok(_) => {}
                Err(e) => chk.fail(Self::NAME, &r.id, format!("replayed solve failed: {e}")),
            }
        }
        out.push((
            "service.solve_ms.det_t2.p50".into(),
            median(&tracer.durations_ms("replay.service.det_t2")),
        ));

        // det's first CONGEST stages, replayed at the large lane's thread
        // count: BFS tree, terminal label broadcast, first-phase
        // terminal decomposition (every terminal an active source).
        for (i, r) in self.reqs.iter().enumerate() {
            let req = 2_100_000 + i as u64;
            let g = r.graph.as_ref();
            let cfg = CongestConfig::for_graph(g);
            let minimal = r.instance.make_minimal();
            let terms = minimal.terminals();
            with_threads(WORKERS, || {
                tracer
                    .span("core.det.bfs", req, None, || {
                        build_bfs_tree(g, NodeId(0), &cfg)
                    })
                    .expect("replayed BFS runs clean");
                let items: Vec<Vec<FloodItem>> = g
                    .nodes()
                    .map(|v| match minimal.label(v) {
                        Some(l) => vec![FloodItem {
                            payload: (u128::from(v.0) << 32) | u128::from(l.0),
                            bits: 64,
                        }],
                        None => Vec::new(),
                    })
                    .collect();
                tracer
                    .span("core.det.flood", req, None, || flood_items(g, items, &cfg))
                    .expect("replayed flood runs clean");
                let mut status = vec![VorStatus::Free; g.n()];
                for (t, &v) in terms.iter().enumerate() {
                    status[v.idx()] = VorStatus::Source {
                        owner: t as u32,
                        offset: Dyadic::ZERO,
                    };
                }
                tracer
                    .span("core.det.voronoi", req, None, || {
                        decompose(g, &status, &cfg)
                    })
                    .expect("replayed decomposition runs clean");
            });
        }
        for st in ["bfs", "flood", "voronoi"] {
            let total: f64 = tracer.durations_ms(&format!("core.det.{st}")).iter().sum();
            out.push((format!("core.det.{st}_ms"), total / self.reqs.len() as f64));
        }

        // The executor alone: dense gossip through the event engine (t=1)
        // and the work-stealing engine (t=2) on the same graphs.
        let (mut t1, mut t2, mut activations) = (0.0, 0.0, 0u64);
        for (i, r) in self.reqs.iter().enumerate() {
            let g = r.graph.as_ref();
            let cfg = CongestConfig::for_graph(g);
            let req = 2_200_000 + i as u64;
            let single = tracer.span("congest.gossip.t1", req, None, || {
                with_threads(1, || run(g, gossip_nodes(g, GOSSIP_ROUNDS), &cfg))
            });
            let sharded = tracer.span("congest.gossip.t2", req, None, || {
                run_sharded(g, gossip_nodes(g, GOSSIP_ROUNDS), &cfg, WORKERS)
            });
            match (single, sharded) {
                (Ok(a), Ok(b)) if a.metrics == b.metrics && a.stats == b.stats => {
                    activations += a.stats.activations;
                }
                _ => chk.fail(
                    Self::NAME,
                    &r.id,
                    "gossip differs between t=1 and t=2 engines",
                ),
            }
            t1 += tracer
                .durations_ms("congest.gossip.t1")
                .last()
                .copied()
                .unwrap_or(0.0);
            t2 += tracer
                .durations_ms("congest.gossip.t2")
                .last()
                .copied()
                .unwrap_or(0.0);
        }
        out.push(("congest.gossip_ms.t1".into(), t1));
        out.push(("congest.gossip_ms.t2".into(), t2));
        out.push(("congest.activations".into(), activations as f64));
    }
}
