//! `serve-mixed`: an open loop of independent users offering small solve
//! jobs to a `StreamingServer` at fixed absolute rates.
//!
//! Jobs come from a seeded pool of small graphs (64–256 nodes; gnp, grid,
//! RMAT, geometric; k 2–8) with a det / randomized / khan mix. Each rate
//! (rung) sends jobs on a fixed schedule; a job's latency runs from the
//! moment it was due to the moment its result was received, so a stall
//! also delays every job queued behind it. A rung where the generator
//! itself fell behind is invalid and yields no latency claim.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dsf_bench::alloc_meter;
use dsf_congest::{CongestConfig, RoundLedger};
use dsf_core::det::{solve_deterministic, DetConfig};
use dsf_core::primitives::build_bfs_tree;
use dsf_core::randomized::{selection::run_selection_stage, solve_randomized, RandConfig};
use dsf_embed::{distributed::le_lists_distributed, Embedding, EmbeddingConfig};
use dsf_graph::{generators, metrics, NodeId, WeightedGraph};
use dsf_server::{AdmissionPolicy, JobResult, JobStatus, ServerConfig, StreamingServer};
use dsf_service::{JobOutcome, SolveRequest, SolverKind, SolverSession};
use dsf_steiner::{random_instance, Instance};
use dsf_workloads::conformance::scratch_solve;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::check::{self, Checker, Digest};
use crate::spec::{family_of, SERVE_FAMILIES, WORKERS};
use crate::stats::{beyond_p99, median, p99};
use crate::trace::Tracer;
use crate::{repeated, timed, Pass, SetupTimes, Workload};

/// One offered rate: name, jobs per second, share of the pass.
struct Rung {
    name: &'static str,
    rate: f64,
    share: f64,
}

/// The fixed absolute rates. `mid` is the reference rate the latency
/// metrics are reported at (1512 samples in a 30 s run, so at least 15
/// lie beyond its p99); `high` overloads the 2-core host on purpose.
const RUNGS: [Rung; 3] = [
    Rung {
        name: "low",
        rate: 25.0,
        share: 0.08,
    },
    Rung {
        name: "mid",
        rate: 60.0,
        share: 0.84,
    },
    Rung {
        name: "high",
        rate: 400.0,
        share: 0.08,
    },
];
/// Index of the reference rung.
const REF_RUNG: usize = 1;
/// The p99 latency limit a rung must meet to count toward goodput.
pub const LATENCY_LIMIT_MS: f64 = 500.0;
/// A rung whose generator ran later than this at p99 fell behind and is
/// invalid: a tenth of the latency limit, so scheduling jitter on a busy
/// host does not invalidate a rate the server itself sustains.
pub const GEN_LATE_LIMIT_MS: f64 = LATENCY_LIMIT_MS / 10.0;
/// A rung's backlog "grows" when its trend exceeds this share of the rate.
const BACKLOG_GROWTH_FRAC: f64 = 0.05;
/// How long the collector waits for stragglers after the last arrival.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);
/// Admission queue depth (rejecting when full: refusals count as failed).
const QUEUE_CAPACITY: usize = 4096;

const FAMILIES: [&str; 4] = ["gnp", "grid", "rmat", "geometric"];
/// Pool composition: solver, entry count, node counts cycled through.
/// Randomized and khan run on 64-node graphs: their sequential
/// tree-embedding set-up grows ~n^2.3, and even so they take most of the
/// CPU. Keeping them small bounds how long a det job can queue behind
/// one, so the reference rate's latency amplifies the host's speed drift
/// less through queueing.
const MIX: [(SolverKind, usize, &[usize]); 3] = [
    (SolverKind::Deterministic, 56, &[64, 96, 128, 192, 256]),
    (SolverKind::Randomized, 16, &[64]),
    (SolverKind::Khan, 8, &[64]),
];

fn mix(seed: u64, i: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(salt);
    z = (z ^ (z >> 30)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn small_graph(family: &str, n: usize, seed: u64) -> WeightedGraph {
    match family {
        "gnp" => generators::gnp_connected(n, 6.0 / n as f64, 16, seed),
        "grid" => generators::grid(n / 16, 16, 16, seed),
        "rmat" => generators::rmat(n, 3, 16, seed),
        _ => {
            generators::random_geometric(n, (8.0 / (std::f64::consts::PI * n as f64)).sqrt(), seed)
        }
    }
}

/// One pool entry: a complete request plus its references.
struct Entry {
    req: SolveRequest,
    reference: JobOutcome,
    scratch_weight: u64,
}

/// Inputs and references of the workload.
pub struct ServeMixed {
    pool: Vec<Entry>,
    /// Job index → pool entry, a seeded permutation cycled.
    order: Vec<usize>,
}

/// One submission as the generator saw it.
struct Sent {
    job: usize,
    rung: usize,
    due: Instant,
    start: Instant,
    end: Instant,
    job_id: Option<u64>,
    backlog: usize,
}

impl Workload for ServeMixed {
    const NAME: &'static str = "serve-mixed";
    const TAG: &'static str = "serve";

    fn setup(seed: u64, chk: &mut Checker) -> (Self, SetupTimes) {
        let plan: Vec<(SolverKind, usize)> = MIX
            .iter()
            .flat_map(|&(kind, count, sizes)| {
                (0..count).map(move |j| (kind, sizes[j % sizes.len()]))
            })
            .collect();
        let (graphs, graphs_s) = repeated(|| {
            plan.iter()
                .enumerate()
                .map(|(i, &(_, n))| {
                    let g = small_graph(FAMILIES[i % FAMILIES.len()], n, mix(seed, i as u64, 1));
                    Arc::new(g)
                })
                .collect::<Vec<_>>()
        });
        let (requests, instances_s) = repeated(|| {
            plan.iter()
                .enumerate()
                .map(|(i, &(kind, _))| {
                    let g = &graphs[i];
                    let k = 2 + (i * 5) % 7;
                    let inst = random_instance(g, k, 2, mix(seed, i as u64, 2));
                    SolveRequest::new(
                        format!("pool{i}/{}", kind.name()),
                        g.clone(),
                        inst,
                        kind,
                        mix(seed, i as u64, 3),
                    )
                })
                .collect::<Vec<_>>()
        });
        let (pool, references_s) = timed(|| {
            requests
                .into_iter()
                .map(|req| {
                    let reference = SolverSession::new()
                        .solve(&req)
                        .unwrap_or_else(|e| panic!("serve-mixed: reference {}: {e}", req.id));
                    chk.forest(
                        Self::NAME,
                        &req.id,
                        &req.graph,
                        &req.instance,
                        &reference.forest,
                    );
                    let scratch_weight =
                        scratch_solve(&req.graph, &req.instance).weight(&req.graph);
                    Entry {
                        req,
                        reference,
                        scratch_weight,
                    }
                })
                .collect::<Vec<_>>()
        });
        let first = &pool[0];
        let d = Digest {
            weight: first.reference.weight,
            rounds: first.reference.rounds(),
            messages: first.reference.messages(),
            moves: 0,
            items: 1,
        };
        match check::self_test(
            &first.req.graph,
            &first.req.instance,
            &first.reference.forest,
            &d,
        ) {
            Ok(()) => println!(
                "{}: self-test: dropped-edge and tampered-digest checks fire",
                Self::NAME
            ),
            Err(e) => chk.fail(Self::NAME, "self-test", e),
        }
        let mut rng = StdRng::seed_from_u64(mix(seed, 0, 4));
        let mut order: Vec<usize> = (0..pool.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        (
            ServeMixed { pool, order },
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
            queue_capacity: QUEUE_CAPACITY,
            admission: AdmissionPolicy::Reject,
            ..ServerConfig::default()
        });
        // Warm-up: every pool entry once, so each worker session has
        // pooled arenas and the allocator has settled.
        let (_, warmup_s) = timed(|| {
            let handles: Vec<_> = self
                .pool
                .iter()
                .map(|e| server.submit(e.req.clone()).expect("warm-up admission"))
                .collect();
            for (h, e) in handles.iter().zip(&self.pool) {
                check_result(chk, e, &h.wait(), "warm-up");
            }
            for _ in 0..handles.len() {
                server.next_result().expect("warm-up result is streamed");
            }
        });

        // The schedule: fixed spacing per rung, due times relative to t0.
        let mut schedule: Vec<(usize, f64)> = Vec::new();
        let mut offset = 0.0;
        for (r, rung) in RUNGS.iter().enumerate() {
            let span = rung.share * seconds;
            let count = (rung.rate * span).round() as usize;
            for j in 0..count {
                schedule.push((r, offset + j as f64 / rung.rate));
            }
            offset += span;
        }
        alloc_meter::reset_peak();
        let base_bytes = alloc_meter::current_bytes();
        let t0 = Instant::now() + Duration::from_millis(20);
        let admitted = AtomicUsize::new(0);
        let gen_done = AtomicBool::new(false);
        let mut received: Vec<(Instant, JobResult)> = Vec::with_capacity(schedule.len());
        let sent: Vec<Sent> = std::thread::scope(|s| {
            let generator = s.spawn(|| {
                let mut sent = Vec::with_capacity(schedule.len());
                for (job, &(rung, at)) in schedule.iter().enumerate() {
                    let due = t0 + Duration::from_secs_f64(at);
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    let entry = &self.pool[self.order[job % self.order.len()]];
                    let mut req = entry.req.clone();
                    req.id = format!("job{job}");
                    let start = Instant::now();
                    let res = server.submit(req);
                    let end = Instant::now();
                    let job_id = res.ok().map(|h| h.job_id());
                    if job_id.is_some() {
                        admitted.fetch_add(1, Ordering::SeqCst);
                    }
                    sent.push(Sent {
                        job,
                        rung,
                        due,
                        start,
                        end,
                        job_id,
                        backlog: server.queued(),
                    });
                }
                gen_done.store(true, Ordering::SeqCst);
                sent
            });
            let mut drain_deadline = None;
            loop {
                if let Some(r) = server.next_result_timeout(Duration::from_millis(20)) {
                    received.push((Instant::now(), r));
                }
                if gen_done.load(Ordering::SeqCst) {
                    if received.len() >= admitted.load(Ordering::SeqCst) {
                        break;
                    }
                    let deadline =
                        *drain_deadline.get_or_insert_with(|| Instant::now() + DRAIN_TIMEOUT);
                    if Instant::now() > deadline {
                        break;
                    }
                }
            }
            generator.join().expect("generator thread")
        });
        let peak_mib =
            alloc_meter::peak_bytes().saturating_sub(base_bytes) as f64 / (1 << 20) as f64;
        server.shutdown();
        while let Some(r) = server.try_next_result() {
            received.push((Instant::now(), r));
        }

        // Results by server job id; every job must report exactly once.
        let mut by_id: HashMap<u64, (Instant, JobResult)> = HashMap::with_capacity(received.len());
        for (at, r) in received {
            let id = r.job_id;
            if by_id.insert(id, (at, r)).is_some() {
                chk.fail(Self::NAME, &format!("job id {id}"), "result reported twice");
            }
        }

        let mut pass = Pass {
            warmup_s,
            ..Pass::default()
        };
        let mut digest = Digest::default();
        let (mut weight, mut scratch) = (0u64, 0u64);
        let mut lat: Vec<Vec<f64>> = vec![Vec::new(); RUNGS.len()];
        let mut good: Vec<usize> = vec![0; RUNGS.len()];
        let mut last_recv: Vec<Option<Instant>> = vec![None; RUNGS.len()];
        let mut late: Vec<Vec<f64>> = vec![Vec::new(); RUNGS.len()];
        let mut backlog: Vec<Vec<(f64, usize)>> = vec![Vec::new(); RUNGS.len()];
        let mut stages: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        // Σ solve wall time per rung and per (rung, kind): utilization.
        let mut busy: Vec<BTreeMap<&'static str, (f64, usize)>> =
            vec![BTreeMap::new(); RUNGS.len()];
        for s in &sent {
            pass.attempted += 1;
            let entry = &self.pool[self.order[s.job % self.order.len()]];
            let request = format!("job{} ({})", s.job, entry.req.id);
            late[s.rung].push(s.start.saturating_duration_since(s.due).as_secs_f64() * 1e3);
            backlog[s.rung].push((s.due.saturating_duration_since(t0).as_secs_f64(), s.backlog));
            let Some(id) = s.job_id else {
                pass.failed += 1;
                continue;
            };
            let Some((at, r)) = by_id.remove(&id) else {
                pass.failed += 1;
                chk.fail(Self::NAME, &request, "admitted but never reported");
                continue;
            };
            if !check_result(chk, entry, &r, &request) {
                pass.failed += 1;
                continue;
            }
            let out = r.status.outcome().expect("checked completed");
            digest.weight += out.weight;
            digest.rounds += out.rounds();
            digest.messages += out.messages();
            digest.items += 1;
            weight += out.weight;
            scratch += entry.scratch_weight;
            if tracer.on() {
                add_stages(&mut stages, &out.ledger);
            }
            let slot = busy[s.rung].entry(entry.req.solver.name()).or_default();
            slot.0 += out.wall_ns as f64 / 1e6;
            slot.1 += 1;
            let ms = at.saturating_duration_since(s.due).as_secs_f64() * 1e3;
            lat[s.rung].push(ms);
            if ms <= LATENCY_LIMIT_MS {
                good[s.rung] += 1;
            }
            last_recv[s.rung] = Some(last_recv[s.rung].map_or(at, |p: Instant| p.max(at)));
            if tracer.on() {
                let kind = entry.req.solver.name();
                let root = tracer.record(
                    &format!("request.{kind}"),
                    s.job as u64,
                    None,
                    tracer.ns(s.due),
                    tracer.ns(at),
                );
                tracer.record(
                    "harness.gen_late",
                    s.job as u64,
                    root,
                    tracer.ns(s.due),
                    tracer.ns(s.start),
                );
                tracer.record(
                    "server.admit",
                    s.job as u64,
                    root,
                    tracer.ns(s.start),
                    tracer.ns(s.end),
                );
                let q0 = tracer.ns(s.end);
                let q1 = q0 + r.queued_ns;
                tracer.record("server.queue", s.job as u64, root, q0, q1);
                tracer.record(
                    &format!("service.solve.{kind}"),
                    s.job as u64,
                    root,
                    q1,
                    q1 + out.wall_ns,
                );
            }
        }
        for (id, _) in by_id {
            chk.fail(
                Self::NAME,
                &format!("job id {id}"),
                "result for a job never sent",
            );
        }

        // Per-rung report and validity.
        let mut rung_start = 0.0;
        let mut best_valid = None;
        for (r, rung) in RUNGS.iter().enumerate() {
            let span = rung.share * seconds;
            let (p50, p99v) = (median(&lat[r]), p99(&lat[r]));
            let late99 = p99(&late[r]);
            let bmax = backlog[r].iter().map(|&(_, b)| b).max().unwrap_or(0);
            let trend = backlog_trend(&backlog[r], rung_start, span);
            let growing = trend > BACKLOG_GROWTH_FRAC * rung.rate;
            let gen_ok = late99 <= GEN_LATE_LIMIT_MS;
            let sent_here = sent.iter().filter(|s| s.rung == r).count();
            let all_done = lat[r].len() == sent_here;
            let valid = gen_ok && all_done && !growing && p99v <= LATENCY_LIMIT_MS;
            let elapsed = last_recv[r]
                .map_or(span, |t| {
                    t.saturating_duration_since(t0).as_secs_f64() - rung_start
                })
                .max(1e-9);
            let goodput = good[r] as f64 / elapsed;
            if valid {
                best_valid = Some(goodput);
            }
            let latency = if gen_ok {
                format!("p50={p50:.3}ms p99={p99v:.3}ms")
            } else {
                "latency not reported: generator fell behind".to_string()
            };
            pass.notes.push(format!(
                "rate {} {:.0}/s: sent={sent_here} completed={} {latency} (n={}, {} beyond p99) \
                 gen_late_p99={late99:.3}ms backlog_max={bmax} backlog_trend={trend:.2}/s \
                 goodput={goodput:.3}/s {}",
                rung.name,
                rung.rate,
                lat[r].len(),
                lat[r].len(),
                beyond_p99(&lat[r]),
                if valid { "VALID" } else { "invalid" }
            ));
            let solve_ms: f64 = busy[r].values().map(|&(ms, _)| ms).sum();
            pass.notes.push(format!(
                "rate {}: worker utilization {:.3}; mean solve ms {}",
                rung.name,
                solve_ms / 1e3 / (span * WORKERS as f64),
                busy[r]
                    .iter()
                    .map(|(k, &(ms, n))| format!("{k}={:.2}", ms / n.max(1) as f64))
                    .collect::<Vec<_>>()
                    .join(" ")
            ));
            if tracer.on() {
                pass.layer
                    .push((format!("server.backlog_max.{}", rung.name), bmax as f64));
                pass.layer
                    .push((format!("harness.gen_late_ms.p99.{}", rung.name), late99));
                pass.layer
                    .push((format!("harness.backlog_trend.{}", rung.name), trend));
            }
            rung_start += span;
        }
        let reference = &lat[REF_RUNG];
        if beyond_p99(reference) < 10 {
            pass.notes.push(format!(
                "reference rate has {} samples, fewer than 10 beyond p99",
                reference.len()
            ));
        }
        let goodput = best_valid.unwrap_or_else(|| {
            pass.notes
                .push("no rate met the latency limit; goodput is the low rate's".into());
            let elapsed = last_recv[0]
                .map_or(1.0, |t| t.saturating_duration_since(t0).as_secs_f64())
                .max(1e-9);
            good[0] as f64 / elapsed
        });
        pass.e2e.insert("latency_p50_ms", median(reference));
        pass.e2e.insert("latency_p99_ms", p99(reference));
        pass.e2e.insert("goodput_rps", goodput);
        pass.e2e.insert(
            "completed_frac",
            1.0 - pass.failed as f64 / pass.attempted.max(1) as f64,
        );
        pass.e2e
            .insert("weight_ratio", weight as f64 / scratch.max(1) as f64);
        pass.e2e.insert("sim_rounds", digest.rounds as f64);
        pass.e2e.insert("sim_messages", digest.messages as f64);
        pass.e2e.insert("peak_alloc_mib", peak_mib);
        pass.digest = digest;
        pass.digest_key = format!("seconds={seconds}");
        if tracer.on() {
            let admit: Vec<f64> = tracer
                .durations_ms("server.admit")
                .iter()
                .map(|ms| ms * 1e3)
                .collect();
            let queue = tracer.durations_ms("server.queue");
            pass.layer
                .push(("server.admit_us.p50".into(), median(&admit)));
            pass.layer.push(("server.admit_us.p99".into(), p99(&admit)));
            pass.layer
                .push(("server.queue_wait_ms.p50".into(), median(&queue)));
            pass.layer
                .push(("server.queue_wait_ms.p99".into(), p99(&queue)));
            let stage = |fam: &str| stages.get(fam).copied().unwrap_or_default();
            for fam in SERVE_FAMILIES {
                pass.layer.push((
                    format!("core.stage_rounds.serve.{fam}"),
                    stage(fam).0 as f64,
                ));
            }
            for fam in SERVE_FAMILIES.iter().filter(|&&f| f != "charged") {
                pass.layer.push((
                    format!("core.stage_messages.serve.{fam}"),
                    stage(fam).1 as f64,
                ));
            }
            if let Some((r, m)) = stages.get("other") {
                pass.notes.push(format!(
                    "ledger entries of no known family: rounds={r} messages={m}"
                ));
            }
            for kind in ["det", "randomized", "khan"] {
                let cov = tracer.coverage(&format!("request.{kind}"));
                pass.layer.push((format!("coverage.serve.{kind}"), cov));
            }
        }
        pass
    }

    fn layers(&self, tracer: &mut Tracer, chk: &mut Checker, out: &mut Vec<(String, f64)>) {
        // Outside-in replay over the pool: the session solve (pooled,
        // warm), the direct solver call (no pool), and for randomized the
        // solver's own stage calls replayed one by one.
        let mut session = SolverSession::new();
        for e in &self.pool {
            session.solve(&e.req).expect("warm the replay session");
        }
        for (i, e) in self.pool.iter().enumerate() {
            let req = 1_000_000 + i as u64;
            let kind = e.req.solver.name();
            let got = tracer.span(&format!("replay.service.{kind}"), req, None, || {
                session.solve(&e.req)
            });
            match got {
                Ok(o) if o.forest == e.reference.forest => {}
                _ => chk.fail(
                    Self::NAME,
                    &e.req.id,
                    "replayed session solve differs from the reference",
                ),
            }
            let g = e.req.graph.as_ref();
            match e.req.solver {
                SolverKind::Deterministic => {
                    let o = tracer.span("core.det", req, None, || {
                        solve_deterministic(g, &e.req.instance, &DetConfig::default())
                    });
                    if o.map(|o| o.forest).ok().as_ref() != Some(&e.reference.forest) {
                        chk.fail(
                            Self::NAME,
                            &e.req.id,
                            "direct det solve differs from the reference",
                        );
                    }
                }
                SolverKind::Randomized => {
                    let cfg = RandConfig {
                        seed: e.req.seed,
                        ..RandConfig::default()
                    };
                    let o = tracer.span("core.randomized", req, None, || {
                        solve_randomized(g, &e.req.instance, &cfg)
                    });
                    if o.map(|o| o.forest).ok().as_ref() != Some(&e.reference.forest) {
                        chk.fail(
                            Self::NAME,
                            &e.req.id,
                            "direct randomized solve differs from the reference",
                        );
                    }
                    replay_randomized(tracer, req, g, &e.req.instance, &cfg);
                }
                _ => {}
            }
        }
        let pool = session.pool_stats();
        let reuse = pool.reuses as f64 / (pool.reuses + pool.builds).max(1) as f64;
        for kind in ["det", "randomized", "khan"] {
            out.push((
                format!("service.solve_ms.{kind}.p50"),
                median(&tracer.durations_ms(&format!("replay.service.{kind}"))),
            ));
        }
        out.push(("service.pool_reuse_frac".into(), reuse));
        out.push((
            "core.det_ms.p50".into(),
            median(&tracer.durations_ms("core.det")),
        ));
        out.push((
            "core.randomized_ms.p50".into(),
            median(&tracer.durations_ms("core.randomized")),
        ));
        out.push((
            "core.rand.bfs_ms".into(),
            median(&tracer.durations_ms("core.rand.bfs")),
        ));
        out.push((
            "core.rand.selection_ms".into(),
            median(&tracer.durations_ms("core.rand.selection")),
        ));
        out.push((
            "embed.build_ms".into(),
            median(&tracer.durations_ms("embed.build")),
        ));
        out.push((
            "embed.le_lists_ms".into(),
            median(&tracer.durations_ms("embed.le_lists")),
        ));
        out.push((
            "graph.spd_ms".into(),
            median(&tracer.durations_ms("graph.spd")),
        ));
        out.push((
            "graph.diameter_ms".into(),
            median(&tracer.durations_ms("graph.diameter")),
        ));
        out.push(("coverage.core.randomized".into(), replay_coverage(tracer)));
    }
}

/// Checks one result against its pool entry's reference; false on any
/// failure (which is also recorded).
fn check_result(chk: &mut Checker, e: &Entry, r: &JobResult, request: &str) -> bool {
    let Some(out) = r.status.outcome() else {
        let why = match &r.status {
            JobStatus::Failed(err) => format!("solve failed: {err}"),
            other => format!("not completed: {other:?}"),
        };
        chk.fail(ServeMixed::NAME, request, why);
        return false;
    };
    if !chk.forest(
        ServeMixed::NAME,
        request,
        &e.req.graph,
        &e.req.instance,
        &out.forest,
    ) {
        return false;
    }
    if out.forest != e.reference.forest
        || out.ledger != e.reference.ledger
        || out.weight != e.reference.weight
    {
        chk.fail(
            ServeMixed::NAME,
            request,
            "result differs from the direct reference solve",
        );
        return false;
    }
    true
}

fn add_stages(stages: &mut BTreeMap<&'static str, (u64, u64)>, ledger: &RoundLedger) {
    for e in ledger.entries() {
        let slot = stages.entry(family_of(&e.label, e.simulated)).or_default();
        slot.0 += e.simulated + e.charged;
        slot.1 += e.messages;
    }
}

/// Backlog growth over a rung, jobs per second: mean backlog of the last
/// quarter minus that of the first quarter, over the time between them.
fn backlog_trend(samples: &[(f64, usize)], start: f64, span: f64) -> f64 {
    let q = span / 4.0;
    let avg = |lo: f64, hi: f64| {
        let v: Vec<f64> = samples
            .iter()
            .filter(|&&(t, _)| t >= lo && t < hi)
            .map(|&(_, b)| b as f64)
            .collect();
        crate::stats::mean(&v)
    };
    (avg(start + 3.0 * q, start + span) - avg(start, start + q)) / (3.0 * q)
}

/// Replays `solve_randomized`'s stage calls from outside, each in a span,
/// under one `replay.randomized` root.
fn replay_randomized(
    tracer: &mut Tracer,
    req: u64,
    g: &WeightedGraph,
    inst: &Instance,
    cfg: &RandConfig,
) {
    let root = tracer.open("replay.randomized", req, None);
    let congest = CongestConfig::for_graph(g);
    let minimal = inst.make_minimal();
    let s = tracer.span("graph.spd", req, root, || {
        metrics::shortest_path_diameter(g)
    }) as usize;
    tracer.span("graph.diameter", req, root, || {
        metrics::unweighted_diameter(g)
    });
    let sqrt_n = (g.n() as f64).sqrt().ceil() as usize;
    let truncated = s > sqrt_n;
    let bfs = tracer
        .span("core.rand.bfs", req, root, || {
            build_bfs_tree(g, NodeId(0), &congest)
        })
        .expect("replayed BFS runs clean");
    for rep in 0..cfg.repetitions.max(1) {
        let emb_cfg = EmbeddingConfig {
            seed: cfg.seed.wrapping_add(rep as u64),
            truncate: truncated.then_some(sqrt_n),
        };
        let emb = tracer.span("embed.build", req, root, || Embedding::build(g, &emb_cfg));
        tracer
            .span("embed.le_lists", req, root, || {
                le_lists_distributed(g, &emb.ranks, &congest)
            })
            .expect("replayed LE lists run clean");
        tracer
            .span("core.rand.selection", req, root, || {
                run_selection_stage(g, &emb, &minimal, &bfs, &congest)
            })
            .expect("replayed selection runs clean");
    }
    tracer.close(root);
}

/// Share of the direct randomized solve time that the replayed stage
/// spans account for (same requests).
fn replay_coverage(tracer: &Tracer) -> f64 {
    let direct: f64 = tracer.durations_ms("core.randomized").iter().sum();
    let replay_root = tracer.durations_ms("replay.randomized").iter().sum::<f64>();
    let inside = replay_root * tracer.coverage("replay.randomized");
    if direct > 0.0 {
        inside / direct
    } else {
        0.0
    }
}
