//! The `bench_runner --server` mode: latency and throughput of the
//! streaming server (`dsf-server`) under open-loop load, with the
//! admission-control and bit-identical-to-direct-solve guarantees
//! asserted in-harness, emitted as `BENCH_server.json`.
//!
//! The workload is a fixed mixed job list (all four solver kinds over a
//! corpus instance, plus jobs classified *large* so both lanes run):
//!
//! * **probes** — before anything is timed, a paused server is driven
//!   through the admission-control edge cases: a full queue under
//!   [`AdmissionPolicy::Reject`] must return `Saturated` (not deadlock),
//!   a cancelled job must be reported as cancelled, an expired deadline
//!   must be reported as expired. A violated probe panics the run.
//! * **closed-loop** — the whole mix submitted at once and drained,
//!   measuring the server's capacity (solves/sec); emitted with
//!   `rate_milli_x = 0`.
//! * **open-loop** — the mix re-submitted with exponential-free fixed
//!   inter-arrival times at offered rates ×{0.5, 1, 2} of the measured
//!   capacity, through a deliberately shallow queue (blocking admission =
//!   backpressure at ×2). Per-job sojourn latency (submit → result) is
//!   reported as p50/p99.
//!
//! Every tier asserts in-harness that each completed job is bit-identical
//! — forest, full round ledger, ratio — to a direct solve on a fresh
//! session, and that *every* offered job came back (admitted jobs are
//! never silently dropped).
//!
//! Like the `--scale` tier there is no checked-in baseline (`--check` is
//! rejected): wall-clock is the product, and the correctness gates are
//! the in-harness asserts.
//!
//! # JSON schema (`dsf-bench-server/v1`)
//!
//! ```json
//! {
//!   "schema": "dsf-bench-server/v1",
//!   "mode": "quick",
//!   "entries": [
//!     {"name": "server/open-loop/x1.0", "jobs": 24, "workers": 4,
//!      "queue_capacity": 8, "rate_milli_x": 1000, "rounds": 4224,
//!      "messages": 105984, "wall_ns": 1, "offered_per_sec_milli": 1,
//!      "p50_ns": 1, "p99_ns": 1, "solves_per_sec_milli": 1}
//!   ]
//! }
//! ```
//!
//! `jobs`, `workers`, `queue_capacity`, `rate_milli_x`, `rounds`, and
//! `messages` are deterministic (blocking admission means every offered
//! job completes, and per-job metrics are schedule-invariant);
//! `wall_ns`, `offered_per_sec_milli`, `p50_ns`, `p99_ns`, and
//! `solves_per_sec_milli` are machine-dependent, report-only. One entry
//! object per line, same line-oriented convention as the other schemas.

use std::sync::Arc;
use std::time::{Duration, Instant};

use dsf_server::{
    AdmissionPolicy, JobOptions, JobStatus, ServerConfig, ServerError, StreamingServer,
};
use dsf_service::{JobOutcome, SolveRequest, SolverKind, SolverSession};
use dsf_workloads::corpus::{stream, Tier};

/// Identifier of the emitted JSON layout.
pub const SCHEMA: &str = "dsf-bench-server/v1";

/// One server benchmark result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerBenchEntry {
    /// Workload id, e.g. `server/open-loop/x1.0`.
    pub name: String,
    /// Jobs offered — and, asserted in-harness, completed (deterministic).
    pub jobs: usize,
    /// Small-lane workers / sharded threads of a large job (deterministic).
    pub workers: usize,
    /// Admission-queue bound the tier ran with (deterministic).
    pub queue_capacity: usize,
    /// Offered rate as a multiple of measured capacity, ×1000; 0 for the
    /// closed-loop capacity tier (deterministic).
    pub rate_milli_x: u64,
    /// Sum of per-job total rounds (deterministic).
    pub rounds: u64,
    /// Sum of per-job delivered messages (deterministic).
    pub messages: u64,
    /// Wall-clock from first submit to last result, ns (report-only).
    pub wall_ns: u64,
    /// Offered arrival rate, jobs/sec ×1000 (report-only — derived from
    /// the measured capacity).
    pub offered_per_sec_milli: u64,
    /// Median submit→result sojourn latency, ns (report-only).
    pub p50_ns: u64,
    /// 99th-percentile sojourn latency, ns (report-only).
    pub p99_ns: u64,
    /// Completion throughput, jobs/sec ×1000 (report-only).
    pub solves_per_sec_milli: u64,
}

/// A full `--server` report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerBenchReport {
    /// `"quick"` or `"full"`.
    pub mode: String,
    /// All entries, in a deterministic order.
    pub entries: Vec<ServerBenchEntry>,
}

impl ServerBenchReport {
    /// Serializes to the `dsf-bench-server/v1` JSON layout.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
        s.push_str(&format!("  \"mode\": \"{}\",\n", self.mode));
        s.push_str("  \"entries\": [\n");
        for (i, e) in self.entries.iter().enumerate() {
            let comma = if i + 1 < self.entries.len() { "," } else { "" };
            s.push_str(&format!(
                "    {{\"name\": \"{}\", \"jobs\": {}, \"workers\": {}, \
                 \"queue_capacity\": {}, \"rate_milli_x\": {}, \"rounds\": {}, \
                 \"messages\": {}, \"wall_ns\": {}, \"offered_per_sec_milli\": {}, \
                 \"p50_ns\": {}, \"p99_ns\": {}, \"solves_per_sec_milli\": {}}}{comma}\n",
                e.name,
                e.jobs,
                e.workers,
                e.queue_capacity,
                e.rate_milli_x,
                e.rounds,
                e.messages,
                e.wall_ns,
                e.offered_per_sec_milli,
                e.p50_ns,
                e.p99_ns,
                e.solves_per_sec_milli,
            ));
        }
        s.push_str("  ]\n}\n");
        s
    }
}

/// The fixed mixed job list: `small_jobs` over the first corpus instance
/// (solver kinds cycling, certificates attached) plus `large_jobs` on a
/// grid that the tier's threshold classifies as large.
fn mixed_requests(tier: Tier, small_jobs: usize, large_jobs: usize) -> (Vec<SolveRequest>, usize) {
    let entry = stream(tier).next().expect("corpus is nonempty");
    let graph = Arc::new(entry.graph.clone());
    let mut requests: Vec<SolveRequest> = (0..small_jobs)
        .map(|j| {
            let solver = SolverKind::ALL[j % SolverKind::ALL.len()];
            SolveRequest::new(
                format!("small/{}/{j}", solver.name()),
                graph.clone(),
                entry.instance.clone(),
                solver,
                j as u64,
            )
            .with_cert_upper(entry.certificate.upper)
        })
        .collect();
    // The large jobs: a 100-node grid, threshold pinned to its size so the
    // large lane (whole-pool sharded executor) really runs.
    let side: usize = 10;
    let corner = |r: usize, c: usize| dsf_graph::NodeId((r * side + c) as u32);
    let large_graph = Arc::new(dsf_graph::generators::grid(side, side, 8, 1));
    let large_inst = dsf_steiner::InstanceBuilder::new(&large_graph)
        .component(&[corner(0, 0), corner(side - 1, side - 1)])
        .component(&[corner(0, side - 1), corner(side - 1, 0)])
        .build()
        .expect("grid corners are valid terminals");
    let threshold = large_graph.n();
    for j in 0..large_jobs {
        requests.push(SolveRequest::new(
            format!("large/det/{j}"),
            large_graph.clone(),
            large_inst.clone(),
            SolverKind::Deterministic,
            j as u64,
        ));
    }
    (requests, threshold)
}

/// Direct-solve references, one fresh session per request.
fn references(requests: &[SolveRequest]) -> Vec<JobOutcome> {
    requests
        .iter()
        .map(|r| SolverSession::new().solve(r).expect("clean solve"))
        .collect()
}

/// Drives the admission-control edge cases on a paused server; any
/// deviation panics (this is the mode's correctness gate, alongside the
/// bit-identity asserts).
fn probe_admission_control(requests: &[SolveRequest], threshold: usize) {
    let capacity = 3;
    let mut server = StreamingServer::new(ServerConfig {
        workers: 1,
        queue_capacity: capacity,
        admission: AdmissionPolicy::Reject,
        large_node_threshold: threshold,
    });
    server.pause();
    for (i, req) in requests.iter().take(capacity).enumerate() {
        server
            .submit(req.clone())
            .unwrap_or_else(|e| panic!("probe submit {i} under capacity rejected: {e}"));
    }
    match server.submit(requests[0].clone()) {
        Err(ServerError::Saturated { .. }) => {}
        other => panic!("full queue must reject with Saturated, got {other:?}"),
    }
    // Drain the backlog, then pause again for the cancellation and
    // deadline probes.
    server.resume();
    for _ in 0..capacity {
        assert!(
            server
                .next_result_timeout(Duration::from_secs(60))
                .is_some(),
            "paused-queue backlog failed to drain"
        );
    }
    server.pause();
    let doomed = server.submit(requests[0].clone()).expect("admitted");
    let expired = server
        .submit_with(
            requests[1].clone(),
            JobOptions::default().with_deadline(Instant::now()),
        )
        .expect("admitted");
    assert!(doomed.cancel(), "cancel must land before dispatch");
    server.resume();
    assert!(
        matches!(doomed.wait().status, JobStatus::Cancelled),
        "cancelled job must be reported as cancelled"
    );
    assert!(
        matches!(expired.wait().status, JobStatus::DeadlineExpired),
        "expired job must be reported as expired"
    );
    server.shutdown();
}

/// Submits the whole mix (optionally paced), waits for every result, and
/// asserts completeness + bit-identity before emitting an entry.
#[allow(clippy::too_many_arguments)]
fn load_tier(
    name: &str,
    requests: &[SolveRequest],
    baseline: &[JobOutcome],
    threshold: usize,
    workers: usize,
    queue_capacity: usize,
    interarrival: Option<Duration>,
    rate_milli_x: u64,
    offered_per_sec_milli: u64,
    entries: &mut Vec<ServerBenchEntry>,
) {
    let mut server = StreamingServer::new(ServerConfig {
        workers,
        queue_capacity,
        admission: AdmissionPolicy::Block,
        large_node_threshold: threshold,
    });
    let t0 = Instant::now();
    let mut handles = Vec::with_capacity(requests.len());
    for (j, req) in requests.iter().enumerate() {
        if let Some(gap) = interarrival {
            // Open loop: arrival j is *scheduled* at t0 + j·gap; a stalled
            // submit (backpressure) delays later arrivals — that queueing
            // time is exactly what p99 measures.
            let due = t0 + gap * j as u32;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
        }
        handles.push(
            server
                .submit(req.clone())
                .expect("blocking admission admits"),
        );
    }
    let mut latencies: Vec<u64> = Vec::with_capacity(handles.len());
    let mut rounds = 0u64;
    let mut messages = 0u64;
    for (handle, reference) in handles.iter().zip(baseline) {
        let result = handle.wait();
        let out = result
            .status
            .outcome()
            .unwrap_or_else(|| panic!("{name}: job {} did not complete", result.id));
        assert!(
            out.deterministic_eq(reference),
            "{name}: job {} is not bit-identical to its direct solve",
            result.id
        );
        latencies.push(result.total_ns);
        rounds += out.rounds();
        messages += out.messages();
    }
    let wall_ns = t0.elapsed().as_nanos() as u64;
    server.shutdown();
    latencies.sort_unstable();
    let pct = |p: usize| latencies[(latencies.len() - 1) * p / 100];
    entries.push(ServerBenchEntry {
        name: name.to_string(),
        jobs: requests.len(),
        workers,
        queue_capacity,
        rate_milli_x,
        rounds,
        messages,
        wall_ns,
        offered_per_sec_milli,
        p50_ns: pct(50),
        p99_ns: pct(99),
        solves_per_sec_milli: (requests.len() as u64)
            .saturating_mul(1_000_000_000_000)
            .checked_div(wall_ns.max(1))
            .unwrap_or(0),
    });
}

/// Runs the probes, the closed-loop capacity tier, and the open-loop rate
/// tiers, and assembles the report.
///
/// `quick` shrinks the job mix (CI smoke); the tier structure — probes,
/// closed loop, offered rates ×{0.5, 1, 2} — is identical in both modes.
pub fn collect(quick: bool) -> ServerBenchReport {
    let tier = if quick { Tier::Quick } else { Tier::Full };
    let (small_jobs, large_jobs) = if quick { (22, 2) } else { (92, 4) };
    let workers = 4;
    let (requests, threshold) = mixed_requests(tier, small_jobs, large_jobs);
    let baseline = references(&requests);

    probe_admission_control(&requests, threshold);

    let mut entries = Vec::new();
    // Closed loop: everything at once through a deep queue — the measured
    // capacity the open-loop tiers are scaled from.
    load_tier(
        "server/closed-loop",
        &requests,
        &baseline,
        threshold,
        workers,
        requests.len(),
        None,
        0,
        0,
        &mut entries,
    );
    let capacity_jobs_per_sec_milli = entries[0].solves_per_sec_milli.max(1);

    // Open loop: fixed inter-arrival at ×{0.5, 1, 2} of capacity, through
    // a shallow queue so over-capacity load actually backpressures.
    let shallow = (requests.len() / 3).max(2);
    for rate_milli_x in [500u64, 1000, 2000] {
        let offered_per_sec_milli = capacity_jobs_per_sec_milli * rate_milli_x / 1000;
        let interarrival = Duration::from_nanos(
            1_000_000_000_000u64
                .checked_div(offered_per_sec_milli.max(1))
                .unwrap_or(u64::MAX)
                .min(5_000_000_000), // cap pathological gaps at 5 s/job
        );
        load_tier(
            &format!("server/open-loop/x{:.1}", rate_milli_x as f64 / 1000.0),
            &requests,
            &baseline,
            threshold,
            workers,
            shallow,
            Some(interarrival),
            rate_milli_x,
            offered_per_sec_milli,
            &mut entries,
        );
    }

    ServerBenchReport {
        mode: if quick { "quick" } else { "full" }.to_string(),
        entries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_has_schema_and_one_entry_per_line() {
        let report = ServerBenchReport {
            mode: "quick".into(),
            entries: vec![ServerBenchEntry {
                name: "server/open-loop/x1.0".into(),
                jobs: 24,
                workers: 4,
                queue_capacity: 8,
                rate_milli_x: 1000,
                rounds: 4224,
                messages: 105_984,
                wall_ns: 123,
                offered_per_sec_milli: 456,
                p50_ns: 7,
                p99_ns: 8,
                solves_per_sec_milli: 9,
            }],
        };
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"dsf-bench-server/v1\""));
        assert!(json.contains("\"rate_milli_x\": 1000"));
        assert_eq!(json.lines().filter(|l| l.contains("\"name\"")).count(), 1);
    }

    #[test]
    fn quick_collect_gates_and_reports_all_tiers() {
        let report = collect(true);
        assert_eq!(report.mode, "quick");
        assert_eq!(report.entries.len(), 4, "closed loop + three rates");
        for e in &report.entries {
            assert_eq!(e.jobs, 24);
            assert!(e.rounds > 0 && e.messages > 0);
            assert!(e.p50_ns <= e.p99_ns);
        }
        // Deterministic sums agree across tiers: scheduling is invisible.
        let (r0, m0) = (report.entries[0].rounds, report.entries[0].messages);
        for e in &report.entries[1..] {
            assert_eq!((e.rounds, e.messages), (r0, m0));
        }
    }
}
