//! Per-batch reporting: job outcomes and the ledger invariants the
//! conformance oracle also checks.

use dsf_congest::{CongestConfig, RoundLedger};
use dsf_steiner::ForestSolution;
use dsf_workloads::conformance::check_ledger_budget;

use crate::request::{SolveRequest, SolverKind};

/// One completed job.
///
/// `forest`, `ledger`, `weight`, and `ratio_milli` are deterministic —
/// identical no matter how the job was scheduled (worker count, batch
/// composition, session reuse); `wall_ns` is machine- and
/// schedule-dependent, report-only. [`JobOutcome::deterministic_eq`]
/// compares exactly the deterministic part, which is how the tests assert
/// batched and streamed results are bit-identical to one-at-a-time
/// solves.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// The request's id.
    pub id: String,
    /// The solver that ran.
    pub solver: SolverKind,
    /// The seed it ran with.
    pub seed: u64,
    /// The returned solution.
    pub forest: ForestSolution,
    /// The itemized round accounting of the whole solve.
    pub ledger: RoundLedger,
    /// Weight of the returned forest.
    pub weight: u64,
    /// `⌈1000 · weight / cert_upper⌉` when the request carried a
    /// certificate.
    pub ratio_milli: Option<u64>,
    /// Wall-clock of this solve in nanoseconds (report-only).
    pub wall_ns: u64,
}

impl JobOutcome {
    /// Total rounds (simulated + charged) of the solve.
    pub fn rounds(&self) -> u64 {
        self.ledger.total()
    }

    /// Total messages delivered during the solve.
    pub fn messages(&self) -> u64 {
        self.ledger.messages()
    }

    /// Total bits delivered during the solve.
    pub fn bits(&self) -> u64 {
        self.ledger.bits()
    }

    /// Whether two outcomes agree on every deterministic field (identity,
    /// forest, full ledger — entry-for-entry); wall-clock is ignored.
    pub fn deterministic_eq(&self, other: &JobOutcome) -> bool {
        self.id == other.id
            && self.solver == other.solver
            && self.seed == other.seed
            && self.weight == other.weight
            && self.ratio_milli == other.ratio_milli
            && self.forest == other.forest
            && self.ledger == other.ledger
    }
}

/// The result of one batch of solves (`dsf_server::StreamingServer::run_batch`
/// builds it).
#[derive(Debug)]
pub struct ServiceReport {
    /// Worker threads the batch was scheduled across.
    pub workers: usize,
    /// One outcome per request, in request order.
    pub jobs: Vec<JobOutcome>,
    /// Wall-clock of the whole batch in nanoseconds (report-only).
    pub wall_ns: u64,
    /// CONGEST-ledger invariant violations across the batch (empty on a
    /// healthy run) — the same `B`-bit budget checks the conformance
    /// oracle applies, so the batch path cannot silently launder an
    /// over-budget solve.
    pub violations: Vec<String>,
}

impl ServiceReport {
    /// Assembles the report of a finished batch: `jobs[i]` is the outcome
    /// of `requests[i]`, and every job's ledger is re-checked against the
    /// `B`-bit budget of its request's graph.
    ///
    /// # Panics
    ///
    /// Panics if `jobs` and `requests` differ in length.
    pub fn new(
        requests: &[SolveRequest],
        jobs: Vec<JobOutcome>,
        workers: usize,
        wall_ns: u64,
    ) -> Self {
        assert_eq!(requests.len(), jobs.len(), "one outcome per request");
        let violations = requests
            .iter()
            .zip(&jobs)
            .flat_map(|(req, out)| {
                let bandwidth = CongestConfig::for_graph(&req.graph).bandwidth_bits;
                check_ledger_budget(&out.ledger, bandwidth)
                    .into_iter()
                    .map(move |v| format!("job {} [{}]: {v}", out.id, out.solver.name()))
            })
            .collect();
        ServiceReport {
            workers,
            jobs,
            wall_ns,
            violations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(wall_ns: u64) -> JobOutcome {
        JobOutcome {
            id: "j".into(),
            solver: SolverKind::Deterministic,
            seed: 0,
            forest: ForestSolution::empty(),
            ledger: RoundLedger::new(),
            weight: 0,
            ratio_milli: None,
            wall_ns,
        }
    }

    #[test]
    fn deterministic_eq_ignores_wall_clock() {
        let a = outcome(10);
        let b = outcome(99_999);
        assert!(a.deterministic_eq(&b));
        let mut c = outcome(10);
        c.weight = 1;
        assert!(!a.deterministic_eq(&c));
    }

    #[test]
    fn report_flags_over_budget_ledgers() {
        use dsf_congest::RunMetrics;
        use std::sync::Arc;

        let g = Arc::new(dsf_graph::generators::path(4, 1));
        let inst = dsf_steiner::InstanceBuilder::new(&g)
            .component(&[dsf_graph::NodeId(0), dsf_graph::NodeId(3)])
            .build()
            .unwrap();
        let req = SolveRequest::new("j", g.clone(), inst, SolverKind::Deterministic, 0);
        let bandwidth = CongestConfig::for_graph(&g).bandwidth_bits as u64;
        let mut over = outcome(1);
        over.ledger.record(
            "stage",
            &RunMetrics {
                messages: 1,
                total_bits: bandwidth + 1,
                ..RunMetrics::default()
            },
        );
        let clean = ServiceReport::new(std::slice::from_ref(&req), vec![outcome(1)], 1, 0);
        assert!(clean.violations.is_empty());
        let flagged = ServiceReport::new(&[req], vec![over], 1, 0);
        assert_eq!(flagged.violations.len(), 1, "{:?}", flagged.violations);
        assert!(flagged.violations[0].starts_with("job j [det]"));
    }
}
