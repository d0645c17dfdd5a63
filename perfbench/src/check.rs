//! Output checks: forest validity, deterministic digests (within a run,
//! between the traced and untraced passes, and across runs), and the
//! negative self-test proving each check can fire.

use std::fmt;
use std::path::PathBuf;

use dsf_graph::WeightedGraph;
use dsf_steiner::{ForestSolution, Instance};

/// Collects check failures; each names its workload and request.
#[derive(Debug, Default)]
pub struct Checker {
    failures: Vec<String>,
}

impl Checker {
    /// Records a failure.
    pub fn fail(&mut self, workload: &str, request: &str, what: impl fmt::Display) {
        self.failures
            .push(format!("{workload}: request {request}: {what}"));
    }

    /// Fails unless `f` is a forest that connects every demand of `inst`.
    /// Returns whether it passed.
    pub fn forest(
        &mut self,
        workload: &str,
        request: &str,
        g: &WeightedGraph,
        inst: &Instance,
        f: &ForestSolution,
    ) -> bool {
        let ok = forest_ok(g, inst, f);
        if !ok {
            self.fail(workload, request, "forest is infeasible or has a cycle");
        }
        ok
    }

    /// Fails when two digests of the same deterministic work differ.
    pub fn digest_eq(&mut self, workload: &str, what: &str, got: &Digest, want: &Digest) {
        if got != want {
            self.fail(workload, what, format!("digest {got} != expected {want}"));
        }
    }

    /// Whether no check failed.
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// The failures, in order.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}

/// Feasible for `inst` and acyclic.
pub fn forest_ok(g: &WeightedGraph, inst: &Instance, f: &ForestSolution) -> bool {
    f.is_forest(g) && inst.is_feasible(g, f)
}

/// Sums over deterministic outputs; equal inputs give equal digests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Digest {
    /// Σ forest weight.
    pub weight: u64,
    /// Σ round-ledger totals.
    pub rounds: u64,
    /// Σ delivered messages.
    pub messages: u64,
    /// Σ accepted repair moves.
    pub moves: u64,
    /// Number of outputs summed.
    pub items: u64,
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "items={} weight={} rounds={} messages={} moves={}",
            self.items, self.weight, self.rounds, self.messages, self.moves
        )
    }
}

/// Where digests of earlier runs of this build are kept: next to the
/// benchmark executable, inside the build directory of the checkout.
fn store_path() -> Option<(PathBuf, String)> {
    let exe = std::env::current_exe().ok()?;
    let meta = std::fs::metadata(&exe).ok()?;
    let stamp = meta
        .modified()
        .ok()?
        .duration_since(std::time::UNIX_EPOCH)
        .ok()?
        .as_nanos();
    // The executable's size and mtime identify the build: a rebuilt
    // program may legitimately produce other digests.
    let build = format!("{}-{stamp}", meta.len());
    Some((exe.with_file_name("perfbench-digests.txt"), build))
}

/// Compares `digest` with what earlier runs of the same build recorded
/// under `key` (workload, seed, window), and records it when new.
pub fn cross_run(chk: &mut Checker, workload: &str, key: &str, digest: &Digest) {
    let Some((path, build)) = store_path() else {
        return;
    };
    let key = format!("{build} {key}");
    let text = std::fs::read_to_string(&path).unwrap_or_default();
    let line = format!("{key} => {digest}");
    match text.lines().find(|l| l.starts_with(&format!("{key} => "))) {
        Some(prev) if prev != line => chk.fail(
            workload,
            key.as_str(),
            format!("digest differs from an earlier run: {prev:?} vs {line:?}"),
        ),
        Some(_) => {}
        None => {
            let _ = std::fs::write(&path, format!("{text}{line}\n"));
        }
    }
}

/// The negative self-test: a forest with one edge dropped and a tampered
/// digest must both be caught. Returns a failure description if either
/// check stays silent.
pub fn self_test(
    g: &WeightedGraph,
    inst: &Instance,
    f: &ForestSolution,
    d: &Digest,
) -> Result<(), String> {
    if !forest_ok(g, inst, f) {
        return Err("self-test input forest is not valid".into());
    }
    // In a minimal forest every edge is needed, so dropping any one must
    // disconnect a demand (a solver's forest may carry a spare edge).
    let minimal = f.prune_to_minimal(g, inst);
    let Some((_, rest)) = minimal.edges().split_first() else {
        return Err("self-test input forest is empty".into());
    };
    let dropped = ForestSolution::from_edges(rest.to_vec());
    let mut probe = Checker::default();
    if probe.forest("self-test", "dropped-edge", g, inst, &dropped) {
        return Err("forest check accepted a forest with a dropped edge".into());
    }
    let tampered = Digest {
        weight: d.weight + 1,
        ..*d
    };
    probe.digest_eq("self-test", "tampered-digest", &tampered, d);
    if probe.failures().len() != 2 {
        return Err("digest check accepted a tampered digest".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsf_graph::{generators, EdgeId, NodeId};
    use dsf_steiner::InstanceBuilder;

    #[test]
    fn self_test_fires_on_a_forest_with_a_spare_edge() {
        // Path 0-1-2-3-4, demand {1, 3}: edges 1 and 2 are needed, edge 0
        // is a spare leaf the self-test must prune before dropping one.
        let g = generators::path(5, 1);
        let inst = InstanceBuilder::new(&g)
            .component(&[NodeId(1), NodeId(3)])
            .build()
            .unwrap();
        let f = ForestSolution::from_edges(vec![EdgeId(0), EdgeId(1), EdgeId(2)]);
        let d = Digest::default();
        assert_eq!(self_test(&g, &inst, &f, &d), Ok(()));
        let broken = ForestSolution::from_edges(vec![EdgeId(0), EdgeId(1)]);
        assert!(self_test(&g, &inst, &broken, &d).is_err());
    }
}
