//! The executor a protocol stage runs on.
//!
//! Every stage runs on [`dsf_congest::run`], the event-driven engine
//! (sharded under a thread-count override). Unit tests also run the same
//! nodes on [`dsf_congest::run_reference`], which invokes every node every
//! round: a node that votes done while it still has work diverges there,
//! so the two engines agreeing is the check on each protocol's done vote.

use dsf_congest::{run, CongestConfig, Protocol, RunResult, SimError};
use dsf_graph::WeightedGraph;

/// Which executor runs a stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Engine {
    /// [`dsf_congest::run`].
    Event,
    /// [`dsf_congest::run_reference`].
    #[cfg(test)]
    Reference,
}

impl Engine {
    pub(crate) fn run<P>(
        self,
        g: &WeightedGraph,
        nodes: Vec<P>,
        cfg: &CongestConfig,
    ) -> Result<RunResult<P>, SimError>
    where
        P: Protocol + Send,
        P::Msg: Send + 'static,
    {
        match self {
            Engine::Event => run(g, nodes, cfg),
            #[cfg(test)]
            Engine::Reference => dsf_congest::run_reference(g, nodes, cfg),
        }
    }
}

#[cfg(test)]
pub(crate) mod testing {
    use std::fmt::Debug;

    use dsf_congest::with_threads;
    use dsf_graph::{generators, WeightedGraph};

    use super::Engine;

    /// Seeded gnp, grid and RMAT graphs, small enough for the reference
    /// engine.
    pub(crate) fn graphs() -> Vec<(&'static str, WeightedGraph)> {
        let mut out = Vec::new();
        for seed in 0..2 {
            out.push(("gnp", generators::gnp_connected(40, 0.1, 9, seed)));
            out.push(("grid", generators::grid(6, 7, 5, seed)));
            out.push(("rmat", generators::rmat(64, 3, 16, seed)));
        }
        out
    }

    /// Runs `stage` on every test graph under the reference engine and
    /// under the event engine at 1, 2 and 4 threads, and asserts that the
    /// outputs (metrics included) are equal.
    pub(crate) fn assert_engines_agree<T: PartialEq + Debug>(
        stage: impl Fn(&WeightedGraph, Engine) -> T,
    ) {
        for (family, g) in graphs() {
            let oracle = stage(&g, Engine::Reference);
            for threads in [1, 2, 4] {
                let got = with_threads(threads, || stage(&g, Engine::Event));
                assert_eq!(got, oracle, "{family} (n={}) at {threads} threads", g.n());
            }
        }
    }
}
