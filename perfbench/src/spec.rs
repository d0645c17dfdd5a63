//! The benchmark's fixed definition: workloads, end-to-end metrics with
//! their regression bounds, and every per-layer metric with the layer it
//! measures and the end-to-end metric it should move. `--spec` prints it
//! as the repository's `BENCHMARK.json`.

use std::fmt::Write as _;

/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 30;

/// The held-out seed a later performance claim must also hold on.
pub const HELD_OUT_SEED: u64 = 7_777_001;

/// Workers of the streaming server (small lane) and sharded threads of a
/// large job — the host's `nproc`.
pub const WORKERS: usize = 2;

/// Workload names with why each was chosen.
pub const WORKLOADS: [(&str, &str); 3] = [
    (
        "serve-mixed",
        "open loop, fixed 25/60/400 jobs/s of small det/randomized/khan solves into StreamingServer \
         (2 workers); p99 limit 500 ms; stresses admission, queueing, pooling, per-solve set-up",
    ),
    (
        "solve-large",
        "closed loop, one client: det solves of 16k-node grid and RMAT graphs through the server's \
         large lane at 2 threads; the work-stealing executor and CONGEST stages do the work",
    ),
    (
        "churn-repair",
        "closed loop, one client: seeded add/remove/reweight deltas round-robin over 16 warm \
         SolverSessions on 4k-node grids; steiner repair plus Dijkstra, no executor, no server",
    ),
];

/// One end-to-end metric: name, unit, direction, regression bound.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub bound: f64,
}

/// Every end-to-end metric; every workload reports each of them.
///
/// Timing bounds are wide because run-to-run speed on a shared 2-core
/// host drifts by 10–20 %; the counts are deterministic per seed and their
/// bounds cover the spread across seeds.
pub const END_TO_END: [EndToEnd; 9] = [
    e2e("setup_s", "s", false, 0.25),
    e2e("latency_p50_ms", "ms", false, 0.25),
    e2e("latency_p99_ms", "ms", false, 0.25),
    e2e("goodput_rps", "1/s", true, 0.25),
    e2e("completed_frac", "frac", true, 0.01),
    e2e("weight_ratio", "ratio", false, 0.12),
    e2e("sim_rounds", "count", false, 0.2),
    e2e("sim_messages", "count", false, 0.2),
    e2e("peak_alloc_mib", "MiB", false, 0.15),
];

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        higher_is_better: higher,
        bound,
    }
}

/// One per-layer metric and the end-to-end metric it should move.
pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub workload: &'static str,
    pub moves: &'static str,
}

/// Ledger stage families (see `family_of`) reported on serve-mixed.
pub const SERVE_FAMILIES: [&str; 7] = [
    "bfs",
    "broadcast",
    "decomposition",
    "collection",
    "le_lists",
    "routing",
    "charged",
];

/// Ledger stage families reported on solve-large (det only).
pub const LARGE_FAMILIES: [&str; 5] =
    ["bfs", "broadcast", "decomposition", "collection", "charged"];

/// The stage family of a round-ledger entry: charged-only entries, then
/// the simulated stage kinds by label.
pub fn family_of(label: &str, simulated: u64) -> &'static str {
    if simulated == 0 {
        "charged"
    } else if label.contains("BFS") {
        "bfs"
    } else if label.contains("LE-list") {
        "le_lists"
    } else if label.contains("decomposition") {
        "decomposition"
    } else if label.contains("collection") || label.contains("convergecast") {
        "collection"
    } else if label.contains("broadcast") {
        "broadcast"
    } else if label.contains("routing") {
        "routing"
    } else {
        "other"
    }
}

/// Per-layer metrics, in the order a traced run prints them.
pub fn per_layer() -> Vec<PerLayer> {
    let mut v = Vec::new();
    let mut add = |name: String, unit, higher, workload, moves| {
        v.push(PerLayer {
            name,
            unit,
            higher_is_better: higher,
            workload,
            moves,
        });
    };
    let s = "serve-mixed";
    let l = "solve-large";
    let c = "churn-repair";
    for q in ["p50", "p99"] {
        add(
            format!("server.admit_us.{q}"),
            "us",
            false,
            s,
            "latency_p99_ms,goodput_rps",
        );
    }
    for q in ["p50", "p99"] {
        add(
            format!("server.queue_wait_ms.{q}"),
            "ms",
            false,
            s,
            "latency_p99_ms,goodput_rps",
        );
    }
    for r in ["low", "mid", "high"] {
        add(
            format!("server.backlog_max.{r}"),
            "count",
            false,
            s,
            "latency_p99_ms,goodput_rps",
        );
    }
    for r in ["low", "mid", "high"] {
        add(
            format!("harness.gen_late_ms.p99.{r}"),
            "ms",
            false,
            s,
            "validity of a rate",
        );
    }
    for r in ["low", "mid", "high"] {
        add(
            format!("harness.backlog_trend.{r}"),
            "1/s",
            false,
            s,
            "goodput_rps",
        );
    }
    for k in ["det", "randomized", "khan"] {
        add(
            format!("service.solve_ms.{k}.p50"),
            "ms",
            false,
            s,
            "latency_p50_ms",
        );
    }
    add(
        "service.pool_reuse_frac".into(),
        "frac",
        true,
        s,
        "latency_p50_ms",
    );
    add(
        "core.det_ms.p50".into(),
        "ms",
        false,
        s,
        "latency_p50_ms,sim_rounds",
    );
    add(
        "core.randomized_ms.p50".into(),
        "ms",
        false,
        s,
        "latency_p50_ms,sim_rounds",
    );
    add("core.rand.bfs_ms".into(), "ms", false, s, "latency_p50_ms");
    add(
        "core.rand.selection_ms".into(),
        "ms",
        false,
        s,
        "latency_p50_ms,sim_messages",
    );
    add(
        "embed.build_ms".into(),
        "ms",
        false,
        s,
        "latency_p50_ms,goodput_rps",
    );
    add(
        "embed.le_lists_ms".into(),
        "ms",
        false,
        s,
        "latency_p50_ms,goodput_rps",
    );
    add(
        "graph.spd_ms".into(),
        "ms",
        false,
        s,
        "latency_p50_ms,goodput_rps",
    );
    add(
        "graph.diameter_ms".into(),
        "ms",
        false,
        s,
        "latency_p50_ms,goodput_rps",
    );
    for f in SERVE_FAMILIES {
        add(
            format!("core.stage_rounds.serve.{f}"),
            "count",
            false,
            s,
            "sim_rounds",
        );
    }
    for f in SERVE_FAMILIES.iter().filter(|&&f| f != "charged") {
        add(
            format!("core.stage_messages.serve.{f}"),
            "count",
            false,
            s,
            "sim_messages",
        );
    }
    for k in ["det", "randomized", "khan"] {
        add(
            format!("coverage.serve.{k}"),
            "frac",
            true,
            s,
            "trace coverage",
        );
    }
    add(
        "coverage.core.randomized".into(),
        "frac",
        true,
        s,
        "trace coverage",
    );

    add(
        "server.admit_us.large.p50".into(),
        "us",
        false,
        l,
        "latency_p50_ms (expect ~0)",
    );
    add(
        "server.queue_wait_ms.large.p50".into(),
        "ms",
        false,
        l,
        "latency_p50_ms (expect ~0)",
    );
    add(
        "service.solve_ms.det_t2.p50".into(),
        "ms",
        false,
        l,
        "latency_p50_ms",
    );
    for st in ["bfs", "flood", "voronoi"] {
        add(
            format!("core.det.{st}_ms"),
            "ms",
            false,
            l,
            "latency_p50_ms",
        );
    }
    for f in LARGE_FAMILIES {
        add(
            format!("core.stage_rounds.large.{f}"),
            "count",
            false,
            l,
            "sim_rounds",
        );
    }
    for f in LARGE_FAMILIES.iter().filter(|&&f| f != "charged") {
        add(
            format!("core.stage_messages.large.{f}"),
            "count",
            false,
            l,
            "sim_messages",
        );
    }
    add(
        "congest.sharded_runs".into(),
        "count",
        false,
        l,
        "latency_p50_ms",
    );
    add("congest.slots".into(), "count", false, l, "latency_p50_ms");
    add("congest.steals".into(), "count", false, l, "latency_p50_ms");
    add(
        "congest.idle_wait_frac".into(),
        "frac",
        false,
        l,
        "latency_p50_ms",
    );
    add(
        "congest.gossip_ms.t1".into(),
        "ms",
        false,
        l,
        "latency_p50_ms",
    );
    add(
        "congest.gossip_ms.t2".into(),
        "ms",
        false,
        l,
        "latency_p50_ms",
    );
    add(
        "congest.activations".into(),
        "count",
        false,
        l,
        "latency_p50_ms",
    );
    add(
        "coverage.large.det_t2".into(),
        "frac",
        true,
        l,
        "trace coverage",
    );

    for op in ["add", "remove", "reweight"] {
        for q in ["p50", "p99"] {
            add(
                format!("service.delta_ms.{op}.{q}"),
                "ms",
                false,
                c,
                "latency_p99_ms",
            );
        }
    }
    for op in ["add", "remove", "reweight"] {
        add(
            format!("service.delta_moves.{op}"),
            "count",
            false,
            c,
            "latency_p99_ms,weight_ratio",
        );
    }
    add(
        "service.repair_speedup".into(),
        "x",
        true,
        c,
        "latency_p50_ms",
    );
    add("graph.dijkstra_ms".into(), "ms", false, c, "latency_p50_ms");
    for st in ["connect", "optimize", "greedy", "local_search"] {
        add(
            format!("steiner.{st}_ms"),
            "ms",
            false,
            c,
            "latency_p50_ms,latency_p99_ms,weight_ratio",
        );
    }
    for op in ["add", "remove", "reweight"] {
        add(
            format!("coverage.churn.{op}"),
            "frac",
            true,
            c,
            "trace coverage",
        );
    }

    for (wl, tag) in [(s, "serve"), (l, "large"), (c, "churn")] {
        for part in ["graphs", "instances", "references", "warmup"] {
            add(format!("setup.{tag}.{part}_s"), "s", false, wl, "setup_s");
        }
    }
    v
}

/// Predicted no-change pairs: a change to the named layer should leave
/// these workloads' end-to-end metrics within their bounds.
pub const NO_CHANGE: [(&str, &str); 4] = [
    ("congest executor", "churn-repair"),
    ("steiner repair", "serve-mixed, solve-large"),
    ("embed / randomized", "solve-large, churn-repair"),
    ("server", "churn-repair"),
];

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The repository's `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \
         \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n",
    );
    s.push_str("  \"paths\": [\"perfbench\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": {}, \"why\": {}}}{comma}",
            json_str(name),
            json_str(why)
        );
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{comma}",
            json_str(m.name),
            json_str(m.unit),
            json_str(if m.higher_is_better {
                "higher"
            } else {
                "lower"
            }),
            m.bound
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    let layers = per_layer();
    for (i, m) in layers.iter().enumerate() {
        let comma = if i + 1 < layers.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{comma}",
            json_str(&m.name),
            json_str(m.unit),
            json_str(if m.higher_is_better {
                "higher"
            } else {
                "lower"
            })
        );
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(n: &str) -> bool {
        n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_valid_and_unique() {
        let mut names: Vec<String> = END_TO_END.iter().map(|m| m.name.to_string()).collect();
        names.extend(per_layer().into_iter().map(|m| m.name));
        let n = names.len();
        assert!(names.iter().all(|x| valid_name(x)), "{names:?}");
        names.sort();
        names.dedup();
        assert_eq!(names.len(), n);
        assert!(per_layer().len() <= 128);
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
    }
}
