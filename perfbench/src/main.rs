//! The repository benchmark: three workloads against the public APIs of
//! the Steiner forest stack, end-to-end metrics with tracing off, and an
//! outside-in per-layer trace with tracing on.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-mixed --seed 1 --seconds 30 --trace 0
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --spec
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. A failed output check
//! prints `"correct": false` and exits with code 1. See `README.md` next
//! to this package for the workloads, metrics and layer map.

mod check;
mod churn;
mod large;
mod serve;
mod spec;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;

use check::{Checker, Digest};
use trace::Tracer;

/// Wall-clock of the set-up phases, seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Graph generation (median over the repeated set-ups).
    pub graphs: f64,
    /// Instance / request / trace generation (median).
    pub instances: f64,
    /// Reference solves the output checks and `weight_ratio` use.
    pub references: f64,
    /// Warm-up before the first measured request.
    pub warmup: f64,
}

impl SetupTimes {
    fn total(&self) -> f64 {
        self.graphs + self.instances + self.references + self.warmup
    }
}

/// Times `f` in seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = std::time::Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// How many times a run repeats input generation for `setup_s`.
pub const SETUP_REPS: usize = 3;

/// Median of `SETUP_REPS` timings of `f`, plus the last result.
pub fn repeated<R>(mut f: impl FnMut() -> R) -> (R, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let (r, s) = timed(&mut f);
        times.push(s);
        last = Some(r);
    }
    (
        last.expect("at least one repetition"),
        stats::median(&times),
    )
}

/// One measured pass of a workload.
#[derive(Debug, Default)]
pub struct Pass {
    /// End-to-end metrics (all but `setup_s`).
    pub e2e: BTreeMap<&'static str, f64>,
    /// Requests sent.
    pub attempted: u64,
    /// Requests failed, refused or never reported.
    pub failed: u64,
    /// Digest of the deterministic outputs of the pass.
    pub digest: Digest,
    /// What the digest covers (pass window), for cross-run comparison.
    pub digest_key: String,
    /// Warm-up seconds the pass spent before measuring.
    pub warmup_s: f64,
    /// Per-layer metrics the pass itself measured (traced passes only).
    pub layer: Vec<(String, f64)>,
    /// Human-readable detail lines.
    pub notes: Vec<String>,
}

/// A benchmark workload.
pub trait Workload: Sized {
    /// Name on the command line.
    const NAME: &'static str;
    /// Short tag used in per-layer metric names.
    const TAG: &'static str;
    /// Builds the inputs from the seed (graphs and instances repeated
    /// `SETUP_REPS` times) and the reference solves.
    fn setup(seed: u64, chk: &mut Checker) -> (Self, SetupTimes);
    /// Runs the workload for about `seconds`.
    fn pass(&self, seconds: f64, tracer: &mut Tracer, chk: &mut Checker) -> Pass;
    /// Outside-in replays after the traced pass, appending per-layer
    /// metrics (a workload may do its replays inside the traced pass).
    fn layers(&self, _tracer: &mut Tracer, _chk: &mut Checker, _out: &mut Vec<(String, f64)>) {}
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        if flag == "--spec" {
            print!("{}", spec::benchmark_json());
            return Ok(None);
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|_| bad())? != 0),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !spec::WORKLOADS.iter().any(|(n, _)| *n == workload) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seconds = seconds.unwrap_or(spec::RUN_SECONDS as f64);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} out of range"));
    }
    Ok(Some(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    }))
}

/// Prints the host record every result is reported next to.
fn host_record() {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("host: nproc={nproc}");
    println!(
        "host: dsf_congest::default_threads()={}",
        dsf_congest::default_threads()
    );
    println!("host: rustc={}", env!("PERFBENCH_RUSTC"));
    println!("host: commit={}", env!("PERFBENCH_COMMIT"));
    let flag = if spec::WORKERS > nproc {
        "  ** FLAG: more threads requested than nproc **"
    } else {
        ""
    };
    println!(
        "host: requested threads={} (server workers / sharded threads){flag}",
        spec::WORKERS
    );
}

fn unit_of(name: &str) -> &'static str {
    spec::END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| {
            spec::per_layer()
                .into_iter()
                .find(|m| m.name == name)
                .map(|m| m.unit)
        })
        .unwrap_or("?")
}

/// The untraced run of one workload: every end-to-end metric.
fn run_untraced<W: Workload>(
    seed: u64,
    seconds: f64,
    chk: &mut Checker,
) -> (BTreeMap<&'static str, f64>, u64, u64) {
    let (w, mut setup) = W::setup(seed, chk);
    let mut tracer = Tracer::new(false);
    let pass = W::pass(&w, seconds, &mut tracer, chk);
    setup.warmup += pass.warmup_s;
    check::cross_run(
        chk,
        W::NAME,
        &format!("{} seed={seed} {}", W::NAME, pass.digest_key),
        &pass.digest,
    );
    for n in &pass.notes {
        println!("{}: {n}", W::NAME);
    }
    println!("{}: digest {}", W::NAME, pass.digest);
    println!(
        "{}: setup graphs={:.4}s instances={:.4}s references={:.4}s warmup={:.4}s",
        W::NAME,
        setup.graphs,
        setup.instances,
        setup.references,
        setup.warmup
    );
    let mut e2e = pass.e2e;
    e2e.insert("setup_s", setup.total());
    (e2e, pass.attempted, pass.failed)
}

/// The traced run of one workload: an untraced and a traced pass of the
/// same length (their difference is the tracing overhead, and their
/// digests must agree), then the outside-in layer replays.
fn run_traced<W: Workload>(
    seed: u64,
    seconds: f64,
    chk: &mut Checker,
    layers: &mut Vec<(String, f64)>,
    spans: &mut String,
) -> (u64, u64) {
    let (w, mut setup) = W::setup(seed, chk);
    let plain = W::pass(&w, seconds, &mut Tracer::new(false), chk);
    setup.warmup += plain.warmup_s;
    let mut tracer = Tracer::new(true);
    let traced = W::pass(&w, seconds, &mut tracer, chk);
    chk.digest_eq(W::NAME, "traced-vs-untraced", &traced.digest, &plain.digest);
    check::cross_run(
        chk,
        W::NAME,
        &format!("{} seed={seed} {}", W::NAME, plain.digest_key),
        &plain.digest,
    );
    for n in &traced.notes {
        println!("{} (traced): {n}", W::NAME);
    }
    println!("{}: digest {} (untraced and traced)", W::NAME, plain.digest);
    for (name, base) in &plain.e2e {
        let with = traced.e2e.get(name).copied().unwrap_or(f64::NAN);
        println!(
            "{}: tracing overhead {name}: untraced={base:.4} traced={with:.4} diff={:+.4} {}",
            W::NAME,
            with - base,
            unit_of(name)
        );
    }
    layers.extend(traced.layer);
    W::layers(&w, &mut tracer, chk, layers);
    let mut names: Vec<&str> = tracer.spans().iter().map(|s| s.name.as_str()).collect();
    names.sort_unstable();
    names.dedup();
    for name in names {
        let total: f64 = tracer.durations_ms(name).iter().sum();
        let own: f64 = tracer.self_ms(name).iter().sum();
        println!(
            "{}: span {name}: total={total:.3}ms self={own:.3}ms",
            W::NAME
        );
    }
    for (part, v) in [
        ("graphs", setup.graphs),
        ("instances", setup.instances),
        ("references", setup.references),
        ("warmup", setup.warmup),
    ] {
        layers.push((format!("setup.{}.{part}_s", W::TAG), v));
    }
    tracer.write_jsonl(W::NAME, spans);
    (
        plain.attempted + traced.attempted,
        plain.failed + traced.failed,
    )
}

/// Where the span dump goes: the build directory of the checkout.
fn trace_path(seed: u64) -> std::path::PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("target"));
    dir.join(format!("perfbench-trace-seed{seed}.jsonl"))
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[(String, f64)]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, v)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            unit_of(name)
        );
    }
    s.push_str("}}");
    s
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <serve-mixed|solve-large|churn-repair> --seed <n> \
                 --seconds <s> --trace <0|1>  |  perfbench --spec"
            );
            return ExitCode::from(2);
        }
    };
    host_record();
    println!(
        "run: workload={} seed={} seconds={} trace={} held-out seed={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        spec::HELD_OUT_SEED
    );
    let mut chk = Checker::default();
    let (metrics, attempted, failed) = if args.trace {
        // Every layer is reported in a traced run, so it traces every
        // workload, each pass a quarter of the run length.
        let quarter = args.seconds / 4.0;
        let mut layers = Vec::new();
        let mut spans = String::new();
        let mut totals = (0, 0);
        for (a, f) in [
            run_traced::<serve::ServeMixed>(args.seed, quarter, &mut chk, &mut layers, &mut spans),
            run_traced::<large::SolveLarge>(args.seed, quarter, &mut chk, &mut layers, &mut spans),
            run_traced::<churn::ChurnRepair>(args.seed, quarter, &mut chk, &mut layers, &mut spans),
        ] {
            totals.0 += a;
            totals.1 += f;
        }
        let path = trace_path(args.seed);
        match std::fs::write(&path, &spans) {
            Ok(()) => println!("trace: spans written to {}", path.display()),
            Err(e) => println!("trace: could not write spans: {e}"),
        }
        let by_name: BTreeMap<&str, f64> = layers.iter().map(|(n, v)| (n.as_str(), *v)).collect();
        let mut ordered = Vec::new();
        for m in spec::per_layer() {
            match by_name.get(m.name.as_str()) {
                Some(&v) => {
                    println!(
                        "layer {:<40} {v:>14.4} {:<6} workload={} moves={}",
                        m.name, m.unit, m.workload, m.moves
                    );
                    ordered.push((m.name, v));
                }
                None => chk.fail("trace", &m.name, "per-layer metric was not measured"),
            }
        }
        for (layer, unchanged) in spec::NO_CHANGE {
            println!("predicted no-change: a change to {layer} leaves {unchanged} within bounds");
        }
        (ordered, totals.0, totals.1)
    } else {
        let (e2e, a, f) = match args.workload.as_str() {
            "serve-mixed" => run_untraced::<serve::ServeMixed>(args.seed, args.seconds, &mut chk),
            "solve-large" => run_untraced::<large::SolveLarge>(args.seed, args.seconds, &mut chk),
            _ => run_untraced::<churn::ChurnRepair>(args.seed, args.seconds, &mut chk),
        };
        let mut ordered = Vec::new();
        for m in &spec::END_TO_END {
            match e2e.get(m.name) {
                Some(&v) => {
                    println!("metric {:<16} {v:>14.4} {}", m.name, m.unit);
                    ordered.push((m.name.to_string(), v));
                }
                None => chk.fail(&args.workload, m.name, "end-to-end metric was not measured"),
            }
        }
        (ordered, a, f)
    };
    for (name, v) in &metrics {
        if !v.is_finite() {
            chk.fail(
                &args.workload,
                name,
                format!("metric is not a finite number: {v}"),
            );
        }
    }
    let metrics: Vec<(String, f64)> = metrics
        .into_iter()
        .map(|(n, v)| (n, if v.is_finite() { v } else { -1.0 }))
        .collect();
    for f in chk.failures() {
        println!("CHECK FAILED: {f}");
    }
    println!(
        "{}",
        json_line(chk.ok(), attempted.max(1), failed, &metrics)
    );
    if chk.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
