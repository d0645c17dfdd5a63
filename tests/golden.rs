//! Golden outputs: every deterministic output of the CONGEST solvers on
//! the quick corpus, pinned against a committed table.
//!
//! `tests/golden/outputs.txt` holds one line per quick-corpus entry ×
//! solver (`det`, `growth`, `randomized`, `khan`, `collect`). Each line
//! carries FNV-1a digests of the forest's edge ids and of the round
//! ledger's `(label, simulated, charged, messages, bits, cut_bits)`
//! entries, the ledger totals, and the solver's extra outputs: the merge
//! logs of `det` and `growth`, and `randomized`'s stage-1 and tree-optimum
//! weights. Digests mix integers byte by byte, like
//! `WeightedGraph::fingerprint`, so the table is the same on every host.
//!
//! A change that leaves this table untouched changed no deterministic
//! output: it is a refactor. A change that means to alter outputs
//! regenerates the table in its own commit. On a mismatch the test names
//! the first differing entries and fields and writes the fresh table to
//! `target/tmp/golden/outputs.txt`, ready to copy over the committed one.
//!
//! ```sh
//! cargo test -q --test golden                                   # the gate
//! cargo test --release --test golden -- --include-ignored      # + sharded workers
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use steiner_forest::baselines::khan::{solve_khan, KhanConfig};
use steiner_forest::baselines::solve_collect_at_root;
use steiner_forest::congest::{with_threads, RoundLedger};
use steiner_forest::core::det::{solve_growth, GrowthConfig};
use steiner_forest::graph::dyadic::Dyadic;
use steiner_forest::prelude::*;
use steiner_forest::steiner::ForestSolution;
use steiner_forest::workloads::corpus::{stream, Tier};

const COMMITTED: &str = include_str!("golden/outputs.txt");

/// FNV-1a over 64-bit words, byte by byte (little endian).
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(mut self, w: u64) -> Self {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    fn dyadic(self, d: Dyadic) -> Self {
        let (m, e) = d.raw();
        self.word(m as u64)
            .word((m >> 64) as u64)
            .word(u64::from(e))
    }

    fn bytes(self, s: &str) -> Self {
        s.bytes()
            .fold(self.word(s.len() as u64), |h, b| h.word(b.into()))
    }
}

fn forest_digest(f: &ForestSolution) -> u64 {
    f.edges()
        .iter()
        .fold(Fnv::new().word(f.len() as u64), |h, e| h.word(e.0.into()))
        .0
}

fn ledger_fields(l: &RoundLedger) -> String {
    let digest = l.entries().iter().fold(Fnv::new(), |h, e| {
        h.bytes(&e.label)
            .word(e.simulated)
            .word(e.charged)
            .word(e.messages)
            .word(e.bits)
            .word(e.cut_bits)
    });
    format!(
        "ledger={:016x} rounds={} messages={} bits={}",
        digest.0,
        l.total(),
        l.messages(),
        l.bits()
    )
}

fn row(out: &mut String, entry: &str, solver: &str, forest: &ForestSolution, ledger: &RoundLedger) {
    write!(
        out,
        "{entry} {solver} forest={:016x} edges={} {}",
        forest_digest(forest),
        forest.len(),
        ledger_fields(ledger)
    )
    .unwrap();
}

/// Computes the whole table, one line per corpus entry × solver.
fn golden_table() -> String {
    let mut out = String::new();
    for entry in stream(Tier::Quick) {
        let (g, inst, id) = (&entry.graph, &entry.instance, entry.id.as_str());

        let det = solve_deterministic(g, inst, &DetConfig::default()).expect("det");
        let merges = det.merges.iter().fold(Fnv::new(), |h, m| {
            h.word(m.v.0.into())
                .word(m.w.0.into())
                .dyadic(m.mu)
                .word(m.phase as u64)
                .word(m.edge.0.into())
        });
        row(&mut out, id, "det", &det.forest, &det.rounds);
        writeln!(
            out,
            " raw={:016x} phases={} merges={:016x}",
            forest_digest(&det.raw),
            det.phases,
            merges.0
        )
        .unwrap();

        let growth = solve_growth(g, inst, &GrowthConfig::default()).expect("growth");
        let merges = growth.merges.iter().fold(Fnv::new(), |h, &(v, w, mu, p)| {
            h.word(v.0.into())
                .word(w.0.into())
                .dyadic(mu)
                .word(p as u64)
        });
        row(&mut out, id, "growth", &growth.forest, &growth.rounds);
        writeln!(
            out,
            " growth_phases={} merge_phases={} merges={:016x}",
            growth.growth_phases, growth.merge_phases, merges.0
        )
        .unwrap();

        let rand = solve_randomized(g, inst, &RandConfig::default()).expect("randomized");
        row(&mut out, id, "randomized", &rand.forest, &rand.rounds);
        writeln!(
            out,
            " truncated={} stage1={} tree_opt={}",
            rand.truncated, rand.stage1_weight, rand.tree_opt_weight
        )
        .unwrap();

        let khan = solve_khan(g, inst, &KhanConfig::default()).expect("khan");
        row(&mut out, id, "khan", &khan.forest, &khan.rounds);
        out.push('\n');

        let collect = solve_collect_at_root(g, inst).expect("collect");
        row(&mut out, id, "collect", &collect.forest, &collect.rounds);
        out.push('\n');
    }
    out
}

/// Splits a line into its row key (`entry solver`) and `key=value` fields.
fn parse(line: &str) -> (String, Vec<(&str, &str)>) {
    let mut words = line.split_whitespace();
    let key = format!(
        "{} {}",
        words.next().unwrap_or(""),
        words.next().unwrap_or("")
    );
    let fields = words
        .map(|w| w.split_once('=').unwrap_or((w, "")))
        .collect();
    (key, fields)
}

/// Compares two tables; the error names the first few differing rows and
/// fields.
fn compare(expected: &str, actual: &str) -> Result<(), String> {
    let (exp, act): (Vec<&str>, Vec<&str>) = (expected.lines().collect(), actual.lines().collect());
    let mut diffs = Vec::new();
    for i in 0..exp.len().max(act.len()) {
        let (e, a) = (exp.get(i).copied(), act.get(i).copied());
        if e == a {
            continue;
        }
        let what = match (e, a) {
            (Some(e), Some(a)) => {
                let ((ek, ef), (ak, af)) = (parse(e), parse(a));
                if ek != ak {
                    format!("line {}: expected row `{ek}`, got `{ak}`", i + 1)
                } else {
                    let fields: Vec<String> = ef
                        .iter()
                        .zip(af.iter().chain(std::iter::repeat(&("", ""))))
                        .filter(|(x, y)| x != y)
                        .map(|((k, x), (_, y))| format!("{k}: {x} -> {y}"))
                        .collect();
                    format!("{ek}: {}", fields.join(", "))
                }
            }
            (Some(e), None) => format!("missing row `{}`", parse(e).0),
            (None, Some(a)) => format!("extra row `{}`", parse(a).0),
            (None, None) => unreachable!(),
        };
        diffs.push(what);
        if diffs.len() == 5 {
            break;
        }
    }
    if diffs.is_empty() {
        Ok(())
    } else {
        Err(diffs.join("\n"))
    }
}

fn check(actual: &str, engine: &str) {
    if let Err(diff) = compare(COMMITTED, actual) {
        let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("golden");
        std::fs::create_dir_all(&dir).unwrap();
        let fresh = dir.join("outputs.txt");
        std::fs::write(&fresh, actual).unwrap();
        panic!(
            "golden outputs differ ({engine}); first differences:\n{diff}\n\
             fresh table written to {} — copy it over tests/golden/outputs.txt \
             only if the change is meant to alter outputs",
            fresh.display()
        );
    }
}

#[test]
fn outputs_match_the_committed_table() {
    check(&golden_table(), "default engine");
}

/// The same table through the work-stealing engine: four workers move
/// the protocol nodes (and their borrowed arena slices) across threads.
#[test]
#[ignore = "slow in debug builds; CI runs it in release"]
fn outputs_match_the_committed_table_on_four_threads() {
    check(&with_threads(4, golden_table), "with_threads(4)");
}

#[test]
fn a_changed_digest_fails_and_names_its_entry() {
    let line = COMMITTED
        .lines()
        .find(|l| l.contains(" khan "))
        .expect("the table has khan rows");
    let (key, fields) = parse(line);
    let (_, ledger) = fields
        .iter()
        .find(|(k, _)| *k == "ledger")
        .expect("every row has a ledger digest");
    let flipped = if ledger.starts_with('0') { "1" } else { "0" };
    let tampered_line = line.replacen(
        &format!("ledger={ledger}"),
        &format!("ledger={flipped}{}", &ledger[1..]),
        1,
    );
    let tampered = COMMITTED.replacen(line, &tampered_line, 1);
    let err = compare(&tampered, COMMITTED).expect_err("a changed digest must fail");
    assert!(err.starts_with(&key), "error must name the row: {err}");
    assert!(err.contains("ledger: "), "error must name the field: {err}");
    // And the committed table agrees with itself.
    assert_eq!(compare(COMMITTED, COMMITTED), Ok(()));
}
