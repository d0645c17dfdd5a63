#!/usr/bin/env python3
"""Validate bench_runner JSON artifacts against their declared schemas.

Every `BENCH_*.json` the CI jobs emit declares a `schema` identifier
(`dsf-bench-<tier>/vN`). This checker pins each tier to the schema
version the repo currently emits and verifies the report shape with a
real JSON parser — a second, independent reader next to the strict
line-oriented Rust ones, so a malformed artifact (or a schema bump that
forgot a consumer) fails the pipeline instead of uploading garbage.

For each file it checks:
  * the document parses as JSON and is an object;
  * `schema` matches the expected identifier for the tier (inferred from
    the file name, e.g. BENCH_executor.json -> dsf-bench-executor/v4;
    BENCH_scale.json is the executor schema too);
  * `mode` is a non-empty string and `entries` a non-empty list;
  * every entry carries the tier's required fields with the right types
    (optional fields — `speedup_milli`, `mem_peak_bytes`, churn's
    `race_wall_ns` — are type checked when present);
  * conformance (v2) only: the per-solver `solvers` summary block has
    exactly the expected fields, its aggregates replay from the entries
    (mean/max ratio, max bound, entry and family counts), and the
    ratio-regression gate holds — every entry's achieved `ratio_milli`
    is within the `bound_milli` ceiling its solver was certified to;
  * churn (v1) only: the repair-quality gate replays offline — every
    entry's repaired `weight` is within its `scratch_weight` and its
    `ratio_milli` is within `bound_milli`.

Usage: python3 tools/check_bench_schema.py FILE.json [FILE.json ...]
       python3 tools/check_bench_schema.py --self-test
Exits 1 listing every violation, 0 when all files validate.

`--self-test` feeds the checker a known-good churn artifact plus
deliberately tampered copies (missing field, wrong type, repaired
weight above scratch, ratio past bound, unexpected field, optional field
of the wrong type) and asserts
each tamper is rejected — proof the checker can fail, mirroring
tests/oracle_selftest.rs.
"""

import json
import sys
from pathlib import Path

# Tier -> (expected schema identifier, required entry fields, optional
# entry fields). Bump the version here in the same commit that bumps the
# Rust SCHEMA constant.
WALL = {"min": int, "mean": int, "max": int}
TIERS = {
    "executor": (
        "dsf-bench-executor/v4",
        {
            "name": str,
            "n": int,
            "m": int,
            "threads": int,
            "rounds": int,
            "messages": int,
            "activations": int,
            "wall_ns": WALL,
        },
        {
            "speedup_milli": int,
            "mem_peak_bytes": int,
            "steals": int,
            "utilization_milli": int,
        },
    ),
    "conformance": (
        "dsf-bench-conformance/v2",
        {
            "name": str,
            "n": int,
            "m": int,
            "k": int,
            "t": int,
            "weight": int,
            "cert_lower_milli": int,
            "cert_upper": int,
            "ratio_milli": int,
            "bound_milli": int,
        },
        {},
    ),
    "churn": (
        "dsf-bench-churn/v1",
        {
            "name": str,
            "step": int,
            "k": int,
            "moves": int,
            "weight": int,
            "scratch_weight": int,
            "ratio_milli": int,
            "bound_milli": int,
            "rounds": int,
            "messages": int,
            "repair_wall_ns": int,
            "scratch_wall_ns": int,
            "speedup_milli": int,
        },
        {"race_wall_ns": int},
    ),
}

# File stem -> tier. The scale artifacts reuse the executor schema.
STEMS = {
    "BENCH_executor": "executor",
    "BENCH_scale": "executor",
    "BENCH_conformance": "conformance",
    "BENCH_churn": "churn",
}


def is_int(v) -> bool:
    # bool is an int subclass in Python; a JSON true/false is never a
    # valid count.
    return isinstance(v, int) and not isinstance(v, bool)


def check_field(entry: dict, field: str, ty, errors, where: str):
    v = entry.get(field)
    if isinstance(ty, dict):  # nested object, e.g. wall_ns {min,mean,max}
        if not isinstance(v, dict):
            errors.append(f"{where}: field {field!r} must be an object")
            return
        for k in ty:
            if not is_int(v.get(k)):
                errors.append(f"{where}: field {field}.{k} must be an integer")
        for k in v:
            if k not in ty:
                errors.append(f"{where}: unexpected field {field}.{k}")
    elif ty is int:
        if not is_int(v):
            errors.append(f"{where}: field {field!r} must be an integer")
    elif not isinstance(v, ty) or (ty is str and not v):
        errors.append(f"{where}: field {field!r} must be a non-empty {ty.__name__}")


# Required fields of one conformance `solvers` summary object (v2).
SOLVER_SUMMARY_FIELDS = {
    "solver": str,
    "entries": int,
    "families": int,
    "mean_ratio_milli": int,
    "max_ratio_milli": int,
    "max_bound_milli": int,
}


def split_name(name: str):
    """conformance/<family>/<pattern>/seed=<s>/<solver> -> (family, solver)."""
    parts = name.split("/")
    return (parts[1] if len(parts) > 1 else ""), parts[-1]


def check_conformance_extras(path: Path, doc: dict, entries: list, errors):
    """v2 extras: solvers block shape + replay, and the ratio-regression gate."""
    # Ratio regression: achieved ratio within the certified ceiling.
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            continue
        ratio, bound = entry.get("ratio_milli"), entry.get("bound_milli")
        if is_int(ratio) and is_int(bound) and ratio > bound:
            errors.append(
                f"{path}: entries[{i}] ({entry.get('name')}): ratio regression — "
                f"ratio_milli {ratio} exceeds bound_milli {bound}"
            )

    solvers = doc.get("solvers")
    if not isinstance(solvers, list) or not solvers:
        errors.append(f"{path}: 'solvers' must be a non-empty list")
        return
    # Recompute the aggregates from the entries.
    by_solver = {}
    for entry in entries:
        if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
            continue
        family, solver = split_name(entry["name"])
        by_solver.setdefault(solver, {"ratios": [], "bounds": [], "families": set()})
        by_solver[solver]["ratios"].append(entry.get("ratio_milli", 0))
        by_solver[solver]["bounds"].append(entry.get("bound_milli", 0))
        by_solver[solver]["families"].add(family)
    for i, s in enumerate(solvers):
        where = f"{path}: solvers[{i}]"
        if not isinstance(s, dict):
            errors.append(f"{where}: must be an object")
            continue
        for field, ty in SOLVER_SUMMARY_FIELDS.items():
            if field not in s:
                errors.append(f"{where}: missing field {field!r}")
            else:
                check_field(s, field, ty, errors, where)
        for field in s:
            if field not in SOLVER_SUMMARY_FIELDS:
                errors.append(f"{where}: unexpected field {field!r}")
        name = s.get("solver")
        got = by_solver.get(name)
        if got is None:
            errors.append(f"{where}: solver {name!r} has no entries")
            continue
        expect = {
            "entries": len(got["ratios"]),
            "families": len(got["families"]),
            "mean_ratio_milli": sum(got["ratios"]) // len(got["ratios"]),
            "max_ratio_milli": max(got["ratios"]),
            "max_bound_milli": max(got["bounds"]),
        }
        for field, want in expect.items():
            if is_int(s.get(field)) and s[field] != want:
                errors.append(
                    f"{where}: {field} is {s[field]} but the entries replay to {want}"
                )
    missing = sorted(set(by_solver) - {s.get("solver") for s in solvers if isinstance(s, dict)})
    if missing:
        errors.append(f"{path}: solvers block is missing {missing}")


def check_churn_extras(path: Path, entries: list, errors):
    """v1 extras: replay the repair-quality gate offline.

    The bench harness aborts the run on a violation, so a shipped
    artifact that trips either check was tampered with (or a harness
    regression let a bad forest through).
    """
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            continue
        where = f"{path}: entries[{i}] ({entry.get('name')})"
        w, scratch = entry.get("weight"), entry.get("scratch_weight")
        if is_int(w) and is_int(scratch) and w > scratch:
            errors.append(
                f"{where}: repair regression — repaired weight {w} exceeds "
                f"the from-scratch weight {scratch}"
            )
        ratio, bound = entry.get("ratio_milli"), entry.get("bound_milli")
        if is_int(ratio) and is_int(bound) and ratio > bound:
            errors.append(
                f"{where}: ratio regression — ratio_milli {ratio} exceeds "
                f"bound_milli {bound}"
            )


def tier_for(path: Path):
    for stem, tier in STEMS.items():
        if path.name.startswith(stem):
            return tier
    return None


def check_file(path: Path, errors):
    tier = tier_for(path)
    if tier is None:
        errors.append(
            f"{path}: unknown artifact name (expected one of "
            f"{', '.join(sorted(STEMS))})"
        )
        return
    expected_schema, required, optional = TIERS[tier]
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as e:
        errors.append(f"{path}: unreadable or invalid JSON: {e}")
        return
    if not isinstance(doc, dict):
        errors.append(f"{path}: top level must be a JSON object")
        return
    if doc.get("schema") != expected_schema:
        errors.append(
            f"{path}: schema {doc.get('schema')!r}, expected {expected_schema!r}"
        )
    mode = doc.get("mode")
    if not isinstance(mode, str) or not mode:
        errors.append(f"{path}: 'mode' must be a non-empty string")
    entries = doc.get("entries")
    if not isinstance(entries, list) or not entries:
        errors.append(f"{path}: 'entries' must be a non-empty list")
        return
    known = set(required) | set(optional)
    for i, entry in enumerate(entries):
        where = f"{path}: entries[{i}]"
        if not isinstance(entry, dict):
            errors.append(f"{where}: must be an object")
            continue
        for field, ty in required.items():
            if field not in entry:
                errors.append(f"{where}: missing field {field!r}")
            else:
                check_field(entry, field, ty, errors, where)
        for field, ty in optional.items():
            if field in entry:
                check_field(entry, field, ty, errors, where)
        for field in entry:
            if field not in known:
                errors.append(f"{where}: unexpected field {field!r}")
    if tier == "conformance":
        check_conformance_extras(path, doc, entries, errors)
    if tier == "churn":
        check_churn_extras(path, entries, errors)


def good_churn_entry():
    return {
        "name": "churn/gnp/seed=0/step=05/add",
        "step": 5,
        "k": 4,
        "moves": 2,
        "weight": 41,
        "scratch_weight": 41,
        "ratio_milli": 1000,
        "bound_milli": 4000,
        "rounds": 310,
        "messages": 6200,
        "repair_wall_ns": 1,
        "scratch_wall_ns": 9,
        "speedup_milli": 9000,
    }


def self_test():
    """Negative-test the churn tier: every tamper must be rejected."""
    import tempfile

    def run(mutate):
        doc = {
            "schema": "dsf-bench-churn/v1",
            "mode": "quick",
            "entries": [good_churn_entry()],
        }
        mutate(doc)
        errors = []
        with tempfile.TemporaryDirectory() as d:
            p = Path(d) / "BENCH_churn.json"
            p.write_text(json.dumps(doc), encoding="utf-8")
            check_file(p, errors)
        return errors

    def tampered(label, mutate, needle):
        errors = run(mutate)
        assert any(needle in e for e in errors), (
            f"self-test: {label}: expected a violation mentioning {needle!r}, "
            f"got {errors}"
        )

    assert run(lambda doc: None) == [], "self-test: the clean artifact must pass"
    assert (
        run(lambda doc: doc["entries"][0].update(race_wall_ns=3)) == []
    ), "self-test: the optional race split must pass"
    tampered(
        "missing field",
        lambda doc: doc["entries"][0].pop("scratch_weight"),
        "missing field 'scratch_weight'",
    )
    tampered(
        "wrong type",
        lambda doc: doc["entries"][0].update(weight="41"),
        "field 'weight' must be an integer",
    )
    tampered(
        "repair above scratch",
        lambda doc: doc["entries"][0].update(weight=42, scratch_weight=41),
        "repair regression",
    )
    tampered(
        "ratio past bound",
        lambda doc: doc["entries"][0].update(ratio_milli=4001),
        "ratio regression",
    )
    tampered(
        "unexpected field",
        lambda doc: doc["entries"][0].update(wall_ns=7),
        "unexpected field 'wall_ns'",
    )
    tampered(
        "optional field of the wrong type",
        lambda doc: doc["entries"][0].update(race_wall_ns="3"),
        "field 'race_wall_ns' must be an integer",
    )
    tampered(
        "wrong schema id",
        lambda doc: doc.update(schema="dsf-bench-churn/v0"),
        "expected 'dsf-bench-churn/v1'",
    )
    tampered(
        "empty entries",
        lambda doc: doc.update(entries=[]),
        "non-empty list",
    )
    print("check_bench_schema: self-test passed (8 tampers rejected)")
    return 0


def main(argv):
    if argv == ["--self-test"]:
        return self_test()
    if not argv:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: check_bench_schema.py FILE.json [FILE.json ...]", file=sys.stderr)
        return 2
    errors = []
    for a in argv:
        check_file(Path(a), errors)
    if errors:
        print("bench schema violations:", file=sys.stderr)
        for e in errors:
            print(f"  {e}", file=sys.stderr)
        return 1
    print(f"check_bench_schema: {len(argv)} artifact(s) validate")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
