#!/usr/bin/env python3
"""Compare two BENCH_*.json files of one bench binary.

Usage:
    bench_diff.py BASELINE.json CANDIDATE.json [--tolerance PCT]

Every bench binary writes the same layout (bench/bench_util.hh,
"schema": "bench-v3"): an "artifact" name, a "config" object holding
the settings that produced the file, and "rows", one object per
measured item with a unique "name". Rows are matched by name.
Nested objects are flattened, and each field is judged by the policy
POLICY gives its last name component:

  quality  fails when the candidate exceeds baseline x (1 + PCT/100)
  exact    fails on any change
  lower    a rate: warns when it drops by more than PCT percent
  higher   a timing: warns when it rises by more than PCT percent

Fields without a policy are not compared. A row present on only one
side fails; a row cancelled on either side is not compared. Config
keys that differ are printed as notes and never decide the result on
their own. The differ only compares two runs: checks on a single run
live in the exit status of the binary that ran it.

Exit status: 0 = no failures (warnings allowed), 1 = at least one
failure, 2 = unreadable file, a schema other than bench-v3, a row name
that repeats within a file, or files of two different artifacts.
"""

import argparse
import json
import sys

SCHEMA = "bench-v3"

POLICY = {
    # The paper's headline counts (Table II, Figs. 14-24).
    "cnotCount": "quality",
    "totalGateCount": "quality",
    "depth": "quality",
    "swapCount": "quality",
    # Deterministic given the config.
    "generated_instructions": "exact",
    "instructions": "exact",
    "blocks": "exact",
    "chunks": "exact",
    "requests": "exact",
    "gates": "exact",
    "gates_in": "exact",
    "gates_out": "exact",
    "passes": "exact",
    "bytes_total": "exact",
    # Rates: lower is worse.
    "ops_per_sec": "lower",
    "speedup": "lower",
    "throughput_rps": "lower",
    "instructions_per_sec": "lower",
    "bytes_per_sec": "lower",
    "chunks_per_sec": "lower",
    # Timings: higher is worse.
    "avg_ns": "higher",
    "packed_ns": "higher",
    "event_log_disabled_ns": "higher",
    "scrape_load_avg_us": "higher",
    "scrape_idle_avg_us": "higher",
    "p50": "higher",
    "p99": "higher",
    "total_seconds": "higher",
}


def die(message):
    """Refuse the comparison: exit 2."""
    print(f"bench_diff: {message}", file=sys.stderr)
    sys.exit(2)


def load(path):
    """Parse one BENCH file, exiting 2 unless it is a bench-v3 file."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        die(f"cannot read {path}: {exc}")
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema != SCHEMA:
        die(f"{path} has schema {schema!r}, not {SCHEMA!r}; "
            "regenerate it with a current build")
    rows = doc.get("rows")
    if not isinstance(rows, list) or \
            not all(isinstance(row, dict) for row in rows):
        die(f"{path} has no list of row objects")
    return doc


def flatten(obj, prefix=""):
    """{"a": {"b": 1}} -> {"a.b": 1}."""
    flat = {}
    for key, value in obj.items():
        if isinstance(value, dict):
            flat.update(flatten(value, f"{prefix}{key}."))
        else:
            flat[prefix + key] = value
    return flat


def rows_by_name(doc, path):
    """{row name: row}, exiting 2 when a name repeats."""
    rows = {}
    for row in doc["rows"]:
        name = row.get("name")
        if name in rows:
            die(f"{path} repeats the row name {name!r}")
        rows[name] = row
    return rows


def number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def judge(policy, old, new, slack):
    """'fail', 'warn' or None for one field under its policy."""
    if policy == "exact":
        return "fail" if old != new else None
    if not (number(old) and number(new)):
        return None
    if policy == "quality":
        return "fail" if new > old * slack else None
    if policy == "higher":
        return "warn" if old > 0 and new > old * slack else None
    return "warn" if old > 0 and new * slack < old else None


def change(old, new):
    """'old -> new (+x%)', the percentage only between two numbers."""
    text = " -> ".join(f"{v:.6g}" if isinstance(v, float) else str(v)
                       for v in (old, new))
    if number(old) and number(new) and old:
        text += f" ({100.0 * (new - old) / old:+.1f}%)"
    return text


def main():
    parser = argparse.ArgumentParser(
        description="Diff two bench-v3 BENCH_*.json files.")
    parser.add_argument("baseline")
    parser.add_argument("candidate")
    parser.add_argument(
        "--tolerance", type=float, default=0.0, metavar="PCT",
        help="allowed move in percent before a field fails or warns "
        "(default: 0)")
    args = parser.parse_args()
    if args.tolerance < 0:
        parser.error("--tolerance must be >= 0")
    slack = 1.0 + args.tolerance / 100.0

    base, cand = load(args.baseline), load(args.candidate)
    if base.get("artifact") != cand.get("artifact"):
        die(f"artifacts differ: {base.get('artifact')!r} vs "
            f"{cand.get('artifact')!r}")

    base_cfg, cand_cfg = base.get("config", {}), cand.get("config", {})
    for key in sorted(base_cfg.keys() | cand_cfg.keys()):
        if base_cfg.get(key) != cand_cfg.get(key):
            print(f"note: config {key}: {base_cfg.get(key)!r} -> "
                  f"{cand_cfg.get(key)!r}")

    base_rows = rows_by_name(base, args.baseline)
    cand_rows = rows_by_name(cand, args.candidate)
    failures, warnings, compared = [], [], 0
    for key in sorted(base_rows.keys() ^ cand_rows.keys()):
        side = args.baseline if key in base_rows else args.candidate
        failures.append(f"{key}: row only in {side}")
    for key in sorted(base_rows.keys() & cand_rows.keys()):
        old_row, new_row = base_rows[key], cand_rows[key]
        if old_row.get("cancelled") or new_row.get("cancelled"):
            print(f"note: {key}: cancelled, not compared")
            continue
        compared += 1
        old_flat, new_flat = flatten(old_row), flatten(new_row)
        for field in sorted(old_flat.keys() & new_flat.keys()):
            policy = POLICY.get(field.rsplit(".", 1)[-1])
            old, new = old_flat[field], new_flat[field]
            verdict = policy and judge(policy, old, new, slack)
            if verdict:
                (failures if verdict == "fail" else warnings).append(
                    f"{key}: {field} {change(old, new)}")

    for message in warnings:
        print(f"warning: {message}")
    if failures:
        print(f"FAIL ({len(failures)} failure(s), tolerance "
              f"{args.tolerance:g}%):")
        for message in failures:
            print(f"  {message}")
        return 1
    print(f"OK: {compared} row(s) compared, {len(warnings)} warning(s), "
          f"tolerance {args.tolerance:g}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
