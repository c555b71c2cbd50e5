#!/usr/bin/env python3
"""Self-test of the benchmark; run from the root of a source checkout.

    python3 perfbench/selftest.py

For each workload at the small scale it checks that:
  * two runs with one seed give identical quality counts and verdicts;
  * a run with another seed changes the counts;
  * every end-to-end metric prints by name with its unit, untraced;
  * the traced mode prints every per-layer metric, including a self
    time for every layer and the uncovered part of the blocking path.
It also checks that the benchmark, copied without the sources it
builds, exits nonzero without printing a result. Exit status 0 when
every check passed.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
QUALITY = ("cnot_count", "depth", "duration_dt", "swap_count")
SELF_LAYERS = ("chem", "frontend", "engine", "core", "circuit", "verify",
               "serialize", "serve", "uncovered")

failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(workload, seed, trace, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--scale", "small"]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, lines, result


def printed(lines, kind, name, unit):
    prefix = f"{kind} {name} "
    return any(l.startswith(prefix) and l.endswith(f" {unit}")
               for l in lines)


def test_workload(workload):
    code_a, lines_a, a = run(workload, 7, 0)
    code_b, _, b = run(workload, 7, 0)
    code_c, _, c = run(workload, 8, 0)
    check(code_a == 0 and code_b == 0 and code_c == 0,
          f"{workload}: untraced runs exit 0")
    if not (a and b and c):
        check(False, f"{workload}: untraced runs print a result")
        return
    for r in (a, b, c):
        check(r["correct"] and r["failed"] == 0 and r["attempted"] >= 1,
              f"{workload}: every verdict passes")
    check(all(a["metrics"][q]["value"] == b["metrics"][q]["value"]
              for q in QUALITY),
          f"{workload}: one seed twice gives identical quality counts")
    check(any(a["metrics"][q]["value"] != c["metrics"][q]["value"]
              for q in QUALITY),
          f"{workload}: another seed changes the quality counts")
    for m in SPEC["end_to_end"]:
        check(m["name"] in a["metrics"] and
              a["metrics"][m["name"]]["unit"] == m["unit"] and
              printed(lines_a, "metric", m["name"], m["unit"]),
              f"{workload}: prints {m['name']} [{m['unit']}]")
    check(printed(lines_a, "metric", "error_rate", "ratio"),
          f"{workload}: prints error_rate [ratio]")

    code_t, lines_t, t = run(workload, 7, 1)
    check(code_t == 0 and t is not None and t["correct"],
          f"{workload}: traced run passes")
    if t is None:
        return
    for m in SPEC["per_layer"]:
        check(m["name"] in t["metrics"] and
              printed(lines_t, "layer", m["name"], m["unit"]),
              f"{workload}: traced run prints {m['name']} [{m['unit']}]")
    for layer in SELF_LAYERS:
        check(f"self.{layer}_s" in t["metrics"],
              f"{workload}: traced run has a self time for {layer}")


def test_bare_directory():
    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path)
    code, lines, result = run("sweep-table2", 1, 0, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    check(code != 0 and result is None,
          "without sources: exits nonzero and prints no result")


def main():
    for w in SPEC["workloads"]:
        test_workload(w["name"])
    test_bare_directory()
    print(f"{len(failures)} failed checks")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
