#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sweep-table2 --seed 1 \
        --seconds 20 --trace 0

Run from the root of a source checkout. The script builds the
`perfbench` binary from source (Release, into .bench_build/perfbench),
starts it in a fresh process with every TETRIS_* variable removed from
its environment, and gives it a fresh work directory under
.bench_build/runs that is removed afterwards.

The binary prints its configuration, notes and metrics, then one JSON
line. With --trace 1 it also writes the spans of its traced round;
this script turns them into per-layer self times (self.<layer>_s) and
the part of the blocking path that no layer covers (self.uncovered_s),
adds them to the per-layer metrics, and prints the final JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exit status: 0 when every output check passed, 1 when a check or the
run failed, 2 when the sources are missing or the build failed (no
result line is printed then).
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("sweep-table2", "stream-mix", "serve-mixed")
RUN_TIMEOUT_S = 170

# Span name -> layer. Engine spans come from the engine's own tracer;
# the rest are recorded by the binary around its calls into the
# system. queue_wait is time a job waited, not work, so it is left out
# of the span tree (engine.queue_wait_s reports it).
LAYER_OF = {
    "chem.build": "chem",
    "BlockSource::next": "frontend",
    "StreamCompiler::run": "frontend",
    "Engine::compileAll": "engine",
    "job": "engine",
    "compile": "core",
    "schedule": "core",
    "synthesis": "core",
    "peephole": "circuit",
    "verify": "verify",
    "encodeArtifact": "serialize",
    "decodeArtifact": "serialize",
    "ServeClient::submit": "serve",
}
LAYERS = ("chem", "frontend", "engine", "core", "circuit", "verify",
          "serialize", "serve")
CALLERS = ("Engine::compileAll", "StreamCompiler::run",
           "ServeClient::submit")
EPS_US = 0.01


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configure and build the binary; returns its path."""
    if not (ROOT / "src" / "engine" / "engine.hh").is_file():
        fail(f"no Tetris sources under {ROOT / 'src'}")
    BUILD.mkdir(parents=True, exist_ok=True)
    with open(BUILD.parent / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD / "CMakeCache.txt").is_file():
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                   "-DCMAKE_BUILD_TYPE=Release"] + gen
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                shutil.rmtree(BUILD, ignore_errors=True)
                fail("configure failed")
        cmd = ["cmake", "--build", str(BUILD), "-j", "4"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed")
    return BUILD / "perfbench"


def union_length(intervals, lo, hi):
    """Length of the union of intervals clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans_path):
    """Per-layer self seconds and the uncovered part of the rounds."""
    doc = json.loads(Path(spans_path).read_text())
    nodes = []  # [name, start_us, end_us, parent_index]
    callers = []
    rounds = []
    for s in doc["spans"]:
        nodes.append([s["name"], s["start"], s["end"], s["parent"]])
        if s["name"] in CALLERS:
            callers.append((len(nodes) - 1, s.get("job", "")))
        if s["name"] == "round":
            rounds.append(len(nodes) - 1)

    def contains(i, start, end):
        return nodes[i][1] - EPS_US <= start and end <= nodes[i][2] + EPS_US

    def caller_of(job, start, end):
        stem = job.split("#", 1)[0]
        for wanted in (job, stem):
            for i, name in callers:
                if name == wanted and contains(i, start, end):
                    return i
        for i, name in callers:
            if not name and contains(i, start, end):
                return i
        for i in rounds:
            if contains(i, start, end):
                return i
        return None

    jobs = {}
    for e in doc["engine"]["traceEvents"]:
        if e["name"] == "queue_wait":
            continue
        job = e.get("args", {}).get("job", "")
        jobs.setdefault(job, []).append(
            (e["ts"], e["ts"] + e["dur"], e["name"]))
    for job, events in jobs.items():
        stack = []
        for start, end, name in sorted(events, key=lambda x: (x[0], -x[1])):
            while stack and not contains(stack[-1], start, end):
                stack.pop()
            parent = stack[-1] if stack else caller_of(job, start, end)
            nodes.append([name, start, end, parent])
            stack.append(len(nodes) - 1)

    children = {}
    for i, (_, start, end, parent) in enumerate(nodes):
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    layer_s = {layer: 0.0 for layer in LAYERS}
    uncovered = 0.0
    for i, (name, start, end, _) in enumerate(nodes):
        own = (end - start) - union_length(children.get(i, []), start, end)
        if name == "round":
            uncovered += own / 1e6
        elif name in LAYER_OF:
            layer_s[LAYER_OF[name]] += own / 1e6
    metrics = {f"self.{k}_s": v for k, v in layer_s.items()}
    metrics["self.uncovered_s"] = uncovered
    return metrics


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "small"), default="full")
    args = ap.parse_args()

    binary = build()
    workdir = ROOT / ".bench_build" / "runs" / str(os.getpid())
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    spans = workdir / "spans.json"
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("TETRIS_")}
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--scale", args.scale,
           "--workdir", str(workdir)]
    if args.trace:
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
        lines = proc.stdout.splitlines()
        if not lines:
            fail(f"perfbench exited {proc.returncode} without output", 1)
        result = json.loads(lines[-1])
        for line in lines[:-1]:
            print(line)
        if args.trace:
            for name, value in self_times(spans).items():
                print(f"layer {name} {value:.9g} s")
                result["metrics"][name] = {"value": value, "unit": "s"}
    except subprocess.TimeoutExpired:
        fail(f"perfbench did not finish within {RUN_TIMEOUT_S} s", 1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    want = expected_metrics(args.trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        fail(f"metrics differ from BENCHMARK.json: "
             f"missing {sorted(set(want) - set(got))}, "
             f"extra {sorted(set(got) - set(want))}, units "
             f"{sorted(k for k in want if k in got and want[k] != got[k])}",
             1)
    print(json.dumps(result, separators=(",", ":")))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
