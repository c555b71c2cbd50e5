#!/usr/bin/env bash
# Quick end-to-end smoke: configure + build, then run a slice of the
# engine-backed bench binaries in quick mode and check that each
# drops its machine-readable BENCH_*.json trajectory. The slice
# covers the three workload families (UCCSD molecules via table2,
# multi-pipeline comparison via fig14, QAOA via fig23).
#
# Second half: the persistent compile-artifact store. One bench runs
# twice against a fresh TETRIS_CACHE_DIR; the cold run must populate
# the store and the warm run must recompile nothing (all disk hits).
# A deliberately corrupted artifact must degrade to a miss, not an
# error, and scripts/cache_tool.py + scripts/bench_diff.py must
# operate on the resulting store/trajectories. The warm run must
# report zero contended cache lock waits (compileAll looks keys up
# from one thread). The perf microbench (sharded cache, artifact
# loads, packed Pauli kernels) then runs its quick preset: its warm
# engine sweep must do zero recompiles and its hit-only cache sweeps
# and artifact loads must see no miss (the binary exits 1
# otherwise), stored artifacts must average under 40 KB (compact
# gate records), the packed kernels must hold their >=5x speedup at
# 64+ qubits, each scheduler row (UCC-20 and CH4/JW at K in
# {1, 10, 22}) must have scheduled blocks, each peephole row
# (UCC-20 and CH4/JW under Paulihedral and Tetris) must remove gates,
# each synthesis row (the same four pairs) must have synthesized
# blocks, and each verify row (the same four pairs) must have checked
# gates and passed. compile_cli and gen_workloads must refuse
# malformed flag values with exit 2, and gen_workloads must not touch
# --out then.
#
# Observability: sweep BENCH files must carry latency histograms,
# and a TETRIS_TRACE run must produce a file that
# scripts/trace_report.py validates. The resident obs plane then
# runs for real: a sweep with TETRIS_OBS_ADDR serves
# /metrics mid-run (scraped and strictly validated by
# scripts/obs_scrape.py), its idle-state scrape must agree with the
# BENCH json bucket for bucket, and TETRIS_EVENT_LOG must record the
# job lifecycle. The disarmed event log must cost a few ns/op at
# most (obs_overhead section of BENCH_perf.json).
#
# Serving: the serve CLIs must refuse every malformed or out-of-range
# integer flag with exit 2 at parse time; the multi-client stress
# bench must pass (warm phase all cache hits) and write
# BENCH_serve.json with server and wire time split out (every BENCH
# file is then checked for the shared bench-v3 layout), then a real tetrisd
# round-trips compilations over TCP + unix socket via tetris_client
# — including a streamed program file ingested in windowed chunks
# with server-side verification on — and is SIGTERMed mid-batch; the
# drain must answer in-flight work, unlink the unix socket, and
# exit 0.
#
# Streaming frontend: the quick stream bench must verify every chunk
# and write BENCH_stream.json, a short frontend fuzz sweep must find
# no total-decode violation, and a dedicated 1M+-instruction run must
# hold peak RSS under the window-proportional bound — the O(window)
# memory claim, asserted at file scale.
#
# bench_diff.py then runs on mutated copies of the fresh table2 and
# stream files: an unchanged file passes, a moved count or a dropped
# row fails, a halved rate only warns, and an older schema is
# refused.
set -euo pipefail
cd "$(dirname "$0")/.."

export TETRIS_BENCH_QUICK=1
export TETRIS_ENGINE_THREADS="${TETRIS_ENGINE_THREADS:-2}"

cmake -B build -S .
cmake --build build -j

for bench in table2_main fig14_compilers fig23_qaoa; do
  (cd build && "./${bench}")
done
for artifact in table2 fig14 fig23; do
  test -s "build/BENCH_${artifact}.json"
  echo "smoke OK: build/BENCH_${artifact}.json written"
done

# ---- observability: schema, histograms, tracing -------------------
# A sweep's engine section must carry ordered latency percentiles for
# job latency and queue wait, none of them above the recorded max.
python3 - build/BENCH_table2.json <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
hists = doc["engine"]["histograms"]
for name in ("job.latency_ns", "job.queue_wait_ns"):
    h = hists[name]
    assert h["count"] > 0, f"{name} recorded nothing"
    assert h["p50"] <= h["p90"] <= h["p99"] <= h["max"], \
        f"{name} percentiles out of order or above max: {h}"
print(f"smoke OK: latency histograms present "
      f"(job latency p99 {hists['job.latency_ns']['p99']} ns over "
      f"{hists['job.latency_ns']['count']} job(s))")
EOF

# A traced run must produce a loadable Chrome trace-event file that
# trace_report.py accepts; a malformed one must be rejected (exit 2).
rm -f build/smoke-trace.json
(cd build && TETRIS_TRACE=smoke-trace.json ./table2_main)
test -s build/smoke-trace.json
python3 scripts/trace_report.py build/smoke-trace.json
echo 'not a trace' > build/smoke-trace-bad.json
if python3 scripts/trace_report.py build/smoke-trace-bad.json \
    2> /dev/null; then
  echo "smoke FAIL: trace_report accepted a malformed trace" >&2
  exit 1
fi
python3 scripts/trace_report.py build/smoke-trace.json --json \
  > build/smoke-trace-report.json
python3 - build/smoke-trace-report.json <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["schema"] == "trace-report-v1", doc.get("schema")
assert doc["stages"].get("job", {}).get("count", 0) > 0, \
    "trace report JSON has no job spans"
print(f"smoke OK: trace_report --json emitted "
      f"{doc['spans']} span(s) across {len(doc['stages'])} stage(s)")
EOF
echo "smoke OK: traced run + trace_report validation passed"

# ---- resident obs plane: live scrape + event log ------------------
# Run a sweep with the scrape server and event log armed. The scraper
# polls /metrics while jobs are in flight (every scrape must pass the
# strict exposition validation and counters must be monotone), waits
# for the idle end-of-sweep state, and that final scrape must agree
# with the run's BENCH json histogram bucket for bucket (the linger
# window keeps the server up long enough to catch it).
obs_port=$((20000 + RANDOM % 20000))
obs_events="$PWD/build/smoke-events.jsonl"
rm -f "$obs_events" build/smoke-scrape.prom
(cd build && TETRIS_OBS_ADDR="127.0.0.1:${obs_port}" \
  TETRIS_OBS_LINGER_MS=8000 TETRIS_EVENT_LOG="$obs_events" \
  ./table2_main 2> smoke-obs-stderr.txt) &
obs_bench_pid=$!
python3 scripts/obs_scrape.py scrape --port "$obs_port" \
  --wait-idle --timeout 120 --out build/smoke-scrape.prom
wait "$obs_bench_pid"
python3 scripts/obs_scrape.py check build/smoke-scrape.prom \
  --bench build/BENCH_table2.json
# Read from the engine at scrape time: a stuck job is an alert rule
# on the age gauge, and the cache counters need no sync.
for line in '# TYPE tetris_jobs_oldest_inflight_seconds gauge' \
    'tetris_count{name="cache.hits"} ' \
    'tetris_count{name="cache.misses"} '; do
  if ! grep -qF "$line" build/smoke-scrape.prom; then
    echo "smoke FAIL: scrape has no '${line}' line" >&2
    exit 1
  fi
done
test -s "$obs_events"
for event in job.start job.finish; do
  if ! grep -q "\"event\":\"${event}\"" "$obs_events"; then
    echo "smoke FAIL: event log has no ${event} record" >&2
    exit 1
  fi
done
# table2 runs one sweep, so it prints exactly one summary line.
summaries=$(grep -c '^stats: summary:' build/smoke-obs-stderr.txt || true)
if [ "$summaries" != 1 ]; then
  echo "smoke FAIL: expected one stats summary line, got ${summaries}" >&2
  exit 1
fi
echo "smoke OK: live /metrics scrape validated + matched BENCH json;" \
  "event log recorded the job lifecycle; one sweep summary line"

# ---- persistent disk cache: cold run, warm run, corruption --------
warm_dir="${TETRIS_CACHE_DIR:-$PWD/build/tetris-cache}/smoke"
rm -rf "$warm_dir"

# Cold: populates the store.
(cd build && TETRIS_CACHE_DIR="$warm_dir" ./table2_main)
python3 - build/BENCH_table2.json <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
counts = doc["engine"]["counts"]
writes = counts.get("cache.disk.writes", 0)
assert doc["config"]["disk_cache"], "disk cache not enabled on cold run"
assert writes > 0, "cold run persisted nothing"
assert counts.get("jobs.disk_hits", 0) == 0, \
    "cold run cannot have disk hits"
print(f"smoke OK: cold run persisted {writes} artifact(s)")
EOF
cp build/BENCH_table2.json build/BENCH_table2.cold.json

# Warm: identical run must deserialize everything, compiling
# nothing. compileAll looks every key up from the calling thread,
# and workers take a shard mutex only to erase a cancelled job, so
# the warm sweep must also report zero contended cache lock waits.
(cd build && TETRIS_CACHE_DIR="$warm_dir" ./table2_main)
python3 - build/BENCH_table2.json <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
counts = doc["engine"]["counts"]
disk_hits = counts.get("jobs.disk_hits", 0)
assert disk_hits > 0, "warm run reported no disk-cache hits"
assert counts.get("jobs.completed", 0) == 0, \
    f"warm run still compiled {counts.get('jobs.completed')} job(s)"
lock_wait = counts.get("cache.lock_wait_ns", 0)
assert lock_wait == 0, \
    f"warm run saw {lock_wait} ns of contended cache lock waits " \
    "(compileAll looks keys up from one thread)"
print(f"smoke OK: warm run served {disk_hits} job(s) from disk, "
      "0 recompilations, 0 ns contended cache lock wait")
EOF

# The cold and warm runs must also diff clean.
python3 scripts/bench_diff.py \
  build/BENCH_table2.cold.json build/BENCH_table2.json

# Corrupt one artifact: the next run must degrade it to a miss and
# still succeed end to end.
victim="$(find "$warm_dir" -name '*.tca' | head -n1)"
test -n "$victim"
printf 'deliberately corrupted' > "$victim"
(cd build && TETRIS_CACHE_DIR="$warm_dir" ./table2_main)
python3 - build/BENCH_table2.json <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
misses = doc["engine"]["counts"].get("cache.disk.misses", 0)
assert misses > 0, "corrupted artifact did not read as a miss"
print("smoke OK: corrupted artifact degraded to a miss "
      f"({misses} miss(es), run still succeeded)")
EOF

python3 scripts/cache_tool.py stats --dir "$warm_dir"
python3 scripts/cache_tool.py trim --dir "$warm_dir" --max-bytes 0
python3 scripts/cache_tool.py stats --dir "$warm_dir"
echo "smoke OK: persistent cache cold/warm/corruption cycle passed"

# ---- perf microbench: caching-path throughput/latency -------------
# Quick preset of the cache/artifact-load/engine microbenchmark. The
# embedded warm engine sweep must be served entirely from the store
# (zero recompilations), and the hit-only cache sweeps and artifact
# loads must see no miss; the binary exits 1 otherwise.
(cd build && ./perf_microbench)
python3 - build/BENCH_perf.json <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
rows = {row["name"]: row for row in doc["rows"]}
warm = rows["engine/warm"]
assert warm["completed"] == 0, \
    f"warm microbench recompiled {warm['completed']} job(s)"
assert warm["disk_hits"] > 0, "warm microbench had no disk hits"
sweeps = [r for name, r in rows.items() if name.startswith("cache/")]
assert sweeps, "empty cache sweep"
kernels = [r for name, r in rows.items() if name.startswith("pauli/")]
assert kernels, "no pauli kernel rows"
slow = [r for r in kernels
        if r["qubits"] >= 64
        and r["kernel"] in ("commute", "product")
        and r["speedup"] < 5.0]
assert not slow, f"packed Pauli kernels below 5x at >=64 qubits: {slow}"
# Compact .tca gate records: about 23 KB per stored artifact (the
# 17-bytes-per-gate layout took about 125 KB).
for name in ("load/cold", "load/warm"):
    per_artifact = rows[name]["bytes_total"] / rows[name]["entries"]
    assert per_artifact < 40_000, \
        f"{name}: {per_artifact:.0f} bytes per artifact (want < 40 KB)"
obs = rows["obs_overhead"]
assert obs["event_log_disabled_ns"] < 50.0, \
    "disarmed event log costs " \
    f"{obs['event_log_disabled_ns']:.1f} ns/op (must stay a few ns)"
assert obs["scrape_load_count"] > 0, \
    "no /metrics scrapes landed during the loaded run"
for workload in ("ucc/UCC-20", "jw/CH4"):
    for k in (1, 10, 22):
        name = f"schedule/{workload}/k={k}"
        assert name in rows, f"no scheduler row {name}"
        assert rows[name]["blocks"] > 0, f"{name} scheduled no blocks"
for workload in ("ucc/UCC-20", "jw/CH4"):
    for compiler in ("ph", "tetris"):
        name = f"peephole/{workload}/{compiler}"
        assert name in rows, f"no peephole row {name}"
        row = rows[name]
        assert row["gates_out"] < row["gates_in"], \
            f"{name} removed nothing ({row['gates_in']} gates in, " \
            f"{row['gates_out']} out)"
for workload in ("ucc/UCC-20", "jw/CH4"):
    for compiler in ("ph", "tetris"):
        name = f"synthesis/{workload}/{compiler}"
        assert name in rows, f"no synthesis row {name}"
        assert rows[name]["blocks"] > 0, f"{name} synthesized no blocks"
for workload in ("ucc/UCC-20", "jw/CH4"):
    for compiler in ("ph", "tetris"):
        name = f"verify/{workload}/{compiler}"
        assert name in rows, f"no verify row {name}"
        assert rows[name]["gates"] > 0, f"{name} checked no gates"
        assert rows[name]["pass"], f"{name} did not verify"
print("smoke OK: warm microbench did zero recompiles "
      f"({warm['disk_hits']} disk hit(s)); "
      f"{rows['load/warm']['bytes_total'] // rows['load/warm']['entries']}"
      " bytes per stored artifact; "
      f"{len(sweeps)} cache sweeps; packed Pauli kernels >=5x at 64+ "
      "qubits; "
      f"disarmed event log {obs['event_log_disabled_ns']:.2f} ns/op; "
      "6 scheduler rows; 4 peephole rows; 4 synthesis rows; "
      "4 verify rows")
EOF
echo "smoke OK: perf microbench passed"

# compile_cli takes a lookahead K in [1, 2^20] and prints its usage
# (exit 2) for anything else, in place of compiling with a wrong K.
for bad in x -1 0 1048577; do
  set +e
  (cd build && ./compile_cli --workload LiH --lookahead "$bad") \
    > /dev/null 2>&1
  rc=$?
  set -e
  if [ "$rc" -ne 2 ]; then
    echo "smoke FAIL: compile_cli --lookahead $bad exited $rc" >&2
    exit 1
  fi
done
echo "smoke OK: compile_cli refused out-of-range lookahead values"

# --swap-weight takes a finite W >= 0 and --backend only ithaca or
# sycamore; anything else prints the usage (exit 2) in place of
# compiling with weight 0 or for the wrong device.
for bad in "--swap-weight abc" "--swap-weight -3" "--swap-weight nan" \
  "--swap-weight inf" "--swap-weight 3x" "--backend sycamor"; do
  set +e
  # $bad holds a flag and its value: left unquoted to split.
  (cd build && ./compile_cli --workload LiH $bad) > /dev/null 2>&1
  rc=$?
  set -e
  if [ "$rc" -ne 2 ]; then
    echo "smoke FAIL: compile_cli $bad exited $rc" >&2
    exit 1
  fi
done
for good in 0 0.1 100; do
  (cd build && ./compile_cli --workload LiH --swap-weight "$good") \
    > /dev/null
done
echo "smoke OK: compile_cli refused malformed swap weights and backends"

# --workload ucc-N takes N in [4, backend width] (65 on ithaca) and
# prints the usage (exit 2) for anything else, in place of a library
# panic or a silently truncated N.
for bad in ucc-abc ucc-3 ucc-10x ucc-66; do
  set +e
  (cd build && ./compile_cli --workload "$bad") > /dev/null 2>&1
  rc=$?
  set -e
  if [ "$rc" -ne 2 ]; then
    echo "smoke FAIL: compile_cli --workload $bad exited $rc" >&2
    exit 1
  fi
done
echo "smoke OK: compile_cli refused malformed ucc-N workloads"

# ---- semantic verification sweep ----------------------------------
# Every result of a multi-pipeline molecule sweep must pass the
# equivalence verifier: with TETRIS_VERIFY set the bench exits 1 on a
# single verify.fail (a miscompile) or when no job passed.
(cd build && TETRIS_VERIFY=1 ./fig14_compilers)
echo "smoke OK: verification sweep clean"

# Bounded differential fuzz: random programs through all pipelines,
# pairwise-checked against each other.
python3 scripts/fuzz_verify.py --binary build/test_verify_fuzz \
  --seeds 3 --cases 4
echo "smoke OK: verification + differential fuzz passed"

# ---- streaming frontend: windowed chunk compilation ---------------
# Quick preset with per-chunk semantic verification: every chunk of
# every workload family must verify and peak RSS must sit inside the
# window bound (the binary exits 1 on either).
(cd build && TETRIS_VERIFY=1 ./stream_bench)
test -s build/BENCH_stream.json
python3 - build/BENCH_stream.json <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
*workloads, proc = doc["rows"]
assert proc["peak_rss_kb"] <= proc["rss_bound_kb"], \
    f"peak RSS {proc['peak_rss_kb']} KiB over bound {proc['rss_bound_kb']}"
for row in workloads:
    assert row["verify_failures"] == 0, \
        f"{row['name']}: {row['verify_failures']} chunk(s) failed verify"
    assert row["chunks"] > 1, \
        f"{row['name']}: only {row['chunks']} chunk(s) — not windowed"
print(f"smoke OK: {len(workloads)} streamed workload(s), every "
      f"chunk verified, peak RSS {proc['peak_rss_kb']} KiB "
      f"(bound {proc['rss_bound_kb']} KiB)")
EOF

# ---- bench_diff on mutated copies ---------------------------------
# Each mutated copy of the fresh table2 and stream files must get its
# stated exit status: 0 unchanged; 1 for a moved quality count, a
# moved exact count, or a dropped row; 0 with a warning line for a
# halved rate; 2 for the previous envelope version or a repeated row
# name.
python3 - <<'EOF'
import copy, json

def load(path):
    with open(path) as f:
        return json.load(f)

def write(doc, name, edit):
    doc = copy.deepcopy(doc)
    edit(doc)
    with open(f"build/diff-{name}.json", "w") as f:
        json.dump(doc, f)

def bump(row, field):
    row[field] += 1

def halve_rate(doc):
    doc["rows"][0]["instructions_per_sec"] /= 2

def older_schema(doc):
    doc["schema"] = doc["schema"].replace("v3", "v2")

def repeat_name(doc):
    doc["rows"][1]["name"] = doc["rows"][0]["name"]

table2 = load("build/BENCH_table2.json")
stream = load("build/BENCH_stream.json")
write(table2, "cnot", lambda d: bump(d["rows"][0]["stats"], "cnotCount"))
write(stream, "chunks", lambda d: bump(d["rows"][0], "chunks"))
write(table2, "dropped", lambda d: d["rows"].pop())
write(stream, "rate", halve_rate)
write(table2, "schema", older_schema)
write(table2, "repeat", repeat_name)
EOF
expect_diff() { # want-status baseline candidate
  set +e
  python3 scripts/bench_diff.py "$2" "$3" > build/diff-out.txt 2>&1
  local rc=$?
  set -e
  if [ "$rc" -ne "$1" ]; then
    cat build/diff-out.txt
    echo "smoke FAIL: bench_diff on $3 exited $rc (want $1)" >&2
    exit 1
  fi
}
expect_diff 0 build/BENCH_table2.json build/BENCH_table2.json
expect_diff 0 build/BENCH_stream.json build/BENCH_stream.json
expect_diff 1 build/BENCH_table2.json build/diff-cnot.json
expect_diff 1 build/BENCH_stream.json build/diff-chunks.json
expect_diff 1 build/BENCH_table2.json build/diff-dropped.json
expect_diff 0 build/BENCH_stream.json build/diff-rate.json
if ! grep -q '^warning: .*instructions_per_sec' build/diff-out.txt; then
  echo "smoke FAIL: a halved rate printed no warning" >&2
  exit 1
fi
expect_diff 2 build/BENCH_table2.json build/diff-schema.json
expect_diff 2 build/BENCH_table2.json build/diff-repeat.json
echo "smoke OK: bench_diff gave each mutated copy its exit status"

# Bounded frontend fuzz: random/mutated/garbage bytes through both
# parsers — clean end or one typed positioned error, deterministic.
python3 scripts/fuzz_frontend.py --binary build/test_frontend_fuzz \
  --seeds 3 --cases 10
echo "smoke OK: streaming bench + frontend fuzz passed"

# The memory contract at file scale: stream 1M+ instructions per
# workload and hold peak RSS inside the same window bound (the
# binary exits 1 if resident memory scaled with input length
# instead of window size). Verification is covered by the quick run
# above; this run is about the memory shape.
(cd build && TETRIS_STREAM_INSTRUCTIONS=1000000 ./stream_bench)
python3 - build/BENCH_stream.json <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
*workloads, proc = doc["rows"]
assert proc["peak_rss_kb"] <= proc["rss_bound_kb"], \
    f"peak RSS {proc['peak_rss_kb']} KiB over bound {proc['rss_bound_kb']}"
for row in workloads:
    assert row["instructions"] >= 1000000, \
        f"{row['name']}: only {row['instructions']} instruction(s)"
print(f"smoke OK: 1M+-instruction streams held peak RSS at "
      f"{proc['peak_rss_kb']} KiB (bound {proc['rss_bound_kb']} KiB, "
      f"window {doc['config']['window']})")
EOF

# ---- resident serve plane: tetrisd + wire protocol ----------------
# Every integer flag of the serve CLIs is parsed strictly: a
# non-number, the first negative value below its range (-2 for
# tetrisd's --port, where -1 turns TCP off; -1 elsewhere) and the
# first value above it each print the usage and exit 2 before any
# socket binds or thread starts. (The client gets a valid --port so
# only the flag under test is bad.)
expect_usage() { # command...
  set +e
  (cd build && "$@") > /dev/null 2>&1
  local rc=$?
  set -e
  if [ "$rc" -ne 2 ]; then
    echo "smoke FAIL: '$*' exited $rc (want 2)" >&2
    exit 1
  fi
}
for bad in x -2 65536; do
  expect_usage ./tetrisd_main --port "$bad"
done
for bad in x -1 65536; do
  expect_usage ./tetris_client --port "$bad" --ping
done
# Each flag:first-value-above-its-range (--seed takes any uint64).
for flag_above in jobs:1048577 qubits:4097 distinct:1048577 \
    window:1048577 seed:18446744073709551616; do
  for bad in x -1 "${flag_above#*:}"; do
    expect_usage ./tetris_client --port 1 "--${flag_above%%:*}" "$bad"
  done
done
for flag_above in clients:257 jobs:1048577 programs:1048577 qubits:4097; do
  for bad in x -1 "${flag_above#*:}"; do
    expect_usage ./serve_stress "--${flag_above%%:*}" "$bad"
  done
done
echo "smoke OK: tetrisd_main, tetris_client and serve_stress refused" \
  "every malformed or out-of-range integer flag"

# The multi-client stress bench runs the full frame protocol against
# an in-process server: the warm phase must be pure cache hits (the
# binary itself exits 1 on any recompile, rejection, verify failure,
# or bad frame). Each phase row splits the round trip into server
# time (the serverMs of each Result frame) and wire time.
(cd build && ./serve_stress)
test -s build/BENCH_serve.json
python3 - build/BENCH_serve.json <<'EOF'
import json, sys
rows = {row["name"]: row for row in json.load(open(sys.argv[1]))["rows"]}
warm = rows["warm"]
for part in ("server_ms", "wire_ms"):
    assert set(warm.get(part, {})) == {"p50", "p99"}, \
        f"warm row has no {part} p50/p99: {warm.get(part)}"
print(f"smoke OK: serve_stress warm p50 {warm['latency_ms']['p50']:.2f} ms;"
      f" server p50 {warm['server_ms']['p50']:.2f} ms,"
      f" wire p50 {warm['wire_ms']['p50']:.2f} ms")
EOF

# Every BENCH file written above shares one layout: exactly schema,
# artifact, config and named rows, plus engine where one engine ran.
python3 - build/BENCH_{table2,fig14,fig23,perf,stream,serve}.json <<'EOF'
import json, sys
for path in sys.argv[1:]:
    doc = json.load(open(path))
    assert doc.get("schema") == "bench-v3", f"{path}: {doc.get('schema')!r}"
    assert set(doc) - {"engine"} == {"schema", "artifact", "config", "rows"}, \
        f"{path}: top-level keys {sorted(doc)}"
    assert all("name" in row for row in doc["rows"]), f"{path}: unnamed row"
print(f"smoke OK: {len(sys.argv) - 1} BENCH file(s) share the bench-v3 layout")
EOF
echo "smoke OK: serve_stress wrote build/BENCH_serve.json"

# Then the real daemon: start tetrisd on an ephemeral port + unix
# socket, round-trip compilations over both transports with
# tetris_client, and SIGTERM it mid-batch. The drain must answer
# every in-flight request, unlink the unix socket, and exit 0.
serve_dir="$PWD/build/tetris-serve-smoke"
rm -rf "$serve_dir"
mkdir -p "$serve_dir"
rm -f build/tetrisd.port build/tetrisd.log
# exec so $! is tetrisd itself, not a wrapping subshell — the
# SIGTERM below must land on the daemon.
(cd build && exec env TETRIS_CACHE_DIR="$serve_dir" \
  ./tetrisd_main --port 0 --port-file tetrisd.port \
  --unix "$serve_dir/tetrisd.sock" > tetrisd.log 2>&1) &
tetrisd_pid=$!
for _ in $(seq 1 50); do
  [ -s build/tetrisd.port ] && break
  sleep 0.1
done
test -s build/tetrisd.port
serve_port="$(cat build/tetrisd.port)"

(cd build && ./tetris_client --port "$serve_port" --ping)
(cd build && ./tetris_client --port "$serve_port" \
  --jobs 4 --distinct 2 --qubits 6)
(cd build && ./tetris_client --unix "$serve_dir/tetrisd.sock" \
  --jobs 2 --qubits 6)
(cd build && ./tetris_client --port "$serve_port" --stats) \
  | grep -q 'serve.results' \
  || { echo "smoke FAIL: no serve.results in daemon stats" >&2; \
       exit 1; }
echo "smoke OK: tetrisd round-trips over TCP + unix socket"

# Streamed ingest through the live daemon: generate a program file,
# chunk it client-side, and chain each chunk's final layout into the
# next submission over the wire (protocol v2 seeding). The daemon
# verifies every result (it does unless started with --no-verify),
# and the client exits nonzero if any chunk's verify verdict comes
# back as a failure.
(cd build && ./gen_workloads --kind shor --qubits 12 \
  --min-instructions 3000 --out smoke-stream.pauli)
# gen_workloads' flags are strict, and a bad one exits 2 before --out
# is opened, so the file written above survives every case.
for bad in "--qubits 12x" "--qubits 3" "--min-instructions abc" \
  "--min-instructions 0" "--seed -5" "--kind foo"; do
  set +e
  # $bad holds a flag and its value: left unquoted to split.
  (cd build && ./gen_workloads --kind shor $bad \
    --out smoke-stream.pauli) > /dev/null 2>&1
  rc=$?
  set -e
  if [ "$rc" -ne 2 ] || [ ! -s build/smoke-stream.pauli ]; then
    echo "smoke FAIL: gen_workloads $bad exited $rc" \
      "or emptied its --out file" >&2
    exit 1
  fi
done
echo "smoke OK: gen_workloads refused malformed flags, --out intact"
(cd build && ./tetris_client --port "$serve_port" \
  --file smoke-stream.pauli --window 64 --name smoke-stream)
echo "smoke OK: streamed ingest through live tetrisd, layouts" \
  "chained over the wire, every chunk verified"

# SIGTERM mid-batch: a client is still submitting when the signal
# lands. The daemon must drain (answering what it accepted) and
# exit 0; the client may see the connection close for its remaining
# jobs, which is not a smoke failure.
(cd build && ./tetris_client --port "$serve_port" \
  --jobs 40 --qubits 8 > /dev/null 2>&1) &
client_pid=$!
sleep 0.4
kill -TERM "$tetrisd_pid"
set +e
wait "$tetrisd_pid"
tetrisd_rc=$?
wait "$client_pid"
set -e
if [ "$tetrisd_rc" -ne 0 ]; then
  echo "smoke FAIL: tetrisd exited $tetrisd_rc after SIGTERM" >&2
  exit 1
fi
grep -q 'drained after' build/tetrisd.log
if [ -e "$serve_dir/tetrisd.sock" ]; then
  echo "smoke FAIL: drain left the unix socket behind" >&2
  exit 1
fi
echo "smoke OK: SIGTERM mid-batch drained cleanly" \
  "($(grep 'drained after' build/tetrisd.log))"

# --port -1 turns TCP off: the daemon serves on its unix socket alone.
rm -f build/tetrisd.log
(cd build && exec ./tetrisd_main --port -1 \
  --unix "$serve_dir/unix-only.sock" > tetrisd.log 2>&1) &
tetrisd_pid=$!
for _ in $(seq 1 50); do
  [ -S "$serve_dir/unix-only.sock" ] && break
  sleep 0.1
done
(cd build && ./tetris_client --unix "$serve_dir/unix-only.sock" --ping)
kill -TERM "$tetrisd_pid"
wait "$tetrisd_pid"
if grep -q 'listening on .*:[0-9]' build/tetrisd.log; then
  echo "smoke FAIL: tetrisd --port -1 bound a TCP port" >&2
  exit 1
fi
echo "smoke OK: tetrisd --port -1 served on its unix socket alone"
