#!/usr/bin/env bash
# Tier-1 verification: clean configure + build + full test suite, a smoke
# run of bench_throughput that validates the emitted JSON telemetry report
# (including the buffer-pool memory section: the single-worker point must
# make no pooled allocation after warm-up), a live-introspection smoke run
# (all HTTP endpoints scraped over an in-flight run, Prometheus exposition
# and /statusz schema validated, the /healthz stall watchdog tripped on an
# induced pause), a /profilez sampling-profiler smoke (2 s window over a
# busy run must produce >= 100 collapsed samples with the GEMM microkernel
# on a hot, stage-attributed stack) plus a measured <= 5% profiler-overhead
# gate, a timeline-trace capture validated as Chrome trace-event JSON, a
# mechanics test of the perf-baseline regression gate (self-compare must
# pass, a perturbed baseline must fail), a microbench gate that the fused
# pooled batch-staging path beats the pre-pool copy path, then a
# ThreadSanitizer build of the concurrency-sensitive tests (thread pool,
# buffer pool, telemetry registry/spans, timeline ring buffers, proxy
# score cache, staged-pipeline determinism, fault recovery).
#
# Usage: tools/check.sh [--skip-tsan] [--compare-baseline] [--faults]
#   --compare-baseline  additionally re-measures and diffs against the
#                       committed BENCH_baseline.json (exits non-zero on
#                       regression; tolerance via OTIF_BASELINE_TOL).
#   --faults            additionally runs the fault-injection smoke (a run
#                       with one quarantined clip must exit 0, report the
#                       failed clip, and leave every surviving clip
#                       bit-identical to a fault-free run) and the full
#                       chaos matrix (tools/chaos_matrix.sh).
set -euo pipefail
cd "$(dirname "$0")/.."

SKIP_TSAN=0
COMPARE_BASELINE=0
RUN_FAULTS=0
for arg in "$@"; do
  case "$arg" in
    --skip-tsan) SKIP_TSAN=1 ;;
    --compare-baseline) COMPARE_BASELINE=1 ;;
    --faults) RUN_FAULTS=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

# Abort if any element of the last pipeline failed. `set -o pipefail` only
# reports the overall status, which hides *which* element failed and is
# silently discarded when a pipeline feeds a conditional, so every piped
# validator below is followed by: require_pipe_ok "${PIPESTATUS[@]}".
require_pipe_ok() {
  local i=0 rc
  for rc in "$@"; do
    if [[ "$rc" -ne 0 ]]; then
      echo "ERROR: pipeline element $i exited with status $rc" >&2
      exit "$rc"
    fi
    i=$((i + 1))
  done
}

echo "== tier-1: configure + build =="
cmake -B build -S . >/dev/null
cmake --build build -j

echo "== tier-1: ctest =="
(cd build && ctest --output-on-failure)

echo "== smoke: bench_throughput telemetry report =="
# One short sweep; stdout is the JSON run report (logs go to stderr). The
# validator reads JSON from stdin so it composes in a pipeline; tee keeps
# the report on disk for the baseline self-test below. The pipeline's exit
# statuses are checked element-by-element so a validator failure (or a
# crashed benchmark) can never be masked by the pipe.
VALIDATE_THROUGHPUT='
import json, sys

report = json.load(sys.stdin)

assert report["benchmark"] == "pipeline_throughput", report.get("benchmark")
results = report["results"]
assert results, "empty results"
stage_keys = {"decode", "proxy", "detect", "track", "refine"}
for entry in results:
    assert set(entry["stage_wall_seconds"]) == stage_keys, entry
    assert 0.0 <= entry["utilization"], entry
    for key in ("p50", "p90", "p99"):
        assert key in entry["queue_depth"], entry
    cache = entry["proxy_cache"]
    for key in ("hits", "misses", "evictions", "hit_rate"):
        assert key in cache, cache
    mem = entry["memory"]
    for key in ("pool_hits", "pool_misses", "arena_allocations",
                "allocations", "allocations_per_clip", "pool_hit_rate",
                "bytes_in_flight", "bytes_retained", "arena_bytes_reserved"):
        assert key in mem, mem
    # Scope: only pooled buffers (4 KiB and up) and arena chunks are
    # counted; tensors below 4 KiB come from malloc and show up nowhere
    # here. The warm window of this workload makes no pooled request at all
    # (every buffer it acquires is below 4 KiB), so today the bar holds by
    # counting nothing (0 hits, 0 misses, hit rate 1.0); it still fails if
    # a change adds a pooled or arena allocation to the warm loop. Only the
    # single-worker entry (an exact replay of its warm-up) gets the strict
    # bar: hit rate >= 0.99 and exactly zero pooled or arena allocations.
    if entry["workers"] == 1:
        assert mem["pool_hit_rate"] >= 0.99, mem
        assert mem["allocations"] == 0, mem
    else:
        assert mem["pool_hit_rate"] >= 0.95, (entry["workers"], mem)
telemetry = report["telemetry"]
for section in ("counters", "gauges", "histograms", "spans"):
    assert section in telemetry, section
assert "stage/detect" in telemetry["spans"], sorted(telemetry["spans"])
assert "threadpool.tasks_executed" in telemetry["counters"]
for gauge in ("mem.pool.bytes_in_flight", "mem.pool.hit_rate",
              "mem.pool.allocations_per_clip", "mem.arena.bytes_reserved"):
    assert gauge in telemetry["gauges"], sorted(telemetry["gauges"])
for hist in telemetry["histograms"].values():
    for key in ("p50", "p90", "p99"):
        assert key in hist, hist
print("throughput report ok:", len(results), "sweep points")
'
OTIF_LOG_LEVEL=warning ./build/bench/bench_throughput 4 60 \
  | tee build/throughput_report.json \
  | python3 -c "$VALIDATE_THROUGHPUT"
require_pipe_ok "${PIPESTATUS[@]}"

echo "== smoke: live introspection endpoints over an in-flight run =="
# A bench with the HTTP introspection server on an ephemeral port
# (OTIF_METRICS_PORT=0; the bound port lands in OTIF_METRICS_PORT_FILE).
# The validator scrapes all four endpoints mid-run: /metrics must be legal
# Prometheus 0.0.4 exposition, /statusz must show per-clip commits growing
# monotonically within one run generation, /tracez must be armed, and the
# bench's induced post-run pause (OTIF_BENCH_STALL_SEC, against a short
# OTIF_STALL_SEC watchdog window) must flip /healthz to 503 "stalled".
# Bit-identity of the run itself is covered by obs_test.
rm -f build/metrics_port
OTIF_LOG_LEVEL=warning OTIF_METRICS_PORT=0 \
  OTIF_METRICS_PORT_FILE=build/metrics_port \
  OTIF_STALL_SEC=0.2 OTIF_BENCH_STALL_SEC=2 \
  ./build/bench/bench_throughput 12 1200 \
  > build/throughput_introspect.json &
INTROSPECT_PID=$!
if ! python3 tools/validate_introspection.py build/metrics_port; then
  kill "$INTROSPECT_PID" 2>/dev/null || true
  wait "$INTROSPECT_PID" 2>/dev/null || true
  echo "ERROR: live introspection validation failed" >&2
  exit 1
fi
wait "$INTROSPECT_PID"

echo "== smoke: /profilez sampling profiler over an in-flight run =="
# A second background bench; the validator rejects malformed
# query parameters (400s), profiles a 2 s window mid-run, checks the
# collapsed-stack grammar, demands >= 100 samples with the GEMM microkernel
# (GemmBias) on a hot stack and stage attribution joined in, and keeps the
# collapsed profile as build/profile.collapsed (uploaded by CI; renders
# with flamegraph.pl). The bench is killed once validated — its report is
# not used.
rm -f build/profile_port build/profile.collapsed
OTIF_LOG_LEVEL=warning OTIF_METRICS_PORT=0 \
  OTIF_METRICS_PORT_FILE=build/profile_port \
  ./build/bench/bench_throughput 12 1200 \
  > build/throughput_profile_run.json &
PROFILE_PID=$!
if ! python3 tools/validate_profile.py build/profile_port \
    --out build/profile.collapsed; then
  kill "$PROFILE_PID" 2>/dev/null || true
  wait "$PROFILE_PID" 2>/dev/null || true
  echo "ERROR: /profilez validation failed" >&2
  exit 1
fi
kill "$PROFILE_PID" 2>/dev/null || true
wait "$PROFILE_PID" 2>/dev/null || true

echo "== perf: profiler overhead gate (bench --profile) =="
# The profiler's own cost, measured from inside: samples fire at hz per
# consumed CPU second, so samples/hz estimates the profiled CPU and the
# accumulated signal-handler CPU over it is the overhead fraction. Must
# stay within 5% at the default 97 Hz.
VALIDATE_PROFILE_REPORT='
import json, sys

report = json.load(sys.stdin)

points = [e["profile"] for e in report["results"]]
assert points, "no profile sections in report"
enabled = [p for p in points if p["enabled"]]
assert enabled, "profiler enabled at no sweep point"
total = sum(p["samples"] for p in enabled)
assert total > 0, "profiler captured no samples"
for p in enabled:
    assert p["hz"] == 97, p
    assert p["dropped"] <= max(1, p["samples"] // 100), p
    assert p["overhead_fraction"] <= 0.05, p
    if p["samples"] > 0:
        assert p["top_frames"], p
worst = max(p["overhead_fraction"] for p in enabled)
print(f"profiler overhead ok: {total} samples, worst overhead "
      f"{100.0 * worst:.2f}% (<= 5%)")
'
OTIF_LOG_LEVEL=warning ./build/bench/bench_throughput --profile 8 240 \
  | tee build/throughput_profiled.json \
  | python3 -c "$VALIDATE_PROFILE_REPORT"
require_pipe_ok "${PIPESTATUS[@]}"

echo "== smoke: timeline trace capture (Chrome trace-event JSON) =="
VALIDATE_TIMELINE='
import json, sys

trace = json.load(sys.stdin)

events = trace["traceEvents"]
assert events, "empty trace"
assert all(e["ph"] in ("B", "E") for e in events)
assert all(isinstance(e["ts"], (int, float)) for e in events)
# Stage spans must carry clip attribution across more than one thread.
stage_b = [e for e in events
           if e["ph"] == "B" and e["name"].startswith("stage/")]
assert stage_b, sorted({e["name"] for e in events})
tagged = [e for e in stage_b if e.get("args", {}).get("clip", -1) >= 0]
assert tagged, "no stage span carries a clip id"
assert len({e["tid"] for e in tagged}) > 1, "clip context only on one thread"
tids = {e["tid"] for e in events}
clips = {e["args"]["clip"] for e in tagged}
print("timeline trace ok: %d events, %d threads, %d clips tagged"
      % (len(events), len(tids), len(clips)))
'
OTIF_LOG_LEVEL=warning OTIF_TRACE_TIMELINE=build/timeline_trace.json \
  ./build/bench/bench_throughput 4 60 > /dev/null
python3 -c "$VALIDATE_TIMELINE" < build/timeline_trace.json \
  | grep "timeline trace ok"
require_pipe_ok "${PIPESTATUS[@]}"

echo "== smoke: perf-baseline gate mechanics =="
# Deterministic self-test of the regression gate: record and compare from
# the same captured reports (must pass), then perturb the baseline and
# expect the compare to fail.
OTIF_LOG_LEVEL=warning OTIF_BENCH_JSON=build/fig6_cost.json \
  OTIF_BENCH_SCALE=tiny ./build/bench/bench_fig6_cost_breakdown > /dev/null
python3 tools/bench_baseline.py record --out build/BENCH_selftest.json \
  --from-throughput build/throughput_report.json \
  --from-cost build/fig6_cost.json
python3 tools/bench_baseline.py compare --baseline build/BENCH_selftest.json \
  --from-throughput build/throughput_report.json \
  --from-cost build/fig6_cost.json > /dev/null
python3 - build/BENCH_selftest.json build/BENCH_perturbed.json <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    baseline = json.load(f)
for entry in baseline["throughput"].values():
    entry["clips_per_sec"] *= 10.0  # pretend we used to be 10x faster
with open(sys.argv[2], "w") as f:
    json.dump(baseline, f)
EOF
if python3 tools/bench_baseline.py compare \
    --baseline build/BENCH_perturbed.json \
    --from-throughput build/throughput_report.json \
    --from-cost build/fig6_cost.json > /dev/null; then
  echo "ERROR: baseline gate failed to flag a synthetic 10x regression" >&2
  exit 1
fi
echo "baseline gate ok: self-compare passed, synthetic regression flagged"

echo "== perf: pooled batch staging vs copy path =="
# The fused FillInputSlice path must beat the pre-pool staging path (Image
# copy + staging tensor + std::copy) by a clear margin, not just tie it.
VALIDATE_STAGING='
import json, sys

report = json.load(sys.stdin)

times = {}
for bench in report["benchmarks"]:
    times[bench["name"]] = bench["cpu_time"]
copy = times["BM_ScoreBatchCopyPath/8"]
pooled = times["BM_ScoreBatchPooled/8"]
ratio = copy / pooled
assert ratio >= 1.2, (
    f"pooled staging not faster: copy {copy:.0f}ns vs pooled "
    f"{pooled:.0f}ns ({ratio:.2f}x < 1.2x)")
print(f"staging gate ok: pooled {ratio:.1f}x faster than copy path")
'
OTIF_LOG_LEVEL=warning ./build/bench/bench_micro_components \
  --benchmark_filter='BM_ScoreBatch' --benchmark_format=json 2>/dev/null \
  | python3 -c "$VALIDATE_STAGING"
require_pipe_ok "${PIPESTATUS[@]}"

if [[ "$COMPARE_BASELINE" == "1" ]]; then
  echo "== perf: compare against committed BENCH_baseline.json =="
  python3 tools/bench_baseline.py compare --baseline BENCH_baseline.json
fi

if [[ "$RUN_FAULTS" == "1" ]]; then
  echo "== faults: quarantine smoke (failed clip reported, rest bit-identical) =="
  # A fault-free run records per-clip digests; a second run with
  # clip 1's detector failing permanently must still exit 0, report exactly
  # clip 1 in failed_clips, and leave every other clip's digest untouched.
  VALIDATE_FAULT_RUN='
import json, sys

with open(sys.argv[1]) as f:
    clean = json.load(f)
with open(sys.argv[2]) as f:
    faulted = json.load(f)

failed = faulted["failed_clips"]
assert [f["clip"] for f in failed] == [1], failed
assert "injected" in failed[0]["status"], failed[0]
assert failed[0]["retries"] > 0, failed[0]

clean_digests = {e["clip"]: e["digest"] for e in clean["clip_digests"]}
assert not any(e["failed"] for e in clean["clip_digests"])
survivors = 0
for entry in faulted["clip_digests"]:
    if entry["clip"] == 1:
        assert entry["failed"], entry
        continue
    assert not entry["failed"], entry
    clip, digest = entry["clip"], entry["digest"]
    assert digest == clean_digests[clip], (
        f"clip {clip} digest changed under an unrelated fault: "
        f"{digest} != {clean_digests[clip]}")
    survivors += 1
assert survivors >= 2, faulted["clip_digests"]
retries = failed[0]["retries"]
print(f"fault smoke ok: clip 1 quarantined after {retries} "
      f"retries, {survivors} surviving clips bit-identical")
'
  OTIF_LOG_LEVEL=warning ./build/bench/bench_throughput 4 120 \
    > build/fault_clean.json
  OTIF_LOG_LEVEL=warning OTIF_FAULTS='detect.invoke:error:1:7:clip=1' \
    ./build/bench/bench_throughput 4 120 > build/fault_quarantine.json
  python3 -c "$VALIDATE_FAULT_RUN" build/fault_clean.json \
    build/fault_quarantine.json

  echo "== faults: chaos matrix =="
  tools/chaos_matrix.sh build 4 120
fi

if [[ "$SKIP_TSAN" == "1" ]]; then
  echo "== skipping TSan pass (--skip-tsan) =="
  exit 0
fi

echo "== tsan: build concurrency tests =="
cmake -B build-tsan -S . -DOTIF_SANITIZE=thread >/dev/null
cmake --build build-tsan -j --target util_test mem_test core_test obs_test

echo "== tsan: run concurrency tests =="
./build-tsan/tests/util_test \
  --gtest_filter='ThreadPool*:Telemetry*:Trace*:TraceTimeline*:FaultInjection*'
./build-tsan/tests/mem_test --gtest_filter='BufferPool*'
./build-tsan/tests/core_test \
  --gtest_filter='PipelineStagesDeterminismTest.*:ProxyScoreCache*:PipelineTelemetry*:PipelineFaultTest.*:OtifTest.PrepareIsIdenticalAcrossPoolWidths'
# Profiler live-sampling tests self-skip under TSan (the profiler refuses
# to start there); the filter still exercises the renderers, option
# validation, and the refusal path.
./build-tsan/tests/obs_test \
  --gtest_filter='IntrospectionServer*:RunProgress*:Profiler*'

echo "== all checks passed =="
