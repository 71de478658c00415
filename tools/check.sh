#!/usr/bin/env bash
# Tier-1 verification: clean configure + build + full test suite, then
# smokes over bench_preprocess_smoke, which runs what OTIF is for: a cold
# Otif::Prepare on Warsaw, then Execute over unseen clips with every OTIF
# mechanism on (the workload perfbench measures):
#   - live introspection: all HTTP endpoints scraped over an in-flight run
#     (Prometheus exposition with the stage, thread-pool, memory and
#     histogram series; /statusz schema and monotonic commits; /tracez),
#     and the /healthz stall watchdog tripped by an injected detector
#     stall;
#   - /profilez: a 2 s window over a busy run must produce >= 100 collapsed
#     samples with the GEMM microkernel on a hot, stage-attributed stack;
#   - the whole-run profile (OTIF_PROFILE) must keep the profiler's measured
#     overhead <= 5%;
#   - a timeline-trace capture validated as Chrome trace-event JSON;
# then a ThreadSanitizer build of the concurrency-sensitive tests
# (tools/tsan_tests.sh, the list CI's tsan job runs too).
#
# Usage: tools/check.sh [--skip-tsan] [--faults]
#   --faults  additionally runs the fault-injection smoke (a run with one
#             quarantined extraction clip must exit 0, report the failed
#             clip, keep Prepare's digest, and leave every surviving clip
#             bit-identical to a fault-free run) and the chaos matrix
#             (tools/chaos_matrix.sh).
set -euo pipefail
cd "$(dirname "$0")/.."

SKIP_TSAN=0
RUN_FAULTS=0
for arg in "$@"; do
  case "$arg" in
    --skip-tsan) SKIP_TSAN=1 ;;
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

# [clips] [clip_seconds]; stdout is the JSON report, logs go to stderr.
SMOKE=./build/bench/bench_preprocess_smoke

echo "== smoke: live introspection endpoints over an in-flight run =="
# The driver with the HTTP introspection server on an ephemeral port
# (OTIF_METRICS_PORT=0; the bound port lands in OTIF_METRICS_PORT_FILE).
# The validator scrapes all four endpoints mid-run: /metrics must be legal
# Prometheus 0.0.4 exposition with the expected series, /statusz must show
# per-clip commits growing monotonically within one run generation,
# /tracez must be armed, and a 400 ms stall injected into every detector
# call of extraction clip 3 (Prepare never sees clip 3), against a short
# OTIF_STALL_SEC watchdog window, must flip /healthz to 503 "stalled".
# Bit-identity of the run itself is covered by obs_test and the chaos
# matrix.
rm -f build/metrics_port
OTIF_LOG_LEVEL=warning OTIF_METRICS_PORT=0 \
  OTIF_METRICS_PORT_FILE=build/metrics_port OTIF_STALL_SEC=0.2 \
  OTIF_FAULTS='detect.invoke:stall:1:9:clip=3:ms=400' \
  "$SMOKE" 4 30 > /dev/null &
INTROSPECT_PID=$!
if ! python3 tools/validate_introspection.py build/metrics_port; then
  kill "$INTROSPECT_PID" 2>/dev/null || true
  wait "$INTROSPECT_PID" 2>/dev/null || true
  echo "ERROR: live introspection validation failed" >&2
  exit 1
fi
wait "$INTROSPECT_PID"

echo "== smoke: /profilez sampling profiler over an in-flight run =="
# A run sized to outlive the validator (128 one-minute clips), which
# rejects malformed query parameters (400s), profiles a 2 s window mid-run,
# checks the collapsed-stack grammar, demands >= 100 samples with the GEMM
# microkernel (GemmBias) on a hot stack and stage attribution joined in,
# and keeps the collapsed profile as build/profile.collapsed (uploaded by
# CI; renders with flamegraph.pl). The run is killed once validated.
rm -f build/profile_port build/profile.collapsed
OTIF_LOG_LEVEL=warning OTIF_METRICS_PORT=0 \
  OTIF_METRICS_PORT_FILE=build/profile_port \
  "$SMOKE" 128 60 > /dev/null &
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

echo "== perf: profiler overhead gate (whole-run OTIF_PROFILE) =="
# The profiler's own cost, measured from inside: samples fire at hz per
# consumed CPU second, so samples/hz estimates the profiled CPU and the
# accumulated signal-handler CPU over it is the overhead fraction. Must
# stay within 5% at the default 97 Hz.
VALIDATE_PROFILE_RUN='
import json, sys

with open(sys.argv[1]) as f:
    profile = json.load(f)

assert profile["hz"] == 97, profile["hz"]
samples, dropped = profile["samples"], profile["dropped"]
assert samples > 0, "profiler captured no samples"
assert dropped <= max(1, samples // 100), (dropped, samples)
assert profile["stacks"], "samples but no stacks"
overhead = profile["signal_overhead_seconds"] / (samples / profile["hz"])
assert overhead <= 0.05, f"profiler overhead {100.0 * overhead:.2f}% > 5%"
print(f"profiler overhead ok: {samples} samples, {dropped} dropped, "
      f"overhead {100.0 * overhead:.2f}% (<= 5%)")
'
rm -f build/profile_run.json
OTIF_LOG_LEVEL=warning OTIF_PROFILE=build/profile_run.json \
  "$SMOKE" 8 60 > /dev/null
python3 -c "$VALIDATE_PROFILE_RUN" build/profile_run.json

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
  "$SMOKE" 8 60 > /dev/null
python3 -c "$VALIDATE_TIMELINE" < build/timeline_trace.json \
  | grep "timeline trace ok"
require_pipe_ok "${PIPESTATUS[@]}"

if [[ "$RUN_FAULTS" == "1" ]]; then
  echo "== faults: quarantine smoke (failed clip reported, rest bit-identical) =="
  # Extraction clip 3's detector fails permanently: the run must still exit
  # 0, report exactly clip 3 in failed_clips, keep Prepare's digest (Prepare
  # never sees clip 3), and leave every other clip's digest untouched.
  VALIDATE_FAULT_RUN='
import json, sys

with open(sys.argv[1]) as f:
    clean = json.load(f)
with open(sys.argv[2]) as f:
    faulted = json.load(f)

failed = faulted["failed_clips"]
assert [f["clip"] for f in failed] == [3], failed
assert "injected" in failed[0]["status"], failed[0]
assert failed[0]["retries"] > 0, failed[0]
assert faulted["prepare_digest"] == clean["prepare_digest"], (
    "a fault in extraction clip 3 changed what Prepare decided",
    faulted["prepare_digest"], clean["prepare_digest"])

clean_digests = {e["clip"]: e["digest"] for e in clean["clip_digests"]}
assert not any(e["failed"] for e in clean["clip_digests"])
survivors = 0
for entry in faulted["clip_digests"]:
    if entry["clip"] == 3:
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
print(f"fault smoke ok: clip 3 quarantined after {retries} retries, "
      f"Prepare digest kept, {survivors} surviving clips bit-identical")
'
  OTIF_LOG_LEVEL=warning "$SMOKE" 4 30 > build/fault_clean.json
  OTIF_LOG_LEVEL=warning OTIF_FAULTS='detect.invoke:error:1:7:clip=3' \
    "$SMOKE" 4 30 > build/fault_quarantine.json
  python3 -c "$VALIDATE_FAULT_RUN" build/fault_clean.json \
    build/fault_quarantine.json

  echo "== faults: chaos matrix =="
  tools/chaos_matrix.sh build 4 30
fi

if [[ "$SKIP_TSAN" == "1" ]]; then
  echo "== skipping TSan pass (--skip-tsan) =="
  exit 0
fi

echo "== tsan: build and run concurrency tests =="
cmake -B build-tsan -S . -DOTIF_SANITIZE=thread >/dev/null
tools/tsan_tests.sh build-tsan

echo "== all checks passed =="
