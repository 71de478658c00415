#!/usr/bin/env bash
# Chaos matrix: runs the throughput bench under every fault site x kind the
# injection layer instruments, at rates high enough to exercise the
# recovery paths in Pipeline::Run (retry, quarantine, proxy degrade) and
# allocation denial. Every run must exit 0 — the pipeline's contract is
# that injected faults are survived, not that they are avoided.
#
# Usage: tools/chaos_matrix.sh [build_dir] [clips] [frames_per_clip]
#
# Flight-recorder dumps (armed via OTIF_DUMP_ON_ERROR) land under
# <build_dir>/chaos_dumps/ so CI can upload them when a run fails.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
CLIPS="${2:-6}"
FRAMES="${3:-120}"
BENCH="$BUILD_DIR/bench/bench_throughput"
DUMP_DIR="$BUILD_DIR/chaos_dumps"

if [[ ! -x "$BENCH" ]]; then
  echo "ERROR: $BENCH not built" >&2
  exit 2
fi
mkdir -p "$DUMP_DIR"

SPECS=(
  # Proxy invocation: persistent failure degrades to full-frame detection;
  # transient failure retries; stalls just slow the stage down.
  'proxy.invoke:error:1:21'
  'proxy.invoke:error:0.5:22'
  'proxy.invoke:stall:0.3:23:ms=2'
  # Detector invocation: persistent failure on one clip quarantines it;
  # transient failure retries to a bit-identical result.
  'detect.invoke:error:1:31:clip=0'
  'detect.invoke:error:0.5:32'
  'detect.invoke:stall:0.3:33:ms=2'
  # Buffer pool: allocation denial forces heap misses, never failures.
  'mem.acquire:deny:0.5:51'
  # Everything at once.
  'proxy.invoke:error:0.3:62,detect.invoke:error:0.3:63,mem.acquire:deny:0.3:65'
)

fail=0
for spec in "${SPECS[@]}"; do
  # One dump file per spec, named by the first site in the spec.
  tag="$(echo "$spec" | tr ':,=' '___' | cut -c1-60)"
  echo "== chaos: OTIF_FAULTS='$spec' =="
  if ! OTIF_LOG_LEVEL=warning OTIF_FAULTS="$spec" \
      OTIF_DUMP_ON_ERROR=1 OTIF_DUMP_PATH="$DUMP_DIR/$tag.json" \
      "$BENCH" "$CLIPS" "$FRAMES" \
      > "$DUMP_DIR/$tag.report.json"; then
    echo "ERROR: chaos run failed for spec: $spec" >&2
    fail=1
  fi
done

if [[ "$fail" -ne 0 ]]; then
  echo "== chaos matrix FAILED — dumps in $DUMP_DIR =="
  exit 1
fi
echo "== chaos matrix passed: ${#SPECS[@]} specs survived =="
