#!/usr/bin/env bash
# Chaos matrix: runs bench_preprocess_smoke (a cold Prepare, then Execute
# over unseen clips) under every fault site x kind the injection layer
# instruments, at rates high enough to exercise the recovery paths in
# Pipeline::Run (retry, quarantine, proxy degrade) and allocation denial.
# Faults reach Prepare as well as Execute. The pipeline's contract is that
# injected faults are survived, not avoided, and that they touch nothing
# they did not hit. So after a fault-free reference run, every spec's run
# must exit 0 with a report that parses, and:
#   - stall-only and deny-only specs leave the Prepare digest and every
#     clip digest equal to the reference's;
#   - when a spec leaves the Prepare digest unchanged, every clip outside
#     failed_clips and degraded_clips keeps its reference digest;
#   - detect.invoke:error:1:31:clip=0 reports clip 0 as failed;
#   - proxy.invoke:error:1:21 degrades every clip and fails none.
#
# One more run, with no faults, poisons the heap: glibc fills every chunk
# malloc hands out and every chunk freed (glibc.malloc.perturb), and with
# its per-thread cache off (tcache_count=0) no chunk skips the fill. It
# probes reads before writes in the arrays under 4 KiB that bypass the
# buffer pool, which mem.acquire:deny cannot reach. Its Prepare digest and
# every clip digest must equal the reference's. TSan's allocator ignores
# the tunable, so under TSan it is an ordinary run.
#
# Usage: tools/chaos_matrix.sh [build_dir] [clips] [clip_seconds]
#
# Flight-recorder dumps (armed via OTIF_DUMP_ON_ERROR) and each spec's
# report land under <build_dir>/chaos_dumps/ so CI can upload them when a
# run fails.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
CLIPS="${2:-4}"
CLIP_SECONDS="${3:-30}"
SMOKE="$BUILD_DIR/bench/bench_preprocess_smoke"
DUMP_DIR="$BUILD_DIR/chaos_dumps"

if [[ ! -x "$SMOKE" ]]; then
  echo "ERROR: $SMOKE not built" >&2
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

echo "== chaos: fault-free reference =="
REFERENCE="$DUMP_DIR/reference.report.json"
OTIF_LOG_LEVEL=warning "$SMOKE" "$CLIPS" "$CLIP_SECONDS" > "$REFERENCE"

fail=0
RUNS=()  # spec, report path, spec, report path, ...

echo "== chaos: heap poison (GLIBC_TUNABLES, no faults) =="
POISON="$DUMP_DIR/heap_poison.report.json"
if GLIBC_TUNABLES=glibc.malloc.tcache_count=0:glibc.malloc.perturb=165 \
    OTIF_LOG_LEVEL=warning "$SMOKE" "$CLIPS" "$CLIP_SECONDS" > "$POISON"; then
  RUNS+=("heap-poison" "$POISON")
else
  echo "ERROR: heap-poison run failed" >&2
  fail=1
fi

for spec in "${SPECS[@]}"; do
  # One dump file per spec, named by the first site in the spec.
  tag="$(echo "$spec" | tr ':,=' '___' | cut -c1-60)"
  report="$DUMP_DIR/$tag.report.json"
  echo "== chaos: OTIF_FAULTS='$spec' =="
  if OTIF_LOG_LEVEL=warning OTIF_FAULTS="$spec" \
      OTIF_DUMP_ON_ERROR=1 OTIF_DUMP_PATH="$DUMP_DIR/$tag.json" \
      "$SMOKE" "$CLIPS" "$CLIP_SECONDS" > "$report"; then
    RUNS+=("$spec" "$report")
  else
    echo "ERROR: chaos run failed for spec: $spec" >&2
    fail=1
  fi
done

echo "== chaos: outcomes against the reference =="
if ! python3 - "$REFERENCE" "${RUNS[@]}" <<'EOF'; then
import json, sys

with open(sys.argv[1]) as f:
    reference = json.load(f)
assert not reference["failed_clips"], reference["failed_clips"]
assert not reference["degraded_clips"], reference["degraded_clips"]
ref_digests = {e["clip"]: e["digest"] for e in reference["clip_digests"]}

ok = True
for spec, path in zip(sys.argv[2::2], sys.argv[3::2]):
    try:
        with open(path) as f:
            report = json.load(f)
        digests = {e["clip"]: e["digest"] for e in report["clip_digests"]}
        assert sorted(digests) == sorted(ref_digests), sorted(digests)
        failed = {e["clip"] for e in report["failed_clips"]}
        degraded = set(report["degraded_clips"])
        same_prepare = report["prepare_digest"] == reference["prepare_digest"]
        # The heap-poison run injects no fault: like stall and deny specs,
        # it must move no digest.
        kinds = (set() if spec == "heap-poison" else
                 {part.split(":")[1] for part in spec.split(",")})
        if kinds <= {"stall", "deny"}:
            assert same_prepare, (
                "Prepare digest moved under a stall, deny or heap-poison run")
            assert not failed and not degraded, (failed, degraded)
        if same_prepare:
            for clip, digest in digests.items():
                if clip not in failed and clip not in degraded:
                    assert digest == ref_digests[clip], (
                        f"clip {clip} untouched by recovery but its digest "
                        f"moved: {digest} != {ref_digests[clip]}")
        if spec == "detect.invoke:error:1:31:clip=0":
            assert 0 in failed, f"clip 0 not reported failed: {failed}"
        if spec == "proxy.invoke:error:1:21":
            assert not failed, f"clips failed: {failed}"
            assert degraded == set(ref_digests), (
                f"not every clip degraded: {sorted(degraded)}")
        print(f"chaos ok: {spec}: prepare "
              f"{'kept' if same_prepare else 'moved'}, "
              f"failed {sorted(failed)}, degraded {sorted(degraded)}")
    except (AssertionError, KeyError, ValueError) as error:
        print(f"ERROR: chaos outcome check failed for spec {spec}: "
              f"{error!r}", file=sys.stderr)
        ok = False
sys.exit(0 if ok else 1)
EOF
  fail=1
fi

if [[ "$fail" -ne 0 ]]; then
  echo "== chaos matrix FAILED — dumps in $DUMP_DIR =="
  exit 1
fi
echo "== chaos matrix passed: ${#SPECS[@]} specs and the heap-poison run survived with the expected outcomes =="
