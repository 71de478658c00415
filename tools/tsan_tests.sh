#!/usr/bin/env bash
# The ThreadSanitizer test list, shared by tools/check.sh and CI's tsan job:
# builds the concurrency-sensitive test binaries in BUILD_DIR and runs each
# with its filter (thread pool, telemetry registry/spans, timeline ring
# buffers, fault-injection sites, proxy score memo, pipeline
# determinism with concurrent proxy scoring with and without the memo,
# fault recovery, concurrent model training in Prepare, extraction next to
# the tuner's memo, live introspection).
#
# Usage: tools/tsan_tests.sh BUILD_DIR
#   BUILD_DIR must already be configured with -DOTIF_SANITIZE=thread.
set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: $0 BUILD_DIR" >&2
  exit 2
fi
BUILD_DIR=$1

cmake --build "$BUILD_DIR" -j"$(nproc)" \
  --target util_test core_test obs_test

"$BUILD_DIR"/tests/util_test \
  --gtest_filter='ThreadPool*:Telemetry*:Trace*:TraceTimeline*:FaultInjection*'
"$BUILD_DIR"/tests/core_test \
  --gtest_filter='PipelineStagesDeterminismTest.*:ProxyScoreCache*:PipelineTelemetry*:PipelineFaultTest.*:OtifTest.PrepareIsIdenticalAcrossPoolWidths:OtifTest.ExecuteLeavesTheMemoAsItFoundIt'
# Profiler live-sampling tests self-skip under TSan (the profiler refuses
# to start there); the filter still exercises the renderers, option
# validation, and the refusal path.
"$BUILD_DIR"/tests/obs_test \
  --gtest_filter='IntrospectionServer*:RunProgress*:Profiler*'
