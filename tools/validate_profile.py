#!/usr/bin/env python3
"""Validates the /profilez sampling-profiler endpoint over an in-flight run.

Usage: validate_profile.py <port-file> [--out <collapsed-artifact>]

Runs against bench_preprocess_smoke launched with OTIF_METRICS_PORT=0 and
OTIF_METRICS_PORT_FILE=<port-file>, sized to outlive this check; waits for
the port file, then against 127.0.0.1:<port>:

  - Malformed /profilez query parameters must 400 (never start a window
    or fall back to silent defaults).
  - /profilez?seconds=2&fmt=collapsed must return flamegraph-compatible
    collapsed stacks: every line is `seg;seg;...;seg <count>` with a
    positive integer count, at least 100 samples total (97 Hz over 2 s of
    a busy Prepare or Execute), the GEMM microkernel (inlined into
    GemmBias) on a hot stack, and stage attribution joined in (a
    `stage/...;clipN;` prefix on at least one stack).
  - /profilez?fmt=json must return the documented JSON shape.

The collapsed window is retried for a while: an early scrape can land in a
warm-up gap where the run burns little CPU inside the GEMM. With --out the
last collapsed profile is written there (the CI flamegraph artifact).

Exits non-zero with a diagnostic on the first violation.
"""

import json
import re
import sys
import time

from validate_introspection import die, fetch, wait_for_port

COLLAPSED_LINE_RE = re.compile(r"^(?P<stack>\S.*) (?P<count>\d+)$")


def parse_collapsed(body):
    """Parses collapsed stacks; returns (total_samples, list of frame
    lists). Dies on any grammar violation."""
    total = 0
    stacks = []
    for line in body.splitlines():
        m = COLLAPSED_LINE_RE.match(line)
        if not m:
            die(f"collapsed line does not match 'stack count': {line!r}")
        count = int(m.group("count"))
        if count <= 0:
            die(f"collapsed line with non-positive count: {line!r}")
        frames = m.group("stack").split(";")
        if any(not frame for frame in frames):
            die(f"collapsed line with empty frame: {line!r}")
        if len(frames) < 3:  # stage; clip; at least one real frame.
            die(f"collapsed line shorter than stage;clip;frame: {line!r}")
        if not (frames[1].startswith("clip") or frames[1] == "(no_clip)"):
            die(f"collapsed line without clip attribution slot: {line!r}")
        total += count
        stacks.append(frames)
    return total, stacks


def check_negative_cases(port):
    for path in ("/profilez?seconds=abc", "/profilez?seconds=0",
                 "/profilez?seconds=61", "/profilez?fmt=svg",
                 "/profilez?bogus=1", "/profilez?seconds=2&seconds=3"):
        status, _, _ = fetch(port, path)
        if status != 400:
            die(f"GET {path} returned {status}, want 400")


def check_json_window(port):
    status, content_type, body = fetch(port, "/profilez?seconds=0.2&fmt=json",
                                       timeout=30)
    if status == 503:
        die(f"/profilez unavailable (sanitizer build?): {body.strip()}")
    if status != 200:
        die(f"/profilez fmt=json returned {status}: {body.strip()}")
    if "application/json" not in content_type:
        die(f"/profilez fmt=json content type {content_type!r}")
    doc = json.loads(body)
    for key in ("hz", "duration_seconds", "samples", "dropped",
                "signal_overhead_seconds", "stacks"):
        if key not in doc:
            die(f"/profilez json missing key {key!r}: {sorted(doc)}")
    for stack in doc["stacks"]:
        for key in ("stage", "clip", "count", "frames"):
            if key not in stack:
                die(f"/profilez json stack missing {key!r}: {sorted(stack)}")


def check_collapsed_window(port, min_samples=100, deadline_seconds=120.0):
    """Profiles 2 s windows until one is busy enough to carry the GEMM."""
    end = time.monotonic() + deadline_seconds
    last_problem = "no window attempted"
    body = ""
    while time.monotonic() < end:
        status, content_type, body = fetch(
            port, "/profilez?seconds=2&fmt=collapsed", timeout=30)
        if status == 503:
            die(f"/profilez unavailable (sanitizer build?): {body.strip()}")
        if status != 200:
            die(f"/profilez returned {status}: {body.strip()}")
        if "text/plain" not in content_type:
            die(f"/profilez content type {content_type!r}")
        total, stacks = parse_collapsed(body)
        gemm = sum(1 for frames in stacks
                   if any("GemmBias" in frame for frame in frames))
        staged = sum(1 for frames in stacks
                     if frames[0].startswith("stage/"))
        if total < min_samples:
            last_problem = f"only {total} samples (< {min_samples})"
        elif gemm == 0:
            last_problem = f"no GemmBias frame in {len(stacks)} stacks"
        elif staged == 0:
            last_problem = f"no stage/... attribution in {len(stacks)} stacks"
        else:
            return total, len(stacks), gemm, staged, body
        time.sleep(0.2)
    die(f"/profilez window never satisfied the gate: {last_problem}")


def main():
    args = sys.argv[1:]
    out_path = None
    if "--out" in args:
        i = args.index("--out")
        out_path = args[i + 1]
        del args[i:i + 2]
    if len(args) != 1:
        die(f"usage: {sys.argv[0]} <port-file> [--out <collapsed-artifact>]")
    port = wait_for_port(args[0])

    check_negative_cases(port)
    total, stacks, gemm, staged, body = check_collapsed_window(port)
    check_json_window(port)
    if out_path:
        with open(out_path, "w") as f:
            f.write(body)
    print(f"profile ok: {total} samples across {stacks} stacks "
          f"({gemm} with GemmBias, {staged} stage-attributed)"
          + (f", collapsed profile -> {out_path}" if out_path else ""))


if __name__ == "__main__":
    main()
