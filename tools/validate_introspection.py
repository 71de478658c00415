#!/usr/bin/env python3
"""Validates the live introspection endpoints of an in-flight run.

Usage: validate_introspection.py <port-file>

Runs against `bench_preprocess_smoke 4 30` launched with
OTIF_METRICS_PORT=0, OTIF_METRICS_PORT_FILE=<port-file> and an OTIF_FAULTS
stall spec that holds extraction clip 3 in flight; waits for the port file,
then checks against 127.0.0.1:<port>:

  - /metrics  is legal Prometheus 0.0.4 text exposition: every line is a
              `# TYPE` comment or a sample, names match the exposition
              grammar, histogram buckets are cumulative and agree with
              their `_count`, and each populated histogram yields ordered
              p50 <= p90 <= p99. The expected series appear with their
              kinds: pipeline frames, the stage/detect span and thread-pool
              tasks.
  - /statusz  is JSON with the documented sections (phase, run), no clip
              ever committed past its total, and per-clip `committed`
              counters that advance monotonically within one run
              generation (`run.seq`). While the stall holds the 4-clip
              extraction in flight, it shows that run with 1 to 3 clips
              done: each clip commits when its pipeline run returns.

Exits non-zero with a diagnostic on the first violation.
"""

import http.client
import json
import re
import sys
import time


def die(message):
    print("ERROR:", message, file=sys.stderr)
    sys.exit(1)


def fetch(port, path, attempts=5, timeout=10):
    """GET with retry/backoff: the single-threaded serving loop can be
    briefly unreachable between accept()s (or blocked inside a /profilez
    window), so transient connection errors back off and retry instead of
    failing the whole validation."""
    delay = 0.05
    for attempt in range(attempts):
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            return (resp.status, resp.getheader("Content-Type", ""),
                    resp.read().decode())
        except (ConnectionError, TimeoutError, OSError) as error:
            if attempt == attempts - 1:
                die(f"GET {path} failed after {attempts} attempts: {error}")
            time.sleep(delay)
            delay = min(delay * 2, 1.0)
        finally:
            conn.close()


def wait_for_port(path, deadline_seconds=60.0):
    end = time.monotonic() + deadline_seconds
    while time.monotonic() < end:
        try:
            with open(path) as f:
                text = f.read().strip()
            if text:
                return int(text)
        except (FileNotFoundError, ValueError):
            pass
        time.sleep(0.02)
    die(f"port file {path} not written within {deadline_seconds}s")


NAME_RE = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
SAMPLE_RE = re.compile(
    rf"^(?P<name>{NAME_RE})(?:\{{(?P<labels>[^}}]*)\}})? (?P<value>\S+)$")
TYPE_RE = re.compile(
    rf"^# TYPE (?P<name>{NAME_RE}) (?P<kind>counter|gauge|histogram|summary)$")

# Series every run of the pipeline exports, with their Prometheus kinds.
EXPECTED_SERIES = {
    "otif_pipeline_frames": "counter",
    "otif_threadpool_tasks_executed": "counter",
    "otif_stage_detect": "summary",
}


def histogram_quantile(series, q):
    """Quantile q of cumulative (le, count) buckets, interpolated linearly
    within the bucket that holds the rank (the +Inf bucket answers with the
    last finite bound)."""
    rank = q * series[-1][1]
    lower, below = 0.0, 0.0
    for le, cumulative in series:
        if cumulative >= rank:
            if le == "+Inf":
                return lower
            upper = float(le)
            return lower + (upper - lower) * (rank - below) / (
                cumulative - below)
        lower, below = float(le), cumulative
    return lower


def validate_metrics(status, content_type, body):
    if status != 200:
        die(f"/metrics returned {status}")
    if "version=0.0.4" not in content_type:
        die(f"/metrics content type {content_type!r} lacks version=0.0.4")
    kinds = {}
    buckets = {}  # base name -> list of (le, cumulative count)
    counts = {}   # base name -> _count value
    samples = 0
    for line in body.splitlines():
        if not line:
            continue
        if line.startswith("#"):
            m = TYPE_RE.match(line)
            if not m:
                die(f"/metrics bad comment line: {line!r}")
            if m.group("name") in kinds:
                die(f"/metrics duplicate TYPE for {m.group('name')}")
            kinds[m.group("name")] = m.group("kind")
            continue
        m = SAMPLE_RE.match(line)
        if not m:
            die(f"/metrics bad sample line: {line!r}")
        samples += 1
        value = float(m.group("value"))  # Raises on garbage.
        name = m.group("name")
        if name.endswith("_bucket"):
            base = name[: -len("_bucket")]
            labels = m.group("labels") or ""
            lm = re.fullmatch(r'le="([^"]+)"', labels)
            if not lm:
                die(f"/metrics bucket without le label: {line!r}")
            buckets.setdefault(base, []).append((lm.group(1), value))
        elif name.endswith("_count"):
            counts[name[: -len("_count")]] = value
    if samples == 0:
        return 0, ["<any samples>"]  # Nothing registered yet: keep polling.
    populated = 0
    for base, series in buckets.items():
        if kinds.get(base) != "histogram":
            die(f"/metrics buckets for non-histogram {base}")
        if series[-1][0] != "+Inf":
            die(f"/metrics {base} buckets do not end at +Inf")
        values = [v for _, v in series]
        if values != sorted(values):
            die(f"/metrics {base} buckets not cumulative: {values}")
        if base not in counts or counts[base] != values[-1]:
            die(f"/metrics {base} +Inf bucket disagrees with _count")
        if values[-1] > 0:
            p50, p90, p99 = (histogram_quantile(series, q)
                             for q in (0.5, 0.9, 0.99))
            if not 0.0 <= p50 <= p90 <= p99:
                die(f"/metrics {base} quantiles out of order: p50 {p50}, "
                    f"p90 {p90}, p99 {p99}")
            populated += 1
    missing = []
    for name, kind in EXPECTED_SERIES.items():
        if name not in kinds:
            missing.append(name)
        elif kinds[name] != kind:
            die(f"/metrics {name} is a {kinds[name]}, want {kind}")
    if populated == 0:
        missing.append("<a populated histogram>")
    return len(kinds), missing


def validate_statusz_schema(doc):
    for key in ("phase", "process_uptime_seconds", "run"):
        if key not in doc:
            die(f"/statusz missing key {key!r}: {sorted(doc)}")
    run = doc["run"]
    for key in ("label", "seq", "in_flight", "frames_committed",
                "frames_total", "clips_done", "clips", "quarantined"):
        if key not in run:
            die(f"/statusz run missing key {key!r}: {sorted(run)}")
    for clip in run["clips"]:
        for key in ("clip", "committed", "total"):
            if key not in clip:
                die(f"/statusz clip entry missing {key!r}: {clip}")
    for entry in run["quarantined"]:
        for key in ("clip", "reason"):
            if key not in entry:
                die(f"/statusz quarantined entry missing {key!r}: {entry}")


def statusz(port):
    status, content_type, body = fetch(port, "/statusz")
    if status != 200:
        die(f"/statusz returned {status}")
    if "application/json" not in content_type:
        die(f"/statusz content type {content_type!r}")
    doc = json.loads(body)
    validate_statusz_schema(doc)
    for clip in doc["run"]["clips"]:
        if clip["committed"] > clip["total"]:
            die(f"/statusz clip {clip['clip']} of run {doc['run']['seq']} "
                f"committed {clip['committed']} frames, over its total "
                f"{clip['total']}")
    return doc


def check_monotonic_commits(port, deadline_seconds=120.0):
    """Two scrapes of one run generation: commits must only grow."""
    end = time.monotonic() + deadline_seconds
    while time.monotonic() < end:
        first = statusz(port)
        if not first["run"]["in_flight"]:
            time.sleep(0.02)
            continue
        time.sleep(0.15)
        second = statusz(port)
        if second["run"]["seq"] != first["run"]["seq"]:
            continue  # Run ended between scrapes; catch the next one.
        if second["run"]["frames_committed"] < first["run"]["frames_committed"]:
            die("/statusz run frames_committed went backwards")
        before = {c["clip"]: c["committed"] for c in first["run"]["clips"]}
        for clip in second["run"]["clips"]:
            if clip["committed"] < before.get(clip["clip"], 0):
                die(f"/statusz clip {clip['clip']} committed went backwards")
        return first["run"]["seq"]
    die("never observed one run generation across two /statusz scrapes")


def check_held_extraction(port, clips=4, deadline_seconds=180.0):
    """While the injected stall holds extraction clip 3, /statusz must show
    the 4-clip extraction in flight with some but not all of its clips
    done (Prepare's runs have 3 clips)."""
    end = time.monotonic() + deadline_seconds
    while time.monotonic() < end:
        run = statusz(port)["run"]
        if (run["in_flight"] and len(run["clips"]) == clips
                and 1 <= run["clips_done"] <= clips - 1):
            return run["clips_done"]
        time.sleep(0.02)
    die(f"never saw a {clips}-clip run in flight with 1 to {clips - 1} "
        "clips done while the injected stall held extraction clip 3")


def main():
    if len(sys.argv) != 2:
        die(f"usage: {sys.argv[0]} <port-file>")
    port = wait_for_port(sys.argv[1])

    # Every scrape must be well-formed from the first poll; the expected
    # series only appear once the run registers them, so poll for those.
    end = time.monotonic() + 60.0
    while True:
        series, missing = validate_metrics(*fetch(port, "/metrics"))
        if not missing:
            break
        if time.monotonic() > end:
            die(f"/metrics never exported expected series {missing}")
        time.sleep(0.05)

    seq = check_monotonic_commits(port)
    done = check_held_extraction(port)
    print(f"live introspection ok: {series} metric series, monotonic "
          f"commits in run seq {seq}, held extraction showed {done} of 4 "
          f"clips done")


if __name__ == "__main__":
    main()
