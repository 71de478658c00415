#!/usr/bin/env python3
"""End-to-end benchmark of OTIF pre-processing (see README.md beside this file).

Run from the root of a checkout:

  python3 perfbench/run.py --workload preprocess_warsaw --seed 5 \\
      --seconds 50 --trace 0
  python3 perfbench/run.py compare BASE_RESULTS_DIR NEW_RESULTS_DIR
  python3 perfbench/run.py selftest

A run builds the OTIF libraries and the benchmark program from the
checkout's sources (into .bench_build/perfbench), then launches fresh
processes of the program. With --trace 0, PROCESSES processes each
simulate the dataset, run a cold Otif::Prepare and time one Otif::Execute
over their own window of the seed's extraction set, with telemetry off.
With --trace 1 one process runs with the program's telemetry on and
reports the per-layer metrics. Outputs are checked for correctness in
every run. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

A run's work is fixed, so that one seed always extracts the same clips;
it takes about 50 s on a 4-core host. --seconds is accepted for the
benchmark interface and does not change the work.
"""

import argparse
import fcntl
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "preprocess_bench")
STATE_DIR = os.path.join(BUILD_DIR, "state")
RESULTS_DIR = os.path.join(BUILD_DIR, "results")
SPANS_DIR = os.path.join(BUILD_DIR, "spans")

WORKLOADS = ("preprocess_warsaw", "preprocess_caldot1")

# Fresh processes per end-to-end run. Each sets up cold and extracts its own
# window of the run's extraction set. Set-up and extraction speed vary
# between processes by more than within one, so a run samples several.
PROCESSES = 5
# A run stops starting processes after this long (it must end within 180 s).
MAX_RUN_SECONDS = 150
CHILD_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_benchmark():
    """BENCHMARK.json: the metric names, units and bounds."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


# --- Build -------------------------------------------------------------------


def require_sources():
    """Exits non-zero when the checkout holds no OTIF sources to build."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no OTIF sources under %s/src; nothing to benchmark"
            % ROOT)
        sys.exit(2)


def build():
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_DIR, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "-j",
                      str(os.cpu_count() or 1), "--target",
                      "preprocess_bench"])
        for cmd in steps:
            out = subprocess.run(cmd, stdout=subprocess.PIPE,
                                 stderr=subprocess.STDOUT, text=True)
            if out.returncode != 0:
                log(out.stdout[-8000:])
                log("perfbench: build step failed: %s" % " ".join(cmd))
                sys.exit(3)


def source_hash():
    """Hash of every file the benchmark builds from (the commit identity of
    a checkout that is not a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, timeout=10)
        return out.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


# --- Child processes -----------------------------------------------------------


def clean_env(trace):
    """The program's defaults: no OTIF_* knob, telemetry off unless traced."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("OTIF_")}
    if not trace:
        env["OTIF_TELEMETRY"] = "off"
    return env


def run_child(args, trace):
    """Runs one benchmark process; returns its JSON report or None."""
    cmd = [BINARY] + args
    try:
        out = subprocess.run(cmd, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True,
                             env=clean_env(trace), timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: timed out: %s" % " ".join(cmd))
        return None
    if out.returncode != 0:
        log(out.stderr[-4000:])
        log("perfbench: exit %d: %s" % (out.returncode, " ".join(cmd)))
        return None
    try:
        return json.loads(out.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        log("perfbench: no report from: %s" % " ".join(cmd))
        return None


# --- Cross-run digest record ---------------------------------------------------


def check_digests(key, digests, src_hash):
    """Compares digests with the first run of this source tree on the same
    key, recording them if absent. Returns the number that differ."""
    os.makedirs(STATE_DIR, exist_ok=True)
    path = os.path.join(STATE_DIR, "digests-%s.json" % src_hash)
    with open(os.path.join(STATE_DIR, "state.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        record = {}
        if os.path.isfile(path):
            with open(path) as f:
                record = json.load(f)
        if key not in record:
            record[key] = digests
            with open(path + ".tmp", "w") as f:
                json.dump(record, f, indent=1, sort_keys=True)
            os.replace(path + ".tmp", path)
            return 0
    ref = record[key]
    if len(ref) != len(digests):
        return max(len(ref), len(digests))
    return sum(1 for a, b in zip(ref, digests) if a != b)


def check_report(opts, report, src_hash):
    """Failed ops of one process: its Prepare (by the digest of theta_best
    and the tuner curve) and each extracted clip (by the digest of its
    tracks), against every other run of this source tree."""
    base = "%s/dataset%d/%s" % (opts.workload, report["dataset_seed"],
                                opts.scale)
    failed = check_digests(base + "/prepare", [report["prepare_digest"]],
                           src_hash)
    failed += check_digests(
        "%s/window%d/clips%d" % (base, report["window"],
                                 report["extract_clips"]),
        report["clip_digests"], src_hash)
    if report["extract_tracks"] <= 0 or report["extract_sim_s"] <= 0:
        failed += 1
    return failed


# --- One benchmark run -----------------------------------------------------------


def metric(value, unit):
    return {"value": value, "unit": unit}


def first_window(opts):
    """The seed's extraction set is windows [first, first + PROCESSES) of
    the dataset's unseen test clips."""
    return (opts.seed % 100000) * PROCESSES


def run_e2e(opts, child_args, src_hash):
    """PROCESSES fresh processes, each a cold set-up plus the extraction of
    its own window of the seed's extraction set."""
    start = time.monotonic()
    reports, failed, attempted = [], 0, 0
    for k in range(PROCESSES):
        if time.monotonic() - start > MAX_RUN_SECONDS:
            log("perfbench: run cut short after %d processes" % k)
            break
        report = run_child(child_args + [
            "--window", str(first_window(opts) + k)], trace=False)
        if report is None:
            # A crashed process fails its Prepare and every clip it had.
            ops = 1 + (reports[0]["clip_ops"] if reports else 0)
            attempted += ops
            failed += ops
            continue
        attempted += 1 + report["clip_ops"]
        failed += check_report(opts, report, src_hash)
        reports.append(report)
    if not reports:
        return False, max(attempted, 1), max(failed, 1), {}, {}, None

    first = reports[0]
    same_prepare = all(r["prepare_digest"] == first["prepare_digest"]
                       for r in reports)
    correct = failed == 0 and same_prepare and len(reports) == PROCESSES
    setup = statistics.median(r["setup_s"] for r in reports)
    extract_s = sum(r["extract_s"] for r in reports)
    metrics = {
        "setup_s": metric(setup, "s"),
        "extract_frames_per_s": metric(
            sum(r["extract_frames"] for r in reports) / extract_s,
            "frames/s"),
        "preprocess_s": metric(setup + extract_s, "s"),
        "peak_rss_mb": metric(statistics.median(
            r["peak_rss_mb"] for r in reports), "MiB"),
        "extract_accuracy": metric(statistics.fmean(
            r["extract_accuracy"] for r in reports), "fraction"),
        "extract_sim_s": metric(sum(r["extract_sim_s"] for r in reports),
                                "sim_s"),
    }
    samples = {
        "setup_s": [r["setup_s"] for r in reports],
        "extract_s": [r["extract_s"] for r in reports],
        "windows": [r["window"] for r in reports],
        "digests": [r["digest"] for r in reports],
    }
    return correct, attempted, failed, metrics, samples, first


def validate_spans(path):
    """Spans share one run id, nest inside their parents, and have
    non-negative self time. Returns a list of problems."""
    with open(path) as f:
        doc = json.load(f)
    spans = doc["spans"]
    problems = []
    if not spans:
        problems.append("no spans")
    roots = [s for s in spans if s["parent"] < 0]
    if len(roots) != 1:
        problems.append("%d root spans" % len(roots))
    for s in spans:
        if s["run_id"] != doc["run_id"]:
            problems.append("span %d has run id %s" % (s["id"], s["run_id"]))
        if s["self_s"] < 0:
            problems.append("span %s self time %g" % (s["name"], s["self_s"]))
        if s["parent"] >= 0:
            p = spans[s["parent"]]
            if s["start_s"] < p["start_s"] or s["end_s"] > p["end_s"]:
                problems.append("span %s outside parent %s" %
                                (s["name"], p["name"]))
    return problems


def run_traced(opts, child_args, src_hash):
    """One process with the program's telemetry on, over the first window of
    the seed's extraction set."""
    os.makedirs(SPANS_DIR, exist_ok=True)
    spans = os.path.join(SPANS_DIR, "%s-seed%d-%d.json" % (
        opts.workload, opts.seed, time.time_ns()))
    report = run_child(child_args + [
        "--trace", "1", "--spans", spans,
        "--window", str(first_window(opts))], trace=True)
    if report is None:
        return False, 1, 1, {}, {}, None
    attempted = 1 + report["clip_ops"]
    failed = report["clip_failures"] + check_report(opts, report, src_hash)
    problems = validate_spans(spans) if report["spans_written"] else [
        "span file not written"]
    for p in problems:
        log("perfbench: span check: %s" % p)
    units = {m["name"]: m["unit"] for m in load_benchmark()["per_layer"]}
    metrics = {k: v for k, v in report["metrics"].items() if k in units}
    missing = sorted(k for k in units if metrics.get(k, {}).get("unit") !=
                     units[k])
    for name in missing:
        log("perfbench: per-layer metric missing: %s" % name)
    correct = failed == 0 and not problems and not missing
    return correct, attempted, failed, metrics, {"spans": spans}, report


def run(opts):
    require_sources()
    build()
    src_hash = source_hash()
    child_args = ["--workload", opts.workload, "--scale", opts.scale]
    if opts.dataset_seed is not None:
        child_args += ["--dataset-seed", str(opts.dataset_seed)]
    runner = run_traced if opts.trace else run_e2e
    correct, attempted, failed, metrics, samples, report = runner(
        opts, child_args, src_hash)

    record = {
        "workload": opts.workload,
        "seed": opts.seed,
        "dataset_seed": report["dataset_seed"] if report else None,
        "trace": opts.trace,
        "scale": opts.scale,
        "commit": git_commit() or "src-" + src_hash,
        "source_hash": src_hash,
        "host": report["host"] if report else None,
        "theta_best": report["theta_best"] if report else None,
        "extract_config": report["extract_config"] if report else None,
        "digest": report["digest"] if report else None,
        "samples": samples,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, "%s-trace%d-%d.json" % (
        opts.workload, opts.trace, time.time_ns()))
    with open(path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    print("host: %s" % json.dumps(record["host"], sort_keys=True))
    print("commit: %s  digest: %s  record: %s" % (
        record["commit"], record["digest"], os.path.relpath(path, ROOT)))
    if opts.trace and "spans" in samples:
        print("spans: %s" % os.path.relpath(samples["spans"], ROOT))
    for name in sorted(metrics):
        print("  %-36s %14.6g %s" % (name, metrics[name]["value"],
                                     metrics[name]["unit"]))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


# --- compare ---------------------------------------------------------------------


def load_records(path):
    files = ([os.path.join(path, f) for f in sorted(os.listdir(path))
              if f.endswith(".json")] if os.path.isdir(path) else [path])
    records = []
    for f in files:
        with open(f) as fh:
            records.append(json.load(fh))
    return [r for r in records if r.get("trace") == 0 and r.get("host")]


def compare(base_path, new_path):
    """Compares end-to-end medians of two sets of result records against
    the bounds in BENCHMARK.json. Refuses records from different hosts."""
    bench = load_benchmark()
    base, new = load_records(base_path), load_records(new_path)
    hosts = {(r["host"]["nproc"], r["host"]["compiler"]) for r in base + new}
    if len(hosts) != 1:
        log("perfbench compare: refusing to compare results from different "
            "core counts or compilers: %s" % sorted(hosts))
        return 3
    worse = 0
    for workload in sorted({r["workload"] for r in base + new}):
        for m in bench["end_to_end"]:
            name = m["name"]
            a = [r["metrics"][name]["value"] for r in base
                 if r["workload"] == workload and name in r["metrics"]]
            b = [r["metrics"][name]["value"] for r in new
                 if r["workload"] == workload and name in r["metrics"]]
            if not a or not b:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            change = (mb - ma) / ma
            regress = -change if m["better"] == "higher" else change
            flag = "WORSE" if regress > m["bound"] else "ok"
            worse += flag == "WORSE"
            print("%-20s %-22s %12.6g -> %12.6g  %+7.2f%%  bound %g%%  %s "
                  "(n=%d/%d)" % (workload, name, ma, mb, 100 * change,
                                 100 * m["bound"], flag, len(a), len(b)))
    return 1 if worse else 0


# --- selftest ---------------------------------------------------------------------


def selftest():
    """Seconds-scale check of the benchmark itself: every metric printed
    with its unit on both workloads, spans well formed, a corrupted digest
    caught, and a second seed passing the same checks."""
    bench = load_benchmark()
    errors = []

    def invoke(workload, trace, dataset_seed=None):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload",
               workload, "--seconds", "1", "--trace", str(trace),
               "--scale", "tiny"]
        if dataset_seed is not None:
            cmd += ["--seed", "1", "--dataset-seed", str(dataset_seed)]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=600)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            errors.append("%s trace %d: exit %d" % (workload, trace,
                                                    out.returncode))
            return None, lines
        return json.loads(lines[-1]), lines

    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, lines = invoke(workload, trace)
            if result is None:
                continue
            if not result["correct"] or result["failed"]:
                errors.append("%s trace %d: incorrect" % (workload, trace))
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                errors.append("%s trace %d: keys %s" % (workload, trace,
                                                        sorted(result)))
            for m in bench[key]:
                got = result["metrics"].get(m["name"])
                if got is None or got.get("unit") != m["unit"]:
                    errors.append("%s trace %d: metric %s missing or unit "
                                  "%s" % (workload, trace, m["name"], got))
            if trace == 1:
                spans = [l for l in lines if l.startswith("spans: ")]
                if not spans:
                    errors.append("%s: no span file printed" % workload)
                else:
                    for p in validate_spans(os.path.join(
                            ROOT, spans[0][len("spans: "):])):
                        errors.append("%s spans: %s" % (workload, p))

    # A corrupted digest record must be caught by the next run.
    workload = WORKLOADS[0]
    path = os.path.join(STATE_DIR, "digests-%s.json" % source_hash())
    with open(path) as f:
        saved = json.load(f)
    tampered = dict(saved)
    for key in tampered:
        if key.startswith(workload + "/") and "/tiny/" in key:
            tampered[key] = ["0" * 16] + tampered[key][1:]
    with open(path, "w") as f:
        json.dump(tampered, f)
    try:
        result, _ = invoke(workload, 0)
        if result is not None and (result["correct"] or not result["failed"]):
            errors.append("corrupted digest not caught")
    finally:
        with open(path, "w") as f:
            json.dump(saved, f)

    # A second dataset seed passes the same checks.
    result, _ = invoke(workload, 0, dataset_seed=1234)
    if result is not None and not result["correct"]:
        errors.append("second seed: incorrect")

    for e in errors:
        print("FAIL %s" % e)
    print("selftest: %s" % ("FAILED" if errors else "ok"))
    return 1 if errors else 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        if len(sys.argv) != 4:
            log("usage: run.py compare BASE_RESULTS NEW_RESULTS")
            return 2
        return compare(sys.argv[2], sys.argv[3])
    if len(sys.argv) > 1 and sys.argv[1] == "selftest":
        require_sources()
        return selftest()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0,
                   help="picks the unseen test clips that are extracted")
    p.add_argument("--dataset-seed", type=int, default=None,
                   help="dataset seed (default: the dataset preset's seed)")
    p.add_argument("--seconds", type=float, default=50.0,
                   help="accepted for the benchmark interface; a run's "
                   "work is fixed")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help=argparse.SUPPRESS)
    return run(p.parse_args())


if __name__ == "__main__":
    sys.exit(main())
