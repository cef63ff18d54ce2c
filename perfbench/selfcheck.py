#!/usr/bin/env python3
"""Tiny-size self-check of the benchmark.

    python3 perfbench/selfcheck.py

Runs every workload briefly on a small corpus, untraced and traced, and
asserts that each run's last line is the result object, that every metric
BENCHMARK.json names is there with its unit, that every end-to-end metric
the workload reports is there with its unit (and a sample count for
timings), and that the answer checks ran and passed. Exits non-zero on the
first failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 5

# the end-to-end metrics each workload reports, by name and unit
COMMON = {"setup_s": "s", "ops_per_s": "ops/s", "error_rate": "ratio",
          "disk_bytes_per_user_byte": "ratio", "peak_rss_mb": "MiB"}
READ = {"read_p50_ms": "ms", "read_p99_ms": "ms"}
WRITE = {"write_p50_ms": "ms", "write_p99_ms": "ms"}
SCAN = {"scan_p50_ms": "ms", "scan_p90_ms": "ms", "txn_read_p50_ms": "ms"}
EXPECTED = {
    "point-read": {**COMMON, **READ},
    "write-mix": {**COMMON, **READ, **WRITE},
    "scan-snapshot": {**COMMON, **SCAN},
}
TIMINGS = {"setup_s", "ops_per_s", "error_rate"} | set(READ) | set(WRITE) | set(SCAN)


def check(cond, what):
    if not cond:
        print("selfcheck FAILED: " + what)
        sys.exit(1)


def run(spec, workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
           "--docs", "400"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    check(proc.returncode == 0, "%s trace %d exited %d" % (workload, trace, proc.returncode))
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    check(sorted(last) == ["attempted", "correct", "failed", "metrics"],
          "%s: result keys %s" % (workload, sorted(last)))
    check(last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1,
          "%s trace %d: correct=%s attempted=%s failed=%s"
          % (workload, trace, last["correct"], last["attempted"], last["failed"]))
    wanted = spec["per_layer" if trace else "end_to_end"]
    check(sorted(last["metrics"]) == sorted(w["name"] for w in wanted),
          "%s trace %d: metric names differ from BENCHMARK.json" % (workload, trace))
    for w in wanted:
        v = last["metrics"][w["name"]]
        check(v["unit"] == w["unit"] and isinstance(v["value"], (int, float)),
              "%s: metric %s is %r" % (workload, w["name"], v))

    results = os.path.join(ROOT, ".bench_out",
                           "%s-seed%d-trace%d.results.json" % (workload, SEED, trace))
    with open(results) as fh:
        res = json.load(fh)
    check(res["answers_checked"] >= 1, "%s: no answer was checked" % workload)
    check(all(res["checks"].values()), "%s: final checks %s" % (workload, res["checks"]))
    if workload == "write-mix":
        check(len(res["checks"]) == 2, "write-mix: row_count and verify checks missing")
    if trace:
        check(os.path.exists(res["trace_file"]), "%s: no trace file" % workload)
        return
    for name, unit in EXPECTED[workload].items():
        check(name in res["metrics"], "%s: %s missing" % (workload, name))
        m = res["metrics"][name]
        check(m["unit"] == unit, "%s: %s in %s, not %s" % (workload, name, m["unit"], unit))
        if name in TIMINGS:
            check(m.get("samples", 0) >= 1, "%s: %s has no sample count" % (workload, name))
    check(res["metrics"]["error_rate"]["value"] == 0, "%s: error_rate > 0" % workload)
    extra = set(res["metrics"]) - set(EXPECTED[workload])
    check(not extra, "%s: reports metrics of other workloads: %s" % (workload, extra))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for workload in EXPECTED:
        for trace in (0, 1):
            run(spec, workload, trace)
            print("selfcheck ok: %s trace %d" % (workload, trace))


if __name__ == "__main__":
    main()
