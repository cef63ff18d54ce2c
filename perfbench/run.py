#!/usr/bin/env python3
"""End-to-end benchmark of System R/X: build, run one workload, report.

    python3 perfbench/run.py --workload point-read --seed 7 --seconds 16 --trace 0

Run from the repository root. It builds ``perfbench/rxbench.exe`` with
dune, runs it, and prints one line per metric followed, as the last line,
by one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones (BENCHMARK.json
``end_to_end``), measured untraced. With ``--trace 1`` the program runs the
workload plain and then traced, writes a trace file, and the metrics are the
per-layer ones (BENCHMARK.json ``per_layer``), computed here from that file.
Results, trace and per-layer files go to ``.bench_out/``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".bench_out")
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "rxbench.exe")
WORKLOADS = ("point-read", "write-mix", "scan-snapshot")
READS = ("point", "range", "scan", "txn")
WRITES = ("insert", "delete")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    dune = shutil.which("dune")
    cmd = [dune] if dune else ["opam", "exec", "--", "dune"]
    cmd += ["build", "--root", ROOT, "./perfbench/rxbench.exe"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if proc.returncode != 0 or not os.path.exists(EXE):
        sys.stderr.write(proc.stdout[-4000:])
        fail("build failed")


def source_rev():
    """The git revision, suffixed "-dirty" when the tree has uncommitted changes."""
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


# ---------- per-layer metrics from the trace ----------

def median(xs):
    return statistics.median(xs) if xs else 0.0


def ratio(num, den):
    return (num / den if den else 0.0), "%g / %g" % (num, den)


def self_times(spans):
    """Each span's duration minus the part of it its children cover."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered, cur_lo, cur_hi = 0.0, None, None
        for c in sorted(children.get(s["id"], ()), key=lambda c: c["start_us"]):
            lo, hi = max(c["start_us"], s["start_us"]), min(c["end_us"], s["end_us"])
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s["id"]] = (s["end_us"] - s["start_us"]) - covered
    return out


def layers(trace_path):
    phases, spans = None, []
    with open(trace_path) as fh:
        for line in fh:
            j = json.loads(line)
            if j["kind"] == "phases":
                phases = j
            elif j["kind"] == "span":
                spans.append(j)
    plain, traced = phases["plain"], phases["traced"]
    c = plain["counters"]
    cnt = lambda name: c.get(name, 0)
    by_class = plain["by_class"]
    reads = sum(by_class.get(k, 0) for k in READS)
    writes = sum(by_class.get(k, 0) for k in WRITES)
    scans = by_class.get("scan", 0)
    ops = plain["ops"]
    # the write-path ratios of a workload without writes come from the probe
    if writes:
        wsrc, w_ops, w_bytes, wc = "", ops, plain["bytes_written"], c
    else:
        probe = phases["probe"]
        wsrc, w_ops, w_bytes, wc = (" (probe)", probe["writes"], probe["bytes_written"],
                                    probe["counters"])
    wcnt = lambda name: wc.get(name, 0)

    def wratio(num, den):
        v, base = ratio(num, den)
        return v, base + wsrc

    # the probe's spans stand in only where the workload has none
    probe_ops = {s["id"] for s in spans if s["name"] == "op.probe"}
    dur, probe_dur, size, per_op, probe_per_op = {}, {}, {}, {}, {}
    for s in spans:
        d = s["end_us"] - s["start_us"]
        in_probe = s["op"] in probe_ops
        (probe_dur if in_probe else dur).setdefault(s["name"], []).append(d)
        ops_of = (probe_per_op if in_probe else per_op).setdefault(s["op"], {})
        ops_of[s["name"]] = ops_of.get(s["name"], 0.0) + d
        if not in_probe:
            size[s["name"]] = size.get(s["name"], 0.0) + s["n"]

    def med(name):
        xs, src = dur.get(name), "spans"
        if not xs:
            xs, src = probe_dur.get(name, []), "probe spans"
        return median(xs), "median of %d %s" % (len(xs), src)

    def per_unit(name):
        return ratio(sum(dur.get(name, [])), size.get(name, 0.0))

    # only reads whose wire-side prepare hit the plan cache (n = 1), as the
    # embedded repeat's always does
    hit_ops = {s["op"] for s in spans if s["name"] == "net.roundtrip" and s["n"] == 1}

    def net_overhead(ops):
        return [o["net.roundtrip"] - sum(o.get(k, 0.0) for k in
                                         ("plan.prepare", "exec.run", "xml.serialize"))
                for op, o in ops.items() if op in hit_ops and "embedded" in o]

    overhead, src = net_overhead(per_op), "plan-cache-hit wire reads"
    if not overhead:
        overhead, src = net_overhead(probe_per_op), "probe wire reads"
    # a workload without wire requests takes the probe's
    nc, nsrc = (c, "") if cnt("net.requests") else (phases["probe"]["counters"], " (probe)")
    insert_many = dur.get("setup.insert_many", [])
    m = {}

    def put(name, unit, vb):
        m[name] = {"value": float(vb[0]), "unit": unit, "base": vb[1]}

    put("net.overhead_us", "us", (median(overhead), "median over %d %s" % (len(overhead), src)))
    v, base = ratio(nc.get("net.bytes_in", 0) + nc.get("net.bytes_out", 0),
                    nc.get("net.requests", 0))
    put("net.bytes_per_op", "bytes/op", (v, base + nsrc))
    put("plan.parse_us", "us", med("plan.parse"))
    put("plan.prepare_us", "us", med("plan.prepare"))
    put("plan.cache_hit_ratio", "ratio",
        ratio(cnt("plancache.hits"), cnt("plancache.hits") + cnt("plancache.misses")))
    put("exec.run_us", "us", med("exec.run"))
    put("exec.docs_scanned_per_read", "docs/read", ratio(cnt("exec.docs_scanned"), reads))
    put("exec.candidates_per_match", "cand/match",
        ratio(cnt("exec.index_candidates"), plain["matches"]))
    put("qxs.events_per_us", "events/us",
        ratio(cnt("qxs.events"), plain["query_ms"] * 1000.0))
    put("xindex.entries_per_read", "entries/read",
        ratio(cnt("xindex.entries_fetched"), reads))
    put("btree.lookups_per_read", "lookups/read", ratio(cnt("btree.lookups"), reads))
    put("btree.splits_per_write", "splits/write",
        wratio(wcnt("btree.node_splits"), writes or w_ops))
    put("xml.parse_us_per_kb", "us/KiB", per_unit("xml.parse"))
    put("xml.serialize_us_per_match", "us/match", per_unit("xml.serialize"))
    put("store.insert_us", "us", med("store.insert"))
    put("store.data_pages_per_mb", "pages/MiB",
        ratio(phases["data_pages"], phases["live_bytes"] / 1048576.0))
    put("bufpool.hit_ratio", "ratio",
        ratio(cnt("bufpool.hits"), cnt("bufpool.hits") + cnt("bufpool.misses")))
    put("bufpool.misses_per_scan", "misses/scan", ratio(cnt("bufpool.misses"), scans))
    put("pager.reads_per_scan", "reads/scan", ratio(cnt("pager.reads"), scans))
    put("bufpool.readahead_wasted_ratio", "ratio",
        ratio(cnt("bufpool.readahead.wasted"), cnt("bufpool.readahead.pages")))
    put("wal.commit_us", "us", med("wal.commit"))
    put("wal.bytes_per_user_byte", "ratio", wratio(wcnt("wal.bytes_appended"), w_bytes))
    put("wal.commits_per_fsync", "commits/fsync",
        wratio(wcnt("txn.commit"), wcnt("wal.forced_syncs")))
    put("ckpt.count", "count",
        (cnt("ckpt.auto") + cnt("ckpt.manual"), "ckpt.auto + ckpt.manual"))
    put("txn.begin_us", "us", med("txn.begin"))
    put("txn.lock_acquisitions_per_op", "locks/op", wratio(wcnt("lock.acquisitions"), w_ops))
    put("txn.lock_waits_per_op", "waits/op", wratio(wcnt("lock.wait"), w_ops))
    put("txn.abort_ratio", "ratio",
        wratio(wcnt("txn.abort"), wcnt("txn.commit") + wcnt("txn.abort")))
    put("setup.load_docs_per_s", "docs/s",
        ratio(size.get("setup.insert_many", 0.0), sum(insert_many) / 1e6))
    put("setup.index_build_s", "s",
        (sum(dur.get("setup.index_build", [])) / 1e6, "Index.build + await, 2 indexes"))
    put("trace.overhead_ratio", "ratio", ratio(plain["ops_per_s"], traced["ops_per_s"]))

    selfs = self_times(spans)
    breakdown = {}
    for s in spans:
        b = breakdown.setdefault(s["name"], {"spans": 0, "total_us": 0.0, "self_us": 0.0})
        b["spans"] += 1
        b["total_us"] += s["end_us"] - s["start_us"]
        b["self_us"] += selfs[s["id"]]
    return m, breakdown


# ---------- main ----------

def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--docs", type=int, help="corpus size (default: the full corpus)")
    a = ap.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    build()
    os.makedirs(OUT, exist_ok=True)
    cmd = [EXE, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--out", OUT, "--rev", source_rev()]
    if a.docs:
        cmd += ["--docs", str(a.docs)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=170)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out")
    if proc.returncode != 0:
        fail("benchmark exited with code %d" % proc.returncode)
    results_path = proc.stdout.strip().splitlines()[-1]
    with open(results_path) as fh:
        res = json.load(fh)
    meta = res["meta"]
    print("workload %s seed %d: %d host cores, parallelism %d, OCaml %s, rev %s"
          % (a.workload, a.seed, meta["host_cores"], meta["parallelism"],
             meta["ocaml"], meta["rev"]))
    print("corpus %d docs, %d XML bytes; data file %d bytes after set-up; pool %d bytes"
          % (meta["corpus_docs"], meta["corpus_xml_bytes"],
             meta["data_file_bytes_after_setup"], meta["pool_bytes"]))
    for what, ok in res["checks"].items():
        print("check %-5s %s" % ("ok" if ok else "FAIL", what))
    for e in res["errors"]:
        print("error " + e)

    if a.trace == 0:
        wanted = spec["end_to_end"]
        got = res["metrics"]
        for name, v in got.items():
            n = " (n=%d)" % v["samples"] if "samples" in v else ""
            print("%-26s %14.6g %s%s" % (name, v["value"], v["unit"], n))
    else:
        wanted = spec["per_layer"]
        got, breakdown = layers(res["trace_file"])
        with open(res["trace_file"].replace(".trace.jsonl", ".layers.json"), "w") as fh:
            json.dump({"meta": meta, "metrics": got, "self_time": breakdown}, fh, indent=1)
        for name, b in sorted(breakdown.items()):
            print("span %-20s %7d spans  total %12.1f us  self %12.1f us"
                  % (name, b["spans"], b["total_us"], b["self_us"]))
        for name, v in got.items():
            print("%-32s %14.6g %-14s [%s]" % (name, v["value"], v["unit"], v["base"]))
        print("trace " + res["trace_file"])

    metrics = {}
    for w in wanted:
        if w["name"] not in got:
            fail("metric %s missing from the %s results" % (w["name"], a.workload))
        if got[w["name"]]["unit"] != w["unit"]:
            fail("metric %s is in %s, BENCHMARK.json says %s"
                 % (w["name"], got[w["name"]]["unit"], w["unit"]))
        metrics[w["name"]] = {"value": got[w["name"]]["value"], "unit": w["unit"]}
    print(json.dumps({"correct": bool(res["correct"]), "attempted": int(res["attempted"]),
                      "failed": int(res["failed"]), "metrics": metrics}))


if __name__ == "__main__":
    main()
