#!/usr/bin/env python3
"""Smoke checks of the benchmark itself, on tiny inputs (about a minute).

Usage, from the root of the repository:

    python3 perfbench/smoke.py

Checks, for every workload in BENCHMARK.json and for http_mix (which runs
by hand only: its runs spread too widely on a shared host to be gated):
  - BENCHMARK.json keeps the limits the benchmark contract sets;
  - an untraced run prints exactly the end-to-end metrics, and a traced run
    exactly the per-layer metrics, each with the unit BENCHMARK.json gives,
    and both runs are correct with a failure count of 0;
  - a run against deliberately corrupted references counts every result as
    failed, so the correctness check cannot pass silently;
  - the traced run writes parseable spans with name, id, parent, request,
    start_us and end_us.
Exits non-zero on the first failed check.
"""

import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
# The layers http_mix's traced run prints after BENCHMARK.json's per_layer.
HTTP_MIX_LAYERS = [
    {"name": name, "unit": unit} for name, unit in [
        ("service.queue_wait_ms_p50", "ms"),
        ("service.queue_wait_ms_tail", "ms"),
        ("service.run_ms_p50", "ms"),
        ("service.plan_cache_hit_ratio", "ratio"),
        ("service.rejected", "count"),
        ("net.submit_ms", "ms"),
        ("net.result_fetch_ms", "ms"),
        ("net.result_kb", "KB"),
        ("net.put_relation_ms", "ms"),
        ("net.status_polls_per_request", "count"),
        ("stream.jobs_reused", "count"),
        ("stream.reuse_ratio", "ratio"),
        ("generator.lag_ms_max", "ms"),
    ]]


def fail(message):
    print("smoke: FAIL: " + message, file=sys.stderr)
    sys.exit(1)


def check_benchmark_json(bench):
    if len(bench["workloads"]) < 2 or len(bench["workloads"]) > 8:
        fail("2 to 8 workloads")
    if not 1 <= bench["run_seconds"] <= 60:
        fail("run_seconds out of range")
    names = set()
    for item in bench["workloads"] + bench["end_to_end"] + bench["per_layer"]:
        if not NAME.match(item["name"]) or item["name"] in names:
            fail("bad or repeated name %r" % item["name"])
        names.add(item["name"])
    for w in bench["workloads"]:
        if len(w["why"]) > 200 or "\n" in w["why"]:
            fail("why of %s too long" % w["name"])
    for m in bench["end_to_end"] + bench["per_layer"]:
        if not UNIT.match(m["unit"]) or m["better"] not in ("higher", "lower"):
            fail("bad unit or direction for %s" % m["name"])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    if bounds.get("setup_s") is None or max(bounds.values()) > 0.25:
        fail("bounds: setup_s required, every bound at most 0.25")
    if bounds["setup_s"] < max(bounds.values()):
        fail("setup_s must have the largest bound")


def run(workload, trace, extra=()):
    command = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
               "--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", str(trace), "--small"] + list(extra)
    out = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True, timeout=600)
    if out.returncode != 0:
        fail("%s exited %d:\n%s" % (" ".join(command), out.returncode,
                                    out.stderr[-2000:]))
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("result keys %s" % sorted(result))
    if result["attempted"] < 1:
        fail("%s: nothing attempted" % workload)
    return result


def check_metrics(workload, result, expected):
    got = result["metrics"]
    if sorted(got) != sorted(m["name"] for m in expected):
        fail("%s: metrics %s, expected %s" % (
            workload, sorted(got), sorted(m["name"] for m in expected)))
    for m in expected:
        if got[m["name"]]["unit"] != m["unit"]:
            fail("%s: %s unit %r" % (workload, m["name"], got[m["name"]]["unit"]))
        if not isinstance(got[m["name"]]["value"], (int, float)):
            fail("%s: %s has no numeric value" % (workload, m["name"]))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    check_benchmark_json(bench)
    for workload in [w["name"] for w in bench["workloads"]] + ["http_mix"]:
        plain = run(workload, 0)
        if not plain["correct"] or plain["failed"] != 0:
            fail("%s: untraced run not correct: %s" % (workload, plain))
        check_metrics(workload, plain, bench["end_to_end"])

        traced = run(workload, 1)
        if not traced["correct"] or traced["failed"] != 0:
            fail("%s: traced run not correct: %s" % (workload, traced))
        check_metrics(workload, traced, bench["per_layer"] + (
            HTTP_MIX_LAYERS if workload == "http_mix" else []))
        spans_path = os.path.join(ROOT, "build-perfbench",
                                  "spans-%s-seed7.json" % workload)
        with open(spans_path) as f:
            spans = json.load(f)
        if not spans:
            fail("%s: no spans written" % workload)
        for span in spans:
            if sorted(span) != ["end_us", "id", "name", "parent", "request",
                                "start_us"] or span["end_us"] < span["start_us"]:
                fail("%s: malformed span %s" % (workload, span))

        corrupted = run(workload, 0, ["--corrupt-reference"])
        if corrupted["correct"] or corrupted["failed"] != corrupted["attempted"]:
            fail("%s: corrupted references did not fail every result: %s" %
                 (workload, {k: corrupted[k] for k in
                             ("correct", "attempted", "failed")}))
        print("smoke: %s ok (%d spans; corrupted run failed %d/%d)" % (
            workload, len(spans), corrupted["failed"], corrupted["attempted"]))
    print("smoke: all checks passed")


if __name__ == "__main__":
    main()
