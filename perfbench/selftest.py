#!/usr/bin/env python3
"""Reduced-size self-test of the benchmark.

    python3 perfbench/selftest.py

Run it from the repository root.  It runs every workload of BENCHMARK.json
at a small scale, untraced and traced, and checks that each result is
correct, fails no operation and reports exactly the declared metrics with
their units.  Two negative cases must fail: a deliberately mismatched
placement checksum must be reported as failed operations, and a directory
holding only the benchmark (no library sources) must exit non-zero without
a result.  Exits non-zero on the first broken expectation.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
SCALE = "0.05"


def bench(workload, trace, *extra, cwd=ROOT, run=RUN):
    cmd = [sys.executable, run, "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--scale", SCALE, *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def result(proc):
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def expect(cond, what):
    if not cond:
        raise AssertionError(what)


def check_metrics(res, declared, label):
    expect(set(res) == {"correct", "attempted", "failed", "metrics"},
           f"{label}: result keys {sorted(res)}")
    got = res["metrics"]
    expect(set(got) == set(declared),
           f"{label}: metrics differ: {sorted(set(got) ^ set(declared))}")
    for name, unit in declared.items():
        expect(got[name]["unit"] == unit, f"{label}: {name} unit")
        expect(isinstance(got[name]["value"], (int, float)),
               f"{label}: {name} value")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}

    for w in (w["name"] for w in spec["workloads"]):
        res = result(bench(w, 0))
        check_metrics(res, e2e, w)
        expect(res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
               f"{w}: checks failed: {res}")
        expect(all(m["value"] > 0 for m in res["metrics"].values()),
               f"{w}: an end-to-end metric is 0")

        res = result(bench(w, 1))
        check_metrics(res, layers, f"{w} traced")
        expect(res["correct"] and res["failed"] == 0,
               f"{w} traced: checks failed")
        m = {k: v["value"] for k, v in res["metrics"].items()}
        expect(m["sched.callbacks"] > 0 and m["timeline.commits"] > 0,
               f"{w} traced: scheduler layers not reached")
        # Every admitted job leaves at least an arrival, a commit and a
        # completion record; a stream adds two frames, Hello and End.
        expect(m["serve.sink_records"] >= 2 * m["serve.frames"] > 0,
               f"{w} traced: frames vs sink records")
        if w == "mris-batch":
            expect(m["knapsack.solves"] > 0 and m["sched.wakeups"] > 0,
                   f"{w} traced: knapsack layer not reached")
        if w == "serve-durable":
            expect(m["journal.fsyncs"] > 0 and m["journal.records"] > 0,
                   f"{w} traced: durability layer not reached")
        print(f"ok   {w}", flush=True)

    res = result(bench("serve-durable", 0, "--corrupt-checksum", "1"))
    expect(not res["correct"] and res["failed"] > 0,
           f"mismatched checksum not reported: {res}")
    print("ok   mismatched checksum is reported as failed operations")

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = bench("mris-batch", 0, cwd=bare,
                 run=os.path.join(bare, "perfbench", "run.py"))
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "a checkout without sources must fail without a result")
    print("ok   a directory without library sources exits non-zero")
    return 0


if __name__ == "__main__":
    sys.exit(main())
