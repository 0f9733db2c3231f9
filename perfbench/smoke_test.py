#!/usr/bin/env python3
"""Smoke test for perfbench/run.py: tiny inputs, every workload once, plus
one traced run. Checks each result line against BENCHMARK.json, and checks
that a directory holding only BENCHMARK.json and perfbench/ fails cleanly.

    python3 perfbench/smoke_test.py      # from the root of a checkout
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402


def result_line(cmd, cwd):
    r = subprocess.run(cmd, cwd=cwd, stdin=subprocess.DEVNULL,
                       capture_output=True, text=True, timeout=900)
    lines = r.stdout.strip().splitlines()
    return r.returncode, (json.loads(lines[-1]) if lines else None), r.stderr


def check_result(label, code, doc, err, expected_metrics):
    problems = []
    if code != 0 or doc is None:
        problems.append("exit %d, stderr tail: %s" % (code, err[-800:]))
        return problems
    if set(doc) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys %s" % sorted(doc))
    if doc.get("correct") is not True or doc.get("failed") != 0:
        problems.append("not correct: %s; stderr tail: %s"
                        % (json.dumps(doc)[:300], err[-800:]))
    if not isinstance(doc.get("attempted"), int) or doc["attempted"] < 1:
        problems.append("attempted = %r" % doc.get("attempted"))
    got = {n: m.get("unit") for n, m in doc.get("metrics", {}).items()}
    if got != expected_metrics:
        problems.append("metrics %s, expected %s" % (got, expected_metrics))
    for name, m in doc.get("metrics", {}).items():
        if not isinstance(m.get("value"), (int, float)):
            problems.append("%s has no numeric value" % name)
    return ["%s: %s" % (label, p) for p in problems]


def main():
    problems = []
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if bench != run.benchmark_json():
        problems.append("BENCHMARK.json is stale: run "
                        "`python3 perfbench/run.py --write-benchmark-json`")
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    base = [sys.executable, os.path.join(HERE, "run.py"), "--tiny",
            "--seed", "3", "--seconds", "1"]

    for w in bench["workloads"]:
        code, doc, err = result_line(
            base + ["--workload", w["name"], "--trace", "0"], ROOT)
        problems += check_result(w["name"], code, doc, err, e2e)
    code, doc, err = result_line(
        base + ["--workload", "check_cold", "--trace", "1"], ROOT)
    problems += check_result("trace", code, doc, err, layers)

    # Without the RustSight sources beside it, the benchmark must fail
    # without printing a result.
    bare = os.path.join(ROOT, ".bench_work", "smoke_bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    r = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                        "serve_edit", "--seed", "1", "--seconds", "1", "--trace",
                        "0"], cwd=bare, stdin=subprocess.DEVNULL,
                       capture_output=True, text=True, timeout=180)
    if r.returncode == 0 or r.stdout.strip():
        problems.append("bare directory: exit %d, stdout %r"
                        % (r.returncode, r.stdout[-200:]))
    shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print("FAIL", p)
    print("smoke test: %s" % ("FAILED" if problems else "OK"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
