#!/usr/bin/env python3
"""Self-test of the host-cost benchmark.

For every workload (or the ones named on the command line) it checks that

  * two runs print the same sim_stats_digest, and so do runs with 1 and
    with nproc worker threads;
  * every run is correct, with no failed operation;
  * the traced run reports identical counts (trace_counts_identical=true);
  * the JSON metrics are exactly the ones BENCHMARK.json lists;
  * run.py fails, without a result, when the simulator sources are absent.

Usage, from the root of a checkout:

    python3 hostbench/test_hostbench.py [workload ...]
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark's own build helper)


def bench(binary, workload, jobs, trace):
    """Runs one shortest (single-round) benchmark pass."""
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", "7", "--seconds", "0.01",
         "--trace", trace, "--jobs", str(jobs)],
        capture_output=True, text=True, check=True).stdout.splitlines()
    fields = dict(line.split("=", 1) for line in out
                  if line.startswith(("sim_stats_digest=",
                                      "trace_counts_identical=")))
    return fields, json.loads(out[-1])


def check_sources_required():
    """A directory holding only the benchmark must fail without a result."""
    bare = os.path.join(ROOT, ".bench_build", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "hostbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "hostbench/run.py", "--workload", "paper_flat",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    assert out.returncode != 0, "run.py succeeded without sources"
    assert "{" not in out.stdout, "run.py printed a result without sources"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = sys.argv[1:] or [w["name"] for w in spec["workloads"]]
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    binary = run.build()
    nproc = run.worker_count()

    for workload in names:
        runs = [bench(binary, workload, nproc, "0"),
                bench(binary, workload, nproc, "0"),
                bench(binary, workload, 1, "0")]
        traced = bench(binary, workload, nproc, "1")
        digests = {fields["sim_stats_digest"] for fields, _ in runs}
        digests.add(traced[0]["sim_stats_digest"])
        assert len(digests) == 1, f"{workload}: digests differ: {digests}"
        assert traced[0]["trace_counts_identical"] == "true", workload
        for _, result in runs + [traced]:
            assert result["correct"] and result["failed"] == 0, \
                f"{workload}: {result}"
        for _, result in runs:
            assert set(result["metrics"]) == end_to_end, workload
        assert set(traced[1]["metrics"]) == per_layer, workload
        print(f"ok {workload} digest={digests.pop()}")

    check_sources_required()
    print("ok run.py refuses a checkout without sources")


if __name__ == "__main__":
    main()
