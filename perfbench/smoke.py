"""Smoke test of the benchmark itself, on tiny scenarios.

Run from the root of a checkout (takes about a minute)::

    python3 perfbench/smoke.py

It checks that:

* ``BENCHMARK.json`` names exactly the metrics ``run.py`` prints, with
  the same units;
* every workload prints every end-to-end metric (``--trace 0``) and
  every per-layer metric (``--trace 1``) with its unit, and is correct;
* the self times of the traced repetition add up to its wall time;
* the verdict bytes the benchmark digests are the bytes the CLI writes
  (``live-replay --verdicts``, ``assess-fleet --verdicts``);
* a corrupted pinned digest makes the command fail;
* without the program next to it, the command fails without a result.

Exits 1 at the first failed check.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work", "smoke-%d" % os.getpid())
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402


def check(condition, message):
    if not condition:
        sys.stderr.write("smoke: FAILED: %s\n" % message)
        sys.exit(1)
    print("ok  %s" % message)


def bench(workload, trace, *extra, root=ROOT):
    """Run the benchmark of the checkout at ``root``; returns
    (exit code, detail line, result line)."""
    argv = [sys.executable, os.path.join(root, "perfbench", "run.py"),
            "--workload", workload, "--seed", "3", "--seconds", "1",
            "--trace", str(trace), "--shape", "tiny"] + list(extra)
    done = subprocess.run(argv, cwd=root, stdout=subprocess.PIPE,
                          timeout=300)
    lines = done.stdout.decode("utf-8").strip().splitlines()
    parsed = [json.loads(line) for line in lines[-2:]]
    return (done.returncode,) + tuple([None] * (2 - len(parsed)) + parsed)


def copy_checkout(name, program=True):
    """A checkout under ``WORK`` whose files a check may edit: the
    benchmark, ``BENCHMARK.json`` and, with ``program``, ``src/``."""
    root = os.path.join(WORK, name)
    skip = shutil.ignore_patterns("__pycache__")
    shutil.copytree(HERE, os.path.join(root, "perfbench"), ignore=skip)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), root)
    if program:
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(root, "src"),
                        ignore=skip)
    return root


def check_declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    for key, table in (("end_to_end", run.END_TO_END),
                       ("per_layer", run.PER_LAYER)):
        names = {entry["name"]: entry["unit"] for entry in declared[key]}
        check(names == table, "BENCHMARK.json %s matches run.py" % key)
    check([entry["name"] for entry in declared["workloads"]]
          == list(run.WORKLOADS), "BENCHMARK.json workloads match run.py")


def check_workloads():
    for workload in run.WORKLOADS:
        for trace, table in ((0, run.END_TO_END), (1, run.PER_LAYER)):
            code, detail, result = bench(workload, trace)
            check(code == 0 and result["correct"] and result["failed"] == 0
                  and result["attempted"] > 0,
                  "%s --trace %d runs correct" % (workload, trace))
            metrics = result["metrics"]
            check(set(metrics) == set(table) and all(
                metrics[name]["unit"] == unit
                and isinstance(metrics[name]["value"], (int, float))
                for name, unit in table.items()),
                "%s --trace %d prints every metric with its unit"
                % (workload, trace))
            if trace:
                sums = detail["trace_check"]
                check(abs(sums["self_sum_s"] - sums["wall_s"])
                      <= 1e-9 * max(1.0, sums["wall_s"]),
                      "%s self times sum to the traced wall time"
                      % workload)
                check(not detail["missing_hooks"],
                      "%s finds every layer it wraps" % workload)


def check_cli_bytes():
    import workloads
    from repro.engine import (AssessmentEngine, EngineConfig,
                              FleetScenarioSpec, SyntheticFleetSource)
    from repro.live import replay_scenario

    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    spec = workloads.scenario("live-wide", 3, "tiny")
    path = os.path.join(WORK, "cli-live.jsonl")
    subprocess.run(
        [sys.executable, "-m", "repro", "live-replay",
         "--services", str(spec.n_services),
         "--servers", str(spec.n_servers), "--changes", str(spec.n_changes),
         "--history-days", "1", "--window-bins", "120",
         "--change-offset", "60", "--flush-bins", str(workloads.FLUSH_BINS),
         "--score-chunk", "8", "--pooled-scoring", "--seed", "3",
         "--verdicts", path], env=env, check=True,
        stdout=subprocess.DEVNULL)
    report = replay_scenario(spec, live_config=workloads.live_config(spec),
                             flush_bins=workloads.FLUSH_BINS)
    with open(path, "rb") as fh:
        check(fh.read() == workloads.live_jsonl(
            report.verdicts, os.path.join(WORK, "live.jsonl")),
            "live verdict bytes are live-replay --verdicts bytes")

    path = os.path.join(WORK, "cli-engine.jsonl")
    subprocess.run(
        [sys.executable, "-m", "repro", "assess-fleet", "--services", "2",
         "--servers", "8", "--changes", "2", "--history-days", "1",
         "--seed", "3", "--detectors", "funnel", "--detect-mode", "batched",
         "--verdicts", path], env=env, check=True,
        stdout=subprocess.DEVNULL)
    engine = AssessmentEngine(detectors=("funnel",), config=EngineConfig(
        **workloads.knobs(EngineConfig, detect_mode="batched")))
    _, jobs, results = engine.assess_fleet_detailed(SyntheticFleetSource(
        FleetScenarioSpec(n_services=2, n_servers=8, n_changes=2,
                          history_days=1, seed=3)))
    with open(path, "rb") as fh:
        check(fh.read() == workloads.engine_jsonl(jobs, results),
              "engine verdict bytes are assess-fleet --verdicts bytes")


def check_pinned_digest():
    root = copy_checkout("pin")
    digests = os.path.join(root, "perfbench", "digests.json")
    with open(digests, "w", encoding="utf-8") as fh:
        fh.write("{}\n")
    code, detail, _ = bench("live-deep", 0, "--pin", root=root)
    check(code == 0 and detail["pinned"] is None,
          "an unpinned (held-out) seed is judged by parity alone")
    with open(digests, encoding="utf-8") as fh:
        pinned = json.load(fh)
    digest = pinned["tiny"]["live-deep"]["3"]
    code, detail, result = bench("live-deep", 0, root=root)
    check(code == 0 and detail["pinned"] == digest and result["correct"],
          "the pinned digest is checked and holds")
    pinned["tiny"]["live-deep"]["3"] = digest[::-1]
    with open(digests, "w", encoding="utf-8") as fh:
        json.dump(pinned, fh)
    code, _, result = bench("live-deep", 0, root=root)
    check(code != 0 and result is not None and not result["correct"]
          and result["failed"] == result["attempted"],
          "a corrupted pinned digest fails the command")


def check_without_program():
    code, _, result = bench("live-deep", 0,
                            root=copy_checkout("bare", program=False))
    check(code != 0 and result is None,
          "without src/ the command fails and prints no result")


def main():
    os.makedirs(WORK)
    try:
        check_declared_metrics()
        check_cli_bytes()
        check_pinned_digest()
        check_without_program()
        check_workloads()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print("smoke: all checks passed")


if __name__ == "__main__":
    main()
