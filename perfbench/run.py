"""The repo benchmark: one workload, measured in fresh interpreters.

Run from the root of a checkout::

    python3 perfbench/run.py --workload live-wide --seed 7 --seconds 30 --trace 0

Workloads are ``live-wide``, ``live-deep``, ``engine-batch`` and
``cluster-2`` (see ``perfbench/workloads.py`` for what each stresses).
This process only orchestrates: it starts ``perfbench/child.py`` once per
sample, one at a time, each in a fresh interpreter with BLAS pinned to
one thread.  ``MIN_CHILDREN`` samples share ``--seconds``: each sets up,
then repeats the workload until its share is used, so most of the run
is measured while set-up is still sampled several times.  One more
child then checks the verdicts against a reference computed on another
code path.  Children run one at a time, so cluster-2's two shards have
the host's two cores to themselves.

The last stdout line is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones: throughputs are
medians over the run's repetitions, latency quantiles are taken over
every verdict of every repetition, set-up time and memory are medians
over the samples.  Every end-to-end time is given at the reference host
speed: a shared host runs the same code up to 2x slower for minutes at
a time, so each child times a fixed task (``child.reference_ms``)
before and after every repetition, and the repetition's times are
scaled by ``REFERENCE_MS`` over the mean of the two.  The program
cannot change that task, so a change that makes the program slower or
faster moves the scaled times just as it moves the raw ones.  With
``--trace 1`` the metrics are the per-layer ones, as measured, taken
from the traced repetition with the median wall time (so its self
times add up to its wall time).  The line before it holds the details:
the end-to-end metrics as measured (unscaled), host fingerprint, the
reference task's times, sample counts, every sample, hooks that were
missing.

Correctness is checked outside the timed interval.  Every repetition's
verdict bytes (``live-replay --verdicts`` / ``assess-fleet --verdicts``
format) must be identical, must match the digest pinned in
``perfbench/digests.json`` when the seed has one, and must agree with
the reference: the offline engine for the live workloads, the per-item
engine for engine-batch, the offline engine and a single-process live
replay for cluster-2.  A seed without a pinned digest is a held-out
seed: it is judged by those parity checks alone.  Any wrong item counts
as failed and makes the command exit 1.  ``--pin`` records the digest
of a correct run.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DIGESTS = os.path.join(HERE, "digests.json")
WORKLOADS = ("live-wide", "live-deep", "engine-batch", "cluster-2")
ROOT_SPANS = {"live-wide": "live.replay.driver",
              "live-deep": "live.replay.driver",
              "engine-batch": "engine.assess",
              "cluster-2": "cluster.replay"}
MIN_CHILDREN = 3
MAX_CHILDREN = 30
CHILD_TIMEOUT_S = 150.0
#: The reference task's time at the reference host speed: its median on
#: the 2-CPU host the bounds were set on.  A constant, so that two
#: commits' figures compare; its value only sets the figures' scale.
REFERENCE_MS = 13.0

END_TO_END = {"fragments_per_s": "1/s", "items_per_s": "1/s",
              "verdict_latency_ms_p50": "ms", "verdict_latency_ms_p90": "ms",
              "setup_s": "s", "peak_rss_mb": "MiB"}

#: name -> unit of every per-layer metric.  ``<span>.self_s`` is the
#: span's duration minus its child spans', ``<span>.calls`` its count;
#: the rest are counts the wrappers record or values the run reports.
PER_LAYER = {
    "telemetry.timeseries.build.self_s": "s",
    "telemetry.timeseries.build.calls": "count",
    "telemetry.store.append_batch.self_s": "s",
    "telemetry.store.append_batch.calls": "count",
    "telemetry.store.append_batch.fragments": "count",
    "telemetry.store.fanout_share": "share",
    "live.queues.offer.self_s": "s",
    "live.queues.offer.calls": "count",
    "live.queues.shed": "count",
    "live.queues.peak_depth": "count",
    "live.watcher.poll.self_s": "s",
    "live.watcher.poll.calls": "count",
    "live.watcher.poll.sessions": "count",
    "live.assessor.on_fragment.self_s": "s",
    "live.assessor.on_fragment.calls": "count",
    "live.detector.extend.self_s": "s",
    "live.detector.extend.calls": "count",
    "live.assessor.pool_score.self_s": "s",
    "live.assessor.pool_score.calls": "count",
    "live.pool.score_pending.self_s": "s",
    "live.pool.score_pending.series": "count",
    "live.pool.mean_batch": "ratio",
    "live.detector.scan.self_s": "s",
    "live.detector.scan.calls": "count",
    "core.ika.scores_batch.self_s": "s",
    "core.ika.scores_batch.calls": "count",
    "core.ika.scores_batch.rows": "count",
    "core.ika.scores_batch.points": "count",
    "core.ika.einsum.self_s": "s",
    "core.ika.eigh.self_s": "s",
    "core.scoring.robust_normalise_batch.self_s": "s",
    "core.scoring.declare_changes.self_s": "s",
    "core.funnel.detect_batch.self_s": "s",
    "core.funnel.detect_batch.rows": "count",
    "live.assessor.close_session.self_s": "s",
    "live.assessor.close_session.calls": "count",
    "core.did.fit.self_s": "s",
    "core.did.fit.calls": "count",
    "live.bus.publish.self_s": "s",
    "live.bus.publish.calls": "count",
    "live.scheduler.tick.self_s": "s",
    "live.scheduler.tick.calls": "count",
    "live.replay.driver.self_s": "s",
    "engine.executor.execute_jobs.self_s": "s",
    "engine.fleet.fetch.self_s": "s",
    "engine.fleet.fetch.calls": "count",
    "engine.fleet.history.self_s": "s",
    "engine.fleet.history.calls": "count",
    "engine.fleet.plan_jobs.self_s": "s",
    "engine.fleet.observed_series.self_s": "s",
    "cluster.routing.plan_shards.self_s": "s",
    "cluster.supervisor.run.wall_s": "s",
    "cluster.shard_cpu_s.max": "s",
    "cluster.shard_cpu_s.mean": "s",
    "cluster.shard_imbalance": "ratio",
    "cluster.replication_share": "share",
    "cluster.merge_s": "s",
    "live.checkpoint.bytes": "bytes",
    "live.checkpoint.files": "count",
    "cluster.restarts": "count",
    "cluster.duplicate_verdicts": "count",
    "trace.overhead_share": "share",
    "trace.unattributed_share": "share",
    "failed_share": "share",
}


def fail(message):
    sys.stderr.write("perfbench: %s\n" % message)
    sys.exit(2)


def child_env(workdir):
    env = dict(os.environ)
    env.update({"PYTHONPATH": os.path.join(ROOT, "src"),
                "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0",
                "TMPDIR": workdir})
    return env


def run_child(argv, env, timeout):
    """Run one child to completion; returns its last stdout JSON line."""
    started = time.monotonic()
    process = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py")] + argv
        + ["--t0", repr(started)],
        stdout=subprocess.PIPE, env=env, cwd=ROOT, start_new_session=True)
    try:
        out, _ = process.communicate(timeout=timeout)
    except BaseException:
        # The child's session also holds any shard it forked.
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        raise
    if process.returncode != 0:
        fail("child %s exited with %d" % (argv[0], process.returncode))
    lines = out.decode("utf-8").strip().splitlines()
    if not lines:
        fail("child %s printed nothing" % argv[0])
    return json.loads(lines[-1]), time.monotonic() - started


def p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(samples, scaled=True):
    """The end-to-end metrics; ``scaled`` gives times at the reference
    host speed (see the module docstring), else as measured."""
    def scale(host_ms):
        return REFERENCE_MS / host_ms if scaled else 1.0

    reps = [rep for sample in samples for rep in sample["reps"]
            if "table" not in rep]
    # One host-speed phase can stretch a repetition's few close ticks
    # together, so quantiles over the whole run's verdicts are steadier
    # than a median of per-repetition quantiles.
    latencies = [value * 1000.0 * scale(rep["host_ms"]) for rep in reps
                 for value in rep["latencies_s"]]
    walls = [rep["wall_s"] * scale(rep["host_ms"]) for rep in reps]
    return {
        "fragments_per_s": statistics.median(
            rep["fragments"] / wall for rep, wall in zip(reps, walls)),
        "items_per_s": statistics.median(
            rep["items"] / wall for rep, wall in zip(reps, walls)),
        "verdict_latency_ms_p50": statistics.median(latencies),
        "verdict_latency_ms_p90": p90(latencies),
        "setup_s": statistics.median(
            sample["setup_s"] * scale(sample["setup_host_ms"])
            for sample in samples),
        # cluster-2 adds what its shards grew beyond the pages they
        # share with the parent: they run beside it.
        "peak_rss_mb": statistics.median(
            sample["peak_rss_mb"] + max(rep.get("shard_growth_mb", 0.0)
                                        for rep in sample["reps"])
            for sample in samples),
    }


def per_layer(workload, samples, failed_share):
    """Per-layer metrics from the traced repetition of median wall."""
    reps = [rep for sample in samples for rep in sample["reps"]]
    traced = sorted((rep for rep in reps if "table" in rep),
                    key=lambda rep: rep["wall_s"])
    plain = [rep["wall_s"] for rep in reps if "table" not in rep]
    rep = traced[(len(traced) - 1) // 2]
    stats, counts = {}, {}
    for table in [rep["table"]] + rep.get("shard_tables", []):
        for name, entry in table["stats"].items():
            total = stats.setdefault(name, [0.0, 0, 0.0])
            for index, value in enumerate(entry):
                total[index] += value
        for name, value in table["counts"].items():
            counts[name] = counts.get(name, 0) + value
    root_self, _, root_wall = rep["table"]["stats"][ROOT_SPANS[workload]]
    fragments = counts.get("telemetry.store.append_batch.fragments", 0)
    batches = counts.get("live.pool.batches", 0)
    derived = dict(rep["layers"])
    derived.update({
        "telemetry.store.fanout_share": (
            stats.get("live.queues.offer", [0, 0])[1] / fragments
            if fragments else 0.0),
        "live.pool.mean_batch": (
            counts.get("live.pool.score_pending.series", 0) / batches
            if batches else 0.0),
        "trace.overhead_share": (statistics.median(
            traced_rep["wall_s"] for traced_rep in traced)
            / statistics.median(plain) - 1.0),
        "trace.unattributed_share": root_self / root_wall,
        "failed_share": failed_share,
    })
    fields = {"self_s": 0, "calls": 1, "wall_s": 2}
    metrics = {}
    for name in PER_LAYER:
        span, _, field = name.rpartition(".")
        if name in derived:
            value = derived[name]
        elif name in counts:
            value = counts[name]
        elif field in fields:
            value = stats.get(span, [0.0, 0, 0.0])[fields[field]]
        else:
            value = 0
        metrics[name] = value
    check = {"root": ROOT_SPANS[workload], "wall_s": root_wall,
             "self_sum_s": sum(entry[0] for entry
                               in rep["table"]["stats"].values())}
    return metrics, check


def judge(samples, checked, pinned):
    """``(attempted, failed)`` over every repetition the run made.

    A repetition whose bytes differ from the kept sample, or any
    repetition when the kept sample misses the pinned digest, fails
    whole; otherwise it carries the checker's item-level failures.
    """
    expected = checked["expected"]
    kept = samples[0]["reps"][0]["digest"]
    whole = pinned is not None and kept != pinned
    attempted = failed = 0
    for sample in samples:
        for rep in [sample["warmup"]] + sample["reps"]:
            attempted += expected
            if whole or rep["digest"] != kept:
                failed += expected
            else:
                failed += min(checked["failed"], expected)
    return attempted, failed


def collect(args, workdir):
    """Plan, measure and check one run; returns the children's documents."""
    env = child_env(workdir)
    common = ["--workload", args.workload, "--shape", args.shape,
              "--workdir", workdir]
    planned, _ = run_child(["plan", "--seed", str(args.seed)] + common,
                           env, CHILD_TIMEOUT_S)
    common += ["--seed", str(planned["scenario_seed"]),
               "--budget", repr(args.seconds / MIN_CHILDREN),
               "--trace", str(args.trace)]
    started = time.monotonic()
    samples, durations = [], []
    while len(samples) < MAX_CHILDREN and (
            len(samples) < MIN_CHILDREN
            or time.monotonic() + statistics.median(durations)
            <= started + args.seconds):
        keep = os.path.join(workdir, "kept-%d.jsonl" % len(samples))
        sample, duration = run_child(["measure", "--keep", keep] + common,
                                     env, CHILD_TIMEOUT_S)
        samples.append(sample)
        durations.append(duration)
    checked, _ = run_child(
        ["check", "--keep", os.path.join(workdir, "kept-0.jsonl")] + common,
        env, CHILD_TIMEOUT_S)
    return planned, samples, checked


def describe(args, planned, samples, checked, pinned, failed_share):
    """The detail line: what was run, on what host, and every sample."""
    def rep_doc(rep):
        latencies = [value * 1000.0 for value in rep["latencies_s"]]
        return {"wall_s": rep["wall_s"], "host_ms": rep.get("host_ms"),
                "traced": "table" in rep,
                "fragments": rep["fragments"], "items": rep["items"],
                "latency_ms_p50": statistics.median(latencies),
                "latency_ms_p90": p90(latencies), "digest": rep["digest"]}

    return {
        "workload": args.workload, "seed": args.seed,
        "scenario_seed": planned["scenario_seed"], "shape": args.shape,
        "trace": args.trace, "fingerprint": samples[0]["fingerprint"],
        "digest": samples[0]["reps"][0]["digest"], "pinned": pinned,
        "reference_digest": checked["reference_digest"],
        "reference_ms": REFERENCE_MS,
        "host_ms": statistics.median(
            rep["host_ms"] for sample in samples for rep in sample["reps"]),
        "children": len(samples),
        "repetitions": sum(len(sample["reps"]) for sample in samples),
        "verdicts_per_repetition": checked["expected"],
        "latency_samples": sum(len(rep["latencies_s"])
                               for sample in samples
                               for rep in sample["reps"]
                               if "table" not in rep),
        "failed_share": failed_share,
        "missing_hooks": sorted({name for sample in samples
                                 for name in sample["missing"]}),
        "samples": [{"setup_s": sample["setup_s"],
                     "peak_rss_mb": sample["peak_rss_mb"],
                     "setup_host_ms": sample["setup_host_ms"],
                     "warmup": rep_doc(sample["warmup"]),
                     "reps": [rep_doc(rep) for rep in sample["reps"]]}
                    for sample in samples],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--shape", choices=("full", "tiny"), default="full",
                        help="tiny = the smoke test's scenario sizes")
    parser.add_argument("--pin", action="store_true",
                        help="record this seed's digest if the run is "
                             "correct")
    args = parser.parse_args(argv)
    # A terminated run still stops its child and removes its files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        fail("no program to measure: %s/src/repro is missing" % ROOT)
    with open(DIGESTS, encoding="utf-8") as fh:
        digests = json.load(fh)
    pinned = digests.get(args.shape, {}).get(args.workload, {}).get(
        str(args.seed))

    workdir = os.path.join(ROOT, ".perfbench_work", "%s-%d-%d" % (
        args.workload, args.seed, os.getpid()))
    os.makedirs(workdir)
    try:
        planned, samples, checked = collect(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = judge(samples, checked, pinned)
    detail = describe(args, planned, samples, checked, pinned,
                      failed / attempted)
    if args.trace:
        values, detail["trace_check"] = per_layer(
            args.workload, samples, failed / attempted)
        units = PER_LAYER
    else:
        values, units = end_to_end(samples), END_TO_END
        detail["as_measured"] = end_to_end(samples, scaled=False)
    correct = failed == 0
    if args.pin and correct:
        digests.setdefault(args.shape, {}).setdefault(
            args.workload, {})[str(args.seed)] = detail["digest"]
        with open(DIGESTS, "w", encoding="utf-8") as fh:
            json.dump(digests, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(json.dumps(detail))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
