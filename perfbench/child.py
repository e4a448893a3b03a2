"""One fresh interpreter of the benchmark: measure a workload, or check it.

``run.py`` starts this script once per sample, one at a time, with BLAS
pinned to one thread and ``PYTHONPATH`` set to the checkout's ``src``.
It prints one JSON document as its last stdout line.

Roles:

* ``plan`` -- map the benchmark seed to the scenario seed every other
  child of the run uses (:func:`workloads.scenario_seed`).
* ``measure`` -- set up, run one warm-up repetition (part of set-up:
  lazy imports and allocator growth a long-running service pays once),
  then measured repetitions until ``--budget`` seconds after the child
  was started are used (at least ``MIN_REPS``).  With ``--trace 1`` the
  repetitions alternate untraced and traced, so the tracing overhead is
  measured in the same process.  The first measured repetition's verdict
  bytes are kept for the checker.  Before the first measured repetition
  and after each one, a fixed task times the host's speed
  (:func:`reference_ms`), outside every measured interval.
* ``check`` -- compute the workload's reference on another code path and
  count the wrong items in the kept verdict bytes.
"""

import argparse
import json
import os
import platform
import sys
import time

#: Measured repetitions a child makes however short its budget: with
#: ``--trace 1`` one untraced and one traced.
MIN_REPS = 2


def blas_info():
    """BLAS name, version and its live thread count (None if unknown)."""
    import ctypes
    import numpy

    info = {"name": None, "version": None, "threads": None}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (TypeError, KeyError):
        pass
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libraries = sorted({line.split()[-1] for line in fh
                                if "openblas" in line.lower()
                                and ".so" in line})
    except OSError:
        libraries = []
    for library in libraries:
        try:
            handle = ctypes.CDLL(library)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            query = getattr(handle, symbol, None)
            if query is not None:
                query.restype = ctypes.c_int
                info["threads"] = int(query())
                return info
    return info


def fingerprint():
    import numpy
    return {"cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas": blas_info()}


def reference_ms(matrix):
    """Milliseconds this host takes for a fixed pure-Python and NumPy task.

    The same work on every host, run and commit, about 13 ms: timed
    next to each measured repetition, it tells how fast the host ran
    just then.  A shared host's speed drifts by up to 2x over minutes,
    much more than the bound on any timing metric.
    """
    import numpy

    start = time.perf_counter()
    total = 0
    for value in range(150000):
        total += value * value
    for _ in range(10):
        numpy.linalg.eigh(matrix @ matrix.T)
    return (time.perf_counter() - start) * 1000.0


def summarise(rep, traced_table=None):
    """The JSON-safe part of one repetition."""
    from workloads import digest

    doc = {key: rep[key] for key in ("wall_s", "fragments", "items",
                                     "latencies_s", "layers")}
    doc["digest"] = digest(rep["bytes"])
    for key in ("shard_growth_mb", "shard_tables"):
        if key in rep:
            doc[key] = rep[key]
    if traced_table is not None:
        doc["table"] = traced_table
    return doc


def measure(args):
    from layers import Tracer, install_layers
    import numpy
    import workloads

    spec = workloads.scenario(args.workload, args.seed, args.shape)
    runner = workloads.RUNNERS[args.workload]
    probe = workloads.Probe()
    probe.install(Tracer())
    tracer = Tracer()
    matrix = numpy.random.default_rng(0).standard_normal((64, 64))

    warmup = summarise(runner(spec, probe, None, args.workdir))
    before = setup_host_ms = reference_ms(matrix)
    reps, setup_s, kept = [], None, None
    deadline, last = args.t0 + args.budget, 0.0
    while len(reps) < MIN_REPS or time.monotonic() + last <= deadline:
        began = time.monotonic()
        traced = bool(args.trace) and len(reps) % 2 == 1
        if traced:
            tracer.reset()
            install_layers(tracer)
            probe.tracer = tracer
        try:
            rep = runner(spec, probe, tracer if traced else None,
                         args.workdir)
        finally:
            if traced:
                tracer.restore()
                probe.tracer = None
        if setup_s is None:
            setup_s = rep["start"] - args.t0 - setup_host_ms / 1000.0
            kept = rep["bytes"]
        after = reference_ms(matrix)
        reps.append(summarise(rep, tracer.table() if traced else None))
        reps[-1]["host_ms"] = (before + after) / 2.0
        before = after
        last = time.monotonic() - began
    with open(args.keep, "wb") as fh:
        fh.write(kept)
    return {"setup_s": setup_s, "setup_host_ms": setup_host_ms,
            "peak_rss_mb": workloads.peak_rss_mb(),
            "warmup": warmup, "reps": reps,
            "missing": sorted(set(tracer.missing)),
            "fingerprint": fingerprint()}


def plan(args):
    import workloads

    return {"scenario_seed": workloads.scenario_seed(
        args.workload, args.seed, args.shape)}


def check(args):
    import workloads

    spec = workloads.scenario(args.workload, args.seed, args.shape)
    expected = workloads.reference(args.workload, spec, args.workdir)
    with open(args.keep, "rb") as fh:
        data = fh.read()
    failed, items = workloads.failed_items(data, expected)
    return {"failed": failed, "expected": items,
            "reference_digest": (workloads.digest(expected["bytes"])
                                 if "bytes" in expected else None)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("role", choices=("plan", "measure", "check"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True,
                        help="benchmark seed (plan) or scenario seed")
    parser.add_argument("--shape", default="full")
    parser.add_argument("--budget", type=float, default=0.0,
                        help="seconds after --t0 to stop starting "
                             "measured repetitions")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--t0", type=float, default=None,
                        help="time.monotonic() when the parent started us")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--keep",
                        help="file holding the kept verdict bytes")
    args = parser.parse_args(argv)
    if args.t0 is None:
        args.t0 = time.monotonic()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    import repro
    source_dir = os.path.join(root, "src", "")
    if not os.path.abspath(repro.__file__).startswith(source_dir):
        sys.exit("repro was imported from %s, not from %s"
                 % (repro.__file__, source_dir))
    doc = {"plan": plan, "measure": measure, "check": check}[args.role](args)
    print(json.dumps(doc))


if __name__ == "__main__":
    main()
