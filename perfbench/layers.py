"""Per-layer timing from outside the program.

The benchmark never edits ``src/``: it times each layer by replacing the
name a caller looks up (a module attribute or a class attribute) with a
wrapper that records a span.  A span's *self* time is its duration minus
the durations of the spans opened directly inside it, so the self times
of one traced tree add up to the root span's wall time exactly; what no
wrapper claims stays in the root's self time (``trace.unattributed``).

Targets that a later version of the program renames or removes are
skipped and listed in ``Tracer.missing`` instead of failing the run, so
the benchmark keeps working while the layer it names reads zero.
"""

import importlib
import time

_clock = time.perf_counter


class Tracer:
    """Span stack plus per-name ``[self_s, calls, wall_s]`` and counts."""

    def __init__(self):
        self.stats = {}
        self.counts = {}
        self.missing = []
        self._stack = []
        self._patches = []

    # -- spans ----------------------------------------------------------

    def run(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        frame = [0.0]
        stack = self._stack
        stack.append(frame)
        start = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = _clock() - start
            stack.pop()
            entry = self.stats.get(name)
            if entry is None:
                entry = self.stats[name] = [0.0, 0, 0.0]
            entry[0] += duration - frame[0]
            entry[1] += 1
            entry[2] += duration
            if stack:
                stack[-1][0] += duration

    def add(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value

    def reset(self):
        self.stats = {}
        self.counts = {}
        self._stack = []

    def table(self):
        """JSON-safe copy of what was recorded."""
        return {"stats": {name: list(entry)
                          for name, entry in self.stats.items()},
                "counts": dict(self.counts)}

    # -- patching -------------------------------------------------------

    def patch(self, target, make):
        """Replace ``"pkg.module:Attr.path"`` with ``make(original)``.

        Returns False (and records the target as missing) when the
        module or attribute does not exist.
        """
        module_name, _, path = target.partition(":")
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            self.missing.append(target)
            return False
        parts = path.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part, None)
            if owner is None:
                self.missing.append(target)
                return False
        attr = parts[-1]
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(target)
            return False
        own = not isinstance(owner, type) or attr in vars(owner)
        self._patches.append((owner, attr, original, own))
        setattr(owner, attr, make(original))
        return True

    def span_patch(self, target, name, count=None, materialise=False):
        """Wrap ``target`` in a span; ``count(tracer, result, args)``
        records counts after each call.  ``materialise`` turns a
        generator's lazy work into work done inside the span."""
        tracer = self

        def make(original):
            def wrapper(*args, **kwargs):
                if materialise:
                    result = tracer.run(
                        name, lambda: list(original(*args, **kwargs)))
                else:
                    result = tracer.run(name, original, *args, **kwargs)
                if count is not None:
                    count(tracer, result, args)
                return iter(result) if materialise else result
            return wrapper
        return self.patch(target, make)

    def restore(self):
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


class _LinalgProxy:
    def __init__(self, tracer, linalg):
        self._linalg = linalg
        self.eigh = lambda *a, **k: tracer.run(
            "core.ika.eigh", linalg.eigh, *a, **k)

    def __getattr__(self, name):
        return getattr(self._linalg, name)


class _NumpyProxy:
    """Stands in for ``numpy`` inside :mod:`repro.core.ika` only."""

    def __init__(self, tracer, numpy):
        self._numpy = numpy
        self.einsum = lambda *a, **k: tracer.run(
            "core.ika.einsum", numpy.einsum, *a, **k)
        self.linalg = _LinalgProxy(tracer, numpy.linalg)

    def __getattr__(self, name):
        value = getattr(self._numpy, name)
        setattr(self, name, value)
        return value


def _rows_and_points(tracer, result, args):
    shape = getattr(result, "shape", ())
    if len(shape) == 2:
        tracer.add("core.ika.scores_batch.rows", shape[0])
        tracer.add("core.ika.scores_batch.points", shape[0] * shape[1])


def _count(name, measure):
    def count(tracer, result, args):
        tracer.add(name, measure(result, args))
    return count


#: (target, span name, count hook, materialise) for every layer the
#: benchmark times.  The name is the caller's lookup, e.g. the funnel
#: module's own ``declare_changes`` binding.
LAYERS = (
    ("repro.live.replay:TimeSeries", "telemetry.timeseries.build",
     None, False),
    ("repro.telemetry.store:MetricStore.append_batch",
     "telemetry.store.append_batch",
     _count("telemetry.store.append_batch.fragments",
            lambda result, args: len(args[1])), False),
    ("repro.live.queues:IngestQueues.offer", "live.queues.offer",
     None, False),
    ("repro.live.watcher:ChangeWatcher.poll", "live.watcher.poll",
     _count("live.watcher.poll.sessions",
            lambda result, args: len(result)), False),
    ("repro.live.assessor:LiveAssessor.on_fragment",
     "live.assessor.on_fragment", None, False),
    ("repro.live.detector:IncrementalDetector.extend",
     "live.detector.extend", None, False),
    ("repro.live.assessor:LiveAssessor.pool_score",
     "live.assessor.pool_score", None, False),
    ("repro.live.detector:IncrementalDetector.scan",
     "live.detector.scan", None, False),
    ("repro.core.ika:IkaSST.scores_batch", "core.ika.scores_batch",
     _rows_and_points, False),
    ("repro.core.funnel:robust_normalise_batch",
     "core.scoring.robust_normalise_batch", None, False),
    ("repro.core.funnel:declare_changes", "core.scoring.declare_changes",
     None, False),
    ("repro.core.funnel:Funnel.detect_batch", "core.funnel.detect_batch",
     _count("core.funnel.detect_batch.rows",
            lambda result, args: len(result)), False),
    ("repro.live.assessor:LiveAssessor.close_session",
     "live.assessor.close_session", None, False),
    ("repro.core.did:DiDEstimator.fit", "core.did.fit", None, False),
    ("repro.live.bus:VerdictBus.publish", "live.bus.publish", None, False),
    ("repro.live.scheduler:EventTimeScheduler.tick", "live.scheduler.tick",
     None, False),
    ("repro.engine.engine:execute_jobs", "engine.executor.execute_jobs",
     None, False),
    ("repro.engine.fleet:SyntheticFleetSource.fetch", "engine.fleet.fetch",
     None, False),
    ("repro.engine.fleet:SyntheticFleetSource._history",
     "engine.fleet.history", None, False),
    ("repro.engine.fleet:SyntheticFleetSource.plan_jobs",
     "engine.fleet.plan_jobs", None, True),
    ("repro.engine.fleet:SyntheticFleetSource.observed_series",
     "engine.fleet.observed_series", None, False),
    ("repro.cluster.worker:plan_shards", "cluster.routing.plan_shards",
     None, False),
    ("repro.cluster.supervisor:ShardSupervisor.run", "cluster.supervisor.run",
     None, False),
    ("repro.cluster.merge:ClusterVerdictBus.merge", "cluster.merge",
     None, False),
)


def install_layers(tracer):
    """Wrap every layer in :data:`LAYERS` (undo with ``restore``)."""
    for target, name, count, materialise in LAYERS:
        tracer.span_patch(target, name, count, materialise)

    # The pool keeps its own series/batch totals: record their deltas.
    def pool_counts(original):
        def wrapper(self, *args, **kwargs):
            series, batches = self.series, self.batches
            result = tracer.run("live.pool.score_pending", original, self,
                                *args, **kwargs)
            tracer.add("live.pool.score_pending.series",
                       self.series - series)
            tracer.add("live.pool.batches", self.batches - batches)
            return result
        return wrapper

    tracer.patch("repro.live.pool:DetectorPool.score_pending", pool_counts)
    tracer.patch("repro.core.ika:np",
                 lambda original: _NumpyProxy(tracer, original))
