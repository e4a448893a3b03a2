"""The benchmark's four workloads and the verdict bytes each is judged by.

Every workload drives a public entry point on a generated
:class:`~repro.engine.fleet.FleetScenarioSpec` (window 120 bins, change
at bin 60, one history day, 4-bin agent flushes); the benchmark seed is
the only input the caller chooses (see :func:`scenario_seed`).

* ``live-wide`` -- :func:`repro.live.replay_scenario` on the 16x fleet
  (32 services, 128 servers).  Few fragments reach a subscriber, so the
  ingest plane (fragment build, store append, fan-out) carries a large
  share of the wall time.
* ``live-deep`` -- the same driver on the 1x fleet (2 services, 8
  servers) with many back-to-back changes: pooled scoring dominates and
  sessions open and close all the time.
* ``engine-batch`` -- the offline engine, serial and batched, on a
  48-server fleet (12 services).  No ingest at all: the stacked scoring
  kernel dominates.
* ``cluster-2`` -- :func:`repro.cluster.cluster_replay_scenario` on
  live-wide's scenario with two forked shards: routing, supervision,
  shard checkpoints and the fan-in merge.

Throughput knobs are passed only while the config dataclass still
defines them, so the benchmark keeps running when a later version folds
a knob into the one remaining path.
"""

import collections
import dataclasses
import hashlib
import json
import os
import resource
import time

import numpy as np

from repro.cluster import cluster_replay_scenario
from repro.engine import (AssessmentEngine, EngineConfig, FleetScenarioSpec,
                          SyntheticFleetSource)
from repro.engine import cache as engine_cache
from repro.engine.planner import ENTITY_METRICS
from repro.live import (ClusterConfig, JsonlVerdictSink, LiveConfig,
                        offline_verdict_records, parity_live_config,
                        replay_scenario, verdict_sort_key)
from repro.live.queues import SHED_FRAGMENTS_METRIC
from repro.topology.impact import identify_impact_set

#: (services, servers, changes) per workload.  ``tiny`` is the smoke
#: test's shape; ``full`` is what the benchmark measures.  Each full
#: shape yields >= 100 verdicts per repetition, so a repetition's p90
#: latency has >= 10 samples beyond it.  Every full fleet has exactly
#: four servers per service (the generator's minimum), so which service
#: a change hits does not change its size; engine-batch keeps the
#: ``assess-fleet`` default of 48 servers, as 12 such services.
SHAPES = {
    "full": {"live-wide": (32, 128, 4), "live-deep": (2, 8, 24),
             "engine-batch": (12, 48, 16), "cluster-2": (32, 128, 4)},
    "tiny": {"live-wide": (8, 32, 1), "live-deep": (2, 8, 2),
             "engine-batch": (2, 8, 2), "cluster-2": (8, 32, 1)},
}
FLUSH_BINS = 4
SHARDS = 2
#: Enough virtual nodes that two shards split the 16x fleet evenly.
RING_REPLICAS = 128


def knobs(config_cls, **wanted):
    """The subset of ``wanted`` that ``config_cls`` still defines."""
    fields = {field.name for field in dataclasses.fields(config_cls)}
    return {name: value for name, value in wanted.items() if name in fields}


#: The size signature a full-shape scenario is drawn to match:
#: (verdict items, dark-launched changes, impactful changes, treated
#: KPIs of the impactful changes).  A scenario seed fixes the fleet's
#: relationship graph and the change stream, and those set how much
#: work a replay does (up to ~3x between seeds on the 16x fleet), so
#: the benchmark seed picks the scenario among those of one signature:
#: the data still differ from seed to seed, the amount of work does
#: not.  Each is the most common signature of its shape over 3000
#: random scenario seeds (about 1 in 40 to 1 in 90 seeds has it).
SIGNATURES = {"live-wide": (132, 4, 2, 6), "live-deep": (174, 18, 12, 63),
              "engine-batch": (267, 13, 8, 42),
              "cluster-2": (132, 4, 2, 6)}
MAX_DRAWS = 20000


def scenario(workload, scenario_seed, shape="full"):
    services, servers, changes = SHAPES[shape][workload]
    return FleetScenarioSpec(
        n_services=services, n_servers=servers, n_changes=changes,
        window_bins=120, change_offset=60, history_days=1,
        seed=scenario_seed)


def signature(spec):
    """``spec``'s size signature (see :data:`SIGNATURES`)."""
    source = SyntheticFleetSource(spec)
    items = dark = impactful = positives = 0
    for change in source.changes:
        impact = identify_impact_set(source.fleet, change.service,
                                     change.hostnames)
        kpis = [(entity_type, entity, metric)
                for entity_type, entity in impact.monitored_entities()
                for metric in ENTITY_METRICS[entity_type]]
        treated = sum(1 for kpi in kpis if source.truth(change, *kpi))
        items += len(kpis)
        dark += impact.dark_launched
        impactful += treated > 0
        positives += treated
    return items, dark, impactful, positives


def scenario_seed(workload, seed, shape="full"):
    """The scenario seed benchmark ``seed`` stands for."""
    if shape != "full":
        return seed
    draws = np.random.default_rng(abs(seed))
    for _ in range(MAX_DRAWS):
        candidate = int(draws.integers(0, 2 ** 31))
        if signature(scenario(workload, candidate)) == SIGNATURES[workload]:
            return candidate
    raise RuntimeError("no scenario of signature %s in %d draws"
                       % (SIGNATURES[workload], MAX_DRAWS))


def live_config(spec):
    return parity_live_config(spec, **knobs(
        LiveConfig, score_chunk_bins=8, pooled_scoring=True))


# -- verdict bytes ----------------------------------------------------------

def live_jsonl(verdicts, path):
    """The bytes ``repro live-replay --verdicts`` writes for ``verdicts``."""
    with JsonlVerdictSink(path, fsync_on_close=False) as sink:
        for verdict in verdicts:
            sink(verdict)
    with open(path, "rb") as fh:
        return fh.read()


def engine_jsonl(jobs, results):
    """The bytes ``repro assess-fleet --verdicts`` writes."""
    return "".join(json.dumps({
        "change_id": job.change_id,
        "entity_type": job.entity_type,
        "entity": job.entity,
        "metric": job.metric,
        "detector": result.detector,
        "verdict": (result.verdict.value if result.verdict is not None
                    else "no_change"),
        "declaration_bin": result.outcome.detection_index,
        "did_estimate": result.did_estimate,
    }, sort_keys=True) + "\n" for job, result in zip(jobs, results)
    ).encode("utf-8")


def digest(data):
    return hashlib.sha256(data).hexdigest()


# -- one measured repetition --------------------------------------------------

class Probe:
    """Timestamps the measurement hooks need in every mode.

    ``tick_starts`` holds the start of each tick of a live replay: one
    stamp when the replay subscribes its verdict sink, just before the
    first tick's fragments are built, and one each time
    ``LiveAssessmentService.on_tick`` returns -- the replay is closed
    loop, so the next tick's fragment build starts there.  A verdict's
    latency runs from the start of the tick that let it out.
    ``finished`` gets one stamp per engine job, when the batched
    executor holds that job's final result.  Inside a forked cluster
    shard the same hooks time the shard's own ticks and verdicts and
    dump them next to the shard's result file.
    """

    def __init__(self):
        self.tick_starts = []
        self.finished = []
        self.supervisor_start = None
        self.shard_latencies = []
        #: the tracer of a traced repetition (inherited by forked shards)
        self.tracer = None

    def install(self, patcher):
        probe = self

        def subscribe(original):
            def wrapper(bus, subscriber):
                probe.tick_starts.append(time.monotonic())
                return original(bus, subscriber)
            return wrapper

        def on_tick(original):
            def wrapper(service, now):
                result = original(service, now)
                probe.tick_starts.append(time.monotonic())
                return result
            return wrapper

        def detect_only_result(original):
            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                probe.finished.append(time.monotonic())
                return result
            return wrapper

        def run_attribution_batch(original):
            def wrapper(batch):
                output = original(batch)
                probe.finished.extend([time.monotonic()] * len(output))
                return output
            return wrapper

        def supervisor_run(original):
            def wrapper(supervisor):
                probe.supervisor_start = time.monotonic()
                return original(supervisor)
            return wrapper

        def run_shard(original):
            def wrapper(task, heartbeat=None):
                # A forked shard starts out resident in every page it
                # shares with its parent; only its growth is its own.
                inherited = proc_status_mb("VmRSS")
                probe.tick_starts, probe.shard_latencies = [], []
                tracer = probe.tracer
                if tracer is None:
                    result = original(task, heartbeat)
                else:
                    tracer.reset()
                    result = tracer.run("cluster.shard", original, task,
                                        heartbeat)
                dump = {"shard": task.shard_id, "attempt": task.attempt,
                        "latencies_s": probe.shard_latencies,
                        "growth_mb": proc_status_mb("VmHWM") - inherited,
                        "table": None if tracer is None else tracer.table()}
                with open(task.result_path + SHARD_DUMP_SUFFIX, "w",
                          encoding="utf-8") as fh:
                    json.dump(dump, fh)
                return result
            return wrapper

        def shard_replay(original):
            def wrapper(*args, **kwargs):
                inner = kwargs.get("sink")

                def sink(verdict):
                    probe.shard_latencies.append(
                        time.monotonic() - probe.tick_starts[-1])
                    if inner is not None:
                        inner(verdict)
                kwargs["sink"] = sink
                if probe.tracer is None:
                    return original(*args, **kwargs)
                return probe.tracer.run("live.replay.driver", original,
                                        *args, **kwargs)
            return wrapper

        for target, make in (
                ("repro.live.bus:VerdictBus.subscribe", subscribe),
                ("repro.live.service:LiveAssessmentService.on_tick",
                 on_tick),
                ("repro.engine.executor:detect_only_result",
                 detect_only_result),
                ("repro.engine.executor:run_attribution_batch",
                 run_attribution_batch),
                ("repro.cluster.supervisor:ShardSupervisor.run",
                 supervisor_run),
                ("repro.cluster.worker:run_shard", run_shard),
                ("repro.cluster.worker:replay_scenario", shard_replay)):
            if not patcher.patch(target, make):
                raise RuntimeError("measurement hook %s is missing" % target)


def peak_rss_mb():
    """This process's peak resident set size in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_status_mb(field):
    """``field`` (``VmRSS``, ``VmHWM``) of ``/proc/self/status`` in MiB."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("/proc/self/status has no %s" % field)


def queue_layers(service_report):
    """Shed fragments and peak queue depth from a service report."""
    peak = service_report.get("peak_queue_depth", 0)
    if isinstance(peak, dict):  # a merged cluster report: largest shard
        peak = peak.get("max", 0)
    return {"live.queues.shed": service_report.get("counters", {}).get(
                SHED_FRAGMENTS_METRIC, 0),
            "live.queues.peak_depth": peak}


def run_live(spec, probe, tracer, workdir):
    latencies = []

    def sink(verdict):
        latencies.append(time.monotonic() - probe.tick_starts[-1])

    probe.tick_starts = []
    call = (lambda: replay_scenario(spec, live_config=live_config(spec),
                                    flush_bins=FLUSH_BINS, sink=sink))
    report = (tracer.run("live.replay.driver", call) if tracer is not None
              else call())
    end = time.monotonic()
    start = probe.tick_starts[0]
    return {
        "start": start, "wall_s": end - start,
        "fragments": report.fragments_streamed,
        "items": len(report.verdicts),
        "latencies_s": latencies,
        "bytes": live_jsonl(report.verdicts,
                            os.path.join(workdir, "live.jsonl")),
        "layers": queue_layers(report.service_report),
    }


def series_rows(job):
    """Series the engine reads for ``job``: treated, control, history."""
    return sum(np.atleast_2d(matrix).shape[0]
               for matrix in (job.treated, job.control, job.history)
               if matrix is not None)


def run_engine(spec, probe, tracer, workdir):
    reset = getattr(engine_cache, "reset_shared_cache", None)
    if reset is not None:
        reset()  # every repetition starts from a cold baseline cache
    source = SyntheticFleetSource(spec)
    engine = AssessmentEngine(detectors=("funnel",), config=EngineConfig(
        **knobs(EngineConfig, detect_mode="batched")))
    call = (lambda: engine.assess_fleet_detailed(source))
    probe.finished = []
    start = time.monotonic()
    _, jobs, results = (tracer.run("engine.assess", call)
                        if tracer is not None else call())
    end = time.monotonic()
    if len(probe.finished) != len(results):
        raise RuntimeError("%d engine results finished, %d returned"
                           % (len(probe.finished), len(results)))
    # No fragments stream into the offline engine: it reads whole
    # series, so its fragments are the series rows it reads.  A verdict
    # is out when the executor holds the job's final result.
    return {
        "start": start, "wall_s": end - start,
        "fragments": sum(series_rows(job) for job in jobs),
        "items": len(results),
        "latencies_s": [stamp - start for stamp in probe.finished],
        "bytes": engine_jsonl(jobs, results),
        "layers": {},
    }


def run_cluster(spec, probe, tracer, workdir):
    rundir = os.path.join(workdir, "cluster-%d" % time.monotonic_ns())
    cluster = ClusterConfig(n_shards=SHARDS, **knobs(
        ClusterConfig, replicas=RING_REPLICAS, start_method="fork"))
    call = (lambda: cluster_replay_scenario(
        spec=spec, live_config=live_config(spec), flush_bins=FLUSH_BINS,
        cluster=cluster, workdir=rundir))
    probe.supervisor_start = None
    report = (tracer.run("cluster.replay", call) if tracer is not None
              else call())
    end = time.monotonic()
    start = probe.supervisor_start
    shards = read_shard_dumps(rundir)
    cpu = list(report.shard_cpu_seconds.values())
    checkpoints = [os.path.join(folder, name)
                   for folder, _, names in os.walk(rundir)
                   for name in names if name.startswith("checkpoint")]
    mean_cpu = sum(cpu) / len(cpu)
    return {
        "start": start, "wall_s": end - start,
        "fragments": report.scenario_fragments,
        "items": len(report.verdicts),
        "latencies_s": [value for dump in shards
                        for value in dump["latencies_s"]],
        "bytes": live_jsonl(report.verdicts,
                            os.path.join(workdir, "merged.jsonl")),
        "shard_growth_mb": sum(dump["growth_mb"] for dump in shards),
        "shard_tables": [dump["table"] for dump in shards],
        "layers": dict(queue_layers(report.service_report), **{
            "cluster.shard_cpu_s.max": max(cpu),
            "cluster.shard_cpu_s.mean": mean_cpu,
            "cluster.shard_imbalance": max(cpu) / mean_cpu,
            "cluster.replication_share": (report.fragments_streamed
                                          / report.scenario_fragments - 1),
            "cluster.merge_s": report.merge_seconds,
            "cluster.restarts": sum(report.restarts.values()),
            "cluster.duplicate_verdicts": report.duplicate_verdicts,
            "live.checkpoint.files": len(checkpoints),
            "live.checkpoint.bytes": sum(os.path.getsize(path)
                                         for path in checkpoints),
        }),
    }


RUNNERS = {"live-wide": run_live, "live-deep": run_live,
           "engine-batch": run_engine, "cluster-2": run_cluster}

SHARD_DUMP_SUFFIX = ".perfbench.json"


def read_shard_dumps(rundir):
    dumps = []
    for folder, _, names in sorted(os.walk(rundir)):
        for name in sorted(names):
            if name.endswith(SHARD_DUMP_SUFFIX):
                with open(os.path.join(folder, name), encoding="utf-8") as fh:
                    dumps.append(json.load(fh))
    return dumps


# -- correctness references -------------------------------------------------

def reference(workload, spec, workdir):
    """What a correct run of ``workload`` must produce, from another path.

    Live workloads: the offline engine's parity records.  engine-batch:
    the per-item engine's verdict bytes.  cluster-2: both the offline
    records and a single-process live replay's verdict bytes, the latter
    in the fan-in's canonical order (``verdict_sort_key``), which is the
    order the merged file uses.
    """
    expected = {}
    if workload != "engine-batch":
        source = SyntheticFleetSource(spec)
        expected["records"] = [list(record) for record in
                               offline_verdict_records(
                                   source,
                                   funnel_config=live_config(spec).funnel)]
    if workload == "engine-batch":
        engine = AssessmentEngine(detectors=("funnel",))
        _, jobs, results = engine.assess_fleet_detailed(
            SyntheticFleetSource(spec))
        expected["bytes"] = engine_jsonl(jobs, results)
    elif workload == "cluster-2":
        report = replay_scenario(spec, live_config=live_config(spec),
                                 flush_bins=FLUSH_BINS)
        expected["bytes"] = live_jsonl(
            sorted(report.verdicts, key=verdict_sort_key),
            os.path.join(workdir, "reference.jsonl"))
    return expected


def _key(doc):
    key = (doc["change_id"], doc["entity_type"], doc["entity"],
           doc["metric"])
    return key + (doc["detector"],) if "detector" in doc else key


def _degraded(doc):
    return doc.get("reason") == "gap" or any(
        str(note).startswith("degraded") for note in doc.get("notes", ()))


def _parse(data):
    return [json.loads(line) for line in data.decode("utf-8").splitlines()]


def failed_items(data, expected):
    """Items of one run's verdict bytes ``data`` that are wrong.

    An item is wrong when it is missing, extra, duplicated, degraded
    (``gap`` reason or ``degraded:`` note) or differs from ``expected``
    (a :func:`reference`).  Returns ``(wrong items, expected items)``.
    """
    docs = _parse(data)
    keys = [_key(doc) for doc in docs]
    got = dict(zip(keys, docs))
    wrong = {key for key, count in collections.Counter(keys).items()
             if count > 1}
    wrong |= {key for key, doc in got.items() if _degraded(doc)}
    if "records" in expected:
        want = {tuple(record[:4]): tuple(record[4:])
                for record in expected["records"]}
        seen = {key: (doc["verdict"], doc["declaration_bin"])
                for key, doc in got.items()}
        wrong |= {key for key in set(want) | set(seen)
                  if want.get(key) != seen.get(key)}
        size = len(want)
    if "bytes" in expected and data != expected["bytes"]:
        want = {_key(doc): doc for doc in _parse(expected["bytes"])}
        # Same items in another order still break the byte contract.
        wrong |= {key for key in set(want) | set(got)
                  if want.get(key) != got.get(key)} or set(want)
    if "bytes" in expected:
        size = len(_parse(expected["bytes"]))
    return len(wrong), size
