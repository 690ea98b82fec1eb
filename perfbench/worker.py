"""One measured repetition of one workload, in a fresh process.

Usage (normally started by ``run.py``)::

    python3 perfbench/worker.py --workload city_day --seed 3 \\
        --trace 0 --spawned-at <perf_counter of the parent at spawn>

Prints one JSON line: the host-time marks, the simulated results, the
correctness checks, the behaviour digest and, with ``--trace 1``, the
per-layer breakdown from :mod:`tracer`.  ``time.perf_counter`` reads the
system-wide monotonic clock, so the parent's spawn mark and this
process's marks share one time base.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from typing import Any, Dict, List, Optional  # noqa: E402


def percentile(values: List[float], q: float) -> float:
    """The program's own interpolated percentile (``q`` in 0..100), as
    its SLO reports use it; 0.0 when ``values`` is empty."""
    from repro.obs.metrics import percentile as interpolated

    return interpolated(values, q) if values else 0.0


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer, res) -> Dict[str, float]:
    """Every per-layer metric of a traced run, by name."""
    from tracer import PIPELINE_PHASES

    d = res.deployment
    counts = tracer.counts
    selfs = tracer.layer_self_s()
    m: Dict[str, float] = {}
    c = lambda name: float(counts.get(name, 0))  # noqa: E731

    m["net.kernel.events"] = c("net.kernel.events")
    m["net.kernel.self_s"] = selfs["net.kernel"]
    m["net.kernel.cancelled_share"] = _share(c("net.kernel.cancelled"),
                                             c("net.kernel.scheduled"))
    network = d.network
    m["net.simnet.sends"] = c("net.simnet.sends")
    m["net.simnet.self_s"] = selfs["net.simnet"]
    m["net.simnet.route_cache_hit_share"] = _share(
        network.route_cache_hits,
        network.route_cache_hits + network.route_cache_misses)
    m["net.simnet.bytes_on_wire"] = float(network.bytes_on_wire)
    m["net.simnet.messages_dropped"] = float(network.messages_dropped)
    m["agents.serialization.calls"] = c("agents.serialization.calls")
    m["agents.serialization.self_s"] = selfs["agents.serialization"]
    m["agents.platform.acl_messages"] = c("agents.platform.acl_messages")
    m["agents.platform.self_s"] = selfs["agents.platform"]
    m["agents.platform.receive_hit_share"] = _share(
        c("agents.platform.receive_hits"), c("agents.platform.receives"))
    mobility = d.platform.mobility
    m["agents.mobility.moves"] = c("agents.mobility.moves")
    m["agents.mobility.transfer_retries"] = float(mobility.transfer_retries)
    m["agents.mobility.self_s"] = selfs["agents.mobility"]
    m["context.bus.publishes"] = c("context.bus.publishes")
    m["context.bus.deliveries_per_publish"] = _share(
        c("context.bus.deliveries"), c("context.bus.publishes"))
    m["context.bus.self_s"] = selfs["context.bus"]
    for phase in PIPELINE_PHASES:
        m[f"core.pipeline.{phase}.calls"] = c(f"core.pipeline.{phase}.calls")
        m[f"core.pipeline.{phase}.self_s"] = \
            tracer.self_s[tracer.bucket(f"core.pipeline.{phase}")]
    m["core.pipeline.prestage.self_s"] = \
        tracer.self_s[tracer.bucket("core.pipeline.prestage")]
    m["core.pipeline.self_s"] = selfs["core.pipeline"]
    outcomes = res.outcomes
    m["core.pipeline.suspend_p50_ms"] = percentile(
        [o.suspend_ms for o in outcomes], 50)
    m["core.pipeline.migrate_p50_ms"] = percentile(
        [o.migrate_ms for o in outcomes], 50)
    m["core.pipeline.resume_p50_ms"] = percentile(
        [o.resume_ms for o in outcomes], 50)
    waits = [r.queue_wait_ms for r in res.requests if r.outcome is not None]
    m["core.middleware.submits"] = c("core.middleware.submits")
    m["core.middleware.queue_wait_p50_ms"] = percentile(waits, 50)
    m["core.middleware.queue_wait_p99_ms"] = percentile(waits, 99)
    m["core.middleware.deadline_misses"] = float(res.deadline_misses)
    m["core.middleware.self_s"] = selfs["core.middleware"]
    service = d.prestaging
    pushes = float(service.prestages_started) if service else 0.0
    m["core.prestage.pushes"] = pushes
    m["core.prestage.hit_share"] = _share(service.hits if service else 0,
                                          pushes)
    m["core.prestage.self_s"] = selfs["core.prestage"]
    m["core.autonomous_agent.decisions"] = c(
        "core.autonomous_agent.decisions")
    m["core.autonomous_agent.self_s"] = selfs["core.autonomous_agent"]
    stats = d.stats()
    hits = stats.get("registry_cache_hits")
    misses = stats.get("registry_cache_misses")
    if hits is None:  # flat registry: the clients keep the counts
        clients = [mw.registry_client for mw in d.middlewares.values()]
        hits = sum(getattr(cl, "cache_hits", 0) for cl in clients)
        misses = sum(getattr(cl, "cache_misses", 0) for cl in clients)
    requests = c("registry.requests")
    m["registry.requests"] = requests
    m["registry.self_s"] = selfs["registry"]
    m["registry.cache_hit_share"] = _share(hits, hits + misses)
    m["registry.messages_per_request"] = _share(c("registry.messages"),
                                                requests)
    m["registry.invalidations"] = float(
        stats.get("registry_invalidations", 0))
    # Sim-time latencies of the requests the workload itself issued
    # (registry_mix only; 0 where the workload issues none).
    m["registry.lookup_p50_ms"] = percentile(res.lookup_ms, 50)
    m["registry.lookup_p99_ms"] = percentile(res.lookup_ms, 99)
    m["registry.write_p50_ms"] = percentile(res.write_ms, 50)
    m["registry.write_p99_ms"] = percentile(res.write_ms, 99)
    m["ontology.reasoner_runs"] = c("ontology.reasoner_runs")
    m["ontology.self_s"] = selfs["ontology"]
    m["city.trace_events"] = c("city.trace_events")
    m["city.self_s"] = selfs["city"]
    m["other.self_s"] = selfs["other"]
    m["other.share"] = _share(selfs["other"], tracer.wall_s)
    m["trace.wall_s"] = tracer.wall_s
    m["trace.spans"] = float(len(tracer.span_start))
    return m


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", default="bench")
    parser.add_argument("--spawned-at", type=float, default=STARTED)
    parser.add_argument("--spans-out", default="",
                        help="write the traced run's spans to this file")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.start()
        tracer.install()

    from workloads import run_workload
    res = run_workload(args.workload, args.seed, args.size)
    done = time.perf_counter()
    out: Dict[str, Any] = {
        "workload": res.workload, "seed": res.seed, "size": args.size,
        "started": STARTED, "spawned_at": args.spawned_at,
        "setup_done": res.setup_done, "done": done,
        "attempted": res.attempted, "completed": res.completed,
        "failed": res.failed, "deadline_misses": res.deadline_misses,
        "follow_ups": res.follow_ups,
        "migration_n": len(res.migration_ms),
        "lookup_n": len(res.lookup_ms), "write_n": len(res.write_ms),
        "migration_p50_ms": percentile(res.migration_ms, 50),
        "migration_p99_ms": percentile(res.migration_ms, 99),
        "wire_bytes": res.wire_bytes,
        "events": res.deployment.loop.processed,
        "digest": res.digest,
        "checks": res.checks,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.stop()
        tracer.uninstall()
        out["wall_in_process_s"] = tracer.wall_s
        out["layers"] = layer_metrics(tracer, res)
        out["counts"] = dict(tracer.counts)
        if args.spans_out:
            tracer.write(args.spans_out)
    else:
        out["wall_in_process_s"] = done - STARTED
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
