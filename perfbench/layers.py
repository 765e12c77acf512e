"""Per-layer breakdown of a traced run.

The program already records spans at most layer boundaries
(``stage:build|optimize|simulate``, ``store-get``, ``job:*``, ``search``,
``request``, ``queue-wait``, ``simulate-batch``).  Where no span exists,
:func:`install` wraps the layer's public entry point so that it records one
under the active trace:

==========================  ==========================================
span                        wrapped call
==========================  ==========================================
``bench:store-put``         ``repro.pipeline.store.ArtifactStore.put``
``bench:lp-solve``          ``repro.lp.model.Model.solve``
``bench:run-models``        ``repro.sim.batch.run_models``
``bench:evaluate-batch``    ``repro.search.problem.SearchProblem.evaluate_batch``
==========================  ==========================================

The wrappers are installed only in traced runs.  Outside a trace they cost
one extra call frame and record nothing.  :func:`fold` turns the collected
spans into the named per-layer metrics.
"""

from __future__ import annotations

import functools
import statistics
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: Per-layer metric name -> unit, in report order.
PER_LAYER_UNITS: Dict[str, str] = {
    "pipeline.build_s": "s",
    "pipeline.optimize_s": "s",
    "pipeline.simulate_s": "s",
    "pipeline.store_get_s": "s",
    "pipeline.store_put_s": "s",
    "lp.solve_s": "s",
    "lp.iterations": "count",
    "lp.bb_nodes": "count",
    "lp.us_per_iteration": "us",
    "core.milp_solves": "count",
    "sim.batch_s": "s",
    "sim.lane_cycles": "count",
    "sim.ns_per_lane_cycle": "ns",
    "sim.cache_hit_ratio": "ratio",
    "search.evaluations": "count",
    "search.batches": "count",
    "search.evaluate_batch_s": "s",
    "search.strategy_s": "s",
    "search.simulated_share": "ratio",
    "service.client_ms": "ms",
    "service.exchanges_per_request": "count",
    "service.request_self_ms": "ms",
    "service.cache_hits_memory": "count",
    "service.cache_hits_store": "count",
    "service.coalesced": "count",
    "service.queue_wait_ms": "ms",
    "service.simulate_batch_ms": "ms",
    "service.lanes_per_batch": "count",
    "resilience.retries": "count",
    "obs.trace_overhead_pct": "%",
    "host.calibration_ms": "ms",
}


def install() -> None:
    """Wrap the layer entry points that record no span of their own.

    Call once per process, before the workload runs.
    """
    from repro.lp.model import Model
    from repro.obs import trace
    from repro.pipeline.store import ArtifactStore
    from repro.search.problem import SearchProblem
    from repro.sim import batch

    put = ArtifactStore.put

    @functools.wraps(put)
    def traced_put(self, key, payload):
        with trace.span("bench:store-put"):
            return put(self, key, payload)

    solve = Model.solve

    @functools.wraps(solve)
    def traced_solve(self, *args, **kwargs):
        with trace.span("bench:lp-solve") as span:
            solution = solve(self, *args, **kwargs)
            if span:
                span.annotate(
                    iterations=int(solution.iterations or 0),
                    nodes=int(getattr(solution, "nodes", 0) or 0),
                )
            return solution

    run_models = batch.run_models

    @functools.wraps(run_models)
    def traced_run_models(models, seeds, cycles, warmup):
        lanes = len(models)
        with trace.span(
            "bench:run-models", lanes=lanes, lane_cycles=lanes * (int(cycles) + int(warmup))
        ):
            return run_models(models, seeds, cycles, warmup)

    evaluate_batch = SearchProblem.evaluate_batch

    @functools.wraps(evaluate_batch)
    def traced_evaluate_batch(self, states, threshold=None):
        with trace.span("bench:evaluate-batch", lanes=len(states)):
            return evaluate_batch(self, states, threshold)

    ArtifactStore.put = traced_put
    Model.solve = traced_solve
    batch.run_models = traced_run_models
    SearchProblem.evaluate_batch = traced_evaluate_batch


def _rows(spans: Sequence[Mapping]) -> Dict[str, Dict]:
    from repro.obs.profile import self_times

    return {row["name"]: row for row in self_times(spans)}


def _annotation_sum(spans: Iterable[Mapping], name: str, field: str) -> float:
    return sum(
        float((span.get("annotations") or {}).get(field) or 0)
        for span in spans
        if span.get("name") == name
    )


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def fold(
    spans: Sequence[Mapping],
    *,
    cache_hits: float = 0.0,
    cache_lookups: float = 0.0,
    service: Optional[Mapping[str, float]] = None,
    retries: float = 0.0,
    trace_overhead_pct: float = 0.0,
    calibration_ms: float = 0.0,
) -> Dict[str, float]:
    """The per-layer table of one traced round.

    Times ending in ``_s`` are totals over the round; ``_ms`` service
    figures are per request.  A layer the workload leaves idle reads 0.
    """
    rows = _rows(spans)

    def wall(name: str) -> float:
        return float(rows.get(name, {}).get("wall", 0.0))

    def calls(name: str) -> int:
        return int(rows.get(name, {}).get("calls", 0))

    lp_solve = wall("bench:lp-solve")
    lp_iterations = _annotation_sum(spans, "bench:lp-solve", "iterations")
    sim_batch = wall("bench:run-models")
    lane_cycles = _annotation_sum(spans, "bench:run-models", "lane_cycles")
    evaluations = _annotation_sum(spans, "search", "evaluations")
    evaluate_batch = wall("bench:evaluate-batch")
    service = dict(service or {})
    request_rows = rows.get("request", {})
    table = {
        "pipeline.build_s": wall("stage:build"),
        "pipeline.optimize_s": wall("stage:optimize"),
        "pipeline.simulate_s": wall("stage:simulate"),
        "pipeline.store_get_s": wall("store-get"),
        "pipeline.store_put_s": wall("bench:store-put"),
        "lp.solve_s": lp_solve,
        "lp.iterations": lp_iterations,
        "lp.bb_nodes": _annotation_sum(spans, "bench:lp-solve", "nodes"),
        "lp.us_per_iteration": _ratio(lp_solve * 1e6, lp_iterations),
        "core.milp_solves": _annotation_sum(spans, "stage:optimize", "milp_solves"),
        "sim.batch_s": sim_batch,
        "sim.lane_cycles": lane_cycles,
        "sim.ns_per_lane_cycle": _ratio(sim_batch * 1e9, lane_cycles),
        "sim.cache_hit_ratio": _ratio(cache_hits, cache_lookups),
        "search.evaluations": evaluations,
        "search.batches": float(calls("bench:evaluate-batch")),
        "search.evaluate_batch_s": evaluate_batch,
        "search.strategy_s": max(0.0, wall("search") - evaluate_batch),
        "search.simulated_share": _ratio(
            _annotation_sum(spans, "search", "simulations"), evaluations
        ),
        "service.client_ms": service.get("client_ms", 0.0),
        "service.exchanges_per_request": service.get("exchanges_per_request", 0.0),
        "service.request_self_ms": _ratio(
            float(request_rows.get("self", 0.0)) * 1e3, float(request_rows.get("calls", 0))
        ),
        "service.cache_hits_memory": service.get("cache_hits_memory", 0.0),
        "service.cache_hits_store": service.get("cache_hits_store", 0.0),
        "service.coalesced": service.get("coalesced", 0.0),
        "service.queue_wait_ms": _ratio(wall("queue-wait") * 1e3, calls("queue-wait")),
        "service.simulate_batch_ms": _ratio(
            wall("simulate-batch") * 1e3, calls("simulate-batch")
        ),
        "service.lanes_per_batch": service.get("lanes_per_batch", 0.0),
        "resilience.retries": float(retries),
        "obs.trace_overhead_pct": float(trace_overhead_pct),
        "host.calibration_ms": float(calibration_ms),
    }
    return table


def client_minus_request_ms(
    latencies: Mapping[Tuple[str, str], float], spans: Sequence[Mapping]
) -> List[float]:
    """Per request: client latency minus the server ``request`` span, in ms.

    ``latencies`` maps the ``(trace_id, parent_span_id)`` each request
    carried to the latency its client measured.
    """
    server = {
        (span.get("trace_id"), span.get("parent_id")): float(span.get("seconds") or 0.0)
        for span in spans
        if span.get("name") == "request"
    }
    return [
        (latency - server[ref]) * 1e3
        for ref, latency in latencies.items()
        if ref in server
    ]


def median_or_zero(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0
