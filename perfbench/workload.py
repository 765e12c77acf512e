"""One benchmark workload, run in a process of its own.

``run.py`` starts this script several times per run.  Each start sets the
workload up (imports, kernel load, input generation and, for
``service_mix``, the server until it listens), prints ``READY`` and waits
for one line on stdin:

* ``exit`` ends the process; the start was a set-up sample only.
* ``go`` runs whole rounds of the workload until ``--seconds`` have
  passed, checks every output, and prints the result as one JSON line.

With ``--trace 1`` the rounds run under tracing and the result holds the
per-layer table instead of the end-to-end figures.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import random
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

import checks
import layers
import measure

HERE = Path(__file__).resolve().parent

#: The published root seed of the Table 2 reproduction: graph generation
#: uses it plus the row index (``repro.experiments.table2.table2_jobs``).
TABLE2_GENERATION_SEED = 2009


def _retries_total() -> float:
    from repro.obs.metrics import global_registry

    return global_registry().counter(
        "repro_retries_total", "Retry attempts across all retry policies"
    ).value()


@dataclasses.dataclass
class Mix:
    """Latencies and answers of one round of service requests."""

    cold: List[float]
    cold_results: List[Any]
    warm: List[List[float]]
    warm_results: List[List[Any]]
    untraced: List[float] = dataclasses.field(default_factory=list)
    wall: float = 0.0
    trace_ids: List[str] = dataclasses.field(default_factory=list)
    latency_by_ref: Dict[tuple, float] = dataclasses.field(default_factory=dict)


class Workload:
    """Sample bookkeeping shared by the three workloads."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.quick = bool(args.quick)
        self.traced = bool(args.trace)
        self.tmp = Path(args.tmp)
        self.rng = random.Random(args.seed)
        self.cold: List[float] = []
        self.warm: List[float] = []
        # Untraced twins of traced warm operations (tracing overhead only).
        self.warm_untraced: List[float] = []
        self.work = 0.0
        self.work_seconds = 0.0
        self.attempted = 0
        self.failed = 0
        self.spans: List[Dict[str, Any]] = []
        self.cache_hits = 0.0
        self.cache_lookups = 0.0
        self.retries_before = 0.0
        # Filled from the server by traced service_mix rounds.
        self.service_layers: Dict[str, float] = {}
        self.server_retries = 0.0

    # -- in-process tracing ---------------------------------------------------

    def timed(self, operation: Callable[[], Any], traced: bool):
        """Run one operation; returns ``(seconds, result)``.

        Traced operations run as the root of a fresh trace; their spans are
        moved out of the bounded ring right after, so none is evicted.
        """
        if not traced:
            started = time.perf_counter()
            result = operation()
            return time.perf_counter() - started, result
        from repro.obs import trace
        from repro.sim.cache import cache_stats

        trace_id = trace.new_trace_id()
        before = cache_stats()
        started = time.perf_counter()
        with trace.start_trace("bench:operation", trace_id=trace_id):
            result = operation()
        seconds = time.perf_counter() - started
        after = cache_stats()
        hits = after["throughput_hits"] - before["throughput_hits"]
        self.cache_hits += hits
        self.cache_lookups += hits + after["throughput_misses"] - before["throughput_misses"]
        self.spans.extend(trace.ring_spans(trace_id))
        trace.clear_ring()
        return seconds, result

    def warm_op(self, operation: Callable[[], Any]):
        """A warm operation; traced runs also time an untraced twin first."""
        if self.traced:
            seconds, _ = self.timed(operation, traced=False)
            self.warm_untraced.append(seconds)
        seconds, result = self.timed(operation, traced=self.traced)
        self.warm.append(seconds)
        return result

    # -- results --------------------------------------------------------------

    def end_to_end(self) -> Dict[str, float]:
        return {
            "cold_p50_ms": measure.median_ms(self.cold),
            "cold_p95_ms": measure.p95_ms(self.cold),
            "warm_p50_ms": measure.median_ms(self.warm),
            "rate_per_s": self.work / self.work_seconds,
            "peak_rss_mb": self.peak_rss_mb(),
        }

    def trace_overhead_pct(self) -> float:
        untraced = measure.median_ms(self.warm_untraced)
        return (measure.median_ms(self.warm) / untraced - 1.0) * 100.0

    def per_layer(self) -> Dict[str, float]:
        return layers.fold(
            self.spans,
            cache_hits=self.cache_hits,
            cache_lookups=self.cache_lookups,
            service=self.service_layers,
            retries=_retries_total() - self.retries_before + self.server_retries,
            trace_overhead_pct=self.trace_overhead_pct(),
            calibration_ms=measure.calibration_ms(),
        )

    def peak_rss_mb(self) -> float:
        return measure.own_peak_rss_mb()

    def start(self) -> None:
        self.retries_before = _retries_total()

    def close(self) -> None:
        pass


class Table2Sweep(Workload):
    """The Table 2 reproduction: cold MIN_EFF_CYC jobs, then store replays."""

    #: Nine circuits: with an odd count the medians fall on one circuit, not
    #: between two unlike ones.
    CIRCUITS = ("s27", "s208", "s420", "s382", "s400", "s526", "s444", "s386",
                "s344")

    def setup(self) -> None:
        from repro.experiments.table2 import table2_job, table2_jobs
        from repro.pipeline.runner import run_jobs
        from repro.pipeline.stages import BuildSpec
        from repro.sim.cache import clear_caches

        names = ("s27", "s208") if self.quick else self.CIRCUITS
        scale = 0.1 if self.quick else 0.2
        self.replays = 2 if self.quick else 25
        # The circuits are the reproduction's fixed Table 2 set; the seed
        # drives the simulation of every candidate configuration.
        sim_seed = self.rng.randrange(1, 2**31)
        self.jobs = [
            dataclasses.replace(
                job, simulate=dataclasses.replace(job.simulate, seed=sim_seed)
            )
            for job in table2_jobs(scale=scale, names=names,
                                   seed=TABLE2_GENERATION_SEED)
        ]
        self.cycles = self.jobs[0].simulate.cycles
        self.graphs = {job.job_id: job.build.build() for job in self.jobs}
        # Finish lazy set-up (solver imports, kernel load) on a job that is
        # not part of the sweep, then drop what it cached.
        warmup = table2_job(
            BuildSpec.from_scenario("iscas", name="s27", scale=0.1, seed=1),
            cycles=200, seed=1, job_id="warmup",
        )
        run_jobs([warmup])
        clear_caches()

    def round(self, index: int) -> None:
        """Two cold passes, each into a fresh store.

        Replays of the first pass's store follow every cold job of the
        second, so the warm samples spread over the whole pass.
        """
        first, cold_text = self.cold_pass(self.tmp / f"table2-store-{index}-a")
        self.cold_pass(self.tmp / f"table2-store-{index}-b",
                       after_each=lambda: self.replay(first, cold_text))
        self.attempted += 2 * len(self.jobs) + len(self.jobs) * self.replays
        self.deadline_operation()

    def cold_pass(self, store_dir: Path,
                  after_each: Optional[Callable[[], None]] = None):
        """Every circuit cold into a fresh store; returns the store and payloads."""
        from repro.pipeline.runner import run_jobs
        from repro.pipeline.store import ArtifactStore
        from repro.sim.cache import clear_caches

        store = ArtifactStore(store_dir)
        clear_caches()
        cold_text: Dict[str, str] = {}
        for job in self.jobs:
            seconds, payloads = self.timed(
                lambda: run_jobs([job], store=store), traced=self.traced
            )
            self.cold.append(seconds)
            self.work += 1
            self.work_seconds += seconds
            payload = payloads[0]
            checks.check_table2_payload(self.graphs[job.job_id], payload, self.cycles)
            cold_text[job.job_id] = checks.canonical(payload)
            if after_each is not None:
                after_each()
        return store, cold_text

    def replay(self, store, cold_text: Dict[str, str]) -> None:
        """Warm operations: replays of the whole sweep from ``store``."""
        from repro.pipeline.runner import run_jobs

        for _ in range(self.replays):
            payloads = self.warm_op(lambda: run_jobs(self.jobs, store=store))
            for job, payload in zip(self.jobs, payloads):
                checks.require(
                    checks.canonical(payload) == cold_text[job.job_id],
                    f"{job.job_id}: store replay differs from the cold payload",
                )

    def deadline_operation(self) -> None:
        """``table2-small`` past its deadline must render a DEGRADED result.

        The deadline (1 us) has always passed when the optimize stage starts,
        so the stage degrades before the late-evaluation baseline exists and
        ``table2_row_from_payload`` raises ``KeyError: 'baseline'`` on every
        run.  Counted as failed, not fatal.  A 1 ms deadline would show the
        fault only when the build stage is slower than 1 ms.
        """
        from repro.experiments.presets import RunOptions, run_preset
        from repro.resilience.deadline import Deadline

        self.attempted += 1
        try:
            with Deadline.after(1e-6).scope():
                result = run_preset("table2-small", RunOptions(names=("s27",)))
        except Exception as exc:  # noqa: BLE001 - the known fault is counted
            self.failed += 1
            print(f"table2_sweep: deadline operation failed: "
                  f"{type(exc).__name__}: {exc}", file=sys.stderr)
            return
        if not result.get("degraded"):
            self.failed += 1
            print("table2_sweep: deadline operation returned no DEGRADED mark",
                  file=sys.stderr)


class SearchLarge(Workload):
    """The anytime portfolio on 500-node random RRGs, cold then repeated."""

    def setup(self) -> None:
        from repro.search import search_minimize
        from repro.sim.cache import clear_caches
        from repro.workloads.random_rrg import large_random_rrg

        nodes = 60 if self.quick else 500
        count = 1 if self.quick else 12
        self.repeats = 1 if self.quick else 2
        self.time_budget = 0.5 if self.quick else 4.0
        # Fixed inputs: graph ``n`` is generated and searched with seed ``n``.
        # Drawing search seeds from ``--seed`` made each search's cost bimodal
        # (74 or 97 simulations on one graph), which spread ten runs by
        # 11-21%; see README.md.
        self.inputs = [
            (large_random_rrg(nodes, seed=number), number)
            for number in range(1, count + 1)
        ]
        search_minimize(large_random_rrg(40, seed=1), time_budget=0.05, seed=1,
                        include_milp=False)
        clear_caches()

    def search(self, rrg, seed):
        from repro.search import search_minimize

        return search_minimize(
            rrg, strategies=("descent", "anneal"), time_budget=self.time_budget,
            seed=seed, include_milp=False,
        )

    def round(self, index: int) -> None:
        from repro.sim.cache import clear_caches

        for number, (rrg, seed) in enumerate(self.inputs):
            clear_caches()
            seconds, result = self.timed(lambda: self.search(rrg, seed), self.traced)
            self.cold.append(seconds)
            self.work += result.evaluations
            self.work_seconds += seconds
            what = f"search graph {number}"
            checks.check_search_result(rrg, result, what)
            signature = checks.search_signature(result)
            for _ in range(self.repeats):
                again = self.warm_op(lambda: self.search(rrg, seed))
                checks.require(
                    checks.search_signature(again) == signature,
                    f"{what}: a repeat changed the incumbent or evaluation count",
                )
        self.attempted += len(self.inputs) * (1 + self.repeats)


class ServiceMix(Workload):
    """``repro serve`` in a subprocess, driven by closed-loop clients."""

    ALPHAS = (0.3, 0.5, 0.7, 0.9)

    def setup(self) -> None:
        from repro.service.client import ServiceClient

        self.clients = max(1, min(2, os.cpu_count() or 1))
        self.exchanges = 0
        self.exchange_lock = threading.Lock()
        self._count_exchanges(ServiceClient)
        store = self.tmp / f"service-store-{os.getpid()}"
        if self.traced:
            command = [sys.executable, str(HERE / "serve.py")]
        else:
            command = [sys.executable, "-m", "repro", "serve"]
        command += ["--port", "0", "--store", str(store), "--queue-limit", "256"]
        self.server = subprocess.Popen(
            command, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True
        )
        line = self.server.stdout.readline()
        if "service: listening on" not in line:
            self.close()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.rsplit(":", 1)[1])
        self.client = ServiceClient(port=self.port, timeout=120)
        self.figure2 = 24 if self.quick else 220
        self.iscas = 4 if self.quick else 20
        self.runs = 1 if self.quick else 4
        self.repeats = 3
        self.cycles = 2000
        self.iscas_params = {"name": "s641", "scale": 0.2 if self.quick else 0.5,
                             "seed": self.rng.randrange(1, 2**31)}
        self.seed_base = self.rng.randrange(1, 2**30)

    def _count_exchanges(self, client_class) -> None:
        exchange = client_class._exchange_once
        workload = self

        def counted(self, method, path, body):
            with workload.exchange_lock:
                workload.exchanges += 1
            return exchange(self, method, path, body)

        client_class._exchange_once = counted

    def bodies(self, index: int) -> List[Dict[str, Any]]:
        """The cold requests of round ``index``: every one is distinct."""
        rng = random.Random(self.seed_base + index)
        base = self.seed_base + 1_000_000 * index
        bodies: List[Dict[str, Any]] = []
        for number in range(self.figure2):
            bodies.append({
                "kind": "simulate", "scenario": "figure2",
                "params": {"alpha": self.ALPHAS[number % len(self.ALPHAS)]},
                "cycles": self.cycles, "seed": base + number,
            })
        for number in range(self.iscas):
            bodies.append({
                "kind": "simulate", "scenario": "iscas", "params": self.iscas_params,
                "cycles": self.cycles, "seed": base + 500_000 + number,
            })
        circuits = ("s27", "s208", "s420")
        for number in range(self.runs):
            bodies.append({
                "kind": "run", "target": "table2-small",
                "options": {"names": [circuits[number % len(circuits)]],
                            "seed": base + 900_000 + number},
            })
        rng.shuffle(bodies)
        return bodies

    def drive(self, bodies, tag: str) -> "Mix":
        """Send every body cold, then ``repeats`` more times, from closed-loop clients.

        Each client takes the next unsent body once its previous request is
        answered and asks it again right after its cold answer, so warm
        requests spread over the whole run.  In traced runs every request
        carries a trace ref (one trace id per client) and each warm request
        is preceded by an untraced twin.
        """
        from repro.obs.trace import TRACE_FIELD
        from repro.service.client import ServiceClient

        count = len(bodies)
        mix = Mix(
            cold=[0.0] * count, cold_results=[None] * count,
            warm=[[0.0] * self.repeats for _ in range(count)],
            warm_results=[[None] * self.repeats for _ in range(count)],
        )
        errors: List[BaseException] = []
        cursor = iter(range(count))
        lock = threading.Lock()

        def ask(client, body, ref):
            if ref is not None:
                body = dict(body, **{TRACE_FIELD: "/".join(ref)})
            started = time.perf_counter()
            response = client.submit_and_wait(body, timeout=120)
            seconds = time.perf_counter() - started
            if ref is not None:
                mix.latency_by_ref[ref] = seconds
            return seconds, response["result"]

        def client_loop(number: int) -> None:
            client = ServiceClient(port=self.port, timeout=120)
            trace_id = f"pb{tag}c{number}" if self.traced else None
            if trace_id:
                mix.trace_ids.append(trace_id)
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None or errors:
                    return
                body = bodies[index]
                try:
                    mix.cold[index], mix.cold_results[index] = ask(
                        client, body, trace_id and (trace_id, f"c{index}")
                    )
                    for repeat in range(self.repeats):
                        if self.traced:
                            mix.untraced.append(ask(client, body, None)[0])
                        (mix.warm[index][repeat],
                         mix.warm_results[index][repeat]) = ask(
                            client, body, trace_id and (trace_id, f"w{index}x{repeat}")
                        )
                except Exception as exc:  # noqa: BLE001 - reported below
                    with lock:
                        errors.append(exc)
                    return

        threads = [threading.Thread(target=client_loop, args=(n,))
                   for n in range(self.clients)]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        mix.wall = time.perf_counter() - started
        if errors:
            raise RuntimeError(f"{len(errors)} request(s) failed: {errors[0]!r}")
        return mix

    def check_answers(self, bodies, results) -> None:
        for body, result in zip(bodies, results):
            if body["kind"] == "run":
                continue
            if body["scenario"] == "figure2":
                checks.check_figure2(body["params"]["alpha"], body["cycles"],
                                     result["throughput"])
            else:
                checks.check_bubble_free(body["cycles"], result["throughput"],
                                         f"iscas seed {body['seed']}")

    def stats(self) -> Dict[str, float]:
        from repro.obs.metrics import parse_metrics

        stats = self.client.stats()
        requests = stats.get("requests", {})
        sim = stats.get("cache", {}).get("sim", {})
        retries = parse_metrics(self.client.metrics()).get("repro_retries_total", {})
        return {
            "cache_hits_memory": requests.get("cache_hits_memory", 0),
            "cache_hits_store": requests.get("cache_hits_store", 0),
            "coalesced": requests.get("coalesced", 0),
            "batches": requests.get("batches", 0),
            "batched_lanes": requests.get("batched_lanes", 0),
            "sim_hits": sim.get("throughput_hits", 0),
            "sim_misses": sim.get("throughput_misses", 0),
            "retries": sum(retries.values()),
        }

    def round(self, index: int) -> None:
        bodies = self.bodies(index)
        before = self.stats() if self.traced else None
        exchanges_before = self.exchanges
        mix = self.drive(bodies, f"{self.args.seed}r{index}")
        self.cold.extend(mix.cold)
        self.warm.extend(seconds for repeats in mix.warm for seconds in repeats)
        self.warm_untraced.extend(mix.untraced)
        self.check_answers(bodies, mix.cold_results)
        for body, cold_result, warm_results in zip(
            bodies, mix.cold_results, mix.warm_results
        ):
            for warm_result in warm_results:
                checks.require(
                    checks.canonical(warm_result) == checks.canonical(cold_result),
                    f"warm answer differs from its cold answer: {body}",
                )
        requests = len(bodies) * (1 + self.repeats)
        self.work += requests
        self.work_seconds += mix.wall
        self.attempted += requests
        self.rss = measure.child_peak_rss_mb(self.server.pid)
        if self.traced:
            self.fold_service(before, self.exchanges - exchanges_before,
                              len(bodies) * (1 + 2 * self.repeats), mix)
        self.check_runs(bodies, mix.cold_results)

    def check_runs(self, bodies, results) -> None:
        """A ``run`` answer equals ``run_preset`` called in this process."""
        from repro.experiments.presets import RunOptions, run_preset

        for body, result in zip(bodies, results):
            if body["kind"] != "run":
                continue
            local = run_preset(body["target"], RunOptions.from_mapping(body["options"]))
            checks.require(
                checks.canonical(json.loads(json.dumps(local))) == checks.canonical(result),
                f"service answer differs from run_preset: {body}",
            )

    def fold_service(self, before, exchanges: int, requests: int, mix) -> None:
        """Server spans and ``/stats`` deltas of a traced round."""
        after = self.stats()
        for trace_id in mix.trace_ids:
            self.spans.extend(self.client.trace_spans(trace_id).get("spans", []))
        delta = {key: after[key] - before[key] for key in after}
        self.service_layers = {
            "client_ms": layers.median_or_zero(
                layers.client_minus_request_ms(mix.latency_by_ref, self.spans)
            ),
            "exchanges_per_request": exchanges / requests,
            "cache_hits_memory": delta["cache_hits_memory"],
            "cache_hits_store": delta["cache_hits_store"],
            "coalesced": delta["coalesced"],
            "lanes_per_batch": (delta["batched_lanes"] / delta["batches"]
                                if delta["batches"] else 0.0),
        }
        self.cache_hits += delta["sim_hits"]
        self.cache_lookups += delta["sim_hits"] + delta["sim_misses"]
        self.server_retries = delta["retries"]

    def peak_rss_mb(self) -> float:
        return self.rss

    def close(self) -> None:
        server = getattr(self, "server", None)
        if server is None or server.poll() is not None:
            return
        try:
            self.client.shutdown()
            server.wait(timeout=30)
        except Exception:  # noqa: BLE001 - fall through to a hard stop
            server.kill()
            server.wait(timeout=30)


WORKLOADS = {
    "table2_sweep": Table2Sweep,
    "search_large": SearchLarge,
    "service_mix": ServiceMix,
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--quick", action="store_true")
    return parser.parse_args(argv)


def run_rounds(workload: Workload, seconds: float) -> Dict[str, Any]:
    workload.start()
    started = time.perf_counter()
    index = 0
    correct = True
    try:
        while True:
            workload.round(index)
            index += 1
            if time.perf_counter() - started >= seconds:
                break
    except checks.CheckFailed as exc:
        correct = False
        print(f"{workload.args.workload}: check failed: {exc}", file=sys.stderr)
    if not correct:
        return {"correct": False, "attempted": max(1, workload.attempted),
                "failed": workload.failed, "metrics": {}, "rounds": index}
    metrics = workload.per_layer() if workload.traced else workload.end_to_end()
    return {"correct": True, "attempted": workload.attempted,
            "failed": workload.failed, "metrics": metrics, "rounds": index}


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload](args)
    try:
        if workload.traced:
            layers.install()
        workload.setup()
        print("READY", flush=True)
        command = sys.stdin.readline().strip()
        if command != "go":
            return 0
        result = run_rounds(workload, args.seconds)
        print(json.dumps(result), flush=True)
        return 0 if result["correct"] else 1
    finally:
        workload.close()


if __name__ == "__main__":
    sys.exit(main())
