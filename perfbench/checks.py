"""Output checks of the benchmark.

Every check here is derived from a property of the method or from a
computation made apart from the program; none compares against a recorded
copy of earlier output.  A failed check raises :class:`CheckFailed`, which
makes the run report ``"correct": false``.
"""

from __future__ import annotations

import json
import math
from collections import deque
from typing import Dict, Mapping, Tuple

import networkx as nx


class CheckFailed(AssertionError):
    """A benchmark output violates a property of the method."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def canonical(document) -> str:
    """Byte-level form used for replay and warm/cold comparisons."""
    return json.dumps(document, sort_keys=True)


def retimed_tokens(rrg, lags: Mapping[str, int]) -> Dict[int, int]:
    """R0'(e) = R0(e) + r(dst) - r(src): the definition of applying a retiming."""
    return {
        edge.index: edge.tokens + int(lags.get(edge.dst, 0)) - int(lags.get(edge.src, 0))
        for edge in rrg.edges
    }


def check_legal(rrg, tokens: Mapping[int, int], buffers: Mapping[int, int], what: str) -> None:
    """A legal retiming and recycling of ``rrg``.

    * The token change on every edge is a potential difference, so the token
      sum on every cycle is unchanged (checked on a spanning forest of the
      undirected multigraph, then on every remaining edge).
    * No edge holds more tokens than buffers, and no buffer count is negative.
    """
    delta = {edge.index: int(tokens[edge.index]) - edge.tokens for edge in rrg.edges}
    adjacency: Dict[str, list] = {node.name: [] for node in rrg.nodes}
    for edge in rrg.edges:
        adjacency[edge.src].append((edge.dst, delta[edge.index]))
        adjacency[edge.dst].append((edge.src, -delta[edge.index]))
    potential: Dict[str, int] = {}
    for root in adjacency:
        if root in potential:
            continue
        potential[root] = 0
        queue = deque([root])
        while queue:
            node = queue.popleft()
            for other, change in adjacency[node]:
                if other not in potential:
                    potential[other] = potential[node] + change
                    queue.append(other)
    for edge in rrg.edges:
        require(
            potential[edge.dst] - potential[edge.src] == delta[edge.index],
            f"{what}: token change on edge {edge.src}->{edge.dst} is not a "
            "retiming (a cycle's token sum changed)",
        )
        count = int(buffers[edge.index])
        require(count >= 0, f"{what}: negative buffer count on {edge.src}->{edge.dst}")
        require(
            int(tokens[edge.index]) <= count,
            f"{what}: edge {edge.src}->{edge.dst} holds {tokens[edge.index]} "
            f"tokens in {count} buffers",
        )


def longest_combinational_path(rrg, buffers: Mapping[int, int]) -> float:
    """Cycle time: the largest node-delay sum over zero-buffer paths.

    Built with networkx over the zero-buffer edges, which liveness makes a
    DAG; endpoints count (Definition 2.2 of the paper).
    """
    graph = nx.DiGraph()
    delays = {node.name: float(node.delay) for node in rrg.nodes}
    graph.add_nodes_from(delays)
    graph.add_edges_from(
        (edge.src, edge.dst) for edge in rrg.edges if int(buffers[edge.index]) == 0
    )
    require(nx.is_directed_acyclic_graph(graph), "combinational cycle in configuration")
    best: Dict[str, float] = {}
    for node in nx.topological_sort(graph):
        incoming = [best[pred] for pred in graph.predecessors(node)]
        best[node] = delays[node] + (max(incoming) if incoming else 0.0)
    return max(best.values()) if best else 0.0


def check_cycle_time(rrg, buffers: Mapping[int, int], reported: float, what: str) -> None:
    expected = longest_combinational_path(rrg, buffers)
    require(
        math.isclose(expected, float(reported), rel_tol=1e-9, abs_tol=1e-9),
        f"{what}: cycle time {reported} but the longest combinational path is {expected}",
    )


def throughput_slack(cycles: int) -> float:
    """Statistical tolerance of a simulated throughput over ``cycles`` cycles.

    A node fires at most once per cycle, so one cycle's firing indicator has
    variance at most 1/4; six standard errors plus one cycle of quantisation.
    """
    return 6.0 * 0.5 / math.sqrt(cycles) + 1.0 / cycles


def check_table2_payload(rrg, payload: Mapping, cycles: int) -> None:
    """Legality, cycle time and the LP bound of one Table 2 job payload."""
    name = payload["graph"]["name"]
    optimize = payload["optimize"]
    points = list(optimize["points"])
    require(points, f"{name}: no Pareto points")
    simulate = payload["simulate"]
    offset = 1 if simulate.get("include_best") else 0
    throughputs = simulate["throughputs"]
    require(len(throughputs) == len(points) + offset, f"{name}: lane count mismatch")
    lanes = ([optimize["best"]] if offset else []) + points
    slack = throughput_slack(cycles)
    for index, (point, simulated) in enumerate(zip(lanes, throughputs)):
        what = f"{name} lane {index}"
        configuration = point["configuration"]
        buffers = {int(k): int(v) for k, v in configuration["buffers"].items()}
        tokens = retimed_tokens(rrg, configuration["lags"])
        check_legal(rrg, tokens, buffers, what)
        check_cycle_time(rrg, buffers, point["cycle_time"], what)
        # xi_lp = tau / theta_lp is a lower bound of xi_sim = tau / theta_sim
        # because the LP throughput bounds the true throughput from above.
        require(
            0.0 < simulated <= float(point["throughput_bound"]) + slack,
            f"{what}: simulated throughput {simulated} exceeds the LP bound "
            f"{point['throughput_bound']} beyond {slack:.4f}",
        )


def check_search_result(rrg, result, what: str) -> None:
    """Legality and cycle time of an incumbent; no worse than the start."""
    configuration = result.best.configuration
    buffers = configuration.buffer_vector()
    check_legal(rrg, configuration.token_vector(), buffers, what)
    check_cycle_time(rrg, buffers, result.best.cycle_time, what)
    require(result.points[0].strategy == "identity", f"{what}: no starting point")
    start = result.points[0].effective_cycle_time
    require(
        result.best.effective_cycle_time <= start,
        f"{what}: incumbent xi {result.best.effective_cycle_time} is worse than "
        f"the starting xi {start}",
    )


def search_signature(result) -> Tuple:
    """What a repeat of the same search must reproduce exactly."""
    configuration = result.best.configuration
    return (
        result.evaluations,
        result.best.effective_cycle_time,
        tuple(sorted(configuration.token_vector().items())),
        tuple(sorted(configuration.buffer_vector().items())),
    )


def figure2_slack(alpha: float, cycles: int) -> float:
    """Tolerance on Figure 2's throughput: six renewal-theory standard errors.

    Each token takes one cycle round the loop with probability alpha and
    three otherwise, so the inter-token time X has mean 3 - 2 alpha and
    variance 4 alpha (1 - alpha); the renewal CLT gives the throughput
    estimate a variance of Var(X) / (E[X]^3 cycles).
    """
    mean = 3.0 - 2.0 * alpha
    sigma = math.sqrt(4.0 * alpha * (1.0 - alpha) / (mean ** 3 * cycles))
    return 6.0 * sigma + 1.0 / cycles


def check_figure2(alpha: float, cycles: int, throughput: float) -> None:
    expected = 1.0 / (3.0 - 2.0 * alpha)
    slack = figure2_slack(alpha, cycles)
    require(
        abs(throughput - expected) <= slack,
        f"figure2 alpha={alpha}: throughput {throughput} vs 1/(3-2a)={expected:.5f} "
        f"(tolerance {slack:.4f})",
    )


def check_bubble_free(cycles: int, throughput: float, what: str) -> None:
    """A configuration with a buffer per token and no bubbles runs at throughput 1."""
    require(
        abs(throughput - 1.0) <= 1.0 / cycles,
        f"{what}: bubble-free throughput {throughput} is not 1",
    )
