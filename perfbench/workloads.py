"""The benchmark's four workloads: inputs from a seed, one operation, its checks.

Each workload turns the workload seed into graph-family tuples and run
seeds (seed 0 gives the experiment-registry instances), builds the graphs in
:func:`setup`, and runs one *operation* in :func:`operate`: the workload's
public call plus its correctness checks.  An operation returns its
*physics* -- simulated statistics that repeat exactly for a fixed seed -- and
a list of failed checks.

Only graphs and seeds reach the program; everything else here is the
benchmark's own.  Calls into the graph, verification and exact-oracle
layers are wrapped in call-site spans (no-ops when untraced); the remaining
layers are wrapped by :func:`spans.instrument` in the traced run.
"""

from __future__ import annotations

import contextlib
import traceback
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from typing import Any

import repro.distributed.simulator as simulator
from repro.core import run_two_spanner
from repro.core.clique_routing import TargetedFanoutProgram, run_targeted_fanout
from repro.core.directed_two_spanner import (
    DirectedTwoSpannerProgram,
    run_directed_two_spanner,
)
from repro.core.flood_max import FloodMaxProgram, run_flood_max
from repro.core.two_spanner import TwoSpannerProgram
from repro.distributed.models import congest_model
from repro.experiments.families import build_graph, clear_graph_memo
from repro.spanner.optimal import minimum_k_spanner_exact, minimum_k_spanner_exact_directed
from repro.spanner.verify import is_k_spanner, is_k_spanner_directed

from spans import patched

Physics = dict[str, Any]

FLOOD_ROUNDS = 12
FANOUT, FANOUT_ROUNDS = 8, 24


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``specs(seed, tiny)`` gives the graph-family tuples; ``run(graphs, seed,
    tracer)`` performs the public call and returns ``(physics, errors)``;
    ``programs`` are the node-program classes whose ``on_start`` /
    ``on_round`` the traced run records as ``core.step``.
    """

    name: str
    specs: Callable[[int, bool], list[tuple]]
    run: Callable[[list, int, Any], tuple[Physics, list[str]]]
    programs: tuple[type, ...]


def setup(workload: Workload, seed: int, tiny: bool, tracer: Any) -> list:
    """Build and compile the workload's graphs as a fresh process would.

    The topology memo is cleared first, so every call pays generation and
    the CSR compile (``freeze()``) in full.
    """
    clear_graph_memo()
    graphs = []
    for spec in workload.specs(seed, tiny):
        with tracer.span("graphs.generate"):
            graph = build_graph(spec)
        with tracer.span("graphs.freeze"):
            graph.freeze()
        graphs.append(graph)
    return graphs


def operate(
    workload: Workload, graphs: list, seed: int, tracer: Any, pin: Physics | None
) -> tuple[Physics, list[str]]:
    """One operation: the public call, its checks and the physics-pin check.

    Any exception is a failed check, not a crash of the benchmark.
    """
    try:
        physics, errors = workload.run(graphs, seed, tracer)
    except Exception as exc:  # the operation boundary: report, keep measuring
        where = traceback.extract_tb(exc.__traceback__)[-1]
        return {}, [f"{type(exc).__name__}: {exc} (at {where.filename}:{where.lineno})"]
    if pin is not None:
        for key in sorted(set(pin) | set(physics)):
            if physics.get(key) != pin.get(key):
                errors.append(
                    f"physics pin {key}: got {physics.get(key)!r}, pinned {pin.get(key)!r}"
                )
    return physics, errors


def _sim_physics(metrics: Any) -> Physics:
    counters = metrics.as_dict()
    return {
        "sim.rounds": counters["rounds"],
        "sim.messages": counters["messages_sent"],
        "sim.bits": counters["bits_sent"],
    }


@contextlib.contextmanager
def lowering_probe() -> Iterator[list[bool]]:
    """Record each ``try_lower`` decision made by the simulator in the body.

    Wraps the name where ``Simulator`` looks it up; one extra Python call per
    run, so it stays in the untraced run, where the path check needs it.
    """
    decisions: list[bool] = []
    original = simulator.try_lower

    def probe(*args: Any, **kwargs: Any) -> Any:
        view = original(*args, **kwargs)
        decisions.append(view is not None)
        return view

    with patched(simulator, "try_lower", probe):
        yield decisions


# ------------------------------------------------------------ spanner-gnp600
def _spanner_specs(seed: int, tiny: bool) -> list[tuple]:
    return [("gnp", 40, 0.2, 7 + seed) if tiny else ("gnp", 600, 0.05, 7 + seed)]


def _spanner_run(graphs: list, seed: int, tracer: Any) -> tuple[Physics, list[str]]:
    (graph,) = graphs
    result = run_two_spanner(graph, seed=1 + seed)
    with tracer.span("spanner.verify"):
        valid = is_k_spanner(graph, result.edges, 2)
    physics = _sim_physics(result.metrics) | {"spanner.edges": result.size}
    return physics, [] if valid else ["invalid 2-spanner"]



# ------------------------------------------------------------- flood-lowered
def _flood_specs(seed: int, tiny: bool) -> list[tuple]:
    if tiny:
        return [("sparse_gnp_csr", 2_000, 6e-3, 20 + seed)]
    return [("sparse_gnp_csr", 200_000, 6e-5, 20 + seed)]


def _flood_run(graphs: list, seed: int, tracer: Any) -> tuple[Physics, list[str]]:
    (graph,) = graphs
    with lowering_probe() as decisions:
        result = run_flood_max(graph, FLOOD_ROUNDS, seed=3 + seed, engine="columnar")
    lowered = decisions == [True]
    physics = _sim_physics(result.metrics) | {
        "flood.leader": result.leader,
        "distributed.lowered": int(lowered),
    }
    errors = []
    if not result.converged:
        errors.append("flood did not converge")
    elif result.leader != max(graph.freeze().labels):
        errors.append(f"flood elected {result.leader!r}, not the largest label")
    if not lowered:
        errors.append(f"flood run was not lowered (try_lower decisions: {decisions})")
    return physics, errors



# -------------------------------------------------------------- oracle-exact
def _oracle_specs(seed: int, tiny: bool) -> list[tuple]:
    # The exact solver's cost swings by orders of magnitude between random
    # instances of one size, so the seed moves only the algorithms' run
    # seeds: the instances stay the E01/E03 registry graphs.
    if tiny:
        return [("connected_gnp", 7, 0.5, 1), ("connected_gnp", 8, 0.4, 2),
                ("bidirected_complete", 4)]
    return [("connected_gnp", 14, 0.45, 1), ("connected_gnp", 16, 0.35, 2),
            ("bidirected_complete", 6)]


def _oracle_run(graphs: list, seed: int, tracer: Any) -> tuple[Physics, list[str]]:
    undirected_a, undirected_b, bidirected = graphs
    cases = [
        (undirected_a, run_two_spanner, 11, "edges", minimum_k_spanner_exact, is_k_spanner),
        (undirected_b, run_two_spanner, 11, "edges", minimum_k_spanner_exact, is_k_spanner),
        (bidirected, run_directed_two_spanner, 7, "arcs",
         minimum_k_spanner_exact_directed, is_k_spanner_directed),
    ]
    physics: Physics = {"sim.rounds": 0, "sim.messages": 0, "sim.bits": 0,
                        "spanner.edges": 0, "spanner.opt_edges": 0}
    ratio = 0.0
    errors = []
    for index, (graph, algorithm, run_seed, field, exact, verify) in enumerate(cases):
        result = algorithm(graph, seed=run_seed + seed)
        found = getattr(result, field)
        with tracer.span("spanner.exact"):
            optimum = exact(graph, 2)
        with tracer.span("spanner.verify"):
            valid = verify(graph, found, 2) and verify(graph, optimum, 2)
        if not valid:
            errors.append(f"instance {index}: invalid 2-spanner")
        if len(optimum) > len(found):
            errors.append(f"instance {index}: optimum {len(optimum)} above algorithm {len(found)}")
        for key, value in _sim_physics(result.metrics).items():
            physics[key] += value
        physics["spanner.edges"] += len(found)
        physics["spanner.opt_edges"] += len(optimum)
        ratio = max(ratio, len(found) / len(optimum))
    physics["spanner.ratio"] = ratio
    return physics, errors



# ------------------------------------------------------------ fanout-congest
def _fanout_specs(seed: int, tiny: bool) -> list[tuple]:
    if tiny:
        return [("sparse_connected_gnp", 300, 0.03, 9 + seed)]
    return [("sparse_connected_gnp", 4_000, 0.002, 9 + seed)]


def _fanout_run(graphs: list, seed: int, tracer: Any) -> tuple[Physics, list[str]]:
    (graph,) = graphs
    with lowering_probe() as decisions:
        result = run_targeted_fanout(
            graph,
            fanout=FANOUT,
            rounds=FANOUT_ROUNDS,
            seed=seed,
            model=congest_model(graph.number_of_nodes()),
            engine="columnar",
        )
    physics = _sim_physics(result.metrics) | {
        "fanout.checksum": result.checksum,
        "distributed.lowered": int(any(decisions)),
    }
    errors = []
    if result.heard != physics["sim.messages"]:
        errors.append(f"{physics['sim.messages']} messages sent but {result.heard} heard")
    return physics, errors


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("spanner-gnp600", _spanner_specs, _spanner_run, (TwoSpannerProgram,)),
        Workload("flood-lowered", _flood_specs, _flood_run, (FloodMaxProgram,)),
        Workload(
            "oracle-exact", _oracle_specs, _oracle_run,
            (TwoSpannerProgram, DirectedTwoSpannerProgram),
        ),
        Workload("fanout-congest", _fanout_specs, _fanout_run, (TargetedFanoutProgram,)),
    )
}
