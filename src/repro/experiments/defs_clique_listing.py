"""Registry definition for E21 — the clique-listing / targeted-traffic tier.

E21 is the experiment family whose traffic is *targeted* end to end,
exercising the fast path that carries ``ctx.send`` traffic on the
``columnar`` engine:

* **listing** — partition-based triangle listing
  (:mod:`repro.core.clique_listing`, per arXiv 2205.09245) on a seeded
  G(n, p) clique overlay, in both delivery modes: ``direct`` (one replica
  per link per round) and ``routed`` (the Lenzen-style two-phase primitive
  of :mod:`repro.core.clique_routing`).  Every scenario checks its listed
  triangle set against the :func:`~repro.core.clique_listing.brute_force_triangles`
  oracle — the output is verified, not just measured;
* **fan-out** — the deterministic targeted fan-out throughput workload
  (:class:`~repro.core.clique_routing.TargetedFanoutProgram`) at n = 4000,
  whose folded checksum doubles as a differential fingerprint across
  engines.

The same workload runs on both engines so the cross-scenario ``verify``
hook can pin bit-for-bit physics agreement with the ``reference`` oracle.
As in the other substrate tiers, wall time lives under ``timing.*`` and
the columnar-vs-reference speedup *assertion* lives in
``benchmarks/bench_e21_clique_listing.py`` behind the ``E21_MIN_SPEEDUP``
knob; the registry only pins physics so CLI sweeps never flake on loaded
machines.
"""

from __future__ import annotations

import time
from typing import Any

from repro.core.clique_listing import brute_force_triangles, run_clique_listing
from repro.core.clique_routing import run_targeted_fanout
from repro.distributed import DEFAULT_ENGINE
from repro.experiments.families import build_graph
from repro.experiments.registry import Experiment, check, register
from repro.experiments.spec import ScenarioSpec

_E21_SEED = 7

_LISTING_GRAPH = ("gnp", 60, 0.3, 5)
_FANOUT_GRAPH = ("sparse_connected_gnp", 4000, 0.002, 9)
_FANOUT_K = 8
_FANOUT_ROUNDS = 24

#: scenario name -> (workload, engine, mode-or-None).
_E21_SCENARIOS: dict[str, tuple[str, str, str | None]] = {
    "listing direct reference": ("listing", "reference", "direct"),
    "listing direct columnar": ("listing", "columnar", "direct"),
    "listing routed reference": ("listing", "reference", "routed"),
    "listing routed columnar": ("listing", "columnar", "routed"),
    "fanout reference": ("fanout", "reference", None),
    "fanout columnar": ("fanout", "columnar", None),
}


def _run_e21(spec: ScenarioSpec) -> dict[str, Any]:
    workload = spec.param("workload")
    graph = build_graph(spec.param("graph"))
    n = graph.number_of_nodes()
    engine = spec.engine or DEFAULT_ENGINE
    start = time.perf_counter()
    if workload == "listing":
        result = run_clique_listing(
            graph,
            mode=spec.param("mode"),
            seed=spec.param("run_seed"),
            engine=engine,
        )
        elapsed = time.perf_counter() - start
        oracle = brute_force_triangles(graph)
        check(
            result.triangles == oracle,
            f"{spec.name}: listed {len(result.triangles)} triangles, "
            f"oracle has {len(oracle)}",
        )
        figure = len(result.triangles)
        metrics = result.metrics
        rounds = result.rounds
        extra = {"k": result.k, "replicas": result.replicas, "mode": result.mode}
    else:
        result = run_targeted_fanout(
            graph,
            fanout=spec.param("fanout"),
            rounds=spec.param("rounds"),
            seed=spec.param("run_seed"),
            engine=engine,
        )
        elapsed = time.perf_counter() - start
        # Fault-free LOCAL run: every sent message is heard exactly once.
        check(
            result.heard == result.metrics.messages_sent,
            f"{spec.name}: heard {result.heard} of "
            f"{result.metrics.messages_sent} messages on a fault-free run",
        )
        check(result.checksum != 0, f"{spec.name}: degenerate zero checksum")
        figure = result.checksum
        metrics = result.metrics
        rounds = result.rounds
        extra = {"heard": result.heard}
    messages = metrics.messages_sent
    out: dict[str, Any] = {
        "scenario": spec.name,
        "workload": workload,
        "engine": engine,
        "n": n,
        "rounds": rounds,
        "figure": figure,
        "metrics": metrics,
        "timing": {
            "elapsed_s": elapsed,
            "messages_per_sec": messages / elapsed if elapsed else 0.0,
        },
    }
    out.update(extra)
    return out


def _verify_e21(results) -> dict[str, Any]:
    # Bit-for-bit physics agreement across engines, per workload group.
    groups: dict[tuple[str, Any], list[dict[str, Any]]] = {}
    for result in results:
        key = (result["workload"], result.get("mode"))
        groups.setdefault(key, []).append(result)
    summary: dict[str, Any] = {}
    for (workload, mode), members in groups.items():
        tag = workload if mode is None else f"{workload} {mode}"
        baseline = members[0]
        for other in members[1:]:
            for key in baseline:
                if key.startswith("timing.") or key in ("engine", "scenario"):
                    continue
                check(
                    baseline[key] == other[key],
                    f"{tag}: engines {baseline['engine']} and {other['engine']} "
                    f"disagree on {key}: {baseline[key]!r} != {other[key]!r}",
                )
        summary[f"{tag}.engines"] = len(members)
        summary[f"{tag}.figure"] = baseline["figure"]
        summary[f"{tag}.rounds"] = baseline["rounds"]
        summary[f"{tag}.bits"] = baseline["metrics.bits_sent"]
    return summary


def _make_spec(name: str, workload: str, engine: str, mode: str | None) -> ScenarioSpec:
    if workload == "listing":
        return ScenarioSpec.make(
            "E21",
            name,
            engine=engine,
            workload=workload,
            mode=mode,
            graph=_LISTING_GRAPH,
            run_seed=_E21_SEED,
        )
    return ScenarioSpec.make(
        "E21",
        name,
        engine=engine,
        workload=workload,
        graph=_FANOUT_GRAPH,
        fanout=_FANOUT_K,
        rounds=_FANOUT_ROUNDS,
        run_seed=_E21_SEED,
    )


register(
    Experiment(
        id="E21",
        title="clique listing + targeted traffic: triangle listing and fan-out",
        headline="targeted-send fast path: listing (direct/routed) and fan-out across engines",
        targeted=True,
        columns=(
            ("workload", "workload", None),
            ("engine", "engine", None),
            ("n", "n", None),
            ("rounds", "rounds", None),
            ("messages", "metrics.messages_sent", None),
            ("bits", "metrics.bits_sent", None),
            ("figure", "figure", None),
            ("seconds", "timing.elapsed_s", ".3f"),
            ("msg/sec", "timing.messages_per_sec", ".0f"),
        ),
        scenarios=[
            _make_spec(name, workload, engine, mode)
            for name, (workload, engine, mode) in _E21_SCENARIOS.items()
        ],
        run_scenario=_run_e21,
        verify=_verify_e21,
    )
)
