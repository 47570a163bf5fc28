"""Registry definition for E20 — the columnar mega-scale tier.

E20 pushes the pure-broadcast flood-max workload (``repro.core.flood_max``)
through the ``columnar`` engine at n = 2*10^5, 5*10^5 and 10^6 on the
freeze-direct ``sparse_gnp_csr`` family (average degree ~12–14, connectivity
patched, so a 12-round budget always covers the diameter).  An n = 20000
anchor on the ``sparse_connected_gnp`` graph that E19, E22 and E23 also
use pins the flood-max physics there (converged, leader = n - 1, rounds =
budget, messages = rounds * 2m); the engine-parity contract itself is
checked against the ``reference`` oracle by the differential test suite,
at this n included, rather than by a reference run at 10^6.

Mega-scale scenarios opt into ``streaming_metrics`` (bounded
``bits_per_round`` history; scalar counters stay exact), so a full E20 run
at n = 10^6 holds peak RSS to the graph + columns, not to a
per-round-history that grows with the run.

As with E16, wall time lives under ``timing.*`` — excluded from the
determinism contract — and the stepped-columnar-vs-reference speedup
*assertion* lives in ``benchmarks/bench_e20_columnar.py`` behind the
``E20_MIN_SPEEDUP`` knob; the registry ``verify`` hook only pins physics
so CLI sweeps on loaded machines never flake.
"""

from __future__ import annotations

import time
from typing import Any

from repro.core import run_flood_max
from repro.distributed import DEFAULT_ENGINE
from repro.experiments.families import build_graph
from repro.experiments.registry import Experiment, check, register
from repro.experiments.spec import ScenarioSpec

_E20_SEED = 3

#: scenario name -> (family tuple, engine, round budget, streaming metrics).
#: The n=20000 anchor is the shared ``sparse_connected_gnp`` instance of the
#: E19/E22/E23 benches; the mega points use the freeze-direct CSR family
#: with p giving average degree ~12–14 (diameter well under the 12-round
#: budget after the connectivity patch).
_E20_SCENARIOS: dict[str, tuple[tuple[Any, ...], str, int, bool]] = {
    "n=20000 columnar": (("sparse_connected_gnp", 20000, 0.0005, 18), "columnar", 10, False),
    "n=200000": (("sparse_gnp_csr", 200000, 6e-5, 20), "columnar", 12, True),
    "n=500000": (("sparse_gnp_csr", 500000, 2.6e-5, 21), "columnar", 12, True),
    "n=1000000": (("sparse_gnp_csr", 1000000, 1.4e-5, 22), "columnar", 12, True),
}


def _run_e20(spec: ScenarioSpec) -> dict[str, Any]:
    graph = build_graph(spec.param("graph"))
    n = graph.number_of_nodes()
    m = graph.number_of_edges()
    engine = spec.engine or DEFAULT_ENGINE
    rounds = spec.param("rounds")
    start = time.perf_counter()
    result = run_flood_max(
        graph,
        rounds=rounds,
        seed=spec.param("run_seed"),
        engine=engine,
        streaming_metrics=bool(spec.param("streaming", False)),
    )
    elapsed = time.perf_counter() - start
    check(
        result.converged,
        f"{spec.name}: flood-max did not converge within {rounds} rounds",
    )
    check(
        result.leader == n - 1,
        f"{spec.name}: elected leader {result.leader!r}, expected the max label {n - 1}",
    )
    check(
        result.rounds == rounds,
        f"{spec.name}: used {result.rounds} rounds, the program budget is {rounds}",
    )
    messages = result.metrics.messages_sent
    # Flood-max invariant: every vertex broadcasts in rounds 0..rounds-1, so
    # exactly rounds * 2m directed messages cross the (undirected) edges.
    check(
        messages == rounds * 2 * m,
        f"{spec.name}: {messages} messages, expected rounds * 2m = {rounds * 2 * m}",
    )
    return {
        "scenario": spec.name,
        "engine": engine,
        "n": n,
        "m": m,
        "rounds": result.rounds,
        "leader": result.leader,
        "metrics": result.metrics,
        "timing": {
            "elapsed_s": elapsed,
            "messages_per_sec": messages / elapsed,
        },
    }


def _verify_e20(results) -> dict[str, Any]:
    by_name = {result["scenario"]: result for result in results}
    summary: dict[str, Any] = {}
    for name, result in by_name.items():
        summary[f"{name}.messages"] = result["metrics.messages_sent"]
        summary[f"{name}.leader"] = result["leader"]
    if len(results) == len(_E20_SCENARIOS):
        # Unfiltered run: the flagship point must be present and at scale.
        check(
            by_name["n=1000000"]["n"] == 1_000_000,
            "the E20 flagship scenario must run at n = 10^6",
        )
    return summary


register(
    Experiment(
        id="E20",
        title="columnar mega-scale sweep: flood-max broadcast up to n=10^6",
        headline="flat-array columnar engine on pure-broadcast traffic at mega scale",
        columns=(
            ("n", "n", None),
            ("m", "m", None),
            ("engine", "engine", None),
            ("rounds", "rounds", None),
            ("messages", "metrics.messages_sent", None),
            ("seconds", "timing.elapsed_s", ".3f"),
            ("msg/sec", "timing.messages_per_sec", ".0f"),
        ),
        scenarios=[
            ScenarioSpec.make(
                "E20",
                name,
                engine=engine,
                graph=graph,
                rounds=rounds,
                streaming=streaming,
                run_seed=_E20_SEED,
            )
            for name, (graph, engine, rounds, streaming) in _E20_SCENARIOS.items()
        ],
        run_scenario=_run_e20,
        verify=_verify_e20,
    )
)
