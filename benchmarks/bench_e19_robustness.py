"""E19 — robustness tier: fault-injected flood-max and clique 2-spanner.

Runs the E19 experiment through the orchestrator (drop/crash sweeps with
per-scenario invariants and the engine-parity-under-faults verify hook in
``repro.experiments.defs_robustness``), then asserts the *cost* contract of
the adversary layer: installing the identity :class:`NoAdversary` must add
less than ``E19_MAX_OVERHEAD`` (default 10%) to the stepped columnar fast
path (``vectorize=False``) versus passing no adversary at all.
``NoAdversary`` binds to no delivery filter, so the engine literally
executes its unmodified hot loops — the guard pins that this stays true as
the seam evolves.  Like E16, the threshold is an environment knob so CI can
relax it on noisy shared runners without touching the registry.
"""

import gc
import os
import time

from common import ANCHOR_GRAPH

from repro.core import run_flood_max
from repro.distributed import NoAdversary
from repro.experiments import bench_experiment
from repro.experiments.families import build_graph

#: The adversary seam's admissible no-fault slowdown on the stepped path.
MAX_NO_ADVERSARY_OVERHEAD = float(os.environ.get("E19_MAX_OVERHEAD", "0.10"))

#: Flood-max rounds per timed run on the shared anchor graph.
_ROUNDS = 5
#: Timed runs per arm; the arms alternate so drift hits both alike.
_REPEATS = 7


def _timed(graph, adversary) -> float:
    """Wall time of one stepped-columnar flood-max run on ``graph``.

    Collects garbage first, untimed: otherwise the previous run's
    20000 contexts and programs are reclaimed inside this run's window,
    which charges whichever arm runs second.
    """
    gc.collect()
    start = time.perf_counter()
    result = run_flood_max(
        graph, rounds=_ROUNDS, seed=3, adversary=adversary, vectorize=False
    )
    elapsed = time.perf_counter() - start
    assert result.rounds == _ROUNDS
    return elapsed


def test_e19_robustness(benchmark):
    report = bench_experiment(benchmark, "E19")
    results = {
        scenario["spec"]["name"]: scenario["result"]
        for scenario in report["experiments"][0]["scenarios"]
    }
    # The differential heart of the tier: same adversary, different engines,
    # identical physics and fault counters (verify already checked; keep the
    # headline assertion visible here too).
    assert (
        results["floodmax drop=0.05"]["metrics.adversary_dropped_messages"]
        == results["floodmax drop=0.05 reference"]["metrics.adversary_dropped_messages"]
    )

    # NoAdversary overhead guard: one shared graph, the two arms interleaved
    # run by run (alternating which goes first), best of _REPEATS each — min
    # sheds additive scheduler noise and interleaving keeps slow machine
    # phases from landing on one arm.
    graph = build_graph(ANCHOR_GRAPH)
    best = {"none": float("inf"), "identity": float("inf")}
    arms = [("none", None), ("identity", NoAdversary())]
    for repeat in range(_REPEATS):
        for name, adversary in arms if repeat % 2 == 0 else arms[::-1]:
            best[name] = min(best[name], _timed(graph, adversary))
    baseline, identity = best["none"], best["identity"]
    overhead = identity / baseline - 1.0
    benchmark.extra_info["no_adversary_overhead"] = overhead
    assert overhead < MAX_NO_ADVERSARY_OVERHEAD, (
        f"NoAdversary added {overhead:.1%} to the stepped columnar path "
        f"(allowed {MAX_NO_ADVERSARY_OVERHEAD:.0%})"
    )
