"""E20 — columnar engine throughput guard: flood-max broadcast at n=20000.

The registry's E20 sweep (``repro.experiments.defs_megascale``) carries the
mega-scale points (n up to 10^6); this wrapper guards the *engine speedup*
that makes those points affordable, on the sweep's n=20000 anchor graph:
the stepped columnar engine (``vectorize=False`` — whole-round lowering is
E23's subject, not this guard's) against the ``reference`` oracle.

Methodology — steady-state delta-rounds
(``common.steady_state_per_round``): end-to-end wall time of a
flood-max run is dominated at small round counts by setup (contexts,
programs, CSR views), which would dilute the ratio.  So each engine is
timed twice, at a long and at a 5-round budget (after a 3-round warmup),
and the per-round cost is ``(t_long - t5) / (long - 5)`` — the setup
cancels in the subtraction.  The long budget is 45 rounds for columnar
(its rounds are short, so the window needs many of them to stand clear of
timer noise) and 15 for reference (its rounds are ~50x longer; 15 still
covers the anchor's diameter).  Throughput is ``2m / per_round``
messages/sec (every vertex broadcasts every round, so a round moves
exactly ``2m`` directed messages).

CI relaxes the ratio floor via ``E20_MIN_SPEEDUP`` to absorb shared-runner
noise; ``E20_MIN_MSGS_PER_SEC`` defaults to 0 (recorded, not asserted)
because absolute throughput varies with host hardware in a way a ratio
does not.  Measured figures live in ``docs/performance.md``.
"""

import os

from common import ANCHOR_GRAPH, steady_state_per_round

from repro.core.flood_max import run_flood_max
from repro.experiments.families import build_graph

# The quiet-machine bar; CI sets E20_MIN_SPEEDUP lower to absorb
# shared-runner noise without losing the regression guard.
MIN_COLUMNAR_SPEEDUP = float(os.environ.get("E20_MIN_SPEEDUP", "3.0"))
MIN_MSGS_PER_SEC = float(os.environ.get("E20_MIN_MSGS_PER_SEC", "0"))

#: The anchor's seed (defs_megascale).
_SEED = 3
_WARMUP_ROUNDS = 3
_SHORT_ROUNDS = 5
_LONG_ROUNDS = {"reference": 15, "columnar": 45}


def _per_round(graph, engine: str) -> float:
    """Per-round seconds of ``engine`` on ``graph``, setup excluded.

    Runs are stepped: the guard measures the engine, not lowering.
    """
    per_round, result = steady_state_per_round(
        lambda rounds: run_flood_max(
            graph, rounds=rounds, seed=_SEED, engine=engine, vectorize=False
        ),
        _WARMUP_ROUNDS,
        _SHORT_ROUNDS,
        _LONG_ROUNDS[engine],
    )
    assert result.converged
    assert result.leader == graph.number_of_nodes() - 1
    return per_round


def test_e20_columnar_engine(benchmark):
    graph = build_graph(ANCHOR_GRAPH)
    msgs_per_round = 2 * graph.number_of_edges()

    def measure():
        return {
            engine: _per_round(graph, engine)
            for engine in ("reference", "columnar")
        }

    per_round = benchmark.pedantic(measure, rounds=1, iterations=1)
    throughput = {
        engine: msgs_per_round / seconds for engine, seconds in per_round.items()
    }
    speedup = throughput["columnar"] / throughput["reference"]
    benchmark.extra_info.update(
        {
            "msgs_per_round": msgs_per_round,
            "reference_msgs_per_sec": throughput["reference"],
            "columnar_msgs_per_sec": throughput["columnar"],
            "speedup": speedup,
        }
    )
    print(
        f"\nE20 steady state: reference {throughput['reference']:,.0f} msg/s, "
        f"stepped columnar {throughput['columnar']:,.0f} msg/s ({speedup:.2f}x)"
    )
    assert speedup >= MIN_COLUMNAR_SPEEDUP, (
        f"stepped columnar engine only {speedup:.2f}x over reference "
        f"(required {MIN_COLUMNAR_SPEEDUP}x)"
    )
    assert throughput["columnar"] >= MIN_MSGS_PER_SEC, (
        f"columnar throughput {throughput['columnar']:,.0f} msg/s below the "
        f"{MIN_MSGS_PER_SEC:,.0f} floor"
    )
