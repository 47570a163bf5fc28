"""E16 — simulator throughput: rounds/sec of the columnar engine.

Unlike E1-E15 this experiment measures the *substrate*: the two-spanner
algorithm runs on a fixed G(600, 0.05) instance under both simulator engines
(scenarios in ``repro.experiments.defs_substrate``, experiment ``E16``).
The registry ``verify`` pins identical physics across engines; this wrapper
additionally asserts the engine-level speedup floor of the default
``columnar`` engine over the ``reference`` oracle, which stays here so CI
can relax it via ``E16_MIN_SPEEDUP`` without touching the registry.
"""

import os

from repro.experiments import bench_experiment

# The quiet-machine bar; CI sets E16_MIN_SPEEDUP lower to absorb
# shared-runner noise without losing the regression guard.
MIN_ENGINE_SPEEDUP = float(os.environ.get("E16_MIN_SPEEDUP", "2.0"))


def test_e16_simulator_throughput(benchmark):
    report = bench_experiment(benchmark, "E16")
    results = {
        scenario["spec"]["name"]: scenario["result"]
        for scenario in report["experiments"][0]["scenarios"]
    }
    speedup = (
        results["columnar"]["timing.rounds_per_sec"]
        / results["reference"]["timing.rounds_per_sec"]
    )
    benchmark.extra_info["speedup"] = speedup
    assert speedup >= MIN_ENGINE_SPEEDUP, (
        f"columnar engine only {speedup:.2f}x over reference "
        f"(required {MIN_ENGINE_SPEEDUP}x)"
    )
