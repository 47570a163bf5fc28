"""Shared helpers for the experiment benchmarks.

Since the experiment orchestration subsystem (``repro.experiments``) the
benchmarks are thin pytest-benchmark wrappers over the scenario registry —
see :func:`repro.experiments.bench_experiment`.  This module remains as a
small compatibility layer: ``print_table`` / ``fmt`` re-export the package
implementations, and :func:`record` attaches values to
``benchmark.extra_info`` with real flattening (it used to store ``as_dict()``
results as *nested* dicts despite claiming to flatten, so per-model counters
vanished from flat JSON consumers; nested keys now use ``key.subkey``
naming, the same convention the runner's JSON schema uses).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Callable

from repro.experiments.reporting import flatten_info, fmt, print_table  # noqa: F401

#: The n=20000 anchor instance of the E20 sweep (``defs_megascale``): the
#: shared graph of the E19, E20, E22 and E23 speed guards — large enough
#: that per-message work dominates, small enough for a quick guard.
ANCHOR_GRAPH = ("sparse_connected_gnp", 20000, 0.0005, 18)


def steady_state_per_round(
    run: Callable[[int], Any], warmup: int, short: int, long: int, reps: int = 1
) -> tuple[float, Any]:
    """Steady-state seconds per round of ``run``, setup excluded.

    ``run(rounds)`` performs one whole run with a ``rounds``-round budget.
    After one untimed ``warmup``-round run, each of ``reps`` measurements
    times a ``short`` and a ``long`` run and takes
    ``(t_long - t_short) / (long - short)``: the setup cost (contexts,
    programs, CSR views) is the same in both runs and cancels.  The best
    measurement is kept — ``min`` is the right estimator for timing noise,
    which is strictly additive.  Returns ``(per_round, result)``, where
    ``result`` is what the last long run returned (only the long run covers
    the diameter, so callers check convergence on it).
    """
    run(warmup)
    best = float("inf")
    result = None
    for _ in range(reps):
        timings = {}
        for rounds in (short, long):
            start = time.perf_counter()
            outcome = run(rounds)
            timings[rounds] = time.perf_counter() - start
            if rounds == long:
                result = outcome
        best = min(best, (timings[long] - timings[short]) / (long - short))
    return best, result


def record(benchmark, **info: Any) -> None:
    """Attach experiment outputs to the pytest-benchmark record.

    Values carrying an ``as_dict()`` method (``RunResult``, ``Metrics``) are
    converted through it, and any nested mapping is flattened into dotted
    ``key.subkey`` entries so the resulting ``extra_info`` is flat.
    """
    for key, value in info.items():
        benchmark.extra_info.update(flatten_info(value, prefix=key))


def append_trajectory(filename: str, **info: Any) -> Path:
    """Append one flattened record to a JSON trajectory file and return its path.

    Trajectory files (``BENCH_E23.json`` etc.) accumulate one record per
    benchmark invocation as a JSON array, so successive CI runs — uploaded
    as artifacts — form a wall-time series a human or a plot script can diff
    across commits without parsing pytest-benchmark's full machine output.
    The destination directory defaults to the repository root and can be
    redirected with ``BENCH_TRAJECTORY_DIR``; a corrupt or foreign file is
    never destroyed — the record set restarts alongside the parse error.
    """
    root = Path(os.environ.get("BENCH_TRAJECTORY_DIR", Path(__file__).resolve().parent.parent))
    path = root / filename
    records: list[dict[str, Any]] = []
    if path.exists():
        try:
            loaded = json.loads(path.read_text())
            if isinstance(loaded, list):
                records = loaded
        except (OSError, ValueError):
            records = []
    records.append(flatten_info(dict(info)))
    path.write_text(json.dumps(records, indent=2, sort_keys=True) + "\n")
    return path
