"""The repository benchmark: one closed-loop client, one workload per run.

Run from the repository root::

    python3 perfbench/run.py --workload spanner-gnp600 --seed 0 --seconds 28 --trace 0
    python3 perfbench/run.py --all            # every workload, untraced
    python3 perfbench/run.py --all --trace 1  # every workload, per-layer table

A run alternates set-up and operation: it builds the workload's graphs
from ``--seed`` (each build is one ``setup_s`` sample), then performs one
operation on them (one ``wall_s`` sample); at least :data:`MIN_OPS` times,
then while another round would end nearer to ``--seconds`` than stopping
does, so a run lasts about ``--seconds`` however fast the host is.
Every operation is checked: its own correctness checks plus the physics
pins in ``pins.json``; a seed without pins is pinned to its first
operation.  With ``--trace 0`` the last stdout line reports the end-to-end
metrics; with ``--trace 1`` half the time goes to untraced operations and
half to traced ones, and the last line reports the per-layer metrics.
Records (with provenance) and spans go to ``perfbench/out/``, which git
ignores.  The exit code is 0 iff every operation passed its checks.
"""

from __future__ import annotations

import argparse
import gc
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections.abc import Callable
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
PINS = HERE / "pins.json"

MIN_OPS = 2
#: Each set-up slice repeats a cheap build until this much time has passed.
SETUP_SLICE_S = 0.25
MAX_ERRORS = 5
#: The reference host speed: the one at which :func:`calibrate` takes this
#: long.  Timed samples are reported as seconds at that speed.
CALIBRATION_REF_S = 0.015

#: Physics reported as per-layer counts.  The fan-out checksum is pinned
#: and checked like the rest but not reported: it is an identity, not a
#: quantity, and a 61-bit integer does not survive a float round trip.
PHYSICS = (
    "sim.rounds", "sim.messages", "sim.bits", "spanner.edges", "spanner.opt_edges",
    "spanner.ratio", "flood.leader",
)


def bootstrap() -> None:
    """Import ``repro`` from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro sources under {src}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def provenance(seed: int) -> dict[str, Any]:
    """Commit, interpreter, array libraries and machine behind a result."""

    def version(dist: str) -> str:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "missing"

    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": "disabled" if os.environ.get("REPRO_DISABLE_NUMPY") else version("numpy"),
        "scipy": version("scipy"),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "seed": seed,
    }


def _commit() -> str:
    """HEAD of the checkout's own ``.git`` (read directly), else "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def calibrate() -> float:
    """Probe the host's current speed: median time of a fixed integer loop.

    Other tenants slow this host by up to 1.6x for minutes at a time (see
    the README), and a probe taken next to a sample slows with it.  The loop
    is the benchmark's own code, so no change to the program moves it.
    """

    def once() -> float:
        start = time.perf_counter()
        acc = 0
        for i in range(150_000):
            acc = (acc + i * i) % 1_000_003
        return time.perf_counter() - start

    return statistics.median(once() for _ in range(5))


def peak_rss_mb() -> float:
    """Peak resident set of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def load_pins() -> dict[str, dict[str, dict[str, Any]]]:
    return json.loads(PINS.read_text()) if PINS.is_file() else {}


class Run:
    """One workload measured for one seed: samples, failures and physics."""

    def __init__(self, workload: Any, seed: int, tiny: bool, pin: dict | None) -> None:
        self.workload = workload
        self.seed = seed
        self.tiny = tiny
        self.pin = pin
        self.pinned_from = "pins.json" if pin is not None else "first operation"
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []  # the first few, for the report
        self.physics: dict[str, Any] = {}  # of the latest operation
        self.graphs: list = []
        # Host time as measured, and the speed probes, for the report.
        self.raw: dict[str, list[float]] = {"wall_s": [], "setup_s": [], "calibrate_s": []}

    def setup_slice(self, tracer: Any, samples: list[float]) -> None:
        """Build the graphs until :data:`SETUP_SLICE_S` has passed (at least
        once), one ``setup_s`` sample per build; the last build is kept."""
        from workloads import setup

        began = time.perf_counter()
        while True:
            self.graphs = []  # free the previous build before the next one
            gc.collect()  # start from a clean heap, as a fresh process does
            with tracer.span("setup"):
                start = time.perf_counter()
                self.graphs = setup(self.workload, self.seed, self.tiny, tracer)
                samples.append(time.perf_counter() - start)
            if time.perf_counter() - began >= SETUP_SLICE_S:
                return

    def operation(self, tracer: Any) -> float:
        """One checked operation on the current graphs; returns its host time."""
        from workloads import operate

        gc.collect()
        with tracer.span("op"):
            start = time.perf_counter()
            physics, errors = operate(self.workload, self.graphs, self.seed, tracer, self.pin)
            elapsed = time.perf_counter() - start
        self.attempted += 1
        self.physics = physics
        if errors:
            self.failed += 1
            self.errors.extend(errors[: max(0, MAX_ERRORS - len(self.errors))])
        elif self.pin is None:
            self.pin = physics
        return elapsed

    def calibrate(self) -> float:
        probe = calibrate()
        self.raw["calibrate_s"].append(probe)
        return probe

    def iterate(
        self,
        tracer: Any,
        seconds: float,
        setup_samples: list[float],
        minimum: int = MIN_OPS,
        on_operation: Callable[[int], None] | None = None,
    ) -> list[float]:
        """Alternate set-up slices and operations: ``minimum`` times, then
        while another round (of the mean length so far) would end nearer to
        ``seconds`` than stopping now.

        Interleaving makes ``setup_s`` and ``wall_s`` sample the same stretch
        of machine time.  :func:`calibrate` runs before and after each slice
        and each operation; a sample is scaled to the reference speed by the
        mean of the two probes around it.  Returns the scaled operation
        times and appends the scaled set-up times to ``setup_samples``.
        ``on_operation`` gets the span index where each operation's spans
        begin.
        """
        walls: list[float] = []
        began = time.perf_counter()
        before = self.calibrate()
        while True:
            first_setup = len(setup_samples)
            self.setup_slice(tracer, setup_samples)
            middle = self.calibrate()
            self.raw["setup_s"] += setup_samples[first_setup:]
            setup_samples[first_setup:] = [
                t * 2 * CALIBRATION_REF_S / (before + middle) for t in setup_samples[first_setup:]
            ]
            first = len(tracer)
            wall = self.operation(tracer)
            before = self.calibrate()
            self.raw["wall_s"].append(wall)
            walls.append(wall * 2 * CALIBRATION_REF_S / (middle + before))
            if on_operation is not None:
                on_operation(first)
            elapsed = time.perf_counter() - began
            if len(walls) >= minimum and elapsed + elapsed / len(walls) / 2 >= seconds:
                return walls


def median_metric(values: list[float], unit: str) -> dict[str, Any]:
    return {"value": float(statistics.median(values)), "unit": unit, "samples": len(values)}


def measure_untraced(run: Run, seconds: float) -> dict[str, dict[str, Any]]:
    """The end-to-end metrics: no spans, no instrumentation; times are
    scaled to the reference host speed (see :meth:`Run.iterate`)."""
    from spans import NullTracer

    setup_s: list[float] = []
    walls = run.iterate(NullTracer(), seconds, setup_s)
    return {
        "wall_s": median_metric(walls, "s"),
        "setup_s": median_metric(setup_s, "s"),
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MiB", "samples": 1},
    }


def measure_traced(run: Run, seconds: float) -> tuple[dict[str, dict[str, Any]], Any]:
    """Untraced rounds for half the time, then instrumented rounds (at
    least one of each), for the per-layer metrics and ``trace.overhead``."""
    from spans import NullTracer, Tracer, instrument

    untraced = run.iterate(NullTracer(), seconds / 2, [], minimum=1)
    tracer = Tracer()
    op_samples: list[dict[str, float]] = []
    with instrument(tracer, run.workload.programs):
        traced = run.iterate(
            tracer, seconds / 2, [], minimum=1,
            on_operation=lambda first: op_samples.append(layer_metrics(tracer, first, run.physics)),
        )
    setup_samples = [
        {f"{name}_s": value for name, value in sample.items()}
        for sample in tracer.child_sums("setup", ("graphs.generate", "graphs.freeze"))
    ]
    metrics: dict[str, dict[str, Any]] = {}
    for samples in (setup_samples, op_samples):
        for name in samples[0]:
            metrics[name] = median_metric([s[name] for s in samples], UNITS[name])
    metrics["trace.overhead"] = {
        "value": statistics.median(traced) / statistics.median(untraced),
        "unit": "ratio",
        "samples": len(traced),
    }
    metrics["host.calibrate_s"] = median_metric(run.raw["calibrate_s"], "s")
    return metrics, tracer


UNITS = {
    "graphs.generate_s": "s", "graphs.freeze_s": "s", "distributed.setup_s": "s",
    "distributed.lowering_s": "s", "vectorize.round_s": "s", "vectorize.rounds": "count",
    "distributed.lowered": "count", "distributed.run_s": "s",
    "distributed.engine_self_s": "s", "distributed.msgs_per_s": "1/s",
    "core.step_s": "s", "core.step_calls": "count", "core.star_select_s": "s",
    "spanner.densest_star_s": "s", "spanner.densest_star_calls": "count",
    "flow.densest_s": "s", "flow.maxflow_s": "s", "flow.maxflow_calls": "count",
    "spanner.exact_s": "s", "spanner.exact_calls": "count", "spanner.verify_s": "s",
    "trace.unattributed_s": "s", "sim.rounds": "count", "sim.messages": "count",
    "sim.bits": "count", "spanner.edges": "count", "spanner.opt_edges": "count",
    "spanner.ratio": "ratio", "flood.leader": "count",
}


def layer_metrics(tracer: Any, first: int, physics: dict[str, Any]) -> dict[str, float]:
    """Per-layer metrics of the operation whose spans start at ``first``."""
    totals = tracer.totals(first)

    def get(name: str, field: str) -> float:
        return totals.get(name, {}).get(field, 0.0)

    run_s = get("distributed.run", "total_s")
    messages = physics.get("sim.messages", 0)
    out = {
        "distributed.setup_s": get("distributed.setup", "total_s"),
        "distributed.lowering_s": get("distributed.lowering", "total_s"),
        "vectorize.round_s": get("vectorize.round", "total_s"),
        "vectorize.rounds": get("vectorize.round", "calls"),
        "distributed.lowered": physics.get("distributed.lowered", 0),
        "distributed.run_s": run_s,
        "distributed.engine_self_s": get("distributed.run", "self_s"),
        "distributed.msgs_per_s": messages / run_s if run_s else 0.0,
        "core.step_s": get("core.step", "self_s"),
        "core.step_calls": get("core.step", "calls"),
        "core.star_select_s": get("core.star_select", "total_s"),
        "spanner.densest_star_s": get("spanner.densest_star", "total_s"),
        "spanner.densest_star_calls": get("spanner.densest_star", "calls"),
        "flow.densest_s": get("flow.densest", "total_s"),
        "flow.maxflow_s": get("flow.maxflow", "total_s"),
        "flow.maxflow_calls": get("flow.maxflow", "calls"),
        "spanner.exact_s": get("spanner.exact", "total_s"),
        "spanner.exact_calls": get("spanner.exact", "calls"),
        "spanner.verify_s": get("spanner.verify", "total_s"),
        "trace.unattributed_s": get("op", "self_s"),
    }
    for name in PHYSICS:
        out[name] = physics.get(name, 0)
    return out


# ------------------------------------------------------------------ report
def result_line(run: Run, metrics: dict[str, dict[str, Any]]) -> dict[str, Any]:
    """The contract's last stdout line: correctness, counts, metric values."""
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()
        },
    }


def describe(run: Run, metrics: dict[str, dict[str, Any]], trace: bool) -> list[str]:
    kind = "traced" if trace else "untraced"
    lines = [
        f"{run.workload.name} seed {run.seed} ({kind}): "
        f"{run.failed} failed of {run.attempted} operations; "
        f"physics pinned from {run.pinned_from}"
    ]
    for name, m in metrics.items():
        lines.append(f"  {name:<28} {m['value']:>14.6g} {m['unit']:<6} n={m['samples']}")
    for name, values in run.raw.items():
        if values:
            lines.append(f"  host time {name:<18} {statistics.median(values):>14.6g} s      "
                         f"n={len(values)} (as measured, not scaled)")
    lines.append(f"  physics: {json.dumps(run.physics, sort_keys=True)}")
    lines.extend(f"  error: {error}" for error in run.errors)
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="workload name (see BENCHMARK.json)")
    parser.add_argument("--all", action="store_true", help="run every workload in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    parser.add_argument(
        "--write-pins", type=int, metavar="N",
        help="rewrite pins.json with the physics of seeds 0..N-1 (no timing)",
    )
    args = parser.parse_args(argv)
    bootstrap()
    from workloads import WORKLOADS

    if args.write_pins is not None:
        return write_pins([args.workload] if args.workload else list(WORKLOADS), args.write_pins)
    if args.all:
        return run_all(args, list(WORKLOADS))
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    pin = None if args.tiny else load_pins().get(args.workload, {}).get(str(args.seed))
    run = Run(WORKLOADS[args.workload], args.seed, args.tiny, pin)
    tracer = None
    if args.trace:
        metrics, tracer = measure_traced(run, args.seconds)
    else:
        metrics = measure_untraced(run, args.seconds)
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "tiny": args.tiny,
        "provenance": provenance(args.seed),
        "physics": run.physics,
        "errors": run.errors,
        "host_time": {name: values for name, values in run.raw.items()},
        **result_line(run, metrics),
        "samples": {name: m["samples"] for name, m in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    with (OUT / "results.jsonl").open("a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    if tracer is not None:
        tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.json")
    print("\n".join(describe(run, metrics, bool(args.trace))))
    print(json.dumps(result_line(run, metrics)))
    return 0 if run.failed == 0 else 1


def write_pins(names: list[str], count: int) -> int:
    """Record one checked operation's physics per workload and seed."""
    from spans import NullTracer
    from workloads import WORKLOADS, operate, setup

    pins = load_pins()
    for name in names:
        for seed in range(count):
            workload = WORKLOADS[name]
            graphs = setup(workload, seed, False, NullTracer())
            physics, errors = operate(workload, graphs, seed, NullTracer(), None)
            if errors:
                print(f"{name} seed {seed}: not pinned: {errors}", file=sys.stderr)
                return 1
            pins.setdefault(name, {})[str(seed)] = physics
            print(f"{name} seed {seed}: {physics}", flush=True)
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


def run_all(args: argparse.Namespace, names: list[str]) -> int:
    """Each workload in its own child process, one after another, so that
    ``peak_rss_mb`` never includes another workload's peak."""
    failed = 0
    for name in names:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        child = subprocess.run(command, capture_output=True, text=True, check=False)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]) if lines else f"{name}: no output")
        if child.returncode != 0:
            failed += 1
            print(child.stderr.strip()[-2000:], file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
