"""The benchmark's own tests: ``python3 -m pytest perfbench -q`` (about 30 s).

Tiny inputs, through the same code path as the measured runs.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

import run

run.bootstrap()

from spans import NullTracer, Tracer  # noqa: E402  (needs the sources on sys.path)
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())


def _main(capsys, monkeypatch, tmp_path, *argv: str) -> tuple[int, dict, str]:
    monkeypatch.setattr(run, "OUT", tmp_path)
    code = run.main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out.splitlines()[-1]), out


def _assert_plain_floats(result: dict) -> None:
    """Every metric value is a finite float that survives a float round trip."""
    for name, metric in result["metrics"].items():
        value = metric["value"]
        assert isinstance(value, float) and math.isfinite(value), (name, value)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_untraced_smoke(name, capsys, monkeypatch, tmp_path):
    code, result, out = _main(
        capsys, monkeypatch, tmp_path, "--workload", name, "--tiny", "--seconds", "0"
    )
    assert code == 0, out
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_OPS
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    _assert_plain_floats(result)
    record = json.loads((tmp_path / "results.jsonl").read_text().splitlines()[-1])
    assert set(record["provenance"]) == {
        "commit", "python", "numpy", "scipy", "cpu_count", "platform", "seed"
    }


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_traced_smoke(name, capsys, monkeypatch, tmp_path):
    code, result, out = _main(
        capsys, monkeypatch, tmp_path,
        "--workload", name, "--tiny", "--seconds", "0", "--trace", "1",
    )
    assert code == 0, out
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    _assert_plain_floats(result)
    spans = json.loads((tmp_path / f"spans-{name}-seed0.json").read_text())
    assert "op" in spans["names"] and "distributed.run" in spans["names"]
    if name == "flood-lowered":
        assert result["metrics"]["distributed.lowered"]["value"] == 1
        assert result["metrics"]["vectorize.rounds"]["value"] > 0


def test_wrong_pin_is_a_failed_operation():
    good = run.Run(WORKLOADS["fanout-congest"], 0, True, None)
    run.measure_untraced(good, 0)
    assert good.failed == 0
    wrong = dict(good.physics, **{"fanout.checksum": good.physics["fanout.checksum"] + 1})
    bad = run.Run(WORKLOADS["fanout-congest"], 0, True, wrong)
    metrics = run.measure_untraced(bad, 0)
    line = run.result_line(bad, metrics)
    assert line["correct"] is False
    assert line["failed"] == line["attempted"] >= run.MIN_OPS
    assert any("physics pin fanout.checksum" in e for e in bad.errors)


def test_times_are_scaled_by_the_speed_probes(monkeypatch):
    probes = iter(range(1, 100))
    monkeypatch.setattr(run, "calibrate", lambda: next(probes) * run.CALIBRATION_REF_S)
    bench = run.Run(WORKLOADS["fanout-congest"], 0, True, None)
    setup_s: list[float] = []
    walls = bench.iterate(NullTracer(), 0, setup_s)
    assert len(walls) == run.MIN_OPS
    # Probes 1, 2, ... run around each set-up slice and operation in turn:
    # operation k (from 0) sits between probes 2k+2 and 2k+3.
    for k, (wall, raw) in enumerate(zip(walls, bench.raw["wall_s"])):
        assert wall == pytest.approx(raw / (2 * k + 2.5))
    assert setup_s[0] == pytest.approx(bench.raw["setup_s"][0] / 1.5)
    assert len(setup_s) == len(bench.raw["setup_s"])


def test_unlowered_flood_is_a_failed_operation(monkeypatch):
    import repro.distributed.simulator as simulator

    monkeypatch.setattr(simulator, "try_lower", lambda *args, **kwargs: None)
    flood = run.Run(WORKLOADS["flood-lowered"], 0, True, None)
    run.measure_untraced(flood, 0)
    assert flood.failed == flood.attempted
    assert any("not lowered" in e for e in flood.errors)


def _subtree_self_sums(tracer: Tracer) -> dict[int, float]:
    """Root span id -> summed self time of every span under it."""
    self_times = tracer.self_times()
    root_of: list[int] = []
    sums: dict[int, float] = {}
    for sid, parent in enumerate(tracer.parents):
        root = sid if parent < 0 else root_of[parent]
        root_of.append(root)
        sums[root] = sums.get(root, 0.0) + self_times[sid]
    return sums


def test_self_times_add_up_on_a_synthetic_trace():
    ticks = iter(float(t) for t in range(100))
    tracer = Tracer(clock=lambda: next(ticks))
    with tracer.span("op"):                      # 0
        with tracer.span("distributed.run"):     # 1
            with tracer.span("core.step"):       # 2 (setup 1..2 recorded here)
                with tracer.span("flow.maxflow"):
                    pass
            with tracer.span("core.step"):
                pass
        with tracer.span("spanner.verify"):
            pass
    names = dict(zip(tracer.names, tracer.self_times()))
    assert tracer.names.count("distributed.setup") == 1
    setup = tracer.names.index("distributed.setup")
    assert tracer.parents[setup] == tracer.names.index("distributed.run")
    assert tracer.ends[setup] - tracer.starts[setup] == 1.0
    assert min(tracer.self_times()) >= 0
    root = tracer.names.index("op")
    assert _subtree_self_sums(tracer)[root] == tracer.ends[root] - tracer.starts[root]
    assert names["flow.maxflow"] == 1.0


def test_self_times_add_up_on_a_traced_run():
    from spans import instrument

    workload = WORKLOADS["spanner-gnp600"]
    bench = run.Run(workload, 0, True, None)
    tracer = Tracer()
    bench.setup_slice(tracer, [])
    with instrument(tracer, workload.programs):
        bench.operation(tracer)
    assert bench.failed == 0
    assert min(tracer.self_times()) >= 0
    for root, total in _subtree_self_sums(tracer).items():
        duration = tracer.ends[root] - tracer.starts[root]
        assert total == pytest.approx(duration, rel=1e-9, abs=1e-9)
    totals = tracer.totals()
    assert totals["distributed.setup"]["calls"] == totals["distributed.run"]["calls"]
    assert totals["flow.maxflow"]["calls"] > 0
