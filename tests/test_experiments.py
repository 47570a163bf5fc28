"""Tests for the experiment orchestration subsystem (repro.experiments).

Covers the scenario registry (completeness, spec hashing, picklability),
the sharded runner (serial/parallel determinism, caching, report schema),
the global-random guard, and the CLI entry point.
"""

import json
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments import (
    ResultCache,
    ScenarioSpec,
    execute_scenario,
    experiment_ids,
    get_experiment,
    run_experiments,
    strip_timing,
)
from repro.experiments.families import build_graph
from repro.experiments.runner import SCHEMA

# Cheap experiments (sub-second apiece) used wherever scenarios must actually run.
FAST_IDS = ["E04", "E07", "E11"]
REPO_ROOT = Path(__file__).resolve().parent.parent


class TestRegistry:
    def test_all_twenty_two_experiments_registered(self):
        # E18 (the batch-engine scale sweep) was retired with its engine.
        assert experiment_ids() == [f"E{i:02d}" for i in range(1, 24) if i != 18]

    def test_every_experiment_has_scenarios_and_columns(self):
        for identifier in experiment_ids():
            experiment = get_experiment(identifier)
            assert experiment.scenarios, identifier
            assert experiment.columns, identifier
            names = [spec.name for spec in experiment.scenarios]
            assert len(set(names)) == len(names), f"{identifier}: duplicate scenario names"
            for spec in experiment.scenarios:
                assert spec.experiment == identifier

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError, match="E99"):
            get_experiment("E99")

    def test_lookup_is_case_insensitive(self):
        assert get_experiment("e16").id == "E16"

    def test_specs_pickle_and_serialise(self):
        for identifier in experiment_ids():
            for spec in get_experiment(identifier).scenarios:
                clone = pickle.loads(pickle.dumps(spec))
                assert clone == spec
                assert clone.spec_hash() == spec.spec_hash()
                json.dumps(spec.as_dict())

    def test_spec_hashes_unique_across_registry(self):
        hashes = [
            spec.spec_hash()
            for identifier in experiment_ids()
            for spec in get_experiment(identifier).scenarios
        ]
        assert len(set(hashes)) == len(hashes)


class TestScenarioSpec:
    def test_hash_independent_of_keyword_order(self):
        a = ScenarioSpec.make("EXX", "s", alpha=1, graph=("gnp", 10, 0.5, 1))
        b = ScenarioSpec.make("EXX", "s", graph=["gnp", 10, 0.5, 1], alpha=1)
        assert a == b
        assert a.spec_hash() == b.spec_hash()

    def test_hash_changes_with_params(self):
        a = ScenarioSpec.make("EXX", "s", seed=1)
        b = ScenarioSpec.make("EXX", "s", seed=2)
        assert a.spec_hash() != b.spec_hash()

    def test_non_primitive_params_rejected(self):
        with pytest.raises(TypeError):
            ScenarioSpec.make("EXX", "s", bad={"nested": "dict"})

    def test_param_lookup(self):
        spec = ScenarioSpec.make("EXX", "s", k=3, weights=(1.0, 2.0))
        assert spec.param("k") == 3
        assert spec.param("weights") == (1.0, 2.0)
        assert spec.param("missing", 7) == 7


class TestEngineSelection:
    """The first-class ``engine`` field and its override plumbing."""

    def test_engine_round_trips(self):
        spec = ScenarioSpec.make("EXX", "s", engine="reference", seed=1)
        assert spec.engine == "reference"
        assert spec.as_dict()["engine"] == "reference"
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec and clone.engine == "reference"
        assert clone.spec_hash() == spec.spec_hash()

    def test_default_engine_omitted_from_canonical_json(self):
        # Specs predating the field keep their hashes: None never serialises.
        spec = ScenarioSpec.make("EXX", "s", seed=1)
        assert spec.engine is None
        assert "engine" not in spec.as_dict()
        assert "engine" not in spec.canonical_json()

    def test_engine_changes_spec_hash(self):
        base = ScenarioSpec.make("EXX", "s", seed=1)
        assert base.with_engine("reference").spec_hash() != base.spec_hash()
        assert base.with_engine("reference") != base.with_engine("columnar")
        assert base.with_engine(None) == base

    def test_runner_engine_override_reaches_report(self):
        report = run_experiments(["E17"], jobs=1, engine="reference")
        scenarios = report["experiments"][0]["scenarios"]
        assert scenarios, "E17 has scenarios"
        for scenario in scenarios:
            assert scenario["spec"]["engine"] == "reference"

    def test_reference_override_on_targeted_send_experiment_matches_columnar(self):
        # E16's two-spanner sends targeted messages; the columnar engine's
        # targeted fast path runs it bit-for-bit like the oracle.
        reference = run_experiments(["E16"], jobs=1, engine="reference")
        columnar = run_experiments(["E16"], jobs=1, engine="columnar")
        for b, i in zip(
            reference["experiments"][0]["scenarios"],
            columnar["experiments"][0]["scenarios"],
        ):
            b_result = {
                k: v for k, v in b["result"].items()
                if not k.startswith("timing.") and k != "engine"
            }
            i_result = {
                k: v for k, v in i["result"].items()
                if not k.startswith("timing.") and k != "engine"
            }
            assert b_result == i_result

    def test_e16_specs_carry_engines(self):
        engines = [spec.engine for spec in get_experiment("E16").scenarios]
        assert engines == ["reference", "columnar"]


class TestAdversarySelection:
    """The first-class ``adversary`` field and its override plumbing."""

    def test_adversary_round_trips(self):
        spec = ScenarioSpec.make("EXX", "s", adversary="drop:0.05", seed=1)
        assert spec.adversary == "drop:0.05"
        assert spec.as_dict()["adversary"] == "drop:0.05"
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec and clone.adversary == "drop:0.05"
        assert clone.spec_hash() == spec.spec_hash()

    def test_default_adversary_omitted_from_canonical_json(self):
        # Specs predating the field keep their hashes: None never serialises.
        spec = ScenarioSpec.make("EXX", "s", seed=1)
        assert spec.adversary is None
        assert "adversary" not in spec.as_dict()
        assert "adversary" not in spec.canonical_json()

    def test_adversary_changes_spec_hash(self):
        base = ScenarioSpec.make("EXX", "s", seed=1)
        assert base.with_adversary("drop:0.05").spec_hash() != base.spec_hash()
        assert base.with_adversary("drop:0.05") != base.with_adversary("drop:0.1")
        assert base.with_adversary(None) == base

    def test_runner_adversary_override_reaches_report(self):
        report = run_experiments(["E17"], jobs=1, adversary="drop:0.0")
        for scenario in report["experiments"][0]["scenarios"]:
            assert scenario["spec"]["adversary"] == "drop:0.0"

    def test_e19_specs_carry_adversaries(self):
        adversaries = [spec.adversary for spec in get_experiment("E19").scenarios]
        assert adversaries[0] is None  # fault-free baseline
        assert "drop:0.05" in adversaries
        assert any(a and a.startswith("crash:") for a in adversaries)

    @pytest.mark.parametrize("pin", ["drop:0.1", "crash:119@2", "budget:64", "none"])
    def test_e19_survives_a_global_adversary_pin(self, pin):
        # Pinning one fault policy onto the whole tier collapses the sweep
        # (and crash:119@2 names a node absent from the 64-node spanner
        # graph); the per-scenario checks and the verify hook must degrade
        # to the pin-independent invariants instead of failing on
        # sweep-shaped or curated-schedule assumptions.
        report = run_experiments(["E19"], jobs=1, adversary=pin)
        for scenario in report["experiments"][0]["scenarios"]:
            assert scenario["spec"]["adversary"] == pin


class TestFamilies:
    def test_known_families_build(self):
        graph = build_graph(("connected_gnp", 12, 0.4, 1))
        assert graph.number_of_nodes() == 12

    def test_unknown_family_raises(self):
        with pytest.raises(KeyError, match="no-such-family"):
            build_graph(("no-such-family", 3))

    def test_same_tuple_same_graph(self):
        a = build_graph(("gnp", 30, 0.2, 9))
        b = build_graph(("gnp", 30, 0.2, 9))
        assert sorted(map(sorted, a.edges())) == sorted(map(sorted, b.edges()))


class TestRunnerDeterminism:
    def test_report_schema(self):
        report = run_experiments(["E11"], jobs=1)
        assert report["schema"] == SCHEMA
        (entry,) = report["experiments"]
        assert entry["id"] == "E11"
        for scenario in entry["scenarios"]:
            assert set(scenario) == {"spec", "spec_hash", "cached", "wall_time_s", "result"}
            assert scenario["cached"] is False
            json.dumps(scenario["result"])

    def test_serial_runs_identical(self):
        first = json.dumps(strip_timing(run_experiments(FAST_IDS, jobs=1)))
        second = json.dumps(strip_timing(run_experiments(FAST_IDS, jobs=1)))
        assert first == second

    def test_parallel_matches_serial(self):
        serial = json.dumps(strip_timing(run_experiments(FAST_IDS, jobs=1)))
        parallel = json.dumps(strip_timing(run_experiments(FAST_IDS, jobs=4)))
        assert serial == parallel

    def test_cache_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cold = run_experiments(["E11"], jobs=1, cache=cache)
        assert all(not s["cached"] for s in cold["experiments"][0]["scenarios"])
        warm = run_experiments(["E11"], jobs=1, cache=ResultCache(tmp_path / "cache"))
        assert all(s["cached"] for s in warm["experiments"][0]["scenarios"])
        assert json.dumps(strip_timing(cold)) == json.dumps(strip_timing(warm))

    def test_cache_ignores_corrupt_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = get_experiment("E11").scenarios[0]
        path = cache._path(spec)
        path.write_text("{not json")
        assert cache.get(spec) is None

    def test_cache_key_carries_schema_version(self, tmp_path):
        # Entries written under an older repro-experiments/* schema live at
        # a different filename, so they miss instead of silently replaying.
        cache = ResultCache(tmp_path)
        spec = get_experiment("E11").scenarios[0]
        cache.put(spec, {"rounds": 1})
        path = cache._path(spec)
        assert SCHEMA.replace("/", "-") in path.name
        old_payload = json.loads(path.read_text())
        old_payload["schema"] = "repro-experiments/1"
        (tmp_path / f"{spec.spec_hash()}.json").write_text(json.dumps(old_payload))
        path.unlink()  # only the legacy-keyed file remains
        assert cache.get(spec) is None

    def test_cache_rejects_stale_schema_field(self, tmp_path):
        # Belt and braces: even at the right filename, a stale stored schema
        # (e.g. a renamed file) is rejected on read.
        cache = ResultCache(tmp_path)
        spec = get_experiment("E11").scenarios[0]
        cache.put(spec, {"rounds": 1})
        path = cache._path(spec)
        payload = json.loads(path.read_text())
        payload["schema"] = "repro-experiments/1"
        path.write_text(json.dumps(payload))
        assert cache.get(spec) is None

    def test_strip_timing_removes_only_timing(self):
        report = run_experiments(["E16"], jobs=1)
        stripped = strip_timing(report)
        for scenario in stripped["experiments"][0]["scenarios"]:
            assert "wall_time_s" not in scenario
            assert "cached" not in scenario
            assert not any(k.startswith("timing.") for k in scenario["result"])
            assert "rounds" in scenario["result"]  # physics untouched
        # the original report still has its timing fields
        assert all(
            "wall_time_s" in s for s in report["experiments"][0]["scenarios"]
        )


class TestGlobalRandomGuard:
    # One representative cheap scenario per experiment family.
    SPECS = [
        ("E04", 0),  # weighted spanner
        ("E07", 0),  # one-plus-eps
        ("E11", 0),  # lower-bound construction
        ("E13", 3),  # Baswana-Sen (k=4, the cheapest)
    ]

    @pytest.mark.parametrize("experiment_id,index", SPECS)
    def test_scenarios_leave_global_random_untouched(self, experiment_id, index):
        experiment = get_experiment(experiment_id)
        spec = experiment.scenarios[index]
        random.seed(20260728)
        state = random.getstate()
        experiment.run_scenario(spec)
        assert random.getstate() == state, (
            f"{experiment_id}/{spec.name} mutated the global random state"
        )

    def test_execute_scenario_reseeds_deterministically(self):
        spec = get_experiment("E11").scenarios[0]
        random.seed(1)
        first = execute_scenario(spec)
        random.seed(99)  # a different ambient state must not matter
        second = execute_scenario(spec)
        assert first == second


class TestCLI:
    def _run(self, *argv):
        return subprocess.run(
            [sys.executable, "-m", "repro.experiments", *argv],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
        )

    def test_list(self):
        proc = self._run("list")
        assert proc.returncode == 0
        assert "E01" in proc.stdout and "E17" in proc.stdout

    def test_list_json_is_machine_readable(self):
        proc = self._run("list", "--json")
        assert proc.returncode == 0
        listing = json.loads(proc.stdout)
        assert listing["schema"] == SCHEMA
        by_id = {entry["id"]: entry for entry in listing["experiments"]}
        assert sorted(by_id) == [f"E{i:02d}" for i in range(1, 24) if i != 18]
        e19 = by_id["E19"]
        assert e19["scenario_count"] == len(e19["scenarios"]) == 9
        for scenario in e19["scenarios"]:
            assert set(scenario) == {"name", "spec_hash"}
            assert len(scenario["spec_hash"]) == 16
        # The hashes must match the in-process registry exactly.
        expected = {
            spec.name: spec.spec_hash() for spec in get_experiment("E19").scenarios
        }
        assert {s["name"]: s["spec_hash"] for s in e19["scenarios"]} == expected

    def test_list_json_exposes_engines_and_max_n(self):
        proc = self._run("list", "--json")
        assert proc.returncode == 0
        by_id = {
            entry["id"]: entry for entry in json.loads(proc.stdout)["experiments"]
        }
        # Every experiment carries the tooling-discovery fields.
        for entry in by_id.values():
            assert "engines" in entry and "max_n" in entry
            assert entry["engines"] == sorted(entry["engines"])
        assert by_id["E20"]["engines"] == ["columnar"]
        assert by_id["E20"]["max_n"] == 1_000_000
        assert by_id["E21"]["engines"] == ["columnar", "reference"]
        assert "E18" not in by_id
        # Experiments whose specs carry no size stay discoverable as None.
        assert by_id["E10"]["max_n"] is None

    def test_list_json_exposes_targeted_flag_and_engine_capabilities(self):
        proc = self._run("list", "--json")
        assert proc.returncode == 0
        by_id = {
            entry["id"]: entry for entry in json.loads(proc.stdout)["experiments"]
        }
        for entry in by_id.values():
            assert isinstance(entry["targeted"], bool)
            # Since the targeted fast path every engine carries every
            # admission-legal workload; the map stays explicit so tooling
            # never hard-codes that.
            assert entry["engine_support"] == {
                engine: True for engine in ("columnar", "reference")
            }
        assert by_id["E21"]["targeted"] is True
        assert by_id["E20"]["targeted"] is False

    def test_run_writes_json(self, tmp_path):
        out = tmp_path / "report.json"
        proc = self._run("run", "E11", "--jobs", "1", "--json", str(out), "--no-tables")
        assert proc.returncode == 0, proc.stderr
        report = json.loads(out.read_text())
        assert report["schema"] == SCHEMA
        assert report["experiments"][0]["id"] == "E11"

    def test_run_requires_ids_or_all(self):
        proc = self._run("run")
        assert proc.returncode != 0

    def test_run_engine_reference_works(self, tmp_path):
        out = tmp_path / "report.json"
        proc = self._run(
            "run", "E17", "--engine", "reference", "--jobs", "1",
            "--json", str(out), "--no-tables", "--strip-timing",
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(out.read_text())
        for scenario in report["experiments"][0]["scenarios"]:
            assert scenario["spec"]["engine"] == "reference"

    @pytest.mark.parametrize("engine", ["warp", "indexed", "batch"])
    def test_run_engine_rejects_unknown(self, engine):
        proc = self._run("run", "E17", "--engine", engine)
        assert proc.returncode != 0
        assert "invalid choice" in proc.stderr

    def test_run_adversary_override_works(self, tmp_path):
        out = tmp_path / "report.json"
        proc = self._run(
            "run", "E11", "--adversary", "drop:0.0", "--jobs", "1",
            "--json", str(out), "--no-tables",
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(out.read_text())
        for scenario in report["experiments"][0]["scenarios"]:
            assert scenario["spec"]["adversary"] == "drop:0.0"

    def test_run_adversary_rejects_bad_spec(self):
        proc = self._run("run", "E11", "--adversary", "warp:9")
        assert proc.returncode == 2
        assert "adversary spec" in proc.stderr

    def test_run_scenario_filter_skips_verify_and_records_filter(self, tmp_path):
        out = tmp_path / "report.json"
        proc = self._run(
            "run", "E17", "--scenario", "n=48", "--jobs", "1",
            "--json", str(out), "--no-tables", "--strip-timing",
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(out.read_text())
        assert report["scenario_filter"] == "n=48"
        entry = report["experiments"][0]
        names = [scenario["spec"]["name"] for scenario in entry["scenarios"]]
        assert names == [
            "n=48 clique_columnar", "n=48 clique_reference", "n=48 congest",
        ]
        # verify hooks are written against complete result lists: skipped.
        assert entry["summary"] == {}

    def test_run_scenario_filter_rejects_no_match(self):
        proc = self._run("run", "E17", "--scenario", "n=77777")
        assert proc.returncode == 2
        assert "matches no scenario" in proc.stderr


class TestScenarioFilter:
    """run_experiments(scenario_filter=...) — the in-process contract."""

    def test_filter_substring_selects_subset(self):
        report = run_experiments(["E11"], jobs=1, scenario_filter="")
        # Empty substring matches everything; filter still recorded and
        # verify still skipped (the filter was *active*).
        full = run_experiments(["E11"], jobs=1)
        assert report["scenario_filter"] == ""
        assert len(report["experiments"][0]["scenarios"]) == len(
            full["experiments"][0]["scenarios"]
        )
        assert report["experiments"][0]["summary"] == {}
        assert "scenario_filter" not in full

    def test_filter_without_match_raises(self):
        with pytest.raises(ValueError, match="matches no scenario"):
            run_experiments(["E11"], jobs=1, scenario_filter="bogus-name")


class TestE20Registration:
    """The mega-scale tier's registry shape (no mega runs here)."""

    def test_scenarios_and_anchor(self):
        e20 = get_experiment("E20")
        names = [spec.name for spec in e20.scenarios]
        assert names == ["n=20000 columnar", "n=200000", "n=500000", "n=1000000"]
        assert {spec.engine for spec in e20.scenarios} == {"columnar"}
        # The anchor is the shared n=20000 instance of the substrate benches.
        anchor = next(s for s in e20.scenarios if s.name == "n=20000 columnar")
        assert anchor.param("graph") == ("sparse_connected_gnp", 20000, 0.0005, 18)
        # Mega points stream their metrics (bounded bits_per_round history).
        for name in ("n=200000", "n=500000", "n=1000000"):
            spec = next(s for s in e20.scenarios if s.name == name)
            assert spec.param("streaming") is True
            assert spec.param("graph")[0] == "sparse_gnp_csr"

    def test_anchor_scenario_runs_and_checks_the_flood(self):
        # The n=20000 anchor — the only E20 slice cheap enough for tier-1 —
        # carries the flood-max checks: converged on the max label within
        # the round budget, every vertex broadcasting every round.
        report = run_experiments(["E20"], jobs=1, scenario_filter="n=20000 ")
        entry = report["experiments"][0]
        results = {
            scenario["spec"]["name"]: scenario["result"]
            for scenario in entry["scenarios"]
        }
        assert set(results) == {"n=20000 columnar"}
        columnar = results["n=20000 columnar"]
        assert columnar["leader"] == 19999
        assert columnar["rounds"] == 10
        assert columnar["metrics.messages_sent"] == 10 * 2 * columnar["m"]
