"""Tests for the Lenzen-style routing primitive and the E21 listing tier.

Routing: the centrally computed schedule matches the instance (batches,
phase-2 loads, overflow cap), every payload reaches exactly its destination
in the planned number of rounds, and all engines agree.  Listing: both
delivery modes reproduce :func:`brute_force_triangles` exactly — the
verified-output contract of the E21 scenarios — and the group partition
helpers satisfy their arithmetic invariants.  Plus an E21 determinism
check: ``--jobs 1`` and ``--jobs 4`` reports are byte-identical once
timing is stripped.
"""

import json

import pytest

from repro.core.clique_listing import (
    brute_force_triangles,
    group_count,
    group_triples,
    run_clique_listing,
    vertex_group,
)
from repro.core.clique_routing import (
    RoutingOverflowError,
    plan_clique_routing,
    run_clique_routing,
    run_targeted_fanout,
)
from repro.distributed import ENGINES
from repro.experiments import registry
from repro.experiments.runner import run_experiments, strip_timing
from repro.graphs import complete_graph, gnp_random_graph


# ----------------------------------------------------------------- partition
def test_group_count_is_exact_cube_root_floor():
    for n in [1, 2, 7, 8, 9, 26, 27, 28, 63, 64, 65, 728, 729, 1000]:
        k = group_count(n)
        assert k**3 <= n < (k + 1) ** 3 or k == 1


def test_vertex_groups_are_contiguous_and_balanced():
    n, k = 100, group_count(100)
    groups = [vertex_group(i, n, k) for i in range(n)]
    assert groups == sorted(groups)
    assert set(groups) == set(range(k))


def test_group_triples_fit_in_n():
    for n in [27, 64, 125, 1000]:
        k = group_count(n)
        assert len(group_triples(k)) <= n


# ------------------------------------------------------------------- routing
def test_schedule_single_batch_round_robin():
    # 4 nodes, each sends one message to (i+1) % 4: phase 1 lands every
    # frame directly on its destination (mid == dst), so no phase-2 rounds.
    outboxes = {i: [(i + 1) % 4] for i in range(4)}
    schedule = plan_clique_routing(4, outboxes)
    assert schedule.num_batches == 1
    assert schedule.phase2_rounds == (0,)


def test_schedule_splits_oversized_sources_into_batches():
    n = 5
    outboxes = {0: [1] * 9}  # 9 routed messages, batches of n - 1 = 4
    schedule = plan_clique_routing(n, outboxes)
    assert schedule.num_batches == 3


def test_schedule_ignores_self_addressed_messages():
    schedule = plan_clique_routing(4, {2: [2, 2, 2]})
    assert schedule.num_batches == 0
    assert schedule.total_rounds == 1


def test_overflow_cap_raises_at_plan_time():
    # Every node funnels all its frames at destination 0: per-(mid, dst)
    # load grows past a cap of 1.
    n = 6
    outboxes = {i: [0] * (n - 1) for i in range(1, n)}
    with pytest.raises(RoutingOverflowError, match="phase-2 rounds"):
        plan_clique_routing(n, outboxes, max_phase2_rounds=1)
    # Without the cap the same instance plans fine.
    schedule = plan_clique_routing(n, outboxes)
    assert schedule.num_batches == 1


@pytest.mark.parametrize("engine", ENGINES)
def test_routing_delivers_exactly_the_sent_multiset(engine):
    n = 9
    graph = complete_graph(n)
    # Skewed all-to-one plus scattered traffic, with payloads naming their
    # (src, dst) so delivery is fully checkable.
    messages = {
        src: [((src * 3 + j) % n, (src, (src * 3 + j) % n, j)) for j in range(5)]
        for src in range(n)
    }
    result = run_clique_routing(graph, messages, engine=engine)
    assert result.rounds <= result.schedule.total_rounds
    got = {dst: sorted(result.outputs[dst]) for dst in result.outputs}
    want: dict[int, list] = {v: [] for v in range(n)}
    for src, msgs in messages.items():
        for dst, payload in msgs:
            want[dst].append(payload)
    assert got == {dst: sorted(plist) for dst, plist in want.items()}


def test_routing_engines_agree_bit_for_bit():
    n = 8
    graph = complete_graph(n)
    messages = {src: [((src + 2) % n, src * 100 + j) for j in range(10)] for src in range(n)}
    runs = {
        engine: run_clique_routing(graph, messages, engine=engine)
        for engine in ENGINES
    }
    base = runs["reference"]
    assert runs["columnar"].outputs == base.outputs
    assert runs["columnar"].metrics.as_dict() == base.metrics.as_dict()


def test_runtime_overflow_on_schedule_violation():
    # A hand-built schedule with too few phase-2 rounds: queues survive.
    from repro.core.clique_routing import (
        CliqueRoutingProgram,
        RoutingSchedule,
    )
    from repro.distributed import Simulator, congested_clique_model

    n = 5
    graph = complete_graph(n)
    topo = graph.freeze()
    labels = list(topo.labels)
    rank = dict(topo.index)
    # All four non-zero sources route one frame to 0 via distinct mids, but
    # source 4's frame (mid == dst == 0) skips its queue; the other three
    # park at three distinct intermediates. One phase-2 round would do; a
    # schedule claiming zero forces the runtime check to fire.
    bogus = RoutingSchedule(n=n, num_batches=1, phase2_rounds=(0,))
    messages = {src: [(0, src)] for src in range(1, n)}

    def factory(v):
        i = topo.index[v]
        return CliqueRoutingProgram(v, i, messages.get(i, []), bogus, labels, rank)

    sim = Simulator(
        graph, factory, model=congested_clique_model(n, enforce=False), seed=0
    )
    with pytest.raises(RoutingOverflowError, match="survived the schedule"):
        sim.run(max_rounds=bogus.total_rounds + 2)


# ------------------------------------------------------------------- listing
@pytest.mark.parametrize("mode", ["direct", "routed"])
@pytest.mark.parametrize("engine", ENGINES)
def test_listing_matches_brute_force(mode, engine):
    graph = gnp_random_graph(40, 0.3, seed=3)
    result = run_clique_listing(graph, mode=mode, engine=engine)
    assert result.triangles == brute_force_triangles(graph)


def test_listing_modes_agree_and_round_counts_differ_as_planned():
    graph = gnp_random_graph(50, 0.25, seed=11)
    direct = run_clique_listing(graph, mode="direct")
    routed = run_clique_listing(graph, mode="routed")
    assert direct.triangles == routed.triangles == brute_force_triangles(graph)
    assert direct.replicas == routed.replicas
    assert direct.k == routed.k == group_count(50)


def test_listing_rejects_unknown_mode():
    with pytest.raises(ValueError, match="unknown listing mode"):
        run_clique_listing(gnp_random_graph(10, 0.5, seed=0), mode="warp")


def test_triangle_free_graph_lists_nothing():
    from repro.graphs import star_graph

    result = run_clique_listing(star_graph(12))
    assert result.triangles == set()


# ----------------------------------------------------------------- E21 smoke
def test_fanout_checksum_agrees_across_engines():
    graph = gnp_random_graph(60, 0.2, seed=2)
    runs = {
        engine: run_targeted_fanout(graph, fanout=4, rounds=6, engine=engine)
        for engine in ENGINES
    }
    base = runs["reference"]
    assert base.heard == base.metrics.messages_sent
    assert runs["columnar"].checksum == base.checksum
    assert runs["columnar"].metrics.as_dict() == base.metrics.as_dict()


def test_e21_report_is_job_count_invariant():
    """``--jobs 1`` and ``--jobs 4`` agree byte-for-byte after strip-timing."""
    registry.load_all()
    reports = []
    for jobs in (1, 4):
        report = run_experiments(["E21"], jobs=jobs)
        reports.append(
            json.dumps(strip_timing(report), sort_keys=True, default=str)
        )
    assert reports[0] == reports[1]
