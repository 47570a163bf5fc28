"""Registry definitions for the corruption tier: E22 (coded robust workloads).

E22 is the registry's first *soundness-under-corruption* family.  The
:class:`~repro.distributed.adversary.CorruptAdversary` flips one bit per
corrupted delivery in the payload's canonical wire image — it can *forge*
values, not merely destroy them — and the sweep measures three points on
the redundancy/resilience curve for the retransmitting flood-max, plus the
plain/coded clique 2-spanner pair:

* **plain** — :func:`repro.core.run_robust_flood_max` retransmits until
  stable but trusts content: a forged label wins the election (live, but
  unsound — the scenarios pin the *failure*);
* **repetition** — :func:`repro.core.robust_coding.run_redundant_flood_max`
  sends 3 copies per message and majority-decodes (corrects one flipped
  bit, ~3x the bits);
* **checksum** — :func:`repro.core.robust_coding.run_coded_flood_max`
  rides a 32-bit wire-image checksum along (detects the flip, converting
  corruption into loss, ~1 extra word).

Per-scenario ``check()`` invariants assert the new invariant class:
survivor agreement on the *true* maximum despite corruption for the coded
variants, the documented soundness failure for the plain program, and
spanner validity (:func:`repro.spanner.is_k_spanner`) for the
checksummed-attach spanner where the plain one is pinned invalid.  The
cross-scenario ``verify`` pins zero-rate identity (``corrupt:0.0`` ==
fault-free modulo zero-valued fault counters), columnar/reference
bit-for-bit parity under one corruption seed, corrupted-fraction monotonicity in the
rate, and that both codes pay strictly more bits than the plain program.
"""

from __future__ import annotations

from typing import Any

from repro.core import (
    clique_spanner_round_bound,
    robust_flood_max_round_bound,
    run_clique_two_spanner,
    run_robust_flood_max,
)
from repro.core.robust_coding import (
    run_coded_clique_two_spanner,
    run_coded_flood_max,
    run_redundant_flood_max,
)
from repro.distributed import DEFAULT_ENGINE
from repro.distributed.adversary import Adversary, CorruptAdversary, build_adversary
from repro.experiments.families import build_graph
from repro.experiments.registry import Experiment, check, register
from repro.experiments.spec import ScenarioSpec
from repro.spanner import is_k_spanner

_E22_SEED = 7
_FLOOD_GRAPH = ("connected_gnp", 64, 0.1, 11)
_FLOOD_PATIENCE = 3
_SPANNER_GRAPH = ("gnp", 48, 0.15, 13)
_SPANNER_SEED = 0
_CORRUPT_LO = "corrupt:0.05"
_CORRUPT_HI = "corrupt:0.1"

#: Round cap for the *plain* flood under corruption: forged labels void the
#: ``n * patience + 1`` bound (extra increases), but single-bit flips on
#: one-byte label magnitudes cannot forge past 255, so the increase count
#: is bounded by 255 and the patience argument caps the run again.
_PLAIN_CORRUPT_ROUND_CAP = robust_flood_max_round_bound(256, _FLOOD_PATIENCE)

#: Half-width of the accepted corrupted/sent band around the configured
#: rate (deterministic runs: absorbs one fixed binomial sample, not noise).
_RATIO_BAND = 0.5


def _resolve_adversary(spec: ScenarioSpec) -> Adversary | None:
    """The spec's fault policy (``None`` when the scenario is fault-free)."""
    return build_adversary(spec.adversary) if spec.adversary else None


def _corruption_checks(
    spec: ScenarioSpec, adversary: Adversary | None, metrics
) -> None:
    """Fault-counter sanity shared by every E22 scenario."""
    if not isinstance(adversary, CorruptAdversary):
        return
    faults = metrics.per_adversary
    corrupted = faults.get("adversary_corrupted_messages", 0)
    erased = faults.get("adversary_erased_messages", 0)
    check(
        erased <= corrupted,
        f"{spec.name}: {erased} erasures exceed {corrupted} corruptions",
    )
    if adversary.rate == 0.0:
        check(
            corrupted == 0,
            f"{spec.name}: zero-rate adversary corrupted {corrupted} messages",
        )
    else:
        ratio = corrupted / metrics.messages_sent
        check(
            abs(ratio - adversary.rate) <= _RATIO_BAND * adversary.rate,
            f"{spec.name}: corrupted fraction {ratio:.4f} inconsistent with "
            f"rate {adversary.rate}",
        )


def _run_flood(spec: ScenarioSpec) -> dict[str, Any]:
    """One flood-max scenario: run the spec's code, pin its soundness contract."""
    graph = build_graph(spec.param("graph"))
    n = graph.number_of_nodes()
    adversary = _resolve_adversary(spec)
    patience = spec.param("patience")
    code = spec.param("code")
    seed = spec.param("run_seed")
    engine = spec.engine or DEFAULT_ENGINE
    if code == "repetition":
        result = run_redundant_flood_max(
            graph, patience=patience, seed=seed, engine=engine, adversary=adversary
        )
    elif code == "checksum":
        result = run_coded_flood_max(
            graph, patience=patience, seed=seed, engine=engine, adversary=adversary
        )
    else:
        # The plain program needs an explicit cap under corruption: forged
        # labels add best-value increases the provable bound never counted.
        result = run_robust_flood_max(
            graph,
            patience=patience,
            seed=seed,
            engine=engine,
            adversary=adversary,
            max_rounds=_PLAIN_CORRUPT_ROUND_CAP,
        )
    recovered = result.converged and result.leader == n - 1
    corrupting = isinstance(adversary, CorruptAdversary) and adversary.rate > 0.0
    if code == "plain" and not corrupting:
        check(recovered, f"{spec.name}: fault-free run must elect the max label")
    elif code != "plain":
        # The coded variants' soundness restores the plain round bound too.
        bound = robust_flood_max_round_bound(n, patience)
        check(
            result.rounds <= bound,
            f"{spec.name}: used {result.rounds} rounds, provable bound is {bound}",
        )
        check(
            recovered,
            f"{spec.name}: {code} code failed to recover the true maximum "
            f"(leader {result.leader!r}, converged {result.converged})",
        )
    _corruption_checks(spec, adversary, result.metrics)
    ok = recovered if code != "plain" or not corrupting else not recovered
    return {
        "workload": "floodmax",
        "code": code,
        "adversary": spec.adversary or "none",
        "engine": engine,
        "n": n,
        "m": graph.number_of_edges(),
        "rounds": result.rounds,
        "converged": result.converged,
        "leader": result.leader,
        "recovered": recovered,
        "ok": ok,
        "metrics": result.metrics,
    }


def _run_spanner(spec: ScenarioSpec) -> dict[str, Any]:
    """One spanner scenario: plain vs checksummed-attach validity."""
    graph = build_graph(spec.param("graph"))
    n = graph.number_of_nodes()
    adversary = _resolve_adversary(spec)
    code = spec.param("code")
    runner = run_coded_clique_two_spanner if code == "checksum" else run_clique_two_spanner
    result = runner(
        graph,
        seed=spec.param("run_seed"),
        engine=spec.engine or DEFAULT_ENGINE,
        adversary=adversary,
    )
    # The level schedule is round-driven: corruption never stalls it.
    check(
        result.rounds == clique_spanner_round_bound(n),
        f"{spec.name}: round schedule drifted to {result.rounds} under faults",
    )
    valid = is_k_spanner(graph, result.edges, 2)
    corrupting = isinstance(adversary, CorruptAdversary) and adversary.rate > 0.0
    if code == "checksum" or not corrupting:
        # Checksummed attach frames keep coverage beliefs sound: forged
        # announcements are discarded, so corruption degrades to loss and
        # validity must hold (fault-free plain runs obviously too).
        check(valid, f"{spec.name}: spanner invalid ({code} code)")
    elif spec.adversary == _CORRUPT_HI and spec.param("run_seed") == _SPANNER_SEED:
        # Pinned demonstration: at this graph/seed the plain program accepts
        # forged attach centres and the output fails to 2-span.
        check(
            not valid,
            f"{spec.name}: expected the plain spanner to be poisoned by "
            f"forged attach announcements, but it validated",
        )
    _corruption_checks(spec, adversary, result.metrics)
    recovered = valid
    ok = valid if code == "checksum" or not corrupting else not valid
    return {
        "workload": "spanner",
        "code": code,
        "adversary": spec.adversary or "none",
        "engine": spec.engine or DEFAULT_ENGINE,
        "n": n,
        "m": graph.number_of_edges(),
        "rounds": result.rounds,
        "edges": len(result.edges),
        "valid": valid,
        "recovered": recovered,
        "ok": ok,
        "metrics": result.metrics,
    }


def _run_e22(spec: ScenarioSpec) -> dict[str, Any]:
    """Dispatch one E22 scenario to its workload runner."""
    if spec.param("workload") == "floodmax":
        return _run_flood(spec)
    return _run_spanner(spec)


def _verify_e22(results) -> dict[str, Any]:
    """Cross-scenario invariants: identity, parity, monotonicity, bit costs.

    ``run --adversary`` rewrites every scenario to one fault policy, which
    collapses the sweep; checks comparing *different* adversaries or codes
    are therefore guarded on the labels actually present, while the
    engine differential (same adversary, different engines) holds under
    any pin.
    """
    (
        plain_none,
        plain_zero,
        plain_lo,
        plain_hi,
        rep_none,
        rep_lo,
        rep_hi,
        rep_hi_columnar,
        rep_hi_reference,
        sum_none,
        sum_lo,
        sum_hi,
        span_plain_none,
        span_plain_hi,
        span_coded_hi,
    ) = results
    # Engine differential under the same corruption seed: every non-timing
    # key must agree bit-for-bit, fault counters included.
    for other in (rep_hi_columnar, rep_hi_reference):
        for key in rep_hi:
            if key.startswith("timing.") or key == "engine":
                continue
            check(
                rep_hi[key] == other[key],
                f"engines {rep_hi['engine']}/{other['engine']} disagree under "
                f"{rep_hi['adversary']} on {key}: "
                f"{rep_hi[key]!r} != {other[key]!r}",
            )
    if plain_none["adversary"] == "none" and plain_zero["adversary"] == "corrupt:0.0":
        # A zero-rate CorruptAdversary must reproduce fault-free physics
        # exactly; the only admissible difference is the presence of
        # zero-valued fault counters (and the adversary label itself).
        for key, value in plain_none.items():
            if key.startswith("timing.") or key == "adversary":
                continue
            check(
                plain_zero.get(key) == value,
                f"corrupt:0.0 diverges from the fault-free run on {key}: "
                f"{plain_zero.get(key)!r} != {value!r}",
            )
        check(
            plain_zero.get("metrics.adversary_corrupted_messages") == 0,
            "corrupt:0.0 corrupted a message",
        )
    if plain_lo["adversary"] != plain_hi["adversary"]:
        ratio_lo = (
            plain_lo["metrics.adversary_corrupted_messages"]
            / plain_lo["metrics.messages_sent"]
        )
        ratio_hi = (
            plain_hi["metrics.adversary_corrupted_messages"]
            / plain_hi["metrics.messages_sent"]
        )
        check(
            ratio_hi > ratio_lo,
            "higher corruption rate did not corrupt a larger message fraction",
        )
    headline = None
    if plain_hi["adversary"] == _CORRUPT_HI and rep_hi["adversary"] == _CORRUPT_HI:
        # The tier's reason to exist: under corrupt:0.1 the plain program
        # fails soundness while both codes recover the true maximum.
        check(
            not plain_hi["recovered"],
            "plain flood-max unexpectedly recovered the true maximum under "
            "corruption (the soundness failure this tier demonstrates)",
        )
        check(
            rep_hi["recovered"] and sum_hi["recovered"],
            "a coded flood-max failed to recover the true maximum",
        )
        headline = bool(
            not plain_hi["recovered"]
            and rep_hi["recovered"]
            and sum_hi["recovered"]
        )
    if (
        plain_none["adversary"] == "none"
        and rep_none["adversary"] == "none"
        and sum_none["adversary"] == "none"
    ):
        # The cost side of the tradeoff curve: both codes pay strictly more
        # bits than the plain program on identical traffic.  (Their relative
        # order depends on the payload width: a 32-bit checksum exceeds 3x
        # repetition of a one-word label, and only wins for wide payloads —
        # the reported bits pin the measured curve.)
        check(
            rep_none["metrics.bits_sent"] > plain_none["metrics.bits_sent"]
            and sum_none["metrics.bits_sent"] > plain_none["metrics.bits_sent"],
            "a coded flood-max did not cost more bits than the plain program",
        )
    return {
        "headline.codes_recover_where_plain_fails": headline,
        "floodmax.plain.corrupt10.leader": plain_hi.get("leader"),
        "floodmax.repetition.corrupt10.recovered": rep_hi.get("recovered"),
        "floodmax.checksum.corrupt10.recovered": sum_hi.get("recovered"),
        "floodmax.bits.plain": plain_none.get("metrics.bits_sent"),
        "floodmax.bits.checksum": sum_none.get("metrics.bits_sent"),
        "floodmax.bits.repetition": rep_none.get("metrics.bits_sent"),
        "spanner.plain.corrupt10.valid": span_plain_hi.get("valid"),
        "spanner.checksum.corrupt10.valid": span_coded_hi.get("valid"),
        "spanner.none.edges": span_plain_none.get("edges"),
    }


def _flood_spec(name: str, code: str, adversary: str | None, engine: str | None = None):
    """One flood-max scenario spec (shared graph/patience/seed)."""
    return ScenarioSpec.make(
        "E22",
        name,
        engine=engine,
        adversary=adversary,
        workload="floodmax",
        code=code,
        graph=_FLOOD_GRAPH,
        patience=_FLOOD_PATIENCE,
        run_seed=_E22_SEED,
    )


def _spanner_spec(name: str, code: str, adversary: str | None):
    """One spanner scenario spec (shared graph/seed)."""
    return ScenarioSpec.make(
        "E22",
        name,
        adversary=adversary,
        workload="spanner",
        code=code,
        graph=_SPANNER_GRAPH,
        run_seed=_SPANNER_SEED,
    )


register(
    Experiment(
        id="E22",
        title="corruption tier: coded robust workloads under payload bit-flips",
        headline="corrupt adversary: codes recover the true flood-max where the plain program is forged",
        columns=(
            ("workload", "workload", None),
            ("code", "code", None),
            ("adversary", "adversary", None),
            ("engine", "engine", None),
            ("rounds", "rounds", None),
            ("messages", "metrics.messages_sent", None),
            ("corrupted", "metrics.adversary_corrupted_messages", None),
            ("erased", "metrics.adversary_erased_messages", None),
            ("bits", "metrics.bits_sent", None),
            ("recovered", "recovered", None),
            ("ok", "ok", None),
        ),
        scenarios=[
            _flood_spec("floodmax plain none", "plain", None),
            _flood_spec("floodmax plain corrupt=0.00", "plain", "corrupt:0.0"),
            _flood_spec("floodmax plain corrupt=0.05", "plain", _CORRUPT_LO),
            _flood_spec("floodmax plain corrupt=0.10", "plain", _CORRUPT_HI),
            _flood_spec("floodmax repetition none", "repetition", None),
            _flood_spec("floodmax repetition corrupt=0.05", "repetition", _CORRUPT_LO),
            _flood_spec("floodmax repetition corrupt=0.10", "repetition", _CORRUPT_HI),
            _flood_spec(
                "floodmax repetition corrupt=0.10 columnar",
                "repetition",
                _CORRUPT_HI,
                engine="columnar",
            ),
            _flood_spec(
                "floodmax repetition corrupt=0.10 reference",
                "repetition",
                _CORRUPT_HI,
                engine="reference",
            ),
            _flood_spec("floodmax checksum none", "checksum", None),
            _flood_spec("floodmax checksum corrupt=0.05", "checksum", _CORRUPT_LO),
            _flood_spec("floodmax checksum corrupt=0.10", "checksum", _CORRUPT_HI),
            _spanner_spec("spanner plain none", "plain", None),
            _spanner_spec("spanner plain corrupt=0.10", "plain", _CORRUPT_HI),
            _spanner_spec("spanner checksum corrupt=0.10", "checksum", _CORRUPT_HI),
        ],
        run_scenario=_run_e22,
        verify=_verify_e22,
        tags=("corruption", "robustness"),
    )
)
