"""Base-rooted elements, the mu-replacement construction, closure sweeps."""

import pytest

from engeler.companion import (
    CompanionError,
    NoCaseApplies,
    NotBaseRooted,
    b0,
    b0_base,
    b_mu,
    choose_mu,
    closure_report,
    companion_candidates,
    rebuild,
    substitute_mu,
    sweep_closure,
)
from engeler.model import enumerate_g, gelem_to_text, nat, parse_gelem
from engeler.templates import member_via_template, template_of
from engeler.terms import parse_term

from conftest import exhaust_budget_on


def _companions_stay_members(sigma, e):
    """Every companion candidate of e, a member of sigma's denotation, is a
    member too (fails only on a counterexample to the closure property)."""
    t = template_of(sigma)
    return all(member_via_template(t, c)
               for _, c in companion_candidates(sigma, e, choose_mu(e)))


def test_b0_and_b_mu():
    assert gelem_to_text(b0()) == "({0} -> 0)"
    assert gelem_to_text(b_mu(3)) == "({0} -> 3)"
    with pytest.raises(ValueError):
        b_mu(0)  # the replacement value must be a fresh positive natural


def test_b0_base_decomposition():
    assert b0_base(b0()).depth == 0
    assert b0_base(parse_gelem("({1} -> ({} -> ({0} -> 0)))")).depth == 2
    assert b0_base(nat(0)) is None
    assert b0_base(parse_gelem("({0} -> 1)")) is None
    assert b0_base(parse_gelem("({} -> 0)")) is None


def test_decompose_then_rebuild_is_identity():
    for text in [
        "({0} -> 0)",
        "({1} -> ({} -> ({0} -> 0)))",
        "({({0} -> 0)} -> ({0} -> 0))",
    ]:
        e = parse_gelem(text)
        assert rebuild(b0_base(e), b0()) == e


def test_substitute_mu():
    assert substitute_mu(b0(), 2) == b_mu(2)
    assert substitute_mu(
        parse_gelem("({1} -> ({0} -> 0))"), 2
    ) == parse_gelem("({1} -> ({0} -> 2))")
    with pytest.raises(CompanionError):
        substitute_mu(nat(0), 1)


def test_choose_mu_exceeds_every_natural():
    for text in ["({0} -> 0)", "({1} -> ({0} -> 0))", "({3} -> ({0} -> 0))"]:
        e = parse_gelem(text)
        assert choose_mu(e) == e.max_nat + 1


# ---------------------------------------------------------------------------
# the two replacement cases


def test_case_ii_on_s():
    # tau = {0}, mid empty: the matched element variable sits at 0
    sigma = parse_term("S")
    e = parse_gelem("({({0} -> ({} -> 0))} -> ({} -> ({0} -> 0)))")
    cands = companion_candidates(sigma, e, choose_mu(e))
    assert {k for k, _ in cands} == {"ii"}
    assert {gelem_to_text(c) for _, c in cands} == {
        "({({0} -> ({} -> 1))} -> ({} -> ({0} -> 1)))"
    }
    assert _companions_stay_members(sigma, e)


def test_case_i_on_s():
    # the shared consequent variable is itself base-rooted, so case (i)
    # replaces its terminal in both occurrences
    sigma = parse_term("S")
    e = parse_gelem("({({} -> ({} -> ({0} -> 0)))} -> ({} -> ({} -> ({0} -> 0))))")
    cands = companion_candidates(sigma, e, choose_mu(e))
    assert {k for k, _ in cands} == {"i"}
    assert {gelem_to_text(c) for _, c in cands} == {
        "({({} -> ({} -> ({0} -> 1)))} -> ({} -> ({} -> ({0} -> 1))))"
    }
    assert _companions_stay_members(sigma, e)


def test_ambiguous_candidates_at_width_two():
    # multiple matches each offer a zero to bump, so there is more than
    # one distinct candidate; the closure check covers every one
    sigma = parse_term("S")
    e = parse_gelem("({({} -> ({0} -> 0))} -> ({({} -> 0),({0} -> 0)} -> ({0} -> 0)))")
    cands = companion_candidates(sigma, e, choose_mu(e))
    assert len({c for _, c in cands}) > 1
    assert _companions_stay_members(sigma, e)


# ---------------------------------------------------------------------------
# input validation


def test_candidate_validation():
    e = parse_gelem("({({0} -> ({} -> 0))} -> ({} -> ({0} -> 0)))")
    with pytest.raises(CompanionError):
        companion_candidates(parse_term("K"), e, 1)  # S-only construction
    with pytest.raises(CompanionError):
        companion_candidates(parse_term("S"), e, 0)  # mu must exceed naturals
    with pytest.raises(NotBaseRooted):
        companion_candidates(parse_term("S"), parse_gelem("({0} -> 1)"), 2)
    with pytest.raises(CompanionError):
        # base-rooted but not a member of den(S)
        companion_candidates(parse_term("S"), b0(), 1)
    with pytest.raises(CompanionError):
        companion_candidates(parse_term("Sx"), e, 1)


def test_no_case_error_is_distinct():
    assert issubclass(NoCaseApplies, CompanionError)
    assert issubclass(NotBaseRooted, CompanionError)


# ---------------------------------------------------------------------------
# reports and sweeps


def test_closure_report_fields():
    e = parse_gelem("({({0} -> ({} -> 0))} -> ({} -> ({0} -> 0)))")
    rec = closure_report(parse_term("S"), e)
    assert rec["sigma"] == "S"
    assert rec["case"] == "ii"
    assert rec["mu"] == 1
    assert rec["member"] is True
    assert rec["element"] is not None and rec["companion"] is not None


def test_small_sweep():
    seen = []
    records, summary = sweep_closure(
        max_leaves=2, max_rank=3, set_width=1, max_nat=1,
        budget=200_000, progress=seen.append,
    )
    assert summary["terms"] == 2  # S and SS
    assert summary["violated"] == 0
    assert summary["no_case"] == 0
    assert summary["elements"] == summary["closed"] == len(records)
    assert len(seen) == len(records)
    assert {r["case"] for r in records} == {"ii"}


def test_sweep_below_rank_3_enumerates_at_its_max_rank():
    records, summary = sweep_closure(max_leaves=1, max_rank=2, set_width=1,
                                     max_nat=1, budget=200_000)
    assert records == []
    assert summary["rank_reached"] == {"S": 2}
    assert summary["unchecked"] == {"S": "no base-rooted element up to rank 2"}


def test_sweep_counts_b0_based_elements_only():
    _, summary = sweep_closure(max_leaves=1, max_rank=3, set_width=1,
                               max_nat=1, budget=200_000)
    from engeler.templates import enumerate_template, template_of
    from engeler.model import Bounds

    elems, _ = enumerate_template(template_of(parse_term("S")), Bounds(3, 1, 1))
    based = [e for e in elems if b0_base(e) is not None]
    assert summary["elements"] == len(based)


def test_sweep_records_unsupported_terms(monkeypatch):
    # S(SS)SS is an S-term whose enumeration at rank 3, set width 1 meets
    # a retained equation the matcher cannot decide
    import engeler.terms

    monkeypatch.setattr(engeler.terms, "enumerate_s_terms",
                        lambda max_leaves: [parse_term("S(SS)SS"), parse_term("S")])
    records, summary = sweep_closure(max_leaves=5, max_rank=3, set_width=1,
                                     max_nat=0, budget=400_000)
    assert summary["terms"] == 2
    assert list(summary["unsupported"]) == ["S(SS)SS"]
    assert summary["rank_reached"] == {"S(SS)SS": 0, "S": 3}
    assert records and summary["elements"] == len(records)
    assert {r["sigma"] for r in records} == {"S"}


def test_sweep_reports_every_unchecked_term(monkeypatch):
    # S(SS)(SS) at (3,1,1) exhausts its budget at rank 3 (faked here, to
    # be quick); the ranks of a retained equation of S(SS) rule out every
    # element below rank 4; S(SS)SS is unsupported.  Each checks nothing,
    # and each is named with its reason.
    import engeler.terms

    names = ["S(SS)(SS)", "S(SS)", "S(SS)SS", "S"]
    monkeypatch.setattr(engeler.terms, "enumerate_s_terms",
                        lambda max_leaves: [parse_term(n) for n in names])
    exhaust_budget_on(monkeypatch, "S(SS)(SS)")
    records, summary = sweep_closure(max_leaves=5, max_rank=3, set_width=1,
                                     max_nat=0, budget=400_000)
    settled = summary["unchecked"]["S(SS)"]
    assert settled.startswith("no element below rank 4 (where {r[i] : i in 1..n} = ")
    assert summary["unchecked"] == {
        "S(SS)(SS)": "budget exhausted at rank 3",
        "S(SS)": settled,
        "S(SS)SS": "unsupported: " + summary["unsupported"]["S(SS)SS"],
    }
    assert summary["rank_reached"] == {"S(SS)(SS)": 0, "S(SS)": 3, "S(SS)SS": 0, "S": 3}
    assert {r["sigma"] for r in records} == {"S"}
