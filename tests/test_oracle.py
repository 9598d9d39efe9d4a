"""Bottom-up membership oracle, and its agreement with the other deciders.

The oracle exists to be an independent check on the symbolic template
machinery, so the agreement tests here are the point, not an extra.
"""

import pytest

from engeler.model import enumerate_g, member_k, member_s, nat, parse_gelem, universe
from engeler.oracle import Oracle, OracleBounds, member_oracle, subelements
from engeler.templates import template_of, member_via_template
from engeler.terms import enumerate_terms, parse_term, print_term


def test_skk_goldens():
    skk = parse_term("SKK")
    assert member_oracle(skk, parse_gelem("({0} -> 0)"))
    assert member_oracle(skk, parse_gelem("({({0} -> 0)} -> ({0} -> 0))"))
    assert not member_oracle(skk, parse_gelem("({0} -> 1)"))
    assert not member_oracle(skk, parse_gelem("({0,1} -> 0)"))
    assert not member_oracle(skk, nat(0))


def test_sk_equals_ki_goldens():
    sk, ki = parse_term("SK"), parse_term("K(SKK)")
    for text, want in [
        ("({} -> ({0} -> 0))", True),
        ("({} -> ({({0} -> 0)} -> ({0} -> 0)))", True),
        ("({0} -> ({0} -> 0))", False),
        ("({} -> ({} -> 0))", False),
    ]:
        e = parse_gelem(text)
        assert member_oracle(sk, e) is want
        assert member_oracle(ki, e) is want


def test_atom_oracle_agrees_with_characterizations():
    k, s = parse_term("K"), parse_term("S")
    for e in enumerate_g(2, 2, 1):
        assert member_oracle(k, e) == member_k(e)
        assert member_oracle(s, e) == member_s(e)


def test_oracle_agrees_with_templates_small_grid():
    grid = list(enumerate_g(2, 1, 1))
    assert len(grid) == 74
    for term in enumerate_terms(3, alphabet=("K", "S")):
        t = template_of(term)
        for e in grid:
            assert member_via_template(t, e) == member_oracle(term, e), (
                print_term(term),
                e,
            )


def test_custom_bounds_still_decide_goldens():
    tight = OracleBounds(max_rank=2, max_set_size=1, max_nat=1, ante_cap=2)
    assert member_oracle(parse_term("SKK"), parse_gelem("({0} -> 0)"), tight)
    assert not member_oracle(parse_term("SK"), parse_gelem("({0} -> ({0} -> 0))"), tight)


def test_subelements():
    got = set(subelements(parse_gelem("({({1} -> 0)} -> 2)")))
    assert parse_gelem("({({1} -> 0)} -> 2)") in got
    assert parse_gelem("({1} -> 0)") in got
    assert {nat(0), nat(1), nat(2)} <= got


def test_oracle_rejects_non_sk_material():
    with pytest.raises(ValueError):
        member_oracle(parse_term("x"), nat(0))
    with pytest.raises(ValueError):
        member_oracle(parse_term("B"), nat(0))
    # an open subterm that the element shape never forces is unreachable,
    # so this one legitimately answers rather than raising
    assert member_oracle(parse_term("Sx"), nat(0)) is False


def test_oracles_share_one_universe_per_bounds():
    # member_oracle builds an Oracle per call; the bounded universe is
    # enumerated once per bounds, not once per call
    assert Oracle().universe is Oracle().universe is universe(2, 2, 1)
    assert universe(2, 2, 1) == tuple(enumerate_g(2, 2, 1))
    assert Oracle(OracleBounds(max_rank=1)).universe == tuple(enumerate_g(1, 2, 1))
