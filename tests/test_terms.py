"""Syntax layer: parsing, printing, enumeration, serialization."""

import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from engeler.terms import (
    App,
    Atom,
    ParseError,
    Var,
    app,
    atom,
    atoms_used,
    enumerate_s_terms,
    enumerate_terms,
    expand_stdlib,
    is_closed,
    parse_term,
    print_term,
    stdlib_lookup,
    term_json,
    term_stats,
    var,
)

# ---------------------------------------------------------------------------
# parsing and printing


@pytest.mark.parametrize(
    "text,minimal",
    [
        ("SKKx", "SKKx0"),
        ("S(KK)", "S(KK)"),
        ("S K K x0", "SKKx0"),
        ("S·K·K", "SKK"),
        ("K(S(KS))", "K(S(KS))"),
        ("x y z w", "x0x1x2x3"),
        ("x12", "x12"),
        ("((S))", "S"),
        ("BIJLM", "BIJLM"),
    ],
)
def test_parse_print_minimal(text, minimal):
    t = parse_term(text)
    assert print_term(t) == minimal
    # minimal output re-parses to the same term
    assert parse_term(print_term(t)) == t


def test_print_full_style():
    assert print_term(parse_term("SK(Kx)(SS)"), style="full") == "(((S·K)·(K·x0))·(S·S))"
    assert print_term(parse_term("S"), style="full") == "S"


def test_application_associates_left():
    assert parse_term("SKK") == app(app(atom("S"), atom("K")), atom("K"))
    assert parse_term("S(KK)") == app(atom("S"), app(atom("K"), atom("K")))


@pytest.mark.parametrize(
    "bad",
    ["", "(", ")K", "S(", "S)", "·K", "K·", "f", "x-1", "K((S)", "()"],
)
def test_parse_errors(bad):
    with pytest.raises(ParseError) as exc:
        parse_term(bad)
    assert isinstance(exc.value.offset, int)
    assert "(byte" in str(exc.value)


def test_parse_reads_any_depth():
    assert parse_term("(" * 3000 + "S" + ")" * 3000) == atom("S")
    t = var(0)
    for _ in range(2000):
        t = app(var(1), t)
    assert parse_term(print_term(t)) == t
    assert parse_term(print_term(t, "full")) == t


def test_parse_error_offsets_are_bytes():
    # '·' is two bytes in UTF-8; the bad character sits at byte 3
    with pytest.raises(ParseError) as exc:
        parse_term("K·µ")
    assert exc.value.offset == 3


def test_equal_terms_share_hash():
    a, b = parse_term("SK(Kx)"), parse_term("S K (K x0)")
    assert a == b
    assert hash(a) == hash(b)
    assert a != parse_term("SK(Ky)")


# ---------------------------------------------------------------------------
# structure helpers


def test_term_stats():
    assert term_stats(parse_term("SK(Kx)")) == {
        "size": 4,
        "s_count": 1,
        "k_count": 2,
        "var_count": 1,
    }
    assert term_stats(atom("S"))["size"] == 1


def test_is_closed_and_atoms_used():
    assert is_closed(parse_term("SKK"))
    assert not is_closed(parse_term("SKx"))
    assert atoms_used(parse_term("SKB")) == {"S", "K", "B"}
    assert atoms_used(parse_term("x")) == set()


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_s_terms_counts():
    # shapes with n leaves = Catalan(n-1); cumulative 1+1+2+5+14+42 = 65
    assert len(list(enumerate_s_terms(6))) == 65
    assert len(list(enumerate_s_terms(5))) == 23
    assert len(list(enumerate_s_terms(1))) == 1


def test_enumerate_terms_two_letter_alphabet():
    ts = list(enumerate_terms(4, alphabet=("K", "S")))
    assert len(ts) == 102
    assert len(set(ts)) == 102
    for t in ts:
        assert is_closed(t)
        assert atoms_used(t) <= {"K", "S"}
        assert term_stats(t)["size"] <= 4


def test_enumerate_terms_agrees_with_catalan():
    catalan = [1, 1, 2, 5, 14]
    for n in range(1, 6):
        exact = [t for t in enumerate_terms(n) if term_stats(t)["size"] == n]
        assert len(exact) == catalan[n - 1]


# ---------------------------------------------------------------------------
# standard combinator definitions


def test_stdlib_sigma0():
    raw = stdlib_lookup("Sigma0")
    assert print_term(raw) == "S(S(S(SK)(S(KK)(S(KK)I)))(KI))K"
    expanded = expand_stdlib(raw)
    assert print_term(expanded) == "S(S(S(SK)(S(KK)(S(KK)(SKK))))(K(SKK)))K"
    assert atoms_used(expanded) == {"S", "K"}


def test_stdlib_names_resolve():
    for name in ("B", "I", "L", "M", "Kstarstar", "Sigma0"):
        t = expand_stdlib(stdlib_lookup(name))
        assert is_closed(t)
        assert atoms_used(t) <= {"S", "K"}


def test_stdlib_unknown_name():
    with pytest.raises((KeyError, ValueError)):
        stdlib_lookup("Q")


def test_expand_stdlib_fixed_point_on_sk_terms():
    t = parse_term("S(SK)(KS)")
    assert expand_stdlib(t) is t


def test_expand_stdlib_at_the_default_recursion_limit():
    assert sys.getrecursionlimit() < 3000
    t, want = var(0), var(0)
    for _ in range(3000):
        t, want = app(atom("I"), app(t, atom("S"))), app(parse_term("SKK"), app(want, atom("S")))
    assert expand_stdlib(t) == want
    assert expand_stdlib(want) is want


# ---------------------------------------------------------------------------
# serialization


def _term_to_obj(t):
    """The JSON object of a term, built by recursion: the reference for
    `term_json`."""
    if isinstance(t, Atom):
        return {"atom": t.name}
    if isinstance(t, Var):
        return {"var": t.index}
    return {"app": [_term_to_obj(t.left), _term_to_obj(t.right)]}


def _term_from_obj(obj):
    """The term a JSON object written by `term_json` stands for."""
    (kind, value), = obj.items()
    if kind == "atom":
        return atom(value)
    if kind == "var":
        return var(value)
    left, right = value
    return app(_term_from_obj(left), _term_from_obj(right))


def test_json_round_trip_golden():
    t = parse_term("SK(Kx)")
    j = json.loads(term_json(t))
    assert j == {
        "app": [
            {"app": [{"atom": "S"}, {"atom": "K"}]},
            {"app": [{"atom": "K"}, {"var": 0}]},
        ]
    }
    assert _term_from_obj(j) == t


# ---------------------------------------------------------------------------
# property tests

_atoms = st.sampled_from("KSBIJLM").map(atom)
_vars = st.integers(min_value=0, max_value=30).map(var)
_terms = st.recursive(_atoms | _vars, lambda c: st.builds(app, c, c), max_leaves=50)


@settings(max_examples=300, deadline=None)
@given(_terms)
def test_round_trip_minimal(t):
    assert parse_term(print_term(t, "minimal")) == t


@settings(max_examples=300, deadline=None)
@given(_terms)
def test_round_trip_full(t):
    assert parse_term(print_term(t, "full")) == t


@settings(max_examples=200, deadline=None)
@given(_terms)
def test_json_round_trip(t):
    assert _term_from_obj(json.loads(term_json(t))) == t


@settings(max_examples=200, deadline=None)
@given(_terms)
def test_json_text_matches_json_dumps(t):
    assert term_json(t) == json.dumps(_term_to_obj(t))


@settings(max_examples=200, deadline=None)
@given(_terms)
def test_stats_count_leaves(t):
    s = term_stats(t)
    assert s["size"] == s["s_count"] + s["k_count"] + s["var_count"] + sum(
        1 for a in _leaves(t) if isinstance(a, Atom) and a.name not in ("S", "K")
    )


def _leaves(t):
    if isinstance(t, App):
        yield from _leaves(t.left)
        yield from _leaves(t.right)
    else:
        yield t


def test_var_and_atom_constructors():
    assert var(3) == parse_term("x3")
    assert isinstance(var(3), Var)
    assert atom("K") is parse_term("K") or atom("K") == parse_term("K")
    with pytest.raises(ValueError):
        atom("Z")
    with pytest.raises(ValueError):
        var(-1)
