"""Graph-model layer: elements, enumeration, application."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from engeler.model import (
    EMPTY_SET,
    ApplyExpr,
    Arrow,
    Bounds,
    Denotation,
    ElementSyntaxError,
    EvalResult,
    Extensional,
    GSet,
    Nat,
    arrow,
    count_g,
    enumerate_g,
    eval_setexpr,
    extensional_bullet,
    gelem_from_json,
    gelem_to_json,
    gelem_to_text,
    gset,
    member_k,
    member_s,
    nat,
    parse_gelem,
    universe,
)
from engeler.terms import _mix, parse_term

B0 = parse_gelem("({0} -> 0)")


# ---------------------------------------------------------------------------
# element structure


def test_rank():
    assert nat(7).rank == 0
    assert B0.rank == 1
    assert parse_gelem("({({0} -> 0)} -> 0)").rank == 2
    assert parse_gelem("({} -> ({} -> ({} -> 0)))").rank == 3


def test_max_nat():
    assert nat(4).max_nat == 4
    assert parse_gelem("({2} -> ({5} -> 1))").max_nat == 5
    assert parse_gelem("({} -> 0)").max_nat == 0


def test_nat_interning_and_validation():
    assert nat(0) is nat(0)
    with pytest.raises(ValueError):
        nat(-1)


@pytest.mark.parametrize("bad", [True, False, 2.5, 1.0, "1", None])
def test_nat_rejects_non_int(bad):
    # True, False and 1.0 equal keys already in the cache; 2.5, "1" and
    # None do not: both kinds are rejected, and the cache keeps ints
    interned = [nat(0), nat(1)]
    with pytest.raises(ValueError):
        nat(bad)
    assert [gelem_to_text(e) for e in interned] == ["0", "1"]
    assert [nat(0), nat(1)] == interned


def test_gset_canonicalization():
    a = gset([nat(1), nat(0), nat(1)])
    b = gset([nat(0), nat(1)])
    assert a == b
    assert len(a) == 2
    assert list(a) == [nat(0), nat(1)]
    assert hash(a) == hash(b)


def test_gset_operations():
    s01 = gset([nat(0), nat(1)])
    s0 = gset([nat(0)])
    assert s0.issubset(s01)
    assert not s01.issubset(s0)
    assert s0.union(gset([nat(1)])) == s01
    assert nat(0) in s0
    assert B0 not in s0


def test_bounds_frozen():
    b = Bounds()
    assert (b.max_rank, b.max_set_size, b.max_nat, b.max_arity) == (3, 2, 1, 3)
    with pytest.raises(Exception):
        b.max_rank = 5


# ---------------------------------------------------------------------------
# text and JSON forms


@pytest.mark.parametrize(
    "text",
    [
        "0",
        "17",
        "({0} -> 0)",
        "({} -> ({} -> 1))",
        "({0,1} -> ({({0} -> 0)} -> 0))",
        "({({} -> 0),({0} -> 0)} -> 1)",
    ],
)
def test_element_text_round_trip(text):
    e = parse_gelem(text)
    assert gelem_to_text(e) == text
    assert parse_gelem(gelem_to_text(e)) == e


def test_parse_normalizes_member_order():
    assert gelem_to_text(parse_gelem("({1,0} -> 0)")) == "({0,1} -> 0)"
    assert parse_gelem("( { 1 , 0 }  ->  0 )") == parse_gelem("({0,1} -> 0)")


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "(0 -> 0)",          # antecedent must be a set literal
        "({0} 0)",
        "({0} -> )",
        "({0,} -> 0)",
        "{0}",               # a set is not an element
        "({0} -> 0",
        "hello",
        "-1",
    ],
)
def test_element_syntax_errors(bad):
    with pytest.raises(ElementSyntaxError):
        parse_gelem(bad)


def test_element_json_round_trip():
    e = parse_gelem("({({} -> 0),1} -> ({0} -> 1))")
    j = gelem_to_json(e)
    json.dumps(j)  # must be plain data
    assert gelem_from_json(j) == e
    assert gelem_from_json(gelem_to_json(nat(2))) == nat(2)


@pytest.mark.parametrize(
    "bad",
    [
        0,
        [0],
        {},
        {"nat": True},
        {"nat": "3"},
        {"nat": 1.5},
        {"nat": -1},
        {"nat": 0, "arrow": 0},
        {"arrow": 3},
        {"arrow": {"set": 5, "elem": {"nat": 0}}},
        {"arrow": {"set": [{"nat": 0}]}},
        {"arrow": {"set": [0], "elem": {"nat": 0}}},
        {"arrow": {"set": [], "elem": {"nat": 0}, "extra": 1}},
    ],
)
def test_element_json_errors(bad):
    with pytest.raises(ElementSyntaxError):
        gelem_from_json(bad)


def test_deeply_nested_element_is_syntax_error():
    depth = 3000
    with pytest.raises(ElementSyntaxError):
        parse_gelem("({} -> " * depth + "0" + ")" * depth)
    obj = {"nat": 0}
    for _ in range(depth):
        obj = {"arrow": {"set": [], "elem": obj}}
    with pytest.raises(ElementSyntaxError):
        gelem_from_json(obj)


# ---------------------------------------------------------------------------
# enumeration


@pytest.mark.parametrize(
    "bounds,count",
    [
        ((1, 1, 1), 8),
        ((1, 2, 1), 10),
        ((2, 1, 1), 74),
        ((2, 2, 1), 562),
        ((3, 1, 1), 5552),
    ],
)
def test_enumeration_counts(bounds, count):
    elems = list(enumerate_g(*bounds))
    assert len(elems) == count
    assert len(set(elems)) == count
    assert count_g(*bounds) == count


def test_count_without_enumerating():
    # closed-form counts for spaces too large to list
    assert count_g(3, 2, 1) == 88_910_650
    assert count_g(4, 1, 1) == 30_830_258
    assert count_g(2, 2, 2) == 7_227


@pytest.mark.parametrize("bounds", [(2, 2, 1), (3, 2, 1), (4, 1, 1), (0, 0, 5), (5, 0, 0)])
def test_count_with_a_limit(bounds):
    full = count_g(*bounds)
    for limit in (0, 1, full - 1, full, full + 1, 10**12):
        assert count_g(*bounds, limit=limit) == (full if full <= limit else limit + 1)


def test_count_with_a_limit_stops_early():
    # without the limit these counts have far too many digits to compute
    assert count_g(60, 3, 1, limit=10**6) == 10**6 + 1
    assert count_g(2, 10**6, 10**5, limit=1000) == 1001


def _widest_antecedent(e):
    """Size of the largest antecedent set anywhere inside e (0 if none),
    by a walk with its own stack: the reference for `.width`."""
    width, stack = 0, [e]
    while stack:
        x = stack.pop()
        if isinstance(x, Arrow):
            width = max(width, len(x.ante))
            stack.extend(x.ante)
            stack.append(x.cons)
    return width


def _reference_hash(root):
    """The hash of an element or set as a fold of `_mix` over its parts,
    computed bottom-up with its own stack."""
    done, stack = {}, [root]
    while stack:
        x = stack[-1]
        if id(x) in done:
            stack.pop()
            continue
        if isinstance(x, Nat):
            done[id(x)] = _mix(11, x.value + 1, 0)
            continue
        parts = x.elems if isinstance(x, GSet) else (x.ante, x.cons)
        todo = [p for p in parts if id(p) not in done]
        if todo:
            stack.extend(todo)
            continue
        if isinstance(x, GSet):
            h = _mix(13, len(parts), 0)
            for p in parts:
                h = _mix(14, h, done[id(p)])
        else:
            h = _mix(12, done[id(x.ante)], done[id(x.cons)])
        done[id(x)] = h
    return done[id(root)]


def _deep_element(depth):
    e = nat(0)
    for i in range(depth):
        e = arrow([e] if i % 2 else [e, nat(1)], nat(0))
    return e


def test_max_width_of_a_deep_element():
    e = _deep_element(5000)
    assert e.width == _widest_antecedent(e) == 2
    assert nat(3).width == 0


def test_width_matches_the_walk():
    for e in universe(2, 2, 1):
        assert e.width == _widest_antecedent(e)
        if isinstance(e, Arrow):
            assert e.ante.width == max((_widest_antecedent(m) for m in e.ante), default=0)
    assert EMPTY_SET.width == 0


def test_hash_is_the_fold_of_mix():
    deep = _deep_element(5000)
    for e in (*universe(2, 2, 1), deep):
        assert e._hash == _reference_hash(e)
        if isinstance(e, Arrow):
            assert e.ante._hash == _reference_hash(e.ante)


def test_empty_sets_are_one_object():
    assert gset(()) is EMPTY_SET
    assert gset([]) is EMPTY_SET
    assert gset(x for x in ()) is EMPTY_SET
    assert arrow([], nat(0)).ante is EMPTY_SET
    assert parse_gelem("({} -> 0)").ante is EMPTY_SET


_POOL = universe(2, 1, 1)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(_POOL), max_size=6), st.booleans())
def test_gset_matches_dedupe_and_sort(members, lazily):
    reference = sorted({e._key: e for e in members}.values(), key=lambda e: e._key)
    got = gset(iter(members) if lazily else members + members[:2])
    assert len(got.elems) == len(reference)
    assert all(a is b for a, b in zip(got.elems, reference))
    assert got == GSet(tuple(reference))
    assert got._hash == _reference_hash(got)
    assert (got.rank, got.max_nat, got.width) == (
        max((e.rank for e in reference), default=0),
        max((e.max_nat for e in reference), default=0),
        max((_widest_antecedent(e) for e in reference), default=0),
    )


def test_ordering_against_a_non_element_raises_type_error():
    with pytest.raises(TypeError):
        nat(0) < 1
    with pytest.raises(TypeError):
        B0 < "0"
    assert nat(0) < B0


def test_enumeration_respects_bounds():
    for e in enumerate_g(2, 2, 1):
        assert e.rank <= 2
        assert e.max_nat <= 1
        assert _widest_antecedent(e) <= 2


# ---------------------------------------------------------------------------
# atom membership characterizations


def test_member_k():
    assert member_k(parse_gelem("({0} -> ({} -> 0))"))
    assert member_k(parse_gelem("({({0} -> 0)} -> ({} -> ({0} -> 0)))"))
    assert not member_k(parse_gelem("({0} -> ({} -> 1))"))
    assert not member_k(parse_gelem("({0,1} -> ({} -> 0))"))
    assert not member_k(parse_gelem("({0} -> ({0} -> 0))"))
    assert not member_k(nat(0))


def test_member_s():
    assert member_s(parse_gelem("({({} -> ({} -> 0))} -> ({} -> ({} -> 0)))"))
    assert member_s(parse_gelem("({({0} -> ({0} -> 0))} -> ({({0} -> 0)} -> ({0} -> 0)))"))
    assert not member_s(B0)
    assert not member_s(parse_gelem("({({} -> ({} -> 0))} -> ({} -> ({} -> 1)))"))
    assert not member_s(nat(1))


# ---------------------------------------------------------------------------
# application


def test_extensional_bullet():
    m = gset([arrow(gset([]), nat(0)), arrow(gset([nat(1)]), nat(2)), nat(5)])
    assert extensional_bullet(m, gset([])) == gset([nat(0)])
    assert extensional_bullet(m, gset([nat(1)])) == gset([nat(0), nat(2)])
    assert extensional_bullet(gset([]), gset([nat(0)])) == gset([])


def test_bullet_monotone_example():
    small = gset([arrow(gset([nat(0)]), nat(1))])
    big = small.union(gset([arrow(gset([]), nat(3))]))
    r_small = extensional_bullet(small, gset([nat(0)]))
    r_big = extensional_bullet(big, gset([nat(0), nat(1)]))
    assert r_small.issubset(r_big)


def test_eval_extensional_passthrough():
    m = gset([nat(0)])
    r = eval_setexpr(Extensional(m))
    assert isinstance(r, EvalResult)
    assert r.elements == m
    assert not r.truncated


def test_eval_denotation_is_flagged_truncated():
    r = eval_setexpr(Denotation(parse_term("SKK")), Bounds(2, 1, 1))
    assert r.truncated  # a bare denotation is infinite
    assert parse_gelem("({0} -> 0)") in r.elements


def test_eval_apply_chain_k_law_instance():
    m = gset([B0, nat(1)])
    n = gset([nat(0)])
    expr = ApplyExpr(ApplyExpr(Denotation(parse_term("K")), Extensional(m)), Extensional(n))
    r = eval_setexpr(expr, Bounds(6, 4, 3, 4))
    assert r.elements == m
    assert not r.truncated


def test_bullet_truncation_flag():
    m = gset([arrow(gset([]), B0)])
    r = eval_setexpr(ApplyExpr(Extensional(m), Extensional(gset([]))), Bounds(max_rank=0))
    assert r.truncated
    assert len(r.elements) == 0


def test_eval_rejects_garbage():
    with pytest.raises(TypeError):
        eval_setexpr(object())


# ---------------------------------------------------------------------------
# properties

def _random_gelem(rng, max_rank, max_set_size, max_nat):
    """Random element within the bounds (not uniformly distributed)."""
    if max_rank == 0 or rng.random() < 0.35:
        return nat(rng.randint(0, max_nat))
    members = [_random_gelem(rng, max_rank - 1, max_set_size, max_nat)
               for _ in range(rng.randint(0, max_set_size))]
    return arrow(gset(members), _random_gelem(rng, max_rank - 1, max_set_size, max_nat))


_elements = st.integers(0, 10**9).map(
    lambda seed: _random_gelem(random.Random(seed), 3, 2, 1)
)


@settings(max_examples=300, deadline=None)
@given(_elements)
def test_text_round_trip_property(e):
    assert parse_gelem(gelem_to_text(e)) == e


@settings(max_examples=300, deadline=None)
@given(_elements)
def test_json_round_trip_property(e):
    assert gelem_from_json(gelem_to_json(e)) == e


@settings(max_examples=200, deadline=None)
@given(st.lists(_elements, max_size=6))
def test_gset_order_invariance(elems):
    rng = random.Random(0)
    shuffled = list(elems)
    rng.shuffle(shuffled)
    assert gset(elems) == gset(shuffled)
