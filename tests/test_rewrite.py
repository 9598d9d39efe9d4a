"""Reduction engine: contractions, traces, bounded reachability."""

import random
import sys
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from engeler import rewrite, terms
from engeler.rewrite import (
    BACKEND,
    CYCLE_DETECTED,
    FUEL_EXHAUSTED,
    NORMAL_FORM,
    _reduces_to_py,
    contract,
    find_redexes,
    identity_behavior,
    normal_form,
    one_step_reducts,
    reduce,
    reduces_to,
)
from engeler.terms import (
    App,
    app,
    atom,
    enumerate_s_terms,
    expand_stdlib,
    parse_term,
    print_term,
    stdlib_lookup,
    var,
)

from conftest import random_term


# one golden per rewrite rule
@pytest.mark.parametrize(
    "redex,contractum",
    [
        ("Kxy", "x"),
        ("Sxyz", "xz(yz)"),
        ("Bxyz", "x(yz)"),
        ("Ix", "x"),
        ("Jxyzw", "xy(xwz)"),
        ("Lxy", "x(yy)"),
        ("Mx", "xx"),
    ],
)
def test_contraction_rules(redex, contractum):
    final, done = normal_form(parse_term(redex))
    assert done
    assert final == parse_term(contractum)
    # under-applied heads are inert
    head = redex[0] + redex[1:-1]
    if len(head) > 1:
        assert find_redexes(parse_term(head)) == []


def test_skkx_trace():
    tr = reduce(parse_term("SKKx"))
    assert tr.outcome == NORMAL_FORM
    assert len(tr.steps) == 2
    assert tr.steps[0].redex == ()
    assert print_term(tr.final) == "x0"


def test_cycle_detection():
    tr = reduce(parse_term("MM"), fuel=100)
    assert tr.outcome == CYCLE_DETECTED
    final, done = normal_form(parse_term("MM"), fuel=100)
    assert not done


def test_fuel_exhaustion():
    # M(LM) grows forever: M(LM) > (LM)(LM) > M((LM)(LM)) > ...
    tr = reduce(parse_term("M(LM)"), fuel=10)
    assert tr.outcome == FUEL_EXHAUSTED
    assert len(tr.steps) == 10


def test_redex_discovery():
    assert find_redexes(parse_term("SKKx")) == [()]
    assert find_redexes(parse_term("S")) == []
    assert set(find_redexes(parse_term("K(Ix)y"))) == {(), ("left", "right")}


def test_one_step_reducts():
    assert {print_term(t) for t in one_step_reducts(parse_term("K(Ix)y"))} == {
        "Ix0",
        "Kx0x1",
    }
    assert one_step_reducts(parse_term("KS")) == []


_atoms = st.sampled_from("KSBIJLM").map(atom)
_vars = st.integers(min_value=0, max_value=3).map(var)
_terms = st.recursive(_atoms | _vars, lambda c: st.builds(app, c, c), max_leaves=8)


@settings(max_examples=300, deadline=None)
@given(_terms)
def test_one_step_reducts_are_in_redex_order(t):
    # preorder: a path sorts before its extensions, and 'left' before 'right'
    paths = find_redexes(t)
    assert paths == sorted(paths)
    assert one_step_reducts(t) == [contract(t, p) for p in paths]


def test_contract_at_path():
    t = parse_term("SKKx")
    assert contract(t, ()) == parse_term("Kx(Kx)")
    with pytest.raises(ValueError, match=r"no redex at path \['right', 'right'\]"):
        contract(t, ("right", "right"))
    t = parse_term("K(Ix)y")
    assert contract(t, ["left", "right"]) == parse_term("Kxy")
    with pytest.raises(ValueError, match="no redex at path"):
        contract(t, ("left",))


def test_redex_walk_builds_no_terms(monkeypatch):
    # x(Ix)(Ix)... with 200 redexes along one spine: listing them builds no
    # App node, and a contraction builds one per node on its path (walks
    # that built each whole reduct built 20,100 for either)
    x = var(0)
    t = x
    for _ in range(200):
        t = app(t, app(atom("I"), x))
    last = app(t.left, x)  # built before counting
    built = []
    init = App.__init__

    def counting_init(self, left, right):
        built.append(None)
        init(self, left, right)

    monkeypatch.setattr(App, "__init__", counting_init)
    paths = find_redexes(t)
    assert len(paths) == 200 and len(built) == 0
    assert paths[0] == ("left",) * 199 + ("right",) and paths[-1] == ("right",)
    reduct = contract(t, paths[-1])
    assert len(built) == 1
    contract(t, paths[0])
    assert len(built) == 1 + 200
    monkeypatch.undo()
    assert reduct == last


def test_reduces_to():
    assert reduces_to(parse_term("SK(SKSK)"), parse_term("SKK"), fuel=50)
    assert reduces_to(parse_term("SKK"), parse_term("SKK"), fuel=0)
    assert not reduces_to(parse_term("Kxy"), parse_term("y"))
    # the witness path for this pair survives even a width-1 beam
    assert reduces_to(parse_term("SK(SKSK)"), parse_term("SKK"), fuel=50, width=1)


def test_identity_behavior():
    sigma0 = expand_stdlib(stdlib_lookup("Sigma0"))
    assert identity_behavior(sigma0, fuel=5000) == "yes"
    assert identity_behavior(parse_term("S"), fuel=100) == "no-within-bounds"
    assert identity_behavior(parse_term("SKK"), fuel=100) == "yes"
    with pytest.raises(ValueError):
        identity_behavior(parse_term("Sx"))


def _deep_term(depth=3000):
    """S applied `depth` times around Kxy, and its normal form."""
    redex, nf = parse_term("Kxy"), parse_term("x")
    s = parse_term("S")
    for _ in range(depth):
        redex, nf = app(s, redex), app(s, nf)
    return redex, nf


def test_deep_term_at_the_default_recursion_limit():
    assert sys.getrecursionlimit() < 3000
    t, nf = _deep_term()
    tr = reduce(t)
    assert tr.outcome == NORMAL_FORM and tr.final == nf
    assert tr.steps[0].redex == ("right",) * 3000
    assert one_step_reducts(t) == [nf]
    assert find_redexes(t) == [("right",) * 3000]
    assert reduces_to(t, nf, fuel=5, width=50)
    assert not reduces_to(nf, t, fuel=5, width=50)


def _reference_reduce(t, fuel):
    """Leftmost-outermost reduction one whole term at a time: each step
    contracts find_redexes(t)[0], and the cycle check keeps every whole
    term seen.  Returns (outcome, final, [(term, redex), ...])."""
    steps, seen = [], {t}
    while True:
        redexes = find_redexes(t)
        if not redexes:
            return NORMAL_FORM, t, steps
        if len(steps) >= fuel:
            return FUEL_EXHAUSTED, t, steps
        steps.append((t, redexes[0]))
        t = contract(t, redexes[0])
        if t in seen:
            return CYCLE_DETECTED, t, steps
        seen.add(t)


@settings(max_examples=500, deadline=None)
@given(_terms, st.sampled_from([0, 1, 3, 10, 50]))
@example(parse_term("MM"), 10)  # a cycle at the root
@example(parse_term("x(MM)"), 10)  # a cycle below a normal head
@example(parse_term("M(LM)"), 10)  # grows forever
@example(parse_term("K(MM)(Ix)"), 3)
@example(parse_term("x(Ix)(K(MM)y)"), 50)
def test_reduce_matches_reference(t, fuel):
    tr = reduce(t, fuel)
    outcome, final, steps = _reference_reduce(t, fuel)
    assert (tr.outcome, tr.final, len(tr.steps)) == (outcome, final, len(steps))
    assert [(s.term, s.redex) for s in tr.steps] == steps


def test_deep_context_at_the_default_recursion_limit():
    # x(x(...(Kxy)...)): the redex sits 3,000 levels below a variable spine
    assert sys.getrecursionlimit() < 3000
    t, nf = parse_term("Kxy"), parse_term("x")
    x = var(0)
    for _ in range(3000):
        t, nf = app(x, t), app(x, nf)
    tr = reduce(t)
    assert tr.outcome == NORMAL_FORM and len(tr.steps) == 1 and tr.final == nf
    assert tr.steps[0].redex == ("right",) * 3000
    assert tr.steps[0].term == t


def _numeral(n):
    """The Church numeral c_n = (S B)^n (K I) in K and S."""
    sb = parse_term("S(S(KS)K)")
    c = parse_term("K(SKK)")
    for _ in range(n):
        c = app(sb, c)
    return c


def test_church_exponent_normalizes_quickly():
    # c_10 c_2 f x = f^(2^10) x; the normal form is 1,024 levels deep
    f, x = var(0), var(1)
    start = time.perf_counter()
    final, done = normal_form(app(app(app(_numeral(10), _numeral(2)), f), x), fuel=200_000)
    assert time.perf_counter() - start < 5
    assert done
    want = x
    for _ in range(1024):
        want = app(f, want)
    assert final == want


def test_normal_form_keeps_no_steps():
    # c_8 c_2 f x takes about 5,400 steps; a trace of them held 2.4 MB
    # (tracemalloc), while the term being reduced needs well under one
    f, x = var(0), var(1)
    t = app(app(app(_numeral(8), _numeral(2)), f), x)
    tracemalloc.start()
    try:
        final, done = normal_form(t, fuel=200_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert done and (final, True) == (reduce(t, fuel=200_000).final, done)
    assert peak < 1_000_000


def _reference_reaches(x, y, fuel, width):
    """The bounded search without the per-call table: one_step_reducts on
    each frontier term, the frontier ordered and cut as in the kernels."""
    if x == y:
        return True
    frontier, visited = [x], {x}
    for _ in range(fuel):
        nxt = set()
        for t in frontier:
            for r in one_step_reducts(t):
                if r == y:
                    return True
                if r not in visited:
                    nxt.add(r)
        if not nxt:
            return False
        frontier = sorted(nxt, key=lambda r: (r.size, r._hash))[:width]
        visited.update(frontier)
    return False


def _copy(t):
    """An equal term that shares no App node with t."""
    return parse_term(print_term(t))


# x, with either a reduct of x (found along some redex choices) or another
# term as the target; fuel and width small enough to cut the frontier
@st.composite
def _searches(draw):
    x = draw(_terms)
    if draw(st.booleans()):
        a = draw(_terms)  # equal subterms as distinct objects and as one
        x = app(app(app(x, a), _copy(a)), app(a, a))
    y = draw(_terms)
    if draw(st.booleans()):
        y = x
        for _ in range(draw(st.integers(0, 4))):
            reducts = one_step_reducts(y)
            if reducts:
                y = reducts[draw(st.integers(0, len(reducts) - 1))]
    return x, y, draw(st.integers(0, 6)), draw(st.integers(1, 6))


@settings(max_examples=300, deadline=None)
@given(_searches())
@example((parse_term("Kxy"), parse_term("x"), 1, 1))  # the reduct is a leaf
@example((parse_term("K(Kxy)z"), parse_term("x"), 2, 1))
@example((parse_term("S(Kx)(Kx)y"), parse_term("xx"), 3, 2))
# equal subterms as distinct objects on both sides
@example((parse_term("S(Kx)(Kx)(Iy)(Iy)"), parse_term("x(Kx(Iy))(Iy)"), 2, 3))
def test_search_matches_reference(search):
    x, y, fuel, width = search
    assert _reduces_to_py(x, y, fuel, width) == _reference_reaches(x, y, fuel, width)


def test_search_matches_reference_over_many_calls():
    # the table of each call is dropped on return, so later calls see the
    # ids of freed nodes again
    rng = random.Random(77)
    found = 0
    for _ in range(400):
        x = random_term(rng, rng.randint(2, 7), "KSBIJLM")
        y = x
        for _ in range(rng.randint(0, 3)):
            reducts = one_step_reducts(y)
            if reducts:
                y = rng.choice(reducts)
        if rng.random() < 0.3:
            y = random_term(rng, rng.randint(1, 4), "KSBIJLM")
        fuel, width = rng.randint(1, 6), rng.randint(1, 8)
        want = _reference_reaches(x, y, fuel, width)
        assert _reduces_to_py(x, y, fuel, width) == want, (print_term(x), print_term(y))
        found += want
    assert 0 < found < 400


def test_deep_search_matches_reference():
    deep, nf = _deep_term()
    for a, b in [(deep, nf), (nf, deep), (deep, deep.right)]:
        assert _reduces_to_py(a, b, 5, 50) == _reference_reaches(a, b, 5, 50)


def _s_probes(max_leaves=6):
    x = var(0)
    return [(app(sigma, x), x) for sigma in enumerate_s_terms(max_leaves)]


# the two exploding probes of `python -m engeler.benchmark`
_EXPLODING = [("S(SS)S(SSS)(SS)x", 16), ("S(SS)(SS)(S(SS))x", 13)]


def test_search_walks_no_term_equality(monkeypatch):
    # every node the search builds is hash-consed for the call, so equal
    # reducts are one object and set lookups match on identity alone
    walks, term_eq = [], terms._term_eq
    monkeypatch.setattr(terms, "_term_eq", lambda a, b: walks.append(1) or term_eq(a, b))
    for x, y in _s_probes():
        _reduces_to_py(x, y, 20, 100)
    assert walks == []


def test_search_builds_equal_reducts_once(monkeypatch):
    # Ix(Iy) reaches xy along two redex choices, through x(Iy) and (Ix)y
    reducts = []
    table_reducts = rewrite._table_reducts

    def recording(t, table, app):
        out = table_reducts(t, table, app)
        reducts.extend(out)
        return out

    monkeypatch.setattr(rewrite, "_table_reducts", recording)
    assert not _reduces_to_py(parse_term("Ix(Iy)"), parse_term("z"), 5, 10)
    xy = parse_term("xy")
    both = [r for r in reducts if r == xy]
    assert len(both) == 2 and both[0] is both[1]


def test_search_matches_reference_on_reach_probes():
    for x, y in _s_probes():
        assert _reduces_to_py(x, y, 20, 100) == _reference_reaches(x, y, 20, 100)
    y = parse_term("x")
    for text, fuel in _EXPLODING:
        x = parse_term(text)
        assert _reduces_to_py(x, y, fuel, 20_000) == _reference_reaches(x, y, fuel, 20_000)


def test_backend_is_declared():
    assert BACKEND in ("compiled", "python")


@pytest.mark.skipif(BACKEND != "compiled", reason="compiled kernel not built")
def test_compiled_backend_matches_python():
    from engeler import _reduction

    from engeler.rewrite import _to_tuples

    rng = random.Random(4242)
    checked = 0
    for _ in range(150):
        a = random_term(rng, rng.randint(2, 6))
        b = random_term(rng, rng.randint(1, 4))
        fuel, width = rng.choice([(5, 50), (12, 200)])
        want = _reduces_to_py(a, b, fuel, width)
        got = _reduction.reaches(_to_tuples(a), _to_tuples(b), fuel, width)
        assert got == want, (print_term(a), print_term(b), fuel, width)
        checked += 1
    assert checked == 150
    deep, nf = _deep_term()
    for a, b in [(deep, nf), (nf, deep)]:
        want = _reduces_to_py(a, b, 5, 50)
        assert _reduction.reaches(_to_tuples(a), _to_tuples(b), 5, 50) == want
