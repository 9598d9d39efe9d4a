"""Symbolic denotation templates: bases, composition, matching, enumeration.

Golden texts go through canon_template_text because fresh-variable
suffixes are allocation-order dependent; the canonical form is stable.
"""

import gc
import hashlib
import itertools
import json
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from engeler import templates
from engeler.companion import b0_base, closure_report
from engeler.oracle import member_oracle
from engeler.rewrite import one_step_reducts
from engeler.model import (
    Arrow, Bounds, GElem, GSet, count_g, enumerate_g, gset, nat, parse_gelem,
    universe,
)
from engeler.templates import (
    AVar,
    ArrowPat,
    BudgetExceeded,
    Constraint,
    ELEM_PATS,
    EMPTY_TEMPLATE,
    EVar,
    ExplicitPat,
    FamilyPat,
    SVar,
    Template,
    TemplateError,
    Matcher,
    UnionPat,
    UnsupportedMatch,
    UnsupportedUnification,
    _ConstraintCheck,
    _Enumerator,
    _check_plan,
    _compose_shapes,
    _concretize,
    _operand_copy,
    _quantify,
    _reads,
    _shape,
    _shape_key,
    apply_template_chain,
    base_template,
    compose,
    enumerate_template,
    has_singleton_setvar,
    instantiate,
    matches,
    member_via_template,
    normalize,
    pretty,
    reindex,
    rename_vars,
    settled_by_ranks,
    template_of,
    template_to_json,
    template_to_text,
)
from engeler.terms import (
    App,
    enumerate_s_terms,
    enumerate_terms,
    expand_stdlib,
    parse_term,
    print_term,
    stdlib_lookup,
)

from conftest import canon_template_text as canon


# ---------------------------------------------------------------------------
# base templates


def test_base_k_text():
    t = base_template("K")
    assert template_to_text(t) == "({t} -> ({} -> t))"
    assert has_singleton_setvar(t)
    assert t.constraints == ()


def test_base_s_text():
    t = base_template("S")
    assert template_to_text(t) == (
        "({(tau -> ({r[i] : i in 1..n} -> s))} -> "
        "({(f[i] -> r[i]) : i in 1..n} -> (tau + U(i in 1..n) f[i] -> s)))"
    )
    assert not has_singleton_setvar(t)


def test_base_template_unknown():
    with pytest.raises(KeyError):
        base_template("B")


def test_template_of_is_cached():
    assert template_of(parse_term("SK")) is template_of(parse_term("SK"))
    # SKK and SKS are composed apart into templates equal up to renaming,
    # so K applied to either is one entry of the composition memo
    assert template_of(parse_term("K(SKK)")) is template_of(parse_term("K(SKS)"))


def test_template_of_input_validation():
    with pytest.raises(TemplateError):
        template_of(parse_term("x"))
    with pytest.raises(TemplateError):
        template_of(parse_term("SKx"))


def test_template_of_deep_term_is_a_template_error():
    # a right comb nested deeper than the recursion limit allows, also
    # where the interpreter counts only Python frames (3.12 and later)
    term = parse_term("S")
    for _ in range(200):
        term = App(parse_term("S"), term)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(150)
    try:
        with pytest.raises(TemplateError, match="^term nested too deeply$"):
            template_of(term)
    finally:
        sys.setrecursionlimit(limit)


# ---------------------------------------------------------------------------
# composition memoised up to renaming


def _clear_template_caches():
    """Empty every `lru_cache` of engeler.templates, as the benchmark does
    at the start of each round."""
    for fn in vars(templates).values():
        if getattr(fn, "__module__", None) == templates.__name__ and hasattr(fn, "cache_clear"):
            fn.cache_clear()


def _composed_cold(term):
    """term's template, composed by `compose` alone, through no cache."""
    if isinstance(term, App):
        return compose(_composed_cold(term.left), _composed_cold(term.right))
    return base_template(term.name)


def _shape_or_raise(compute):
    try:
        return _shape_key(compute())
    except TemplateError as exc:
        return type(exc)


# sha256 of the lines "term<TAB>shape or exception name" over the corpus
# below, as composed with every retained constraint substituted again;
# keeping the constraints that a composition does not touch as they are
# must change none of them.  An operand copy's constraints gain the
# enclosing binders in the order its root does, outermost first.
COMPOSED_SHAPES_SHA256 = "0f1d3366700470c7524253cc4057df6530edae23cf797cd9852b8faeb0d557dc"


def test_memoised_composition_gives_the_shapes_of_cold_composition():
    corpus = list(enumerate_terms(5, alphabet=("K", "S"))) + list(enumerate_s_terms(8))
    warm = [_shape_or_raise(lambda: template_of(term)) for term in corpus]
    assert warm.count(UnsupportedUnification) == 3 and TemplateError in warm
    lines = "".join(f"{print_term(term)}\t{got if isinstance(got, tuple) else got.__name__}\n"
                    for term, got in zip(corpus, warm))
    assert hashlib.sha256(lines.encode()).hexdigest() == COMPOSED_SHAPES_SHA256
    for term, got in zip(corpus, warm):
        _clear_template_caches()
        assert got == _shape_or_raise(lambda: _composed_cold(term)), print_term(term)


def test_shape_key_is_equal_exactly_up_to_renaming():
    t = template_of(parse_term("S(KS)S"))
    assert t.constraints and any(c.binders for c in t.constraints)
    renamed = Template(rename_vars(t.root, ".x"), tuple(
        Constraint(tuple((bn + ".x", rename_vars(ar, ".x") if isinstance(ar, AVar) else ar)
                         for bn, ar in c.binders),
                   rename_vars(c.left, ".x"), rename_vars(c.right, ".x"))
        for c in t.constraints))
    assert _shape_key(renamed) == _shape_key(t)

    def key(arity, body):
        # x is numbered 0 and the binder i 1
        return _shape_key(Template(ArrowPat(SVar("x"), ArrowPat(FamilyPat(arity, "i", body),
                                                                EVar("s")))))

    base = key(AVar("n"), EVar("r", ("i",)))
    assert key(AVar("m"), EVar("q", ("i",))) == base
    for arity, body in [(AVar("n", minimum=1), EVar("r", ("i",))),  # another minimum
                        (AVar("n"), EVar("r", (1,))),  # a position, not the binder
                        (AVar("n"), EVar("s", ("i",))),  # the consequent's variable
                        (AVar("n"), SVar("r", ("i",))),  # another kind
                        (2, EVar("r", ("i",)))]:
        assert key(arity, body) != base


def test_composition_resolves_the_binder_arity_of_an_operand_copys_constraint():
    # the copied constraint reads no variable that the binding binds, only
    # a binder arity: one it binds to 0, then one it gives a minimum of 1
    q = FamilyPat(AVar("n"), "j", EVar("q", ("j",)))
    t1 = Template(ArrowPat(FamilyPat(AVar("n"), "i", ArrowPat(q, EVar("s", ("i",)))),
                           EVar("z")))
    t2 = Template(ArrowPat(ExplicitPat(()), EVar("w")),
                  (Constraint((), SVar("a"), UnionPat((SVar("b"), SVar("c")))),))
    (c,) = compose(t1, t2).constraints
    assert [ar for _, ar in c.binders] == [0]
    t1 = Template(ArrowPat(ExplicitPat((ArrowPat(ExplicitPat((EVar("x"),)), EVar("s")),)),
                           EVar("s")))
    t2 = Template(ArrowPat(FamilyPat(AVar("m"), "j", EVar("q", ("j",))), EVar("w")),
                  (Constraint((("k", AVar("m")),), SVar("a", ("k",)), SVar("b")),))
    (c,) = compose(t1, t2).constraints
    assert [ar.minimum for _, ar in c.binders] == [1]


def test_operand_copy_indexes_root_and_constraints_alike():
    # under two binders, the copied constraint must read the instances of
    # a that the copy's root holds: a[i,j], not a[j,i]
    t2 = Template(ArrowPat(SVar("a"), EVar("w")),
                  (Constraint((), SVar("a"), UnionPat((SVar("b"), SVar("c")))),))
    prefix = (("i", AVar("n")), ("j", AVar("m")))
    extra = []
    root = _operand_copy((t2, [_reads(c).keys() for c in t2.constraints]), prefix, extra)
    ((c, _),) = extra
    assert c.binders == prefix
    assert root.ante.index == c.left.index == ("i", "j")
    assert root.ante.name == c.left.name


def test_clearing_the_template_caches_empties_the_composition_memo():
    template_of(parse_term("S(SS)"))
    assert _compose_shapes.cache_info().currsize and _shape.cache_info().currsize
    _clear_template_caches()
    assert _compose_shapes.cache_info().currsize == _shape.cache_info().currsize == 0
    assert template_of.cache_info().currsize == 0


def test_s_only_composition_counts():
    # an operator whose root is a bare element variable cannot be applied
    # yet: 1 of the 132 S-only terms of 7 leaves and 11 of the 429 of 8
    total, raised = Counter(), Counter()
    for term in enumerate_s_terms(8):
        leaves = print_term(term).count("S")
        total[leaves] += 1
        try:
            t = template_of(term)
        except TemplateError as exc:
            assert str(exc).startswith("operator template root is not an arrow: ")
            raised[leaves] += 1
        else:
            assert not has_singleton_setvar(t), print_term(term)
    assert (total[7], total[8]) == (132, 429)
    assert raised == {7: 1, 8: 11}


# ---------------------------------------------------------------------------
# composition goldens


@pytest.mark.parametrize(
    "term,text",
    [
        ("SKK", "({t0} -> t0)"),
        ("SK", "({} -> ({t0} -> t0))"),
        ("K(SKK)", "({} -> ({t0} -> t0))"),  # KI collapses to the SK shape
        ("S(SK)K", "({t0} -> ({} -> t0))"),
        ("KK", "({} -> ({t0} -> ({} -> t0)))"),
        (
            "SS",
            "({(f[i] -> (f0[i] -> r0[i])) : i in 1..n0} -> "
            "({(tau0 -> ({r0[i0] : i0 in 1..n0} -> s0))} + U(i in 1..n0) f[i] -> "
            "(tau0 + U(i0 in 1..n0) f0[i0] -> s0)))",
        ),
    ],
)
def test_composition_goldens(term, text):
    assert canon(template_to_text(template_of(parse_term(term)))) == text


def test_kstarstar_shape():
    t = template_of(expand_stdlib(stdlib_lookup("Kstarstar")))
    assert canon(template_to_text(t)) == "({} -> ({} -> ({t0} -> t0)))"


def test_sigma0_collapses_to_identity_template():
    sigma0 = expand_stdlib(stdlib_lookup("Sigma0"))
    t = template_of(sigma0)
    assert t.constraints == ()
    assert canon(template_to_text(t)) == "({t0} -> t0)"
    assert member_via_template(t, parse_gelem("({0} -> 0)"))
    assert not member_via_template(t, parse_gelem("({0} -> 1)"))
    assert not member_via_template(t, parse_gelem("({} -> 0)"))


def test_s_ks_s_retains_quantified_constraint():
    t = template_of(parse_term("S(KS)S"))
    assert any(c.binders for c in t.constraints)
    assert "forall" in template_to_text(t)


# ---------------------------------------------------------------------------
# scope hygiene: no constraint may mention a binder it is not under


def _free_binder_leaks(t):
    def pat_components(p, bound, leaks):
        if isinstance(p, (EVar, SVar, AVar)):
            for comp in p.index:
                if comp not in bound:
                    leaks.append((p, comp))
        elif isinstance(p, ArrowPat):
            pat_components(p.ante, bound, leaks)
            pat_components(p.cons, bound, leaks)
        elif isinstance(p, ExplicitPat):
            for m in p.members:
                pat_components(m, bound, leaks)
        elif isinstance(p, FamilyPat):
            if isinstance(p.arity, AVar):
                pat_components(p.arity, bound, leaks)
            pat_components(p.body, bound | {p.binder}, leaks)
        elif isinstance(p, UnionPat):
            for q in p.parts:
                pat_components(q, bound, leaks)
        elif not isinstance(p, GElem):
            raise TypeError(p)

    leaks = []
    if not t.is_empty:
        pat_components(t.root, set(), leaks)
        for c in t.constraints:
            bound = set()
            for name, ar in c.binders:
                if isinstance(ar, AVar):
                    for comp in ar.index:
                        if comp not in bound:
                            leaks.append((ar, comp))
                bound.add(name)
            pat_components(c.left, bound, leaks)
            pat_components(c.right, bound, leaks)
    return leaks


def test_no_scope_leaks_sk_terms():
    for term in enumerate_terms(4, alphabet=("K", "S")):
        assert _free_binder_leaks(template_of(term)) == [], print_term(term)


def test_no_scope_leaks_s_only_terms():
    for term in enumerate_s_terms(6):
        assert _free_binder_leaks(template_of(term)) == [], print_term(term)


# ---------------------------------------------------------------------------
# membership


def test_membership_goldens():
    tpl = template_of(parse_term("SS"))
    minimal = parse_gelem("({} -> ({({} -> ({} -> 0))} -> ({} -> 0)))")
    decoupled = parse_gelem("({} -> ({({} -> ({} -> 0))} -> ({} -> 1)))")
    assert minimal.rank == 4
    assert member_via_template(tpl, minimal)
    assert not member_via_template(tpl, decoupled)


def test_matches_and_instantiate_round_trip():
    t = base_template("S")
    e = parse_gelem("({({} -> ({} -> 0))} -> ({} -> ({} -> 0)))")
    bindings = list(matches(t, e))
    assert len(bindings) == 1
    assert instantiate(t, bindings[0]) == e
    assert list(matches(t, parse_gelem("({0} -> 0)"))) == []


def test_match_binding_keys_are_kinded():
    t = base_template("S")
    e = parse_gelem("({({} -> ({} -> 0))} -> ({} -> ({} -> 0)))")
    (b,) = matches(t, e)
    kinds = {k[0] for k in b}
    assert kinds <= {"e", "s", "a"}
    assert ("e", "s", ()) in b  # the shared consequent variable


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_skk():
    elems, _ = enumerate_template(template_of(parse_term("SKK")), Bounds(1, 1, 1))
    assert elems == [parse_gelem("({0} -> 0)"), parse_gelem("({1} -> 1)")]


def test_enumerate_matches_independent_universe():
    elems, _ = enumerate_template(template_of(parse_term("SKK")), Bounds(2, 1, 1))
    assert set(elems) == {
        parse_gelem(f"({{{t}}} -> {t})")
        for t in ("0", "1", "({} -> 0)", "({} -> 1)", "({0} -> 0)",
                  "({0} -> 1)", "({1} -> 0)", "({1} -> 1)")
    }


def test_enumerate_k_narrow():
    elems, _ = enumerate_template(base_template("K"), Bounds(2, 1, 0))
    assert elems == [parse_gelem("({0} -> ({} -> 0))")]


def test_enumerate_ss_has_no_rank3_members():
    elems, _ = enumerate_template(template_of(parse_term("SS")), Bounds(3, 1, 1))
    assert elems == []
    # SS's consequent is an arrow whose antecedent lists an arrow of rank 2,
    # so every member has rank 4 or more and nothing below rank 4 is built
    enum = _Enumerator(Bounds(3, 2, 1), _no_check(), budget=100)
    assert list(enum.gen_elem(template_of(parse_term("SS")).root, 3, {})) == []
    assert enum.steps == 1


def test_enumerate_budget():
    with pytest.raises(BudgetExceeded) as info:
        enumerate_template(template_of(parse_term("S")), Bounds(3, 2, 1), budget=1000)
    exc = info.value
    assert (exc.steps, exc.budget, exc.bounds) == (1001, 1000, Bounds(3, 2, 1))


@pytest.mark.parametrize("text, bounds", [
    ("S", Bounds(5, 2, 1)),  # universe(3, 2, 1) alone has 88,910,650 elements
    ("SKK", Bounds(4, 2, 1)),
    ("K", Bounds(3, 2, 100_000)),  # 100,001 naturals at rank 0
])
def test_pool_larger_than_the_budget_is_budget_exceeded(text, bounds):
    with pytest.raises(BudgetExceeded, match="pool has more than 1000 elements"):
        enumerate_template(template_of(parse_term(text)), bounds, budget=1000)


def test_pool_size_is_checked_once_per_rank(monkeypatch):
    import engeler.templates as templates

    sized = []

    def counting(*args, **kwargs):
        sized.append(args[0])
        return count_g(*args, **kwargs)

    monkeypatch.setattr(templates, "count_g", counting)
    enumerate_template(template_of(parse_term("S")), Bounds(3, 1, 0), budget=400_000)
    assert sorted(sized) == sorted(set(sized))
    assert sized


@pytest.mark.parametrize("text", ["K", "SKK"])
def test_set_size_bound_cuts_singletons(text):
    # K's antecedent {t} has one member, more than a set size of 0 allows
    assert enumerate_template(template_of(parse_term(text)), Bounds(2, 0, 1)) == ([], True)
    elems, _ = enumerate_template(template_of(parse_term(text)), Bounds(2, 1, 1))
    assert elems and all(e.width <= 1 for e in elems)


def test_enumeration_members_satisfy_template():
    tpl = template_of(parse_term("SK"))
    elems, _ = enumerate_template(tpl, Bounds(2, 2, 1))
    assert elems
    for e in elems:
        assert member_via_template(tpl, e)


def _no_check():
    """A check with no constraints, for an enumerator of bare patterns: it
    keeps only its matcher's table of family instances."""
    return _ConstraintCheck((), 0)


class _UnprunedEnumerator(_Enumerator):
    """The enumerator with no pruning: every set pattern builds its whole
    value and only then drops it for being too wide."""

    def gen_set(self, p, depth, b, allowed=None):
        assert allowed is None  # nothing here restricts a value
        size = self.bounds.max_set_size
        if isinstance(p, SVar) and p.key not in b:
            pool = tuple(enumerate_g(min(depth, self.bounds.max_rank), size,
                                     self.bounds.max_nat))
            for k in range(size + 1):
                for combo in itertools.combinations(pool, k):
                    yield gset(combo), {**b, p.key: gset(combo)}
            return
        if isinstance(p, (ExplicitPat, UnionPat)):
            parts = p.members if isinstance(p, ExplicitPat) else p.parts
            yield from self._all(list(parts), depth, b, size)
            return
        yield from super().gen_set(p, depth, b)

    def _gen_family(self, p, n, depth, b, allowed=None):
        insts = [reindex(p.body, p.binder, i) for i in range(1, n + 1)]
        yield from self._all(insts, depth, b, self.bounds.max_set_size)

    def _all(self, pats, depth, b, size):
        def go(idx, bb, acc):
            if idx == len(pats):
                if len(gset(acc)) <= size:
                    yield gset(acc), bb
                return
            if isinstance(pats[idx], ELEM_PATS):
                for v, b1 in self.gen_elem(pats[idx], depth, bb):
                    yield from go(idx + 1, b1, acc + [v])
            else:
                for s, b1 in self.gen_set(pats[idx], depth, bb):
                    yield from go(idx + 1, b1, acc + list(s))

        yield from go(0, b, [])


def _check_constraints(constraints, b, slack, max_arity):
    """All retained equations hold under concrete bindings b, checked by a
    fresh `_ConstraintCheck` for each binding: the reference for the memos
    that one check keeps across the bindings of a call."""
    return _ConstraintCheck(constraints, slack, max_arity)(b)


def _reference_enumeration(t, bounds):
    """enumerate_template with no pruning and no memo: every binding of
    the unpruned enumerator, each checked against every constraint afresh."""
    if t.is_empty:
        return []
    slack = max(bounds.max_set_size, bounds.max_arity)
    found = {}
    enum = _UnprunedEnumerator(bounds, _no_check(), budget=float("inf"))
    for v, b in enum.gen_elem(t.root, bounds.max_rank, {}):
        if v not in found and _check_constraints(t.constraints, b, slack, bounds.max_arity):
            found[v] = v
    return sorted(found)


def _outcome(fn):
    try:
        return fn()
    except TemplateError as exc:
        return type(exc).__name__


def _bounds_id(bounds):
    return f"{bounds.max_rank}-{bounds.max_set_size}-{bounds.max_nat}"


@pytest.mark.parametrize("bounds", [Bounds(2, 1, 0), Bounds(2, 2, 0), Bounds(2, 1, 1)],
                         ids=_bounds_id)
def test_enumeration_matches_reference(bounds):
    # every S-term of up to 4 leaves, and the K/S terms beside them, which
    # list elements at rank 2 where S-terms list none
    listing = 0
    for sigma in enumerate_terms(4, alphabet=("K", "S")):
        t = _outcome(lambda: template_of(sigma))
        if isinstance(t, str):
            continue  # composition unsupported by design
        got = _outcome(lambda: enumerate_template(t, bounds)[0])
        assert got == _outcome(lambda: _reference_enumeration(t, bounds)), print_term(sigma)
        listing += isinstance(got, list) and bool(got)
    assert listing > 20


# Each of these but SSS, SS(SS)S and SS(SSS) keeps retained constraints,
# checked once its antecedent side is bound, so the early check, the memo
# and the room left in a full union all take part.  Ranks settle S(S(SSS))
# and S(S(SS)) at rank 3, so nothing of them is enumerated; S(SS)(SSS)
# needs rank 3 exactly, so it is.
@pytest.mark.parametrize("text", [
    "SSS", "SS(SS)S", "SS(SSS)", "S(SSS)S", "S(S(SSS))", "S(S(SS))", "S(S(SS)S)",
    "SS(S(SS))", "S(S(S(SS)))", "S(SS)(SSS)",
])
def test_rank3_enumeration_matches_reference(text):
    t = template_of(parse_term(text))
    bounds = Bounds(3, 1, 0)
    assert enumerate_template(t, bounds)[0] == _reference_enumeration(t, bounds)


# ranks settle S(S(SS))S at rank 2, and SS(SS)(SS) needs rank 2 exactly
@pytest.mark.parametrize("text", ["SSS(SS)", "S(S(SS))S", "SS(SS)(SS)"])
def test_rank2_enumeration_with_constraints_matches_reference(text):
    t = template_of(parse_term(text))
    bounds = Bounds(2, 1, 0)
    assert _check_plan(t)[0]
    assert enumerate_template(t, bounds)[0] == _reference_enumeration(t, bounds)


def _recording_enumerators(monkeypatch):
    """The enumerators that enumerate_template makes from now on."""
    import engeler.templates as templates

    made = []

    class Recording(_Enumerator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(templates, "_Enumerator", Recording)
    return made


def test_early_checks_cut_enumeration_steps(monkeypatch):
    # checking each candidate of S(SSS)S at (3,1,0) only once it is built
    # whole takes 16,257 steps
    made = _recording_enumerators(monkeypatch)
    t = template_of(parse_term("S(SSS)S"))
    assert _check_plan(t)[0]  # a constraint is checked before the root
    elems, _ = enumerate_template(t, Bounds(3, 1, 0))
    assert elems == _reference_enumeration(t, Bounds(3, 1, 0))
    assert made[0].steps < 16_257


def test_early_check_decides_where_a_later_constraint_raises():
    # the full check of every candidate reaches a constraint that the
    # matcher cannot decide, but an earlier-bound one refutes each first
    t = template_of(parse_term("S(SSS(SS))"))
    with pytest.raises(UnsupportedMatch):
        _reference_enumeration(t, Bounds(3, 1, 0))
    assert enumerate_template(t, Bounds(3, 1, 0)) == ([], True)


def test_a_ground_side_refutes_before_the_other_side_is_bound():
    # X = {(A -> 1), Z} is checked as soon as X is bound, with A and Z
    # free, and no X within nat 0 holds an arrow into 1.  Z ends the root's
    # consequent spine, so without this check every candidate would reach
    # the full check, whose first equation P = Q has both sides open.
    # Ranks leave rank 2 open.
    t = Template(ArrowPat(SVar("X"), EVar("Z")), (
        Constraint((), SVar("P"), SVar("Q")),
        Constraint((), SVar("X"), ExplicitPat((ArrowPat(SVar("A"), nat(1)), EVar("Z"))))))
    plan, _, least, _ = _check_plan(t)
    assert plan[t.root] == ((0, 1), ()) and least == 2
    with pytest.raises(UnsupportedMatch, match="both sides open"):
        _reference_enumeration(t, Bounds(2, 1, 0))
    assert enumerate_template(t, Bounds(2, 1, 0)) == ([], True)


def test_ranks_settle_where_every_full_check_has_both_sides_open():
    # SSS(S(SS)) at (2,1,0): every candidate's full check reaches an
    # equation with both sides open, but ranks rule out every element
    # below rank 4, so the enumeration answers; the oracle agrees
    sigma = parse_term("SSS(S(SS))")
    t = template_of(sigma)
    with pytest.raises(UnsupportedMatch, match="both sides open"):
        _reference_enumeration(t, Bounds(2, 1, 0))
    assert _check_plan(t)[2] == 4
    assert enumerate_template(t, Bounds(2, 1, 0)) == ([], True)
    elems = universe(2, 1, 0)
    assert len(elems) == 13
    assert not any(member_oracle(sigma, e) for e in elems)


def test_one_side_checks_keep_s_ss_at_rank3_set_size2():
    # ranks now settle S(SS) at rank 3, so this checks the rank cut against
    # the unpruned reference; one-side checks at set size 2 are checked on
    # a set-bodied family below
    t = template_of(parse_term("S(SS)"))
    bounds = Bounds(3, 2, 0)
    assert enumerate_template(t, bounds)[0] == _reference_enumeration(t, bounds)


def test_one_side_checks_cut_enumeration_steps(monkeypatch):
    # checking each constraint of SS(SS)(SS) at (3,1,0) only once both of
    # its sides are bound takes 3,409 steps; ranks leave rank 3 open
    made = _recording_enumerators(monkeypatch)
    t = template_of(parse_term("SS(SS)(SS)"))
    assert _check_plan(t)[2] <= 3
    assert enumerate_template(t, Bounds(3, 1, 0)) == ([], True)
    assert made[0].steps < 3_409


def test_open_union_part_beside_too_many_ground_elements_raises():
    # an open part beside 7 covered elements takes the 6 left over and each
    # of the 2^7 subsets of the covered ones; beside 17 it would have 2^17
    # splits to try, and trying only some could answer False where a
    # binding exists
    g = gset(universe(2, 1, 0))
    covered = gset(g[:7])
    bindings = list(Matcher().match_set(UnionPat((covered, SVar("f"))), g, {}))
    assert len(bindings) == 2 ** 7
    assert {len(b[("s", "f", ())]) for b in bindings} == set(range(6, 14))
    g = gset(universe(3, 1, 0)[:18])
    union = UnionPat((gset(g[:17]), SVar("f")))
    with pytest.raises(UnsupportedMatch, match="too many splits"):
        next(Matcher().match_set(union, g, {}))


_SMALL_SETS = st.lists(st.sampled_from(universe(1, 1, 1)), max_size=4).map(gset)


@settings(max_examples=200, deadline=None)
@given(_SMALL_SETS, st.lists(_SMALL_SETS, max_size=2), st.integers(0, 3), st.randoms())
def test_cover_search_yields_every_split_of_g(g, ground, n_open, rng):
    # the bindings of a union of ground parts and distinct open parts are
    # those of every assignment of subsets of g to the open parts that
    # joins the ground parts to exactly g
    names = [f"f{k}" for k in range(n_open)]
    parts = ground + [SVar(name) for name in names]
    rng.shuffle(parts)
    got = [frozenset(b.items()) for b in Matcher().match_set(UnionPat(parts), g, {})]
    subsets = [gset(c) for k in range(len(g) + 1) for c in itertools.combinations(g, k)]
    want = set()
    for values in itertools.product(subsets, repeat=n_open):
        if set().union(*ground, *values) == set(g):
            want.add(frozenset(((("s", name, ()), v) for name, v in zip(names, values))))
    assert len(got) == len(set(got)) and set(got) == want


def _set_union_family():
    return FamilyPat(AVar("n", minimum=1), "i", SVar("f", ("i",)))


def test_exact_arity_realizes_the_empty_set_with_a_set_body():
    # one instance f[1] = {} realizes {}; a matcher that tried no arity
    # here would answer False
    bindings = list(Matcher(slack=1, exact={"n"}).match_set(_set_union_family(), gset([]), {}))
    assert bindings and bindings[0][("a", "n", ())] == 1
    assert bindings[0][("s", "f", (1,))] == gset([])


def test_one_side_check_tries_every_arity_of_an_open_set_bodied_family():
    # X = U(i in 1..n) f[i] is checked once X is bound, while n and f are
    # still open; X = {} must survive, as n = 1, f[1] = {} completes it
    union = _set_union_family()
    t = Template(ArrowPat(SVar("X"), ArrowPat(union, nat(0))),
                 (Constraint((), SVar("X"), union),))
    plan, arities, least, _ = _check_plan(t)
    assert plan[t.root] == ((0,), ()) and arities == {"n"} and least == 0
    for bounds in (Bounds(2, 1, 0), Bounds(2, 2, 0)):
        got = enumerate_template(t, bounds)[0]
        assert got == _reference_enumeration(t, bounds)
        assert parse_gelem("({} -> ({} -> 0))") in got


@pytest.mark.parametrize("text, least", [
    ("S(SS)", 4), ("S(S(SS))", 5), ("S(S(SSS))", 4), ("S(S(SS))S", 4),
    ("S", 0), ("SS", 0), ("S(S(S(SS)))", 0),
])
def test_least_rank_of_s_terms(text, least):
    assert _check_plan(template_of(parse_term(text)))[2] == least


def _without_rank_cut(monkeypatch):
    """enumerate_template with every template's least rank taken as 0."""
    plan = templates._check_plan
    monkeypatch.setattr(templates, "_check_plan", lambda t: plan(t)[:2] + (0, None))


def test_ranks_settle_s_ss_below_rank_4(monkeypatch):
    # a retained equation of S(SS) needs {r[i] : i in 1..n}, whose members
    # sit two arrows deep in the root, to hold a member of rank 2
    t = template_of(parse_term("S(SS)"))
    assert enumerate_template(t, Bounds(3, 2, 1)) == ([], True)
    assert settled_by_ranks(t, 3).startswith(
        "no element below rank 4 (where {r[i] : i in 1..n} = ")
    assert settled_by_ranks(t, 4) is None
    assert len(enumerate_template(t, Bounds(4, 1, 0))[0]) == 68
    _without_rank_cut(monkeypatch)
    assert enumerate_template(t, Bounds(3, 1, 0)) == ([], True)


def _rank_guard(arity):
    """A root that binds r[i] : i in 1..n two arrows deep, and an equation
    that needs {r[j] : j in 1..arity} to hold an element of rank 2."""
    n = AVar("n")
    root = ArrowPat(FamilyPat(n, "i", ArrowPat(ExplicitPat(()), EVar("r", ("i",)))), nat(0))
    listing = FamilyPat(arity, "j", EVar("r", ("j",)))
    return Template(root, (Constraint((), listing, gset([parse_gelem("({} -> ({} -> 0))")])),))


def test_rank_cut_leaves_keys_the_root_may_not_bind():
    # r[j] : j in 1..m reads keys that r[i] : i in 1..n need not bind: with
    # n = 0 and m = 1 the element ({} -> 0) is a member
    t = _rank_guard(AVar("m"))
    assert _check_plan(t)[2] == 0
    assert parse_gelem("({} -> 0)") in enumerate_template(t, Bounds(2, 1, 0))[0]
    # read under a family of the same arity, with its binder named apart,
    # r[j] takes only the values the root gives it, so rank 4 is the least
    t = _rank_guard(AVar("n"))
    assert _check_plan(t)[2] == 4
    assert enumerate_template(t, Bounds(3, 1, 0)) == ([], True)
    assert _reference_enumeration(t, Bounds(3, 1, 0)) == []


def test_rank_cut_rules_out_only_empty_listings(monkeypatch):
    # every (term, bounds) case that ranks settle lists nothing when the
    # enumerator runs without the cut; one that runs out of its budget
    # there is unconfirmed.  At 400,000 steps 134 of the 148 cases confirm
    terms = {print_term(t): t for t in itertools.chain(
        enumerate_s_terms(6), enumerate_terms(4, alphabet=("K", "S")))}
    grid = [Bounds(rank, size, nat_) for rank in (1, 2, 3) for size in (1, 2)
            for nat_ in (0, 1)]
    settled = [(template_of(t), bounds) for t in terms.values() for bounds in grid
               if settled_by_ranks(template_of(t), bounds.max_rank)]
    assert len(terms) == 158 and len(settled) == 148
    _without_rank_cut(monkeypatch)
    outcomes = Counter(_outcome(lambda: len(enumerate_template(t, bounds, budget=5_000)[0]))
                       for t, bounds in settled)
    assert set(outcomes) <= {0, "BudgetExceeded"}
    assert outcomes[0] >= 111


def test_template_layer_leaves_no_cyclic_garbage():
    # each call frees what it built by reference counting alone, so the
    # cyclic collector finds nothing after a run of the public functions;
    # with the composition memo cleared too, the run composes its terms
    _clear_template_caches()
    gc.collect()
    gc.disable()
    try:
        sigma = parse_term("S(S(S(SS)))")
        t = template_of(sigma)
        elems, _ = enumerate_template(t, Bounds(3, 1, 0))
        assert member_via_template(t, elems[0])
        failing = template_of(parse_term("S(SS)KSK"))  # a known failure
        e = parse_gelem("({} -> 0)")
        assert _outcome(lambda: member_via_template(failing, e)) == "UnsupportedMatch"
        assert _outcome(lambda: enumerate_template(template_of(parse_term("S(SS)SS")),
                                                   Bounds(3, 1, 0))) == "UnsupportedMatch"
        m, n = gset([parse_gelem("({0} -> 0)"), nat(1)]), gset([nat(0)])
        assert apply_template_chain(base_template("K"), [m, n], Bounds(2, 1, 1))[0]
        assert [closure_report(sigma, e) for e in elems if b0_base(e) is not None]
        assert gc.collect() == 0
    finally:
        gc.enable()


def _spelled_out(p, b):
    """p with each variable's value in its place and each family whose
    arity b fixes expanded, nothing folded into a value: the reference
    for `_concretize`."""
    if isinstance(p, (EVar, SVar)):
        return b.get(p.key, p)
    if isinstance(p, ArrowPat):
        return ArrowPat(_spelled_out(p.ante, b), _spelled_out(p.cons, b))
    if isinstance(p, ExplicitPat):
        return ExplicitPat(tuple(_spelled_out(m, b) for m in p.members))
    if isinstance(p, UnionPat):
        return UnionPat(tuple(_spelled_out(q, b) for q in p.parts))
    if isinstance(p, FamilyPat):
        ar = p.arity if isinstance(p.arity, int) else b.get(p.arity.key, p.arity)
        if not isinstance(ar, int):
            return normalize(FamilyPat(ar, p.binder, _spelled_out(p.body, b)))
        insts = tuple(_spelled_out(reindex(p.body, p.binder, i), b) for i in range(1, ar + 1))
        if isinstance(p.body, ELEM_PATS):
            return normalize(ExplicitPat(insts))
        return normalize(UnionPat(insts)) if insts else ExplicitPat(())
    return p  # a value


def _value_of(p):
    """The value a variable-free pattern spells out, or None."""
    if isinstance(p, (GElem, GSet)):
        return p
    if isinstance(p, ArrowPat):
        ante, cons = _value_of(p.ante), _value_of(p.cons)
        if isinstance(ante, GSet) and isinstance(cons, GElem):
            return Arrow(ante, cons)
        return None
    if isinstance(p, ExplicitPat):
        members = [_value_of(m) for m in p.members]
        return None if None in members else gset(members)
    if isinstance(p, UnionPat):
        parts = [_value_of(q) for q in p.parts]
        return None if None in parts else gset(e for part in parts for e in part)
    return None


@pytest.mark.parametrize("text, bounds", [("SSS(SS)", Bounds(2, 1, 0)),
                                          ("S(SS)S", Bounds(2, 2, 0)),
                                          ("S(S(SS))", Bounds(3, 1, 0))],
                         ids=lambda x: _bounds_id(x) if isinstance(x, Bounds) else x)
def test_concretized_constraint_sides_have_the_spelled_out_values(text, bounds):
    # a concretized side is a value exactly when the spelled-out pattern
    # has no variables, and it is the value that pattern spells out
    t = template_of(parse_term(text))
    ground = 0
    enum = _UnprunedEnumerator(bounds, _no_check(), budget=float("inf"))
    for _, b in enum.gen_elem(t.root, bounds.max_rank, {}):
        for c in t.constraints:
            for side in (c.left, c.right):
                v = normalize(_concretize(side, b, reindex))
                v = v if isinstance(v, GSet) else None
                assert v == _value_of(normalize(_spelled_out(side, b))), pretty(side)
                ground += v is not None
    assert ground


def test_concretize_folds_a_family_whose_instances_coincide():
    # with its arity open but at least 1, the family is the one-member
    # listing {x}, and under {x: 0} that is the value {0}
    family = FamilyPat(AVar("n", minimum=1), "i", EVar("x"))
    assert _concretize(family, {EVar("x").key: nat(0)}, reindex) == gset([nat(0)])
    assert isinstance(_concretize(family, {}, reindex), ExplicitPat)


def test_one_membership_call_builds_each_family_instance_once(monkeypatch):
    # the matcher and the constraint check of a call take their family
    # instances from the matcher's one table; this row's match reaches the
    # same family on two bindings
    t = template_of(parse_term("S(S(SS))K"))
    e = parse_gelem("({({} -> ({} -> ({} -> 1)))} -> ({} -> 1))")
    built = Counter()

    def counting(p, old, new):
        built[p, old, new] += 1  # a pattern hashes by its identity
        return reindex(p, old, new)

    monkeypatch.setattr(templates, "reindex", counting)
    assert member_via_template(t, e)
    assert built and max(built.values()) == 1


def test_a_constraint_that_raises_refutes_nothing_early():
    # both sides open: undecided at a check point, raised by the full check
    open_eq = Constraint((), SVar("a"), SVar("b"))
    false_eq = Constraint((), SVar("a"), gset([nat(0)]))
    check = _ConstraintCheck((open_eq, false_eq), slack=1)
    assert not check.refutes((0,), {})
    assert check.refutes((0, 1), {("s", "a", ()): gset([])})
    with pytest.raises(UnsupportedMatch, match="both sides open"):
        check({})


def test_sss_sss_lists_an_oracle_member_within_the_budget():
    # the room a full union leaves keeps SSS(SSS) at (3,1,0) inside a
    # 400,000-step budget, and the element it lists is a member by the oracle
    sigma = parse_term("SSS(SSS)")
    elems, _ = enumerate_template(template_of(sigma), Bounds(3, 1, 0), budget=400_000)
    assert elems == [parse_gelem("({({} -> ({} -> 0))} -> 0)")]
    assert member_oracle(sigma, elems[0])


@pytest.mark.xfail(strict=True, reason="the template route says b0 is in [S(SS)(S(SS)S)S] "
                   "and not in its one-step reduct; the oracle says no on both")
def test_b0_membership_agrees_across_one_reduction_step():
    # a term and its reducts have one denotation
    sigma = parse_term("S(SS)(S(SS)S)S")
    (reduct,) = one_step_reducts(sigma)
    assert reduct == parse_term("SSS(S(SS)SS)")
    b0 = parse_gelem("({0} -> 0)")
    assert (member_via_template(template_of(sigma), b0)
            == member_via_template(template_of(reduct), b0))


def test_a_full_union_gives_each_part_only_its_members():
    # with set size 1 and the union {0} built, an element part may only be
    # 0 and a set part only {} or {0}, in the order they came before
    enum = _Enumerator(Bounds(2, 1, 0), _no_check())
    room = frozenset([nat(0)])
    e0 = parse_gelem("({} -> 0)")
    assert [v for v, _ in enum.gen_elem(EVar("x"), 2, {}, room)] == [nat(0)]
    assert [s for s, _ in enum.gen_set(SVar("f"), 2, {}, room)] == [
        gset([]), gset([nat(0)])]
    arrows = frozenset([e0, parse_gelem("({0} -> 0)")])
    pat = ArrowPat(SVar("a"), EVar("c"))
    got = [v for v, _ in enum.gen_elem(pat, 2, {}, arrows)]
    assert got == [v for v, _ in enum.gen_elem(pat, 2, {}) if v in arrows]
    # the pool lists by rank first: ({0} -> 0) before ({} -> ({} -> 0))
    mixed = frozenset([parse_gelem("({} -> ({} -> 0))"), parse_gelem("({0} -> 0)")])
    assert [v for v, _ in enum.gen_elem(EVar("x"), 2, {}, mixed)] == [
        v for v, _ in enum.gen_elem(EVar("x"), 2, {}) if v in mixed]
    assert [s for s, _ in enum.gen_set(SVar("f"), 2, {}, mixed)] == [
        s for s, _ in enum.gen_set(SVar("f"), 2, {}) if mixed.issuperset(s)]
    union = ExplicitPat((EVar("x"), EVar("y")))
    assert [s for s, _ in enum.gen_set(union, 2, {})] == [
        s for s, _ in _UnprunedEnumerator(Bounds(2, 1, 0), _no_check()).gen_set(union, 2, {})]


def test_known_closure_violation_still_found():
    # the one violating pair of the closure sweep: a case "ii" candidate
    # for S(S(S(SS))) at rank 3, set size 1, nat 0 is answered non-member
    sigma = parse_term("S(S(S(SS)))")
    elems, _ = enumerate_template(template_of(sigma), Bounds(3, 1, 0))
    reports = [closure_report(sigma, e) for e in elems if b0_base(e) is not None]
    assert any(r["member"] is False for r in reports)


def test_values_are_ground_patterns():
    # a concrete element or set in a pattern prints, normalizes, matches
    # and enumerates as the literal pattern spelling it out would
    pair, e = gset([nat(0), nat(1)]), parse_gelem("({0} -> 1)")
    assert (pretty(pair), pretty(e)) == ("{0, 1}", "({0} -> 1)")
    matcher = Matcher()
    assert list(matcher.match_elem(e, e, {})) == [{}]
    assert list(matcher.match_elem(e, parse_gelem("({0} -> 0)"), {})) == []
    assert list(matcher.match_set(pair, pair, {})) == [{}]
    assert list(matcher.match_set(pair, gset([nat(0)]), {})) == []
    union = UnionPat((SVar("f"), pair, ExplicitPat((EVar("x"), nat(0)))))
    assert pretty(normalize(union)) == "{0, 1, x} + f"
    family = FamilyPat(AVar("n", minimum=1), "i", gset([e]))
    assert pretty(normalize(family)) == "{({0} -> 1)}"
    enum = _Enumerator(Bounds(2, 1, 0), _no_check())
    e0 = parse_gelem("({0} -> 0)")
    assert [v for v, _ in enum.gen_elem(e0, 2, {})] == [e0]
    assert list(enum.gen_elem(e0, 0, {})) == []  # rank 1 at depth 0
    assert list(enum.gen_elem(e, 2, {})) == []  # the natural 1
    assert list(enum.gen_set(gset([e0]), 1, {})) == [(gset([e0]), {})]
    assert list(enum.gen_set(gset([nat(0), e0]), 2, {})) == []  # two members
    assert list(enum.gen_elem(parse_gelem("({0,({} -> 0)} -> 0)"), 2, {})) == []


# ---------------------------------------------------------------------------
# the empty template


def test_empty_template():
    assert EMPTY_TEMPLATE.is_empty
    assert not member_via_template(EMPTY_TEMPLATE, nat(0))
    assert enumerate_template(EMPTY_TEMPLATE, Bounds(2, 1, 1)) == ([], False)
    assert not has_singleton_setvar(EMPTY_TEMPLATE)


# ---------------------------------------------------------------------------
# sanctioned partiality: shapes beyond the calculus abort loudly


@pytest.mark.parametrize("term", ["SSS(KK)", "SSS(KS)", "SSS(SK)"])
def test_unsupported_antecedent_shapes_raise(term):
    with pytest.raises(TemplateError):
        template_of(parse_term(term))


def test_unsupported_shapes_are_rare_up_to_five_leaves():
    bad = []
    for term in enumerate_terms(5, alphabet=("K", "S")):
        try:
            template_of(term)
        except TemplateError:
            bad.append(print_term(term))
    assert bad == ["SSS(KK)", "SSS(KS)", "SSS(SK)"]


# ---------------------------------------------------------------------------
# structural odds and ends


def test_normalize_idempotent_on_roots():
    # patterns compare by identity, so idempotence is up to structural key
    from engeler.templates import pat_key

    for term in ("S", "K", "SS", "SKK", "S(KS)S"):
        root = template_of(parse_term(term)).root
        assert pat_key(normalize(root)) == pat_key(normalize(normalize(root)))


def test_template_json_is_plain_data():
    for term in enumerate_terms(3, alphabet=("K", "S")):
        j = template_to_json(template_of(term))
        assert set(j) == {"root", "constraints"}
        json.dumps(j)


def test_apply_template_chain_k():
    m = gset([parse_gelem("({0} -> 0)"), nat(1)])
    n = gset([nat(0)])
    elems, truncated = apply_template_chain(
        base_template("K"), [m, n], Bounds(6, 4, 3, 4)
    )
    assert gset(elems) == m
    assert not truncated


def test_has_singleton_setvar_on_s_terms():
    # the K projection mechanism never appears in S-only compositions
    for term in enumerate_s_terms(4):
        assert not has_singleton_setvar(template_of(term)), print_term(term)


@pytest.mark.parametrize("text, root", [
    ("S(KK)K", "({t0} -> ({} -> ({} -> t0)))"),
    ("S(SK)K", "({t0} -> ({} -> t0))"),
])
def test_has_singleton_setvar_sees_composed_singletons(text, root):
    # composition builds these antecedents as listings; the shape is what counts
    t = template_of(parse_term(text))
    assert canon(template_to_text(t)) == root
    assert has_singleton_setvar(t)
    assert not has_singleton_setvar(Template(ArrowPat(ExplicitPat((nat(0),)), EVar("t"))))


# ---------------------------------------------------------------------------
# the variable-rewriting walks, the quantifier and the listing matcher


def test_reindex_shadowed_family_keeps_body_and_moves_arity():
    fam = FamilyPat(AVar("n", ("i",), minimum=1), "i",
                    ArrowPat(SVar("g", ("i",)), EVar("r", ("i", "j"))))
    p = UnionPat((SVar("f", ("i",)), fam))
    out = reindex(p, "i", 2)
    assert pretty(out) == "f[2] + {(g[i] -> r[i,j]) : i in 1..n[2]}"
    assert out.parts[1].arity.minimum == 1
    # a binder that the family does not rebind reaches into its body
    assert pretty(reindex(p, "j", 3)) == "f[i] + {(g[i] -> r[i,3]) : i in 1..n[i]}"


def test_rename_vars_renames_binders_and_string_components_only():
    p = FamilyPat(AVar("n", ("k", 2), minimum=2), "k",
                  ArrowPat(ExplicitPat((EVar("t"),)), EVar("r", ("k", 2))))
    out = rename_vars(p, ".7")
    assert out.binder == "k.7"
    assert (out.arity.name, out.arity.index, out.arity.minimum) == ("n.7", ("k.7", 2), 2)
    assert out.body.ante.members[0].key == ("e", "t.7", ())
    assert out.body.cons.key == ("e", "r.7", ("k.7", 2))


def test_rename_vars_appends_index_components_to_arity_variables():
    p = ExplicitPat((ArrowPat(FamilyPat(AVar("n", minimum=2), "i", SVar("f", ("i",))),
                              nat(0)),))
    fam = rename_vars(p, ".7", ("j",)).members[0].ante
    assert (fam.arity.key, fam.arity.minimum) == (("a", "n.7", ("j",)), 2)
    assert fam.binder == "i.7"
    assert fam.body.key == ("s", "f.7", ("i.7", "j"))


def test_quantify_only_over_mentioned_binders():
    n, m = AVar("n"), AVar("m", ("j",))
    local = [
        Constraint((), SVar("a", ("i",)), ExplicitPat(())),
        Constraint((), SVar("b"), SVar("c", ("j",))),
        Constraint((), SVar("d", ("i", "j")), ExplicitPat(())),
        Constraint((("k", m),), SVar("e", ("k",)), ExplicitPat(())),
        Constraint((), SVar("x"), SVar("y")),
    ]
    defer = []
    _quantify(local, (("i", n), ("j", 3)), defer)
    assert [[bn for bn, _ in c.binders] for c in defer] == [
        ["i"], ["j"], ["i", "j"], ["j", "k"], []]
    assert defer[2].binders == (("i", n), ("j", 3))
    assert [c.left for c in defer] == [c.left for c in local]


def test_listing_matches_are_surjective():
    matcher = Matcher()
    pair = ExplicitPat((EVar("x"), EVar("y")))
    got = [(b[("e", "x", ())], b[("e", "y", ())])
           for b in matcher.match_set(pair, gset([nat(0), nat(1)]), {})]
    assert got == [(nat(0), nat(1)), (nat(1), nat(0))]
    assert len(list(matcher.match_set(pair, gset([nat(0)]), {}))) == 1
    assert list(matcher.match_set(pair, gset([nat(0), nat(1), nat(2)]), {})) == []
    # three indices onto two elements: 2**3 - 2 surjections
    fam = FamilyPat(3, "i", EVar("r", ("i",)))
    assert len(list(matcher.match_set(fam, gset([nat(0), nat(1)]), {}))) == 6
