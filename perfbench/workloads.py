"""The four benchmark workloads: their inputs, their operations and the
checks on their answers.

Every workload is built from the seed alone (plus the stored input lists in
this directory) and never from what the program answers at run time.  A
workload is one *round*: a fixed list of operations that the timed loop
repeats whole.  Each operation is a zero-argument callable that calls into
``engeler`` and returns the raw result; ``digest`` turns that result into a
small value outside the timed region, and ``check`` judges the digest.

The checks use only the benchmark's own code below (extensional
application, the realizability predicate, the S shape, the member
construction) or a second route through the program that the tests show
to agree with the first, never the answer of the route under test.

``engeler`` modules reach this file through the ``mods`` namespace that
``run.py`` passes in, and every call looks the function up on its module at
call time, so the traced run sees each call.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
INPUTS = os.path.join(HERE, "inputs")

# Answer checks fail in one of two ways.  A *failed* operation is one listed
# in inputs/known_failures.json that raises or answers wrongly, as it did
# when the list was made; a *wrong* answer is any other check that does not
# hold, or a raise on any other operation, and makes the run incorrect.
OK, FAILED, WRONG = "ok", "failed", "wrong"


@dataclass
class Op:
    kind: str
    run: object  # () -> raw result
    expect: object = None
    known_failure: bool = False  # listed in inputs/known_failures.json


@dataclass
class Workload:
    name: str
    ops: list
    digest: object  # (op, raw result) -> small comparable value
    check: object  # (op, digest) -> (OK | FAILED | WRONG, answer kind)
    start_round: object = None  # () -> None, run before every round (untimed)
    check_round: object = None  # ([digest per op]) -> problem text or None
    warm_up: object = None  # () -> None, part of set-up
    params: dict = field(default_factory=dict)


def load_inputs(name):
    with open(os.path.join(INPUTS, name), encoding="utf-8") as fh:
        return json.load(fh)


def cache_clearer(mods):
    """A function that empties engeler's caches of answers: every
    ``lru_cache`` on its modules (``template_of`` among them) and the
    enumerator's pool of elements per bounds.  Every round starts cold, so
    an operation's fastest time over the rounds is the time of a first
    call, as in a one-shot command.  The clears are bound now, before a
    traced run wraps the cached functions."""
    clears = [fn.cache_clear for mod in vars(mods).values() for fn in vars(mod).values()
              if getattr(fn, "__module__", None) == mod.__name__
              and hasattr(fn, "cache_clear")]
    pool_cache = getattr(mods.templates, "_POOL_CACHE", None)
    if pool_cache is not None:
        clears.append(pool_cache.clear)

    def clear():
        for fn in clears:
            fn()
    return clear


# ---------------------------------------------------------------------------
# reach: bounded reachability, the paper's identity search

REACH_MAX_LEAVES = 7
REACH_FUEL = 20
REACH_WIDTH = 100
REACH_SK_CONTROLS = 6

# library combinator -> (arity, contractum over the argument list)
CONTRACTA = {
    "I": (1, lambda app, a: a[0]),
    "B": (3, lambda app, a: app(a[0], app(a[1], a[2]))),
    "L": (2, lambda app, a: app(a[0], app(a[1], a[1]))),
    "M": (1, lambda app, a: app(a[0], a[0])),
    "Kstarstar": (3, lambda app, a: a[2]),
    "Sigma0": (1, lambda app, a: a[0]),
}


def make_reach(mods, seed):
    terms, rewrite = mods.terms, mods.rewrite
    App = terms.App
    rng = random.Random(seed)
    fresh = [terms.var(i) for i in rng.sample(range(4, 40), 3)]
    x = fresh[0]

    def probe(source, target):
        return lambda: rewrite.reduces_to(source, target, REACH_FUEL, REACH_WIDTH)

    ops = [
        Op("s-probe", probe(App(sigma, x), x), False)
        for sigma in terms.enumerate_s_terms(REACH_MAX_LEAVES)
    ]
    for name, (arity, contractum) in CONTRACTA.items():
        args = fresh[:arity]
        source = terms.app_spine(terms.stdlib_lookup(name), *args)
        ops.append(Op("control", probe(source, contractum(App, args)), True))
    s_pool = list(terms.enumerate_s_terms(5))
    S, K = terms.atom("S"), terms.atom("K")
    for t in rng.sample(s_pool, REACH_SK_CONTROLS):
        ops.append(Op("control", probe(terms.app_spine(S, K, t, x), x), True))
    rng.shuffle(ops)

    def digest(op, result):
        return bool(result)

    def check(op, found):
        if found is not op.expect:
            return WRONG, f"{op.kind}:{found}"
        return OK, "reached" if found else "not-reached"

    def warm_up():
        for sigma in terms.enumerate_s_terms(5):
            rewrite.reduces_to(App(sigma, x), x, REACH_FUEL, REACH_WIDTH)

    return Workload("reach", ops, digest, check, start_round=cache_clearer(mods),
                    warm_up=warm_up,
                    params={"max_leaves": REACH_MAX_LEAVES, "fuel": REACH_FUEL,
                            "width": REACH_WIDTH})


# ---------------------------------------------------------------------------
# normalize: leftmost-outermost reduction of Church-numeral arithmetic

# (operation, a, b); the numeral c_n is (S B)^n (K I) with B = S(KS)K and
# I = SKK, all in K and S.  Results stay at or below 81 applications of f.
NORMALIZE_PROBLEMS = (
    [("exp", a, b) for a in range(1, 7) for b in range(2, 10) if b ** a <= 81]
    + [("add", a, b) for a in (1, 2, 4, 8, 16, 32) for b in (1, 2, 4, 8, 16, 32)]
    + [("mul", a, b) for a in (1, 2, 3, 5, 8) for b in (1, 2, 3, 5, 8)]
)
NORMALIZE_FUEL = 100_000


def make_normalize(mods, seed):
    terms, rewrite = mods.terms, mods.rewrite
    App = terms.App
    rng = random.Random(seed)
    K, S = terms.atom("K"), terms.atom("S")
    B = App(App(S, App(K, S)), K)
    SB = App(S, B)

    def numeral(n):
        t = App(K, App(App(S, K), K))
        for _ in range(n):
            t = App(SB, t)
        return t

    ops = []
    for kind, a, b in NORMALIZE_PROBLEMS:
        f, x = (terms.var(i) for i in rng.sample(range(0, 50), 2))
        if kind == "exp":  # c_a c_b f x -> f^(b^a) x
            head, count = App(numeral(a), numeral(b)), b ** a
        elif kind == "add":  # c_a (S B) c_b f x -> f^(a+b) x
            head, count = App(App(numeral(a), SB), numeral(b)), a + b
        else:  # B c_a c_b f x -> f^(a*b) x
            head, count = App(App(B, numeral(a)), numeral(b)), a * b
        source = App(App(head, f), x)
        ops.append(Op(kind, (lambda s: lambda: rewrite.reduce(s, NORMALIZE_FUEL))(source),
                      (f, x, count)))
    rng.shuffle(ops)

    def digest(op, trace):
        return trace.outcome, trace.final, len(trace.steps)

    def check(op, got):
        outcome, final, _ = got
        f, x, count = op.expect
        if outcome != rewrite.NORMAL_FORM:
            return WRONG, outcome
        t = final
        for _ in range(count):
            if not isinstance(t, App) or t.left != f:
                return WRONG, "bad-normal-form"
            t = t.right
        return (OK, "normal-form") if t == x else (WRONG, "bad-normal-form")

    def warm_up():
        for a, b in [(1, 2), (2, 2)]:
            rewrite.reduce(App(App(App(numeral(a), numeral(b)), terms.var(0)),
                               terms.var(1)), NORMALIZE_FUEL)

    return Workload("normalize", ops, digest, check, start_round=cache_clearer(mods),
                    warm_up=warm_up,
                    params={"problems": len(NORMALIZE_PROBLEMS),
                            "fuel": NORMALIZE_FUEL})


# ---------------------------------------------------------------------------
# Element helpers for query: all of this is the benchmark's own reasoning
# about the graph model, independent of templates and the oracle.


def realizable(model, e):
    """P(e): false on naturals; P(a -> b) iff some member of a fails P or
    P(b).  Every element of the denotation of a closed K/S term satisfies
    P (K and S do, and P is closed under application), so an element
    failing P is a non-member of every such denotation."""
    if isinstance(e, model.Nat):
        return False
    return not all(realizable(model, m) for m in e.ante) or realizable(model, e.cons)


def extensional_apply(model, m, n):
    """M . N = { b | (a -> b) in M, a subset of N }, on explicit sets."""
    members = set(n.elems)
    return model.gset(e.cons for e in m.elems
                      if isinstance(e, model.Arrow) and set(e.ante.elems) <= members)


def s_shaped(model, e):
    """Is e of the form ({t -> (R -> s)} -> (mid -> (sg -> s))) with mid
    arrows whose consequents make up R and sg = t united with the
    antecedents of mid?"""
    Arrow = model.Arrow
    if not (isinstance(e, Arrow) and len(e.ante) == 1):
        return False
    u, body = e.ante.elems[0], e.cons
    if not (isinstance(u, Arrow) and isinstance(u.cons, Arrow)
            and isinstance(body, Arrow) and isinstance(body.cons, Arrow)):
        return False
    tau, r_set, s = u.ante, u.cons.ante, u.cons.cons
    mid, sigma = body.ante, body.cons.ante
    if body.cons.cons != s or not all(isinstance(a, Arrow) for a in mid):
        return False
    if set(a.cons for a in mid) != set(r_set.elems):
        return False
    covered = set(tau.elems).union(*(a.ante.elems for a in mid))
    return covered == set(sigma.elems)


class MemberBuilder:
    """Constructs members of den(t) for closed K/S terms t.

    ``build(t, need, empty)`` returns an arrow chain with at least ``need``
    leading arrows whose antecedent at each chain position in ``empty`` is
    the empty set, or None.  It contracts head redexes (den is invariant
    under reduction) and otherwise reads members off the K and S shapes:

      K        ({a} -> ({} -> a))
      K A      ({} -> c)                     c in den(A)
      S        ({t -> (R -> s)} -> (mid -> (t -> s)))
                                             mid = {(b_r -> r) | r in R}, b_r <= t
      S A      (mid -> (t -> s))             (t -> (R -> s)) in den(A), mid as above
      S A B    e  where ({} -> e) in den(S A), since {} <= den(B)
    """

    MAX_CONTRACTIONS = 40

    def __init__(self, mods, rng):
        self.terms, self.model, self.rng = mods.terms, mods.model, rng

    def small(self):
        m, rng = self.model, self.rng
        if rng.random() < 0.6:
            return m.nat(rng.randint(0, 1))
        return m.arrow(m.gset([m.nat(rng.randint(0, 1))]), m.nat(rng.randint(0, 1)))

    def small_set(self, size=None):
        size = self.rng.randint(0, 1) if size is None else size
        return self.model.gset(self.small() for _ in range(size))

    def chain(self, need, empty):
        out = self.small()
        for pos in reversed(range(need)):
            ante = self.model.EMPTY_SET if pos in empty else self.small_set()
            out = self.model.arrow(ante, out)
        return out

    def build(self, t, need=0, empty=frozenset()):
        self.budget = self.MAX_CONTRACTIONS
        return self._build(t, need, frozenset(empty))

    def _build(self, t, need, empty):
        terms, m = self.terms, self.model
        head, args = terms.spine(t)
        name = head.name
        if (name == "K" and len(args) >= 2) or (name == "S" and len(args) >= 3):
            self.budget -= 1
            if self.budget < 0:
                return None
            if name == "K":
                reduct = terms.app_spine(args[0], *args[2:])
            else:
                a, b, c = args[:3]
                reduct = terms.app_spine(terms.App(terms.App(a, c), terms.App(b, c)),
                                         *args[3:])
            return self._build(reduct, need, empty)
        shifted = lambda k: frozenset(p - k for p in empty if p >= k)  # noqa: E731
        if name == "K" and not args:
            if 0 in empty:
                return None
            a = self.chain(max(need - 2, 0), shifted(2))
            return m.arrow(m.gset([a]), m.arrow(m.EMPTY_SET, a))
        if name == "K":
            c = self._build(args[0], max(need - 1, 0), shifted(1))
            return None if c is None else m.arrow(m.EMPTY_SET, c)
        if not args:
            if 0 in empty:
                return None
            tau = m.EMPTY_SET if 2 in empty else self.small_set()
            r_set = m.EMPTY_SET if 1 in empty else self.small_set()
            s = self.chain(max(need - 3, 0), shifted(3))
            mid = m.gset(m.arrow(self.subset(tau), r) for r in r_set)
            u = m.arrow(tau, m.arrow(r_set, s))
            return m.arrow(m.gset([u]), m.arrow(mid, m.arrow(tau, s)))
        if len(args) == 1:
            want = {1} if 0 in empty else set()
            if 1 in empty:
                want.add(0)
            want.update(p for p in empty if p >= 2)
            c = self._build(args[0], max(need, 2), frozenset(want))
            if c is None or not isinstance(c, m.Arrow) or not isinstance(c.cons, m.Arrow):
                return None
            tau, r_set, s = c.ante, c.cons.ante, c.cons.cons
            mid = m.gset(m.arrow(self.subset(tau), r) for r in r_set)
            return m.arrow(mid, m.arrow(tau, s))
        # S A B: a member of den(S A) with an empty first antecedent
        inner = self._build(terms.App(head, args[0]), need + 1,
                            frozenset({0} | {p + 1 for p in empty}))
        return None if inner is None else inner.cons

    def subset(self, s):
        return self.model.gset(e for e in s if self.rng.random() < 0.5)

    def non_member(self, near=None):
        """An element failing P: ``near`` with its last consequent made a
        natural when that fails P, else a short chain ending in a natural
        behind antecedents that satisfy P."""
        m, rng = self.model, self.rng
        if near is not None:
            antes, x = [], near
            while isinstance(x, m.Arrow):
                antes.append(x.ante)
                x = x.cons
            out = m.nat(rng.randint(0, 1))
            for a in reversed(antes):
                out = m.arrow(a, out)
            if not realizable(m, out):
                return out
        out = m.nat(rng.randint(0, 1))
        p_true = [m.arrow(m.gset([m.nat(i)]), m.nat(j)) for i in (0, 1) for j in (0, 1)]
        for _ in range(rng.randint(1, 3)):
            out = m.arrow(m.gset(rng.sample(p_true, rng.randint(0, 1))), out)
        return out


# ---------------------------------------------------------------------------
# query: single denotation queries, as the member and apply commands take them

QUERY_HOT_REPEATS = 3_000  # extra template-route queries drawn by popularity
QUERY_ZIPF_S = 0.6
QUERY_AGREEMENT_PER_TERM = 7  # pairs per K/S term of up to 3 leaves, both routes
QUERY_APPLY_K = 100
QUERY_APPLY_S = 100


def load_query_pool(model):
    """(term text, element, expected answer) rows of inputs/query_pool.txt."""
    rows = []
    with open(os.path.join(INPUTS, "query_pool.txt"), encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#") or not line.strip():
                continue
            text, expected, element = line.rstrip("\n").split("\t")[:3]
            rows.append((text, model.parse_gelem(element), expected == "1"))
    return rows


def make_query(mods, seed):
    terms, model, templates, oracle = mods.terms, mods.model, mods.templates, mods.oracle
    rng = random.Random(seed)
    builder = MemberBuilder(mods, rng)

    def elem_json(e):
        return json.dumps(model.gelem_to_json(e))

    def member_query(text, ejson, via):
        def run():
            t = terms.expand_stdlib(terms.parse_term(text))
            e = model.gelem_from_json(json.loads(ejson))
            if via == "oracle":
                got = oracle.member_oracle(t, e)
            else:
                got = templates.member_via_template(templates.template_of(t), e)
            return json.dumps({"term": terms.print_term(t),
                               "element": model.gelem_to_json(e),
                               "member": got, "via": via})
        return run

    # the rows listed as known failures are asked once each in every round,
    # whatever the seed; the seed draws only from the other rows
    known = {(d["term"], d["element"])
             for d in load_inputs("known_failures.json")["query"]}
    by_term, ops = {}, []
    for text, element, expected in load_query_pool(model):
        if (text, model.gelem_to_text(element)) in known:
            ops.append(Op("member" if expected else "non-member",
                          member_query(text, elem_json(element), "template"),
                          expected, known_failure=True))
        else:
            by_term.setdefault(text, []).append((element, expected))
    if len(ops) != len(known):
        raise ValueError("inputs/known_failures.json names rows not in the pool")
    universe = sorted(by_term)

    def template_op(text):
        element, expected = rng.choice(by_term[text])
        return Op("member" if expected else "non-member",
                  member_query(text, elem_json(element), "template"), expected)

    # every term once, then popular terms again: Zipf over a seeded order
    ops += [template_op(text) for text in universe]
    order = list(universe)
    rng.shuffle(order)
    weights = [1.0 / (rank + 1) ** QUERY_ZIPF_S for rank in range(len(order))]
    for text in rng.choices(order, weights, k=QUERY_HOT_REPEATS):
        ops.append(template_op(text))

    small_terms = list(terms.enumerate_terms(3, alphabet=("K", "S")))
    grid = list(model.enumerate_g(2, 1, 1))
    # stratified: every term equally often, the grid walked from a seeded
    # offset, so that the oracle's share of the round costs about the same
    # on every seed
    offset = rng.randrange(len(grid))
    for pair_id in range(QUERY_AGREEMENT_PER_TERM * len(small_terms)):
        t = small_terms[pair_id % len(small_terms)]
        e = grid[(offset + pair_id) % len(grid)]
        expect = (pair_id, None if realizable(model, e) else False)
        for via in ("template", "oracle"):
            ops.append(Op(f"agree-{via}",
                          member_query(terms.print_term(t), elem_json(e), via), expect))

    for _ in range(QUERY_APPLY_K):
        m_set = model.gset(builder.small() if rng.random() < 0.3 else _rank2(builder)
                           for _ in range(rng.randint(1, 3)))
        n_set = builder.small_set(rng.randint(0, 2))
        ops.append(Op("apply-k", _apply_query(mods, "K", [m_set, n_set]), m_set))
    for _ in range(QUERY_APPLY_S):
        l_set = builder.small_set(rng.randint(1, 2))
        n_set = model.gset(model.arrow(builder.subset(l_set), model.nat(rng.randint(0, 1)))
                           for _ in range(rng.randint(1, 2)))
        nl = extensional_apply(model, n_set, l_set)
        m_set = model.gset(
            model.arrow(builder.subset(l_set),
                        model.arrow(builder.subset(nl) if rng.random() < 0.8
                                    else builder.small_set(), model.nat(rng.randint(0, 1))))
            for _ in range(rng.randint(1, 2)))
        expect = extensional_apply(model, extensional_apply(model, m_set, l_set), nl)
        ops.append(Op("apply-s", _apply_query(mods, "S", [m_set, n_set, l_set]), expect))
    rng.shuffle(ops)

    def digest(op, answer):
        return answer

    agree = {}

    def check(op, answer):
        obj = json.loads(answer)
        if op.kind.startswith("apply"):
            got = model.gset(model.gelem_from_json(o) for o in obj["elements"])
            if obj["truncated"] or got != op.expect:
                return WRONG, op.kind
            return OK, f"{op.kind}:{'nonempty' if len(got) else 'empty'}"
        got = obj["member"]
        if op.kind.startswith("agree"):
            pair_id, forced = op.expect
            if forced is not None and got is not forced:
                return WRONG, op.kind
            if agree.setdefault(pair_id, got) is not got:
                return WRONG, op.kind
        elif got is not op.expect:
            return (FAILED, "known-wrong") if op.known_failure else (WRONG, op.kind)
        return OK, "member" if got else "non-member"

    def warm_up():
        for t in small_terms[:6]:
            for e in grid[:10]:
                templates.member_via_template(templates.template_of(t), e)
        oracle.member_oracle(small_terms[2], grid[20])
        _apply_query(mods, "S", [model.gset(grid[5:7]), model.gset(grid[2:4]),
                                 model.gset(grid[:2])])()

    return Workload("query", ops, digest, check, start_round=cache_clearer(mods),
                    warm_up=warm_up,
                    params={"terms": len(universe), "pool": sum(map(len, by_term.values())),
                            "known_failures": len(known),
                            "hot_repeats": QUERY_HOT_REPEATS,
                            "zipf_s": QUERY_ZIPF_S,
                            "agreement_pairs": QUERY_AGREEMENT_PER_TERM * len(small_terms),
                            "apply_k": QUERY_APPLY_K, "apply_s": QUERY_APPLY_S})


def _rank2(builder):
    m = builder.model
    inner = m.arrow(builder.small_set(), builder.small())
    return m.arrow(m.gset([inner]) if builder.rng.random() < 0.5 else builder.small_set(),
                   inner if builder.rng.random() < 0.5 else builder.small())


def _apply_query(mods, atom_name, sets):
    model, terms = mods.model, mods.terms
    texts = [json.dumps([model.gelem_to_json(e) for e in s]) for s in sets]

    def run():
        expr = model.Denotation(terms.atom(atom_name))
        for text in texts:
            arg = model.gset(model.gelem_from_json(o) for o in json.loads(text))
            expr = model.ApplyExpr(expr, model.Extensional(arg))
        result = model.eval_setexpr(expr, model.Bounds())
        return json.dumps({"elements": [model.gelem_to_json(e)
                                        for e in sorted(result.elements)],
                           "count": len(result.elements),
                           "truncated": result.truncated})
    return run


# ---------------------------------------------------------------------------
# sweep: the closure experiment, one (S-only term, bounds) pair per operation

SWEEP_BUDGET = 400_000


def make_sweep(mods, seed):
    terms, model, templates, companion = (mods.terms, mods.model, mods.templates,
                                          mods.companion)
    rng = random.Random(seed)
    spec = load_inputs("sweep_pairs.json")
    known = {(d["term"], d["max_rank"], d["max_set_size"], d["max_nat"])
             for d in load_inputs("known_failures.json")["sweep"]}
    ops = []
    for group in spec["groups"]:
        key = (group["max_rank"], group["max_set_size"], group["max_nat"])
        bounds = model.Bounds(max_rank=key[0], max_set_size=key[1], max_nat=key[2])
        for text in group["terms"]:
            sigma = terms.parse_term(text)
            ops.append(Op("pair", _sweep_op(mods, sigma, bounds), (text, bounds),
                          known_failure=(text, *key) in known))
    rng.shuffle(ops)

    def digest(op, result):
        elems, records = result
        return tuple(elems), tuple((r["case"], r["member"]) for r in records)

    def within(e, bounds):
        if isinstance(e, model.Nat):
            return e.value <= bounds.max_nat
        return (len(e.ante) <= bounds.max_set_size
                and all(within(m, bounds) for m in e.ante) and within(e.cons, bounds))

    def check(op, got):
        text, bounds = op.expect
        elems, records = got
        for e in elems:
            if e.rank > bounds.max_rank or not within(e, bounds):
                return WRONG, "out-of-bounds"
            if text == "S" and not s_shaped(model, e):
                return WRONG, "not-s-shaped"
        if any(member is False for _, member in records):
            return (FAILED, "known-violation") if op.known_failure else (WRONG, "violated")
        return OK, f"base-checked:{len(records)}"

    def check_round(digests):
        if not sum(len(records) for _, records in digests):
            return "no base element checked"
        return None

    def warm_up():
        sigma = terms.atom("S")
        for group in spec["groups"]:
            bounds = model.Bounds(max_rank=group["max_rank"],
                                  max_set_size=group["max_set_size"],
                                  max_nat=group["max_nat"])
            templates.enumerate_template(templates.template_of(sigma), bounds,
                                         budget=SWEEP_BUDGET)

    return Workload("sweep", ops, digest, check, start_round=cache_clearer(mods),
                    check_round=check_round, warm_up=warm_up,
                    params={"pairs": len(ops), "budget": SWEEP_BUDGET})


def _sweep_op(mods, sigma, bounds):
    templates, companion = mods.templates, mods.companion

    def run():
        elems, _ = templates.enumerate_template(templates.template_of(sigma), bounds,
                                                budget=SWEEP_BUDGET)
        records = [companion.closure_report(sigma, e) for e in elems
                   if companion.b0_base(e) is not None]
        return elems, records
    return run


WORKLOADS = {
    "reach": make_reach,
    "normalize": make_normalize,
    "query": make_query,
    "sweep": make_sweep,
}
