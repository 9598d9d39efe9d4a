"""The graph-model universe: naturals and arrows over finite sets.

An element is a natural number or an arrow (alpha |-> b) whose antecedent
alpha is a finite set of elements and whose consequent b is an element.
Values are canonical and immutable: sets are sorted and duplicate-free under
a fixed total order (naturals before arrows; naturals by value; arrows
lexicographically by antecedent sequence, then consequent).  Each value is
built in one pass and carries its `rank`, its largest natural `max_nat` and
the `width` of its widest antecedent set, so no caller walks it to learn
them.  The empty set is one object, EMPTY_SET.

Application of sets is the usual one for graph models:

    M . N = { s | some finite alpha subset of N has (alpha |-> s) in M }

`member_k` and `member_s` decide membership in the base denotations of K
and S by direct pattern analysis; they are deliberately independent of the
template machinery so the two routes can be checked against each other.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

from .terms import DIGITS, Term, _mix


class GElem:
    """A canonical universe element.  Use nat() / arrow() to build.

    Besides its value, an element carries `rank` (0 for a natural, one
    more than its deepest part for an arrow), `max_nat` (its largest
    natural) and `width` (the size of its widest antecedent set, 0 if it
    has none)."""

    __slots__ = ("_hash", "_key", "rank", "max_nat", "width")

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, GElem):
            return NotImplemented
        return self._hash == other._hash and self._key == other._key

    def __lt__(self, other):
        if not isinstance(other, GElem):
            return NotImplemented
        return self._key < other._key

    def __repr__(self):
        return gelem_to_text(self)


class Nat(GElem):
    __slots__ = ("value",)
    __match_args__ = ("value",)

    def __init__(self, value):
        self.value = value
        self.rank = 0
        self.max_nat = value
        self.width = 0
        self._key = (0, value)
        self._hash = _mix(11, value + 1, 0)


class Arrow(GElem):
    __slots__ = ("ante", "cons")
    __match_args__ = ("ante", "cons")

    def __init__(self, ante: "GSet", cons: GElem):
        self.ante = ante
        self.cons = cons
        a, c = ante.rank, cons.rank
        self.rank = 1 + (a if a > c else c)
        a, c = ante.max_nat, cons.max_nat
        self.max_nat = a if a > c else c
        w, a, c = len(ante.elems), ante.width, cons.width
        if a > w:
            w = a
        self.width = c if c > w else w
        self._key = (1, ante._key, cons._key)
        self._hash = _mix(12, ante._hash, cons._hash)


class GSet:
    """Canonical finite set of elements (sorted, duplicate-free).  Build
    one with gset(), which returns the one EMPTY_SET for every empty set.

    `rank`, `max_nat` and `width` are the largest over the members (0 for
    the empty set); `width` does not count the set's own size."""

    __slots__ = ("elems", "_hash", "_key", "rank", "max_nat", "width")

    def __init__(self, elems):
        # `elems` must be a tuple, already sorted and unique; use gset()
        # otherwise.  One pass gathers the bounds and the hash.
        self.elems = elems
        rank = max_nat = width = 0
        h = _mix(13, len(elems), 0)
        for e in elems:
            if e.rank > rank:
                rank = e.rank
            if e.max_nat > max_nat:
                max_nat = e.max_nat
            if e.width > width:
                width = e.width
            h = _mix(14, h, e._hash)
        self.rank = rank
        self.max_nat = max_nat
        self.width = width
        self._key = tuple([e._key for e in elems])
        self._hash = h

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, GSet):
            return NotImplemented
        return self._hash == other._hash and self._key == other._key

    def __iter__(self):
        return iter(self.elems)

    def __len__(self):
        return len(self.elems)

    def __getitem__(self, i):
        return self.elems[i]

    def __contains__(self, e):
        return e in self.elems  # linear; sets here are tiny

    def __repr__(self):
        return gset_to_text(self)

    def issubset(self, other: "GSet") -> bool:
        return all(e in other.elems for e in self.elems)

    def union(self, *others: "GSet") -> "GSet":
        merged = list(self.elems)
        for o in others:
            merged.extend(o.elems)
        return gset(merged)


_nat_cache = {}


def nat(value: int) -> Nat:
    """The natural `value`, a non-negative int (a bool is not one)."""
    if type(value) is not int:
        raise ValueError(f"naturals only: {value!r}")
    e = _nat_cache.get(value)
    if e is None:
        if value < 0:
            raise ValueError(f"naturals only: {value!r}")
        e = _nat_cache[value] = Nat(value)
    return e


EMPTY_SET = GSet(())


def gset(elems) -> GSet:
    """Canonicalize an iterable of GElem into a GSet.  Every empty set is
    the one EMPTY_SET; a single member needs no sorting."""
    elems = tuple(elems)
    if len(elems) > 1:
        uniq = {}
        for e in elems:
            uniq[e._key] = e
        return GSet(tuple(v for _, v in sorted(uniq.items())))
    return GSet(elems) if elems else EMPTY_SET


def arrow(ante, cons: GElem) -> Arrow:
    if not isinstance(ante, GSet):
        ante = gset(ante)
    return Arrow(ante, cons)


# ---------------------------------------------------------------------------
# Base membership patterns


def member_k(e: GElem) -> bool:
    """Is e of the form ({t} |-> ({} |-> t))?"""
    if not isinstance(e, Arrow) or len(e.ante) != 1:
        return False
    inner = e.cons
    if not isinstance(inner, Arrow) or len(inner.ante) != 0:
        return False
    return e.ante.elems[0] == inner.cons


def member_s(e: GElem) -> bool:
    """Is e an S-shaped arrow?

    The shape is ({tau |-> (R |-> s)} |-> (mid |-> (sigma |-> s))) where
    every member of mid is an arrow, R is exactly the set of consequents of
    mid, and sigma = tau union (union of the antecedents of mid) with
    tau a subset of sigma.  No search is needed: all pieces are read off e.
    Consequents of mid may repeat: repeats collapse in the sets.
    """
    if not isinstance(e, Arrow) or len(e.ante) != 1:
        return False
    u = e.ante.elems[0]
    if not isinstance(u, Arrow):
        return False
    tau = u.ante
    u2 = u.cons
    if not isinstance(u2, Arrow):
        return False
    r_set, s_left = u2.ante, u2.cons

    body = e.cons
    if not isinstance(body, Arrow):
        return False
    mid = body.ante
    body2 = body.cons
    if not isinstance(body2, Arrow):
        return False
    sigma, s_right = body2.ante, body2.cons

    if s_left != s_right:
        return False
    if not all(isinstance(a, Arrow) for a in mid):
        return False
    if gset(a.cons for a in mid) != r_set:
        return False
    if not tau.issubset(sigma):
        return False
    return tau.union(*(a.ante for a in mid)) == sigma


# ---------------------------------------------------------------------------
# Enumeration of the universe under bounds


def enumerate_g(max_rank: int, max_set_size: int, max_nat: int):
    """Every canonical element within the bounds, each exactly once,
    stratified by rank and canonically ordered within each stratum.

    Bounds: rank <= max_rank, every set has <= max_set_size members, every
    natural is <= max_nat.
    """
    level = [nat(v) for v in range(max_nat + 1)]
    yield from level
    pool = list(level)
    seen = {e._key for e in pool}
    for _ in range(max_rank):
        antes = [
            gset(combo)
            for size in range(min(max_set_size, len(pool)) + 1)
            for combo in itertools.combinations(pool, size)
        ]
        fresh = []
        for a in antes:
            for b in pool:
                e = Arrow(a, b)
                if e._key not in seen:
                    seen.add(e._key)
                    fresh.append(e)
        fresh.sort()
        yield from fresh
        pool.extend(fresh)


@lru_cache(maxsize=None)
def universe(max_rank: int, max_set_size: int, max_nat: int) -> tuple:
    """enumerate_g as a tuple, built once per bounds and shared by every
    caller that searches the bounded universe."""
    return tuple(enumerate_g(max_rank, max_set_size, max_nat))


def count_g(max_rank: int, max_set_size: int, max_nat: int, limit=None) -> int:
    """Count of enumerate_g without materializing it.

    Every element within rank r is a natural or an arrow whose pieces lie
    within rank r-1, so pool sizes satisfy
    p_0 = max_nat+1 and p_k = p_0 + subsets(p_{k-1}) * p_{k-1}.

    The count grows doubly exponentially with the rank.  Given a limit, it
    stops as soon as it passes the limit and returns limit + 1.
    """
    over = math.inf if limit is None else limit
    p0 = p = max_nat + 1
    for _ in range(max_rank):
        if p > over:
            break
        subsets = 0
        for k in range(min(max_set_size, p) + 1):
            subsets += math.comb(p, k)
            if p0 + subsets * p > over:
                break
        p = p0 + subsets * p
    return p if p <= over else limit + 1


# ---------------------------------------------------------------------------
# Text and JSON forms


def gelem_to_text(e: GElem) -> str:
    """The text form that parse_gelem reads, written with its own stack,
    so that an element of any depth is written."""
    out, work = [], [e]
    while work:
        node = work.pop()
        if isinstance(node, str):
            out.append(node)
        elif isinstance(node, Nat):
            out.append(str(node.value))
        else:
            out.append("({")
            work += (")", node.cons, "} -> ")
            for i, m in enumerate(reversed(node.ante.elems)):
                work += (",", m) if i else (m,)
    return "".join(out)


def gset_to_text(s: GSet) -> str:
    return "{" + ",".join(gelem_to_text(e) for e in s) + "}"


def gelem_json(e: GElem) -> str:
    """json.dumps(gelem_to_json(e), sort_keys=True), written with its own
    stack, so that an element of any depth is written."""
    out, work = [], [e]
    while work:
        node = work.pop()
        if isinstance(node, str):
            out.append(node)
        elif isinstance(node, Nat):
            out.append(f'{{"nat": {node.value}}}')
        else:
            out.append('{"arrow": {"elem": ')
            work.append("]}}")
            for i, m in enumerate(reversed(node.ante.elems)):
                work += (", ", m) if i else (m,)
            work += (', "set": [', node.cons)
    return "".join(out)


def gelem_to_json(e: GElem):
    if isinstance(e, Nat):
        return {"nat": e.value}
    return {
        "arrow": {
            "set": [gelem_to_json(m) for m in e.ante],
            "elem": gelem_to_json(e.cons),
        }
    }


class ElementSyntaxError(ValueError):
    pass


def gelem_from_json(obj) -> GElem:
    """Decode the JSON form written by gelem_to_json.

    The accepted shapes are exactly the two one-key objects

        {"nat": n}
        {"arrow": {"set": [e, ...], "elem": e}}

    where n is an int >= 0 (not a bool) and every e is itself an element
    object.  Anything else, at any depth, raises ElementSyntaxError, and
    so does an object nested deeper than the interpreter's recursion
    limit allows.
    """
    try:
        return _gelem_from_json(obj)
    except RecursionError:
        raise ElementSyntaxError("element object nested too deeply") from None


def _gelem_from_json(obj) -> GElem:
    if isinstance(obj, dict) and len(obj) == 1:
        if "nat" in obj:
            v = obj["nat"]
            if isinstance(v, int) and not isinstance(v, bool) and v >= 0:
                return nat(v)
        elif "arrow" in obj:
            inner = obj["arrow"]
            if (isinstance(inner, dict) and inner.keys() == {"set", "elem"}
                    and isinstance(inner["set"], list)):
                return arrow(
                    gset(_gelem_from_json(m) for m in inner["set"]),
                    _gelem_from_json(inner["elem"]),
                )
    raise ElementSyntaxError(f"bad element object: {obj!r}")


def parse_gelem(text: str) -> GElem:
    """Parse the text form: naturals as digits, arrows as
    "({e1,e2} -> e)" with "{}" for the empty set.  Text nested deeper
    than the interpreter's recursion limit allows raises
    ElementSyntaxError, like any other text that is not an element."""
    try:
        e, pos = _parse_elem(text, 0)
    except RecursionError:
        raise ElementSyntaxError("element text nested too deeply") from None
    pos = _skip_ws(text, pos)
    if pos != len(text):
        raise ElementSyntaxError(f"trailing input at {pos} in {text!r}")
    return e


# The parser's steps each take the text and a position in it, and return
# what they read with the position after it.

def _skip_ws(text, pos):
    while pos < len(text) and text[pos].isspace():
        pos += 1
    return pos


def _expect(text, pos, token):
    pos = _skip_ws(text, pos)
    if not text.startswith(token, pos):
        raise ElementSyntaxError(f"expected {token!r} at {pos} in {text!r}")
    return pos + len(token)


def _parse_elem(text, pos):
    pos = j = _skip_ws(text, pos)
    while j < len(text) and text[j] in DIGITS:
        j += 1
    if j > pos:
        try:
            return nat(int(text[pos:j])), j
        except ValueError:  # more digits than int() converts
            raise ElementSyntaxError(f"number too long at {pos}") from None
    members, pos = _parse_set(text, _expect(text, pos, "("))
    cons, pos = _parse_elem(text, _expect(text, pos, "->"))
    return arrow(members, cons), _expect(text, pos, ")")


def _parse_set(text, pos):
    pos = _skip_ws(text, _expect(text, pos, "{"))
    if text.startswith("}", pos):
        return EMPTY_SET, pos + 1
    members = []
    while True:
        e, pos = _parse_elem(text, pos)
        members.append(e)
        pos = _skip_ws(text, pos)
        if not text.startswith(",", pos):
            return gset(members), _expect(text, pos, "}")
        pos += 1


# ---------------------------------------------------------------------------
# Set expressions and application


@dataclass(frozen=True)
class Extensional:
    elements: GSet


@dataclass(frozen=True)
class Denotation:
    term: Term  # closed, atoms K and S only


@dataclass(frozen=True)
class ApplyExpr:
    fn: object
    arg: object


@dataclass(frozen=True)
class Bounds:
    """Enumeration bounds used wherever an infinite set must be cut off."""

    max_rank: int = 3
    max_set_size: int = 2
    max_nat: int = 1
    max_arity: int = 3


@dataclass(frozen=True)
class EvalResult:
    elements: GSet
    truncated: bool


def extensional_bullet(m: GSet, fn_arg: GSet) -> GSet:
    """M . N for explicit finite sets: collect consequents of arrows in M
    whose antecedent is contained in N.  Exact."""
    out = []
    for e in m:
        if isinstance(e, Arrow) and e.ante.issubset(fn_arg):
            out.append(e.cons)
    return gset(out)


def eval_setexpr(x, bounds: Bounds = Bounds()) -> EvalResult:
    """Evaluate Extensional / Denotation / ApplyExpr trees to a finite set
    with an explicit truncation flag."""
    if isinstance(x, Extensional):
        return EvalResult(x.elements, False)
    if isinstance(x, Denotation):
        # A bare denotation is infinite; enumerate under bounds and say so.
        from .templates import enumerate_template, template_of

        elems, _ = enumerate_template(template_of(x.term), bounds)
        return EvalResult(gset(elems), True)
    if isinstance(x, ApplyExpr):
        head, args = x, []
        while isinstance(head, ApplyExpr):
            args.append(head.arg)
            head = head.fn
        args.reverse()
        truncated = False
        arg_sets = []
        for a in args:
            r = eval_setexpr(a, bounds)
            truncated = truncated or r.truncated
            arg_sets.append(r.elements)
        if isinstance(head, Extensional):
            acc = head.elements
            for s in arg_sets:
                acc = extensional_bullet(acc, s)
            return _restrict(acc, bounds, truncated)
        if isinstance(head, Denotation):
            from .templates import apply_template_chain, template_of

            elems, trunc = apply_template_chain(
                template_of(head.term), arg_sets, bounds
            )
            return _restrict(gset(elems), bounds, truncated or trunc)
        raise TypeError(f"cannot evaluate {head!r}")
    raise TypeError(f"cannot evaluate {x!r}")


def _restrict(elements: GSet, bounds: Bounds, truncated: bool) -> EvalResult:
    kept = [e for e in elements if e.rank <= bounds.max_rank]
    if len(kept) != len(elements):
        truncated = True
    return EvalResult(gset(kept), truncated)
