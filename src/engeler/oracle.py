"""Brute-force denotation membership, independent of the template route.

Membership of e in the denotation of an application F A is decided from
the definition alone: some finite antecedent set alpha must satisfy
alpha subset-of den(A) and (alpha |-> e) in den(F).

When F is one of the atoms the required alpha can be read off the shape
of e directly, with no search:

* e in den(K A)  iff  e = ({} |-> c) and c in den(A); the witness
  antecedent is forced to be {c}.
* e in den(S A)  iff  e = (mid |-> (sigma |-> s)) with mid a set of
  arrows whose sources are covered by sigma, and some arrow
  (tau |-> (snds(mid) |-> s)) with sigma \\ fsts(mid) <= tau <= sigma
  lies in den(A).  Only the finitely many tau vary.

For a compound operator the antecedent is searched exhaustively over a
bounded candidate universe: the configured enumeration of the model,
the transitive pieces of the element under test, and (for the top-level
query only) arrows assembled from those pieces.  The assembly layers
matter because witnesses regularly sit one arrow above the element they
certify and need not occur inside it.  A negative answer therefore means
"no witness within the searched universe"; the agreement suites pin
bounds under which this search and the symbolic route coincide.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations

from .model import Arrow, GElem, gset, member_k, member_s, universe
from .terms import App, Atom, Term

_K = "K"
_S = "S"


@dataclass(frozen=True)
class OracleBounds:
    max_rank: int = 2
    max_set_size: int = 2
    max_nat: int = 1
    ante_cap: int = 3  # max size of a blindly searched antecedent set


def subelements(e: GElem):
    """e together with every element reachable through antecedents and
    consequents."""
    seen = {}
    work = [e]
    while work:
        x = work.pop()
        if x in seen:
            continue
        seen[x] = None  # a dict keeps the order of first visits
        if isinstance(x, Arrow):
            work.append(x.cons)
            work.extend(x.ante)
    return list(seen)


def _tau_choices(sigma, fsts_union):
    """All tau with sigma minus fsts <= tau <= sigma (as element lists)."""
    required = [x for x in sigma if x not in fsts_union]
    optional = [x for x in sigma if x in fsts_union]
    for k in range(len(optional) + 1):
        for extra in combinations(optional, k):
            yield gset(required + list(extra))


class Oracle:
    """Memoizing membership oracle over a bounded candidate universe."""

    def __init__(self, bounds: OracleBounds = OracleBounds()):
        self.bounds = bounds
        self.universe = universe(bounds.max_rank, bounds.max_set_size, bounds.max_nat)
        self._in_universe = set(self.universe)
        self._members = {}  # (term, elem) -> bool
        self._den = {}  # term -> members of den(term) within the universe

    def member(self, t: Term, e: GElem) -> bool:
        """Decide e in den(t) for a closed term over K and S."""
        return self._member(t, e, rich=True)

    def _member(self, t: Term, e: GElem, rich: bool) -> bool:
        # memo values: True, or the search level (0 lean / 1 rich) that
        # already failed -- a rich pass may upgrade a lean negative
        memo_key = (t, e)
        cached = self._members.get(memo_key)
        if cached is True:
            return True
        if cached == 1 or (cached == 0 and not rich):
            return False
        result = self._decide(t, e, rich)
        self._members[memo_key] = True if result else (1 if rich else 0)
        return result

    def _decide(self, t: Term, e: GElem, rich: bool) -> bool:
        if isinstance(t, Atom):
            if t.name == _K:
                return member_k(e)
            if t.name == _S:
                return member_s(e)
            raise ValueError(f"oracle handles K/S terms only, got atom {t.name}")
        if not isinstance(t, App):
            raise ValueError("oracle handles closed applicative terms only")
        fn, arg = t.left, t.right

        if isinstance(fn, Atom) and fn.name == _K:
            # forced witness: e = ({} |-> c) with c in den(arg)
            return (
                isinstance(e, Arrow)
                and len(e.ante) == 0
                and self._member(arg, e.cons, rich)
            )
        if isinstance(fn, Atom) and fn.name == _S:
            return self._s_head(arg, e, rich)

        if self._member(fn, Arrow(gset(()), e), False):
            return True
        candidates = list(self._denotation_within(arg))
        seen = set(self._in_universe)
        for extra in self._extra_candidates(e, rich):
            if extra not in seen:
                seen.add(extra)
                if self._member(arg, extra, False):
                    candidates.append(extra)
        cap = min(self.bounds.ante_cap, len(candidates))
        for size in range(1, cap + 1):
            for combo in combinations(candidates, size):
                if self._member(fn, Arrow(gset(combo), e), False):
                    return True
        return False

    def _s_head(self, arg: Term, e: GElem, rich: bool) -> bool:
        if not isinstance(e, Arrow) or not isinstance(e.cons, Arrow):
            return False
        mid = e.ante
        if not all(isinstance(x, Arrow) for x in mid):
            return False
        sigma, s = e.cons.ante, e.cons.cons
        fsts = set()
        for x in mid:
            for y in x.ante:
                fsts.add(y)
                if y not in sigma:
                    return False  # sources must be covered by sigma
        snds = gset(tuple(x.cons for x in mid))
        for tau in _tau_choices(sigma, fsts):
            witness = Arrow(tau, Arrow(snds, s))
            if self._member(arg, witness, rich):
                return True
        return False

    def _extra_candidates(self, e: GElem, rich: bool):
        """The element's own pieces; for a rich search also arrows
        assembled from them, one and two layers deep."""
        subs = subelements(e)
        if not rich:
            return subs
        width = max(self.bounds.max_set_size, e.width)
        antes = [
            gset(c) for k in range(0, width + 1) for c in combinations(subs, k)
        ]
        layer1 = [Arrow(f, x) for f in antes for x in subs]
        layer2 = (Arrow(f, a) for f in antes for a in layer1)
        return chain(subs, layer1, layer2)

    def _denotation_within(self, t: Term):
        cached = self._den.get(t)
        if cached is None:
            cached = tuple(m for m in self.universe if self._member(t, m, False))
            self._den[t] = cached
        return cached


def member_oracle(t: Term, e: GElem, bounds: OracleBounds = OracleBounds()) -> bool:
    """One-shot wrapper around Oracle for casual use.  Its memo lives for
    the call; the bounded universe is built once per bounds (model.universe)."""
    return Oracle(bounds).member(t, e)
