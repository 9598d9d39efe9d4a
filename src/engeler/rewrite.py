"""One-step contraction, leftmost-outermost reduction, and bounded search
over the full rewrite relation.

Positions are paths of 'left'/'right' moves addressing the application node
that spans an atom together with exactly its rule's number of arguments.
`reduces_to` explores every redex choice breadth-first under fuel (path
length) and width (frontier size) bounds, so a negative answer always means
"not found within bounds", never a proof.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .terms import App, Atom, Term, Var, app, spine, var

RULE_ARITY = {"K": 2, "S": 3, "B": 3, "I": 1, "J": 4, "L": 2, "M": 1}

DEFAULT_FUEL = 10_000
DEFAULT_WIDTH = 10_000

NORMAL_FORM = "normal-form"
FUEL_EXHAUSTED = "fuel-exhausted"
CYCLE_DETECTED = "cycle-detected"


class RedexError(ValueError):
    pass


def _contract_spine(head: Atom, args: list) -> Term:
    """Contractum of an atom applied to exactly its arity of arguments."""
    name = head.name
    if name == "K":
        a, b = args
        return a
    if name == "S":
        a, b, c = args
        return App(App(a, c), App(b, c))
    if name == "B":
        a, b, c = args
        return App(a, App(b, c))
    if name == "I":
        return args[0]
    if name == "J":
        a, b, c, d = args
        return App(App(a, b), App(App(a, d), c))
    if name == "L":
        a, b = args
        return App(a, App(b, b))
    if name == "M":
        return App(args[0], args[0])
    raise RedexError(f"no rule for atom {name!r}")


def _redex_parts(t: Term):
    """(head, args) if t spans exactly one full redex, else None."""
    if not isinstance(t, App):
        return None
    head, args = spine(t)
    if isinstance(head, Atom) and RULE_ARITY.get(head.name) == len(args):
        return head, args
    return None


def _redex_paths(t: Term):
    """Redex positions in leftmost-outermost order (preorder), lazily."""
    work = [(t, ())]
    while work:
        node, path = work.pop()
        if not isinstance(node, App):
            continue
        if _redex_parts(node) is not None:
            yield path
        work.append((node.right, path + ("right",)))
        work.append((node.left, path + ("left",)))


def find_redexes(t: Term):
    """All redex positions in leftmost-outermost order (preorder)."""
    return list(_redex_paths(t))


def _first_redex(t: Term):
    return next(_redex_paths(t), None)


def contract(t: Term, path) -> Term:
    """Contract the redex at `path`; error if the path is not a redex."""
    if not path:
        parts = _redex_parts(t)
        if parts is None:
            raise RedexError("not a redex at the given position")
        return _contract_spine(*parts)
    step, rest = path[0], path[1:]
    if not isinstance(t, App):
        raise RedexError(f"path {list(path)} leaves the term")
    if step == "left":
        return App(contract(t.left, rest), t.right)
    if step == "right":
        return App(t.left, contract(t.right, rest))
    raise RedexError(f"bad path step {step!r}")


def one_step_reducts(t: Term):
    """All terms reachable by contracting a single redex, in redex order."""
    return [contract(t, p) for p in find_redexes(t)]


@dataclass(frozen=True)
class ReductionStep:
    term: Term
    redex: tuple


@dataclass(frozen=True)
class ReductionTrace:
    steps: tuple
    outcome: str
    final: Term

    def __len__(self):
        return len(self.steps)

    def to_json(self):
        from .terms import term_to_json

        out = [
            {"term": term_to_json(s.term), "redex": list(s.redex)}
            for s in self.steps
        ]
        out.append({"outcome": self.outcome, "final": term_to_json(self.final)})
        return out


def reduce(t: Term, fuel: int = DEFAULT_FUEL) -> ReductionTrace:
    """Deterministic leftmost-outermost reduction.

    Stops at a normal form, at fuel exhaustion, or on the first revisit of a
    term already seen in the trace (cycle-detected).
    """
    steps = []
    seen = {t}
    current = t
    while True:
        pos = _first_redex(current)
        if pos is None:
            return ReductionTrace(tuple(steps), NORMAL_FORM, current)
        if len(steps) >= fuel:
            return ReductionTrace(tuple(steps), FUEL_EXHAUSTED, current)
        steps.append(ReductionStep(current, pos))
        current = contract(current, pos)
        if current in seen:
            return ReductionTrace(tuple(steps), CYCLE_DETECTED, current)
        seen.add(current)


def normal_form(t: Term, fuel: int = DEFAULT_FUEL):
    """(normal form, True) or (last term reached, False)."""
    trace = reduce(t, fuel)
    return trace.final, trace.outcome == NORMAL_FORM


# ---------------------------------------------------------------------------
# Bounded search over all redex choices


def _sort_key(t):
    return (t.size, t._hash)


def _reduces_to_py(x: Term, y: Term, fuel: int, width: int) -> bool:
    if x == y:
        return True
    frontier = [x]
    visited = {x}
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
        frontier = sorted(nxt, key=_sort_key)[:width]
        visited.update(frontier)
    return False


# Backend selection: the compiled kernel accelerates reduces_to; set
# ENGELER_PURE=1 to force the pure-Python path.
_kernel = None
if not os.environ.get("ENGELER_PURE"):
    try:
        from . import _reduction as _kernel  # type: ignore
    except ImportError:
        _kernel = None

BACKEND = "compiled" if _kernel is not None else "python"


def _to_tuples(t: Term):
    if isinstance(t, Atom):
        return t.name
    if isinstance(t, Var):
        return t.index
    return (_to_tuples(t.left), _to_tuples(t.right))


def reduces_to(
    x: Term, y: Term, fuel: int = DEFAULT_FUEL, width: int = DEFAULT_WIDTH
) -> bool:
    """Bounded breadth-first reachability in the rewrite relation.

    True means a rewrite path exists; False only means none was found
    within `fuel` levels and `width` frontier entries per level.
    """
    if _kernel is not None:
        return bool(_kernel.reaches(_to_tuples(x), _to_tuples(y), fuel, width))
    return _reduces_to_py(x, y, fuel, width)


YES = "yes"
NO_WITHIN_BOUNDS = "no-within-bounds"


def identity_behavior(
    sigma: Term, fuel: int = DEFAULT_FUEL, width: int = DEFAULT_WIDTH
) -> str:
    """Does sigma applied to a fresh variable rewrite to that variable?

    Returns 'yes' or 'no-within-bounds'.  Rejects open terms: the probe
    variable must be fresh by construction.
    """
    from .terms import term_stats

    if term_stats(sigma)["var_count"]:
        raise ValueError("identity_behavior expects a closed term")
    x = var(0)
    found = reduces_to(App(sigma, x), x, fuel, width)
    return YES if found else NO_WITHIN_BOUNDS
