"""One-step contraction, leftmost-outermost reduction, and bounded search
over the full rewrite relation.

`_reducts` is the redex walk that `reduce`, `find_redexes` and `contract`
read.  On a spine ``h a1 … an`` only the node applying h to exactly its
arity (from `RULES`) of arguments can be a redex, and it precedes the
arguments in preorder; so the walk takes each spine apart once, keeps its
own stack, and yields each reduct leftmost-outermost first, sharing every
subtree its contraction leaves alone.  A position is a path of
'left'/'right' moves to the redex node.

`reduces_to` explores every redex choice breadth-first under fuel (path
length) and width (frontier size) bounds, so a negative answer always
means "not found within bounds", never a proof.  Frontier terms share
nearly all their nodes, so the search expands terms through a table that
lives for one call: it maps each App node, by id, to the node's one-step
reducts in preorder (the node's own contraction, then those of its left
side, then those of its right side), and is filled post-order with its
own stack, so a node shared by many frontier terms is expanded once.
Each entry holds its node, so no id is reused while the table lives;
the table is dropped when the search returns.  `one_step_reducts` reads
the same walk with a fresh table.
"""

from __future__ import annotations

from dataclasses import dataclass

from .terms import App, Atom, Term, term_stats, var

# atom name -> (arity, contractum of the atom applied to that many arguments)
RULES = {
    "K": (2, lambda a, b: a),
    "S": (3, lambda a, b, c: App(App(a, c), App(b, c))),
    "B": (3, lambda a, b, c: App(a, App(b, c))),
    "I": (1, lambda a: a),
    "J": (4, lambda a, b, c, d: App(App(a, b), App(App(a, d), c))),
    "L": (2, lambda a, b: App(a, App(b, b))),
    "M": (1, lambda a: App(a, a)),
}

DEFAULT_FUEL = 10_000
DEFAULT_WIDTH = 10_000

NORMAL_FORM = "normal-form"
FUEL_EXHAUSTED = "fuel-exhausted"
CYCLE_DETECTED = "cycle-detected"


class RedexError(ValueError):
    pass


def _plug(t: Term, nodes, k, ctx) -> Term:
    """The whole term with t in place of nodes[k].  `nodes` lists a spine's
    application nodes top down; the context `ctx` is None at the root, else
    the (nodes, k, ctx) whose nodes[k].right holds this spine."""
    while True:
        for j in range(k - 1, -1, -1):
            t = App(t, nodes[j].right)
        if ctx is None:
            return t
        nodes, k, ctx = ctx
        t = App(nodes[k].left, t)


def _path(lefts, ctx) -> tuple:
    """Path of the node `lefts` steps down the spine that `ctx` holds."""
    steps = ["left"] * lefts
    while ctx is not None:
        _, k, ctx = ctx
        steps += ["right"] + ["left"] * k
    return tuple(reversed(steps))


def _reducts(t: Term):
    """((lefts, ctx), reduct) for each redex of t, leftmost-outermost
    first; `_path(lefts, ctx)` is the redex's path."""
    work = [(t, None)]
    while work:
        node, ctx = work.pop()
        nodes = []
        while isinstance(node, App):
            nodes.append(node)
            node = node.left
        if isinstance(node, Atom):
            arity, rule = RULES[node.name]
            lefts = len(nodes) - arity
            if lefts >= 0:
                args = [n.right for n in reversed(nodes[lefts:])]
                yield (lefts, ctx), _plug(rule(*args), nodes, lefts, ctx)
        # the first argument is pushed last, so it is walked first
        for k, n in enumerate(nodes):
            if isinstance(n.right, App):
                work.append((n.right, (nodes, k, ctx)))


def find_redexes(t: Term):
    """All redex positions in leftmost-outermost order (preorder)."""
    return [_path(*pos) for pos, _ in _reducts(t)]


def contract(t: Term, path) -> Term:
    """Contract the redex at `path`; error if the path is not a redex."""
    path = tuple(path)
    for pos, reduct in _reducts(t):
        if _path(*pos) == path:
            return reduct
    raise RedexError(f"no redex at path {list(path)}")


# atom name -> how many more arguments make it a redex's head
_NEED = {name: arity - 1 for name, (arity, _) in RULES.items()}


def _contractum(redex: App) -> Term:
    """The contraction of `redex`, a node whose `need` is 0."""
    args = []
    while type(redex) is App:
        args.append(redex.right)
        redex = redex.left
    return RULES[redex.name][1](*reversed(args))


def _table_reducts(t: Term, table: dict):
    """The one-step reducts of t in redex order (preorder): t's own
    contraction, then App(l', r) for each reduct l' of its left side, then
    App(l, r') for each reduct r' of its right side.

    `table` maps id(node) to (node, reducts, need) for every App node seen
    so far, where `need` is how many more arguments the node's head takes
    before it is a redex (0: the node is one; negative: never).  It is
    filled post-order with its own stack, so a node shared by many terms
    is expanded once; the node in each entry keeps its id from being
    reused while the table lives.  A leaf has no reducts and no entry.
    The search spends its time here, hence `type(...) is` over isinstance."""
    if type(t) is not App:
        return ()
    work = [t]
    while work:
        node = work[-1]
        left, right = node.left, node.right
        if type(left) is App:
            entry = table.get(id(left))
            if entry is None:
                work.append(left)
                if type(right) is App and id(right) not in table:
                    work.append(right)
                continue
            _, lreds, need = entry
            need -= 1
        else:
            lreds = ()
            need = _NEED[left.name] if type(left) is Atom else -1
        if type(right) is App:
            entry = table.get(id(right))
            if entry is None:
                work.append(right)
                continue
            rreds = entry[1]
        else:
            rreds = ()
        work.pop()
        if id(node) in table:  # a shared node pushed twice
            continue
        out = [_contractum(node)] if need == 0 else []
        if lreds:
            out += [App(l, right) for l in lreds]
        if rreds:
            out += [App(left, r) for r in rreds]
        table[id(node)] = (node, out, need)
    return table[id(t)][1]


def one_step_reducts(t: Term):
    """All terms reachable by contracting a single redex, in redex order."""
    return list(_table_reducts(t, {}))


@dataclass(frozen=True)
class ReductionStep:
    term: Term
    redex: tuple


@dataclass(frozen=True)
class ReductionTrace:
    steps: tuple
    outcome: str
    final: Term


def reduce(t: Term, fuel: int = DEFAULT_FUEL) -> ReductionTrace:
    """Deterministic leftmost-outermost reduction.

    Stops at a normal form, at fuel exhaustion, or on the first revisit of a
    term already seen in the trace (cycle-detected).
    """
    steps = []
    seen = {t}
    current = t
    while True:
        first = next(_reducts(current), None)
        if first is None:
            return ReductionTrace(tuple(steps), NORMAL_FORM, current)
        if len(steps) >= fuel:
            return ReductionTrace(tuple(steps), FUEL_EXHAUSTED, current)
        steps.append(ReductionStep(current, _path(*first[0])))
        current = first[1]
        if current in seen:
            return ReductionTrace(tuple(steps), CYCLE_DETECTED, current)
        seen.add(current)


def normal_form(t: Term, fuel: int = DEFAULT_FUEL):
    """(normal form, True) or (last term reached, False)."""
    trace = reduce(t, fuel)
    return trace.final, trace.outcome == NORMAL_FORM


# ---------------------------------------------------------------------------
# Bounded search over all redex choices


def _reduces_to_py(x: Term, y: Term, fuel: int, width: int) -> bool:
    if x == y:
        return True
    frontier = [x]
    visited = {x}
    table = {}  # frontier terms share most nodes; expand each node once
    for _ in range(fuel):
        nxt = set()
        for t in frontier:
            for r in _table_reducts(t, table):
                if r == y:
                    return True
                if r not in visited:
                    nxt.add(r)
        if not nxt:
            return False
        frontier = sorted(nxt, key=lambda r: (r.size, r._hash))[:width]
        visited.update(frontier)
    return False


# The compiled kernel, when it is built, accelerates reduces_to.
try:
    from . import _reduction as _kernel  # type: ignore
except ImportError:
    _kernel = None

BACKEND = "compiled" if _kernel is not None else "python"


def _to_tuples(t: Term):
    """The kernel's input form: an atom name, a variable index or a
    (left, right) pair; built with its own stack."""
    done, work = [], [t]
    while work:
        node = work.pop()
        if isinstance(node, App):
            work += (None, node.right, node.left)
        elif node is not None:
            done.append(node.name if isinstance(node, Atom) else node.index)
        else:  # None marks a pair whose two sides are done
            right = done.pop()
            done[-1] = (done[-1], right)
    return done[0]


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
    if term_stats(sigma)["var_count"]:
        raise ValueError("identity_behavior expects a closed term")
    x = var(0)
    found = reduces_to(App(sigma, x), x, fuel, width)
    return YES if found else NO_WITHIN_BOUNDS
