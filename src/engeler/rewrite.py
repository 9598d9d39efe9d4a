"""One-step contraction, leftmost-outermost reduction, and bounded search
over the full rewrite relation.

A position is a path of 'left'/'right' moves to a node.  On a spine
``h a1 … an`` only the node applying h to exactly its arity (from
`RULES`) of arguments can be a redex, and it precedes the arguments in
preorder; so `find_redexes` takes each spine apart once, keeps its own
stack, and lists the positions leftmost-outermost first without building
a term.  `contract` walks down its path and rebuilds only the nodes on
it, sharing every subtree the contraction leaves alone.

`reduce` walks the term as a zipper: a *focus*, the spine being
head-reduced, and a persistent *context* of frames for the spines above
it, whose heads and arguments left of the hole are already normal.  While
the focus's head takes all its arguments, the redex is contracted in
place and nothing outside the focus is rebuilt.  Once the head is a
variable or takes more arguments than it has, nothing above the focus or
left of it can change again, because every `RULES` pattern is all
variables; so the focus moves into the spine's first compound argument,
then to the next one as each becomes normal, and climbs back out of a
spine whose arguments are all normal.  A focus position is never
revisited once left, and the leftmost-outermost redex fixes the focus
position, so two whole terms of a trace are equal exactly when their foci
are: the cycle check keeps a set of the foci seen at the current position
and starts it afresh when the focus moves.  A step holds its focus and
context, whose frames are those `_plug` and `_path` read, and
`ReductionStep.term` and `.redex` are built from them the first time
each is read.  `reduce` and `normal_form` run the same loop; `normal_form`
keeps no steps, so it holds only the current focus and its context.

`reduces_to` explores every redex choice breadth-first under fuel (path
length) and width (frontier size) bounds, so a negative answer always
means "not found within bounds", never a proof.  The pure-Python search
keeps two tables for one call.  One maps each App node, by id, to its
one-step reducts in preorder (its own contraction, then its left side's,
then its right side's); it is filled post-order with its own stack, so a
node shared by many frontier terms is expanded once.  The other
hash-conses every node the search builds, as the compiled kernel's arena
does: it maps the ids of two children to the one App made from them,
so equal reducts are one object and set lookups match on identity
without walking terms.  Each table holds its nodes, so no id is
reused while they live, and both are dropped on return.  This is not the
global interning of terms that was tried and rejected: nothing outlives
the call, the input term is not canonicalised, and `reduce`, `contract`
and `one_step_reducts` give the contracta in `RULES` plain `App`.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

from .terms import App, Atom, Term, term_stats, var

# atom name -> (arity, contractum of (node constructor, *that many arguments))
RULES = {
    "K": (2, lambda app, a, b: a),
    "S": (3, lambda app, a, b, c: app(app(a, c), app(b, c))),
    "B": (3, lambda app, a, b, c: app(a, app(b, c))),
    "I": (1, lambda app, a: a),
    "J": (4, lambda app, a, b, c, d: app(app(a, b), app(app(a, d), c))),
    "L": (2, lambda app, a, b: app(a, app(b, b))),
    "M": (1, lambda app, a: app(a, a)),
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
    a frame (nodes, k, ctx, base) whose hole nodes[k].right holds this
    spine, with `base` in place of nodes[k].left."""
    while True:
        for j in range(k - 1, -1, -1):
            t = App(t, nodes[j].right)
        if ctx is None:
            return t
        nodes, k, ctx, base = ctx
        t = App(base, t)


def _path(lefts, ctx) -> tuple:
    """Path of the node `lefts` steps down the spine that `ctx` holds."""
    steps = ["left"] * lefts
    while ctx is not None:
        _, k, ctx, _ = ctx
        steps += ["right"] + ["left"] * k
    return tuple(reversed(steps))


def find_redexes(t: Term):
    """All redex positions in leftmost-outermost order (preorder)."""
    out = []
    work = [(t, None)]  # a spine and its context, a frame as in `_plug`
    while work:
        node, ctx = work.pop()
        nodes = []
        while isinstance(node, App):
            nodes.append(node)
            node = node.left
        if isinstance(node, Atom):
            lefts = len(nodes) - RULES[node.name][0]
            if lefts >= 0:
                out.append(_path(lefts, ctx))
        # the first argument is pushed last, so it is walked first
        for k, n in enumerate(nodes):
            if isinstance(n.right, App):
                work.append((n.right, (nodes, k, ctx, n.left)))
    return out


def contract(t: Term, path) -> Term:
    """Contract the redex at `path`; error if the path is not a redex."""
    path = tuple(path)
    node, above = t, []  # above: (node, step) for each node over the redex
    for step in path:
        if not isinstance(node, App) or step not in ("left", "right"):
            raise RedexError(f"no redex at path {list(path)}")
        above.append((node, step))
        node = node.left if step == "left" else node.right
    head, args = node, 0
    while isinstance(head, App):
        head, args = head.left, args + 1
    if not isinstance(head, Atom) or RULES[head.name][0] != args:
        raise RedexError(f"no redex at path {list(path)}")
    out = _contractum(node, App)
    for parent, step in reversed(above):
        out = App(out, parent.right) if step == "left" else App(parent.left, out)
    return out


# atom name -> how many more arguments make it a redex's head
_NEED = {name: arity - 1 for name, (arity, _) in RULES.items()}


def _contractum(redex: App, app) -> Term:
    """The contraction of `redex`, a node whose `need` is 0, with its new
    nodes built by `app`."""
    args = []
    while type(redex) is App:
        args.append(redex.right)
        redex = redex.left
    return RULES[redex.name][1](app, *reversed(args))


def _table_reducts(t: Term, table: dict, app):
    """The one-step reducts of t in redex order (preorder): t's own
    contraction, then app(l', r) for each reduct l' of its left side, then
    app(l, r') for each reduct r' of its right side; `app` builds every
    new node.

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
        key = id(node)
        if key in table:  # a shared node pushed twice
            continue
        out = [_contractum(node, app)] if need == 0 else []
        if lreds:
            out += [app(l, right) for l in lreds]
        if rreds:
            out += [app(left, r) for r in rreds]
        table[key] = (node, out, need)
    return table[id(t)][1]


def one_step_reducts(t: Term):
    """All terms reachable by contracting a single redex, in redex order."""
    return list(_table_reducts(t, {}, App))


class ReductionStep:
    """One step of a trace: the whole `term` before the step and the path
    `redex` to the node it contracts.  `reduce` gives the step its focus,
    the focus's context and `lefts`, how far down the focus's spine the
    redex lies; the term and the path are built the first time each is
    read, and kept."""

    __slots__ = ("_focus", "_context", "_lefts", "_term", "_redex")

    def __init__(self, focus: Term, context, lefts: int):
        self._focus, self._context, self._lefts = focus, context, lefts
        self._term = self._redex = None

    @property
    def term(self) -> Term:
        if self._term is None:
            self._term = _plug(self._focus, (), 0, self._context)
        return self._term

    @property
    def redex(self) -> tuple:
        if self._redex is None:
            self._redex = _path(self._lefts, self._context)
        return self._redex

    def __eq__(self, other):
        if not isinstance(other, ReductionStep):
            return NotImplemented
        return self.redex == other.redex and self.term == other.term

    def __hash__(self):
        return hash((self.term, self.redex))

    def __repr__(self):
        return f"ReductionStep(term={self.term!r}, redex={self.redex!r})"


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
    outcome, final = _leftmost_outermost(t, fuel, steps.append)
    return ReductionTrace(tuple(steps), outcome, final)


def normal_form(t: Term, fuel: int = DEFAULT_FUEL):
    """(normal form, True) or (last term reached, False).  Keeps no
    steps, so it holds only the term being reduced."""
    outcome, final = _leftmost_outermost(t, fuel)
    return final, outcome == NORMAL_FORM


def _leftmost_outermost(t: Term, fuel: int, record=None):
    """The reduction loop of `reduce`: returns (outcome, final), and
    passes each step to `record`, when given, before taking it."""
    taken = 0
    # the focus subterm and its context (a frame as in `_plug`); the foci
    # seen at this position (None until the first contraction here)
    focus, context, seen = t, None, None
    while True:
        nodes = []
        head = focus
        while type(head) is App:
            nodes.append(head)
            head = head.left
        if type(head) is Atom:
            arity, rule = RULES[head.name]
            lefts = len(nodes) - arity
            if lefts >= 0:  # nodes[lefts] is the leftmost-outermost redex
                if taken >= fuel:
                    return FUEL_EXHAUSTED, _plug(focus, (), 0, context)
                taken += 1
                if record is not None:
                    record(ReductionStep(focus, context, lefts))
                if seen is None:
                    seen = {focus}
                focus = rule(App, *[n.right for n in reversed(nodes[lefts:])])
                for j in range(lefts - 1, -1, -1):
                    focus = App(focus, nodes[j].right)
                # Whole terms are equal iff their foci are: the position
                # of the leftmost-outermost redex fixes the focus position,
                # the context is the rest of the term, and the focus never
                # comes back to a position it has left.
                if focus in seen:
                    return CYCLE_DETECTED, _plug(focus, (), 0, context)
                seen.add(focus)
                continue
        # The head is a variable or takes more arguments than it has, and
        # every RULES pattern is all variables, so this spine's head and
        # whatever lies above or left of it stay as they are.  Move the
        # focus into the next compound argument, climbing out of each
        # spine whose arguments are all normal; `base` is the normal
        # spine built so far, the node itself while nothing changed.
        base, k, parent = head, len(nodes), context
        while True:
            for k in range(k - 1, -1, -1):
                node = nodes[k]
                if type(node.right) is App:
                    break
                base = node if base is node.left else App(base, node.right)
            else:
                if parent is None:
                    return NORMAL_FORM, base
                value = base
                nodes, k, parent, base = parent
                node = nodes[k]
                if base is not node.left or value is not node.right:
                    node = App(base, value)
                base = node
                continue
            break
        context = (nodes, k, parent, base)
        focus, seen = node.right, None


# ---------------------------------------------------------------------------
# Bounded search over all redex choices


_FRONTIER_ORDER = attrgetter("size", "_hash")  # the compiled kernel's order


def _reduces_to_py(x: Term, y: Term, fuel: int, width: int) -> bool:
    if x == y:
        return True
    frontier = [x]
    visited = {x}
    table = {}  # frontier terms share most nodes; expand each node once
    nodes = {}  # the ids of two children -> the one App built from them

    def cons(left, right):
        # an id fits in 64 bits, so one int names the pair; it holds
        # less than a tuple of two
        key = id(left) << 64 | id(right)
        node = nodes.get(key)
        if node is None:
            node = nodes[key] = App(left, right)
        return node

    for _ in range(fuel):
        nxt = set()
        for t in frontier:
            for r in _table_reducts(t, table, cons):
                # the hash first: == is a Python call, and most reducts fail it
                if r is y or r._hash == y._hash and r == y:
                    return True
                if r not in visited:
                    nxt.add(r)
        if not nxt:
            return False
        frontier = sorted(nxt, key=_FRONTIER_ORDER)[:width]
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
