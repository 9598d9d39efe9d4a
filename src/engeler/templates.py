"""Symbolic element-shape descriptions for denotations of K/S terms.

A template is a pattern standing for the family of graph-model elements
in a term's denotation: a root element pattern plus retained set-equation
constraints that could not be resolved during composition.  Application
of terms becomes composition of templates; membership and (bounded)
enumeration are decided by structural matching against the pattern.  The
matcher decides every union of set parts by one cover search, which tries
each split of the target set among the open parts, up to one bound on the
number of splits (`_MAX_SPLITS`).

Pattern inventory
-----------------
element patterns   EVar, ArrowPat, a concrete element (GElem)
set patterns       SVar, ExplicitPat, FamilyPat, UnionPat, a concrete set (GSet)
arity              AVar (with a lower bound), or a concrete int

A concrete element or set is a ground pattern that matches only itself.
Composition never builds one.  `_concretize`, which puts the values of a
concrete binding in place, is the one place where a ground pattern
becomes a value: a part is ground exactly when it is a GElem or a GSet.

A match, an enumeration or a staged application makes one
`_ConstraintCheck` with its memo of verdicts, around the call's one
`Matcher` with its table of family instances.

FamilyPat(n, i, body) is the indexed collection over i = 1..n; with an
element body it denotes the listing {body_i}, with a set body the union
of the body_i.  Variables carry an index tuple so that per-index copies
("r sub i") stay distinguishable, and so nested families work.

Composition can fail in two distinct ways: a clash (the described family
is provably empty -- the result is EMPTY_TEMPLATE) and an unsupported
form (outside the implemented case inventory -- an exception, never a
silent wrong answer).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

from .model import (
    EMPTY_SET, Arrow, Bounds, GElem, GSet, Nat, count_g, gset, universe,
)
from .terms import App, Atom, Term


class TemplateError(Exception):
    """Base class for template-calculus failures."""


class UnsupportedUnification(TemplateError):
    pass


class UnsupportedMatch(TemplateError):
    pass


class BudgetExceeded(TemplateError):
    """An enumeration that needs more steps than its budget allows.

    `steps` is how many it had taken when it stopped, `budget` its limit
    and `bounds` the bounds it ran under.
    """

    def __init__(self, message, steps, budget, bounds):
        super().__init__(message)
        self.steps, self.budget, self.bounds = steps, budget, bounds


class _Clash(Exception):
    """Internal: unification proved the element family empty."""


# ---------------------------------------------------------------------------
# patterns


class _Var:
    """A named variable; its index tuple tells per-index copies apart.

    key is the variable's identity in bindings: (kind, name, index), with
    kind "e", "s" or "a" for element, set and arity variables.
    """

    __slots__ = ("name", "index", "key")
    kind = None

    def __init__(self, name, index=()):
        self.name = name
        self.index = index = tuple(index)
        self.key = (self.kind, name, index)

    def rebuild(self, name, index):
        """The same kind of variable with another name or index."""
        return type(self)(name, index)

    def __repr__(self):
        return f"{type(self).__name__}({self.name!r}, {self.index!r})"


class EVar(_Var):
    __slots__ = ()
    kind = "e"


class ArrowPat:
    __slots__ = ("ante", "cons")

    def __init__(self, ante, cons):
        self.ante = ante
        self.cons = cons


class SVar(_Var):
    __slots__ = ()
    kind = "s"


class ExplicitPat:
    __slots__ = ("members",)

    def __init__(self, members=()):
        self.members = tuple(members)


class AVar(_Var):
    __slots__ = ("minimum",)
    kind = "a"

    def __init__(self, name, index=(), minimum=0):
        super().__init__(name, index)
        self.minimum = minimum

    def rebuild(self, name, index):
        return AVar(name, index, self.minimum)

    def __repr__(self):
        return f"AVar({self.name!r}, {self.index!r}, min={self.minimum})"


class FamilyPat:
    __slots__ = ("arity", "binder", "body")

    def __init__(self, arity, binder, body):
        self.arity = arity  # AVar or int
        self.binder = binder  # index-variable name, free inside body
        self.body = body  # element pattern (listing) or set pattern (union)


class UnionPat:
    __slots__ = ("parts",)

    def __init__(self, parts):
        self.parts = tuple(parts)


ELEM_PATS = (EVar, ArrowPat, GElem)
SET_PATS = (SVar, ExplicitPat, FamilyPat, UnionPat, GSet)


@dataclass(frozen=True)
class Constraint:
    """A retained set equation, universally quantified over its binders.

    binders is a tuple of (index-name, arity) pairs: the equation must
    hold for every assignment of each index in 1..arity.
    """

    binders: tuple
    left: object
    right: object


@dataclass(frozen=True)
class Template:
    root: object  # element pattern, or None for the empty family
    constraints: tuple = ()

    @property
    def is_empty(self):
        return self.root is None


EMPTY_TEMPLATE = Template(None, ())


# ---------------------------------------------------------------------------
# structural helpers


def pat_key(p):
    """Hashable structural key (used for equality and deduplication).

    A value has the key of the literal pattern that spells it out, so it
    dedupes against an arrow or a listing whose parts are all values.
    """
    if isinstance(p, _Var):
        return p.key
    if isinstance(p, Nat):
        return ("n", p.value)
    if isinstance(p, (ArrowPat, Arrow)):
        return ("ar", pat_key(p.ante), pat_key(p.cons))
    if isinstance(p, (ExplicitPat, GSet)):
        return ("ex", tuple(pat_key(m) for m in _listing(p)))
    if isinstance(p, FamilyPat):
        ak = p.arity if isinstance(p.arity, int) else ("a",) + p.arity.key
        return ("fam", ak, p.binder, pat_key(p.body))
    if isinstance(p, UnionPat):
        return ("un", tuple(pat_key(q) for q in p.parts))
    if isinstance(p, int):
        return ("int", p)
    raise TypeError(f"not a pattern: {p!r}")


def _listing(p):
    """The members of an explicit listing or of a concrete set, else None."""
    if isinstance(p, ExplicitPat):
        return p.members
    if isinstance(p, GSet):
        return p.elems
    return None


def _parts(p):
    """The sub-patterns directly inside p, other than a family's; a
    variable or a value has none."""
    if isinstance(p, ArrowPat):
        return (p.ante, p.cons)
    if isinstance(p, ExplicitPat):
        return p.members
    if isinstance(p, UnionPat):
        return p.parts
    return ()


def _nodes(p):
    """Every node of p in preorder, left to right, each paired with the
    family binders in scope at it.  A family's arity variable comes
    before its body and lies outside the family's own scope."""
    out = []
    stack = [(p, frozenset())]
    while stack:
        node = stack.pop()
        out.append(node)
        p, scope = node
        if isinstance(p, FamilyPat):
            stack.append((p.body, scope | {p.binder}))
            if isinstance(p.arity, AVar):
                stack.append((p.arity, scope))
        elif not isinstance(p, _Var):
            for q in reversed(_parts(p)):
                stack.append((q, scope))
    return out


def free_vars(p):
    """The variables of p, family arities included, by key in walk order."""
    return {q.key: q for q, _ in _nodes(p) if isinstance(q, _Var)}


def _map_vars(p, var_fn, binder_fn=None, shadow=None):
    """Rebuild p with var_fn applied to every variable, family arities
    included, and binder_fn (when given) to every family binder.

    A family whose binder is `shadow` rebinds that index: its arity is
    still mapped, its body is kept as it is.
    """
    if isinstance(p, _Var):
        return var_fn(p)
    if isinstance(p, ArrowPat):
        return ArrowPat(_map_vars(p.ante, var_fn, binder_fn, shadow),
                        _map_vars(p.cons, var_fn, binder_fn, shadow))
    if isinstance(p, FamilyPat):
        ar = p.arity if isinstance(p.arity, int) else var_fn(p.arity)
        if p.binder == shadow:
            return FamilyPat(ar, p.binder, p.body)
        binder = p.binder if binder_fn is None else binder_fn(p.binder)
        return FamilyPat(ar, binder, _map_vars(p.body, var_fn, binder_fn, shadow))
    if isinstance(p, (GElem, GSet)):
        return p
    if isinstance(p, ExplicitPat):
        return ExplicitPat(tuple(_map_vars(m, var_fn, binder_fn, shadow)
                                 for m in p.members))
    if isinstance(p, UnionPat):
        return UnionPat(tuple(_map_vars(q, var_fn, binder_fn, shadow)
                              for q in p.parts))
    raise TypeError(f"not a pattern: {p!r}")


def rename_vars(p, suffix, append=()):
    """Append a namespace suffix to every variable and binder name, and the
    index components `append` to every variable's index.

    String index components are references to family binders of the same
    template, so they are renamed along with the binders themselves.
    """

    def rename(v):
        return v.rebuild(v.name + suffix, tuple(
            c + suffix if isinstance(c, str) else c for c in v.index) + append)

    return _map_vars(p, rename, lambda binder: binder + suffix)


def reindex(p, old, new):
    """Replace index component `old` with `new` throughout (binder use)."""

    def move(v):
        if old not in v.index:
            return v
        return v.rebuild(v.name, tuple(new if c == old else c for c in v.index))

    return _map_vars(p, move, shadow=old)


# ---------------------------------------------------------------------------
# substitution over symbolic bindings

# Symbolic bindings map var keys to patterns; AVar keys map to ints or
# AVars, and ("amin", name, index) entries record raised lower bounds.


def _amin(b, av):
    return max(av.minimum, b.get(("amin", av.name, av.index), 0))


def resolve_arity(a, b):
    while isinstance(a, AVar):
        nxt = b.get(a.key)
        if nxt is None:
            return AVar(a.name, a.index, _amin(b, a))
        a = nxt
    return a


def _schema_value(p, b):
    """A binding keyed under a binder name is a schema over that index;
    instantiate it for an occurrence of the same variable whose index
    uses a different binder (or a concrete position)."""
    kind, name, index = p.key
    hits = []
    for key, val in b.items():
        if key[0] != kind or key[1] != name:
            continue
        idx2 = key[2]
        if not isinstance(idx2, tuple) or len(idx2) != len(index) or idx2 == index:
            continue
        mapping = {}
        ok = True
        for a, x in zip(idx2, index):
            if isinstance(a, str):
                if mapping.get(a, x) != x:
                    ok = False
                    break
                mapping[a] = x
            elif a != x:
                ok = False
                break
        if ok and mapping:
            hits.append((mapping, val))
    if not hits:
        return None
    if len(hits) > 1:
        raise UnsupportedUnification(
            f"multiple schema bindings apply to one occurrence of {name!r}"
        )
    mapping, val = hits[0]
    # two-phase rename so one target name never captures another source
    temps = {old: f"\x00{i}" for i, old in enumerate(mapping)}
    for old, tmp in temps.items():
        val = reindex(val, old, tmp)
    for old, new in mapping.items():
        val = reindex(val, temps[old], new)
    return val


def subst(p, b):
    if not b:  # composition starts with no bindings, and p is then its own result
        return p
    if isinstance(p, (EVar, SVar)):
        v = b.get(p.key)
        if v is None and p.index:
            v = _schema_value(p, b)
        return p if v is None else subst(v, b)
    if isinstance(p, (GElem, GSet)):
        return p
    if isinstance(p, ArrowPat):
        return ArrowPat(subst(p.ante, b), subst(p.cons, b))
    if isinstance(p, ExplicitPat):
        return ExplicitPat(tuple(subst(m, b) for m in p.members))
    if isinstance(p, FamilyPat):
        return FamilyPat(resolve_arity(p.arity, b), p.binder, subst(p.body, b))
    if isinstance(p, UnionPat):
        return UnionPat(tuple(subst(q, b) for q in p.parts))
    raise TypeError(f"not a pattern: {p!r}")


def _mentions_binder(p, binder):
    return any(isinstance(q, _Var) and binder in q.index for q, _ in _nodes(p))


def normalize(p):
    """Canonicalize a pattern: flatten unions, collapse degenerate
    families, dedupe explicit listings."""
    if isinstance(p, (EVar, SVar, GElem, GSet)):
        return p
    if isinstance(p, ArrowPat):
        return ArrowPat(normalize(p.ante), normalize(p.cons))
    if isinstance(p, ExplicitPat):
        seen, out = set(), []
        for m in p.members:
            m = normalize(m)
            k = pat_key(m)
            if k not in seen:
                seen.add(k)
                out.append(m)
        return ExplicitPat(tuple(out))
    if isinstance(p, FamilyPat):
        body = normalize(p.body)
        # a union-of-singletons family is just a listing family
        members = _listing(body)
        if members is not None and len(members) == 1:
            body = members[0]
        ar = p.arity
        if ar == 0:
            return ExplicitPat(())
        if isinstance(ar, int) and isinstance(body, ELEM_PATS) and ar <= 4:
            return normalize(
                ExplicitPat(tuple(reindex(body, p.binder, i) for i in range(1, ar + 1)))
            )
        if isinstance(ar, int) and isinstance(body, SET_PATS) and ar <= 4:
            return normalize(
                UnionPat(tuple(reindex(body, p.binder, i) for i in range(1, ar + 1)))
            )
        if (isinstance(ar, int) or ar.minimum >= 1) and not _mentions_binder(
            body, p.binder
        ):
            # instances coincide, so every admissible arity yields the
            # same set: a singleton for a listing, the body for a union
            if isinstance(body, ELEM_PATS):
                return normalize(ExplicitPat((body,)))
            return body
        return FamilyPat(ar, p.binder, body)
    if isinstance(p, UnionPat):
        # flatten nested unions, and merge the explicit listings and
        # concrete sets into one listing that comes first
        members, rest = [], []
        for q in p.parts:
            q = normalize(q)
            for r in q.parts if isinstance(q, UnionPat) else (q,):
                listed = _listing(r)
                if listed is None:
                    rest.append(r)
                else:
                    members.extend(listed)
        if members:
            rest.insert(0, normalize(ExplicitPat(members)))
        if not rest:
            return ExplicitPat(())
        if len(rest) == 1:
            return rest[0]
        return UnionPat(tuple(rest))
    raise TypeError(f"not a pattern: {p!r}")


# ---------------------------------------------------------------------------
# base templates

_BASE_TEMPLATES = {}


def base_template(name):
    t = _BASE_TEMPLATES.get(name)
    if t is None:
        if name == "K":
            tvar = EVar("t")
            t = Template(
                ArrowPat(ExplicitPat((tvar,)), ArrowPat(ExplicitPat(()), tvar))
            )
        elif name == "S":
            n = AVar("n")
            r_i = EVar("r", ("i",))
            f_i = SVar("f", ("i",))
            s = EVar("s")
            tau = SVar("tau")
            u = ArrowPat(tau, ArrowPat(FamilyPat(n, "i", r_i), s))
            mid = FamilyPat(n, "i", ArrowPat(f_i, r_i))
            sigma = UnionPat((tau, FamilyPat(n, "i", f_i)))
            t = Template(ArrowPat(ExplicitPat((u,)), ArrowPat(mid, ArrowPat(sigma, s))))
        else:
            raise KeyError(f"no base template for atom {name!r}")
        _BASE_TEMPLATES[name] = t
    return t


# ---------------------------------------------------------------------------
# unification (symbolic, used by compose)


def _collect_foreign(nodes, own):
    """Variables among nodes (as `_nodes` gives them) whose index mentions
    a binder that is neither in scope there nor ranged over by the
    variable being bound, each with those binders."""
    acc = {}
    for q, scope in nodes:
        if isinstance(q, _Var):
            gammas = {c for c in q.index
                      if isinstance(c, str) and c not in scope and c not in own}
            if gammas:
                acc.setdefault(q.key, (q, set()))[1].update(gammas)
    return acc


def _strip_foreign(b, var, val):
    """An equation var = val(gamma) for a binder gamma that var does not
    range over holds for every instance, so val must be constant in
    gamma: collapse each gamma-indexed variable onto its stripped form.
    Returns that value and its nodes."""
    own = {c for c in var.index if isinstance(c, str)}
    nodes = _nodes(val)
    foreign = _collect_foreign(nodes, own)
    if not foreign:
        return val, nodes
    for key, (v, gammas) in sorted(foreign.items()):
        b[key] = v.rebuild(v.name, tuple(c for c in v.index if c not in gammas))
    val = subst(val, b)
    nodes = _nodes(val)
    if _collect_foreign(nodes, own):
        raise UnsupportedUnification(
            "variable occurs both inside and outside its binder's scope"
        )
    return val, nodes


def _bind(b, var, val):
    if isinstance(val, (EVar, SVar)) and val.key == var.key:
        return
    val, nodes = _strip_foreign(b, var, val)
    val_vars = {q.key for q, _ in nodes if isinstance(q, _Var)}
    if var.key in val_vars:
        raise _Clash  # no finite solution
    kind, name, index = var.key
    stripping = (
        isinstance(val, (EVar, SVar))
        and val.name == name
        and len(val.index) < len(index)
    )
    if not stripping:
        # a schema binding covers every instance of the variable, so a
        # value mentioning a sibling instance would be circular
        for k2 in val_vars:
            if k2[0] == kind and k2[1] == name:
                raise UnsupportedUnification(
                    f"binding relates distinct instances of {name!r}"
                )
    b[var.key] = val


def unify_elem(p, q, b, defer):
    p, q = subst(p, b), subst(q, b)
    if isinstance(p, EVar):
        if isinstance(q, EVar) and q.key == p.key:
            return
        _bind(b, p, q)
        return
    if isinstance(q, EVar):
        _bind(b, q, p)
        return
    if isinstance(p, ArrowPat) and isinstance(q, ArrowPat):
        unify_set(p.ante, q.ante, b, defer)
        unify_elem(p.cons, q.cons, b, defer)
        return
    raise UnsupportedUnification(f"elem unify: {pretty(p)} vs {pretty(q)}")


def _unify_singletonish(m, other, b, defer):
    """Unify the one-element set {m} against another set pattern."""
    if isinstance(other, ExplicitPat):
        if not other.members:
            raise _Clash
        for o in other.members:
            unify_elem(m, o, b, defer)
        return
    as_set = ExplicitPat((m,))
    if isinstance(other, FamilyPat):
        if not isinstance(other.body, ELEM_PATS):
            # {m} as a union of families constrains the parts jointly
            # (some may be empty); keep the equation for match time
            defer.append(Constraint((), as_set, other))
            return
        _require_arity_min(other.arity, 1, b)
        # every instance must collapse to one element: strip the binder
        # from each body variable, and record that binding so all other
        # occurrences of the indexed variables collapse too
        body = subst(other.body, b)
        for v in list(free_vars(body).values()):
            if other.binder in v.index:
                idx = tuple(c for c in v.index if c != other.binder)
                _bind(b, v, v.rebuild(v.name, idx))
        unify_elem(m, subst(body, b), b, defer)
        return
    if isinstance(other, UnionPat):
        defer.append(Constraint((), as_set, other))
        return
    raise UnsupportedUnification(f"singleton vs {type(other).__name__}")


def _quantify(local, prefix, defer):
    """Re-home equations deferred while unifying inside family bodies:
    each is quantified over whichever prefix binders it mentions,
    outermost binder first."""
    for c in local:
        for bn, bar in reversed(prefix):
            if (
                _mentions_binder(c.left, bn)
                or _mentions_binder(c.right, bn)
                or any(isinstance(ar, AVar) and bn in ar.index for _, ar in c.binders)
            ):
                c = Constraint(((bn, bar),) + c.binders, c.left, c.right)
        defer.append(c)


def _require_arity_min(a, k, b):
    a = resolve_arity(a, b)
    if isinstance(a, int):
        if a < k:
            raise _Clash
        return
    cur = b.get(("amin", a.name, a.index), a.minimum)
    if k > cur:
        b[("amin", a.name, a.index)] = k


def unify_set(p, q, b, defer):
    p, q = subst(p, b), subst(q, b)
    if isinstance(p, SVar):
        if isinstance(q, SVar) and q.key == p.key:
            return
        _bind(b, p, q)
        return
    if isinstance(q, SVar):
        _bind(b, q, p)
        return
    pk, qk = type(p), type(q)
    if pk is ExplicitPat and len(p.members) == 1:
        _unify_singletonish(p.members[0], q, b, defer)
        return
    if qk is ExplicitPat and len(q.members) == 1:
        _unify_singletonish(q.members[0], p, b, defer)
        return
    if pk is ExplicitPat and qk is ExplicitPat:
        if p.members and q.members:
            raise UnsupportedUnification("explicit listings of size >= 2 on both sides")
        if p.members or q.members:
            raise _Clash
        return
    if pk is ExplicitPat and qk is FamilyPat:
        _unify_explicit_family(p, q, b)
        return
    if pk is FamilyPat and qk is ExplicitPat:
        _unify_explicit_family(q, p, b)
        return
    if pk is FamilyPat and qk is FamilyPat:
        if isinstance(p.body, ELEM_PATS) != isinstance(q.body, ELEM_PATS):
            # a listing equated with a union of families: arities are
            # unrelated, keep the whole set equation for match time
            defer.append(Constraint((), p, q))
            return
        a1 = resolve_arity(p.arity, b)
        a2 = resolve_arity(q.arity, b)
        if isinstance(a1, int) and isinstance(a2, int):
            if a1 != a2:
                raise _Clash
        elif isinstance(a1, AVar):
            if isinstance(a2, int):
                if a2 < _amin(b, a1):
                    raise _Clash
                b[a1.key] = a2
            else:
                if a1.key != a2.key:
                    b[a1.key] = a2
                    _require_arity_min(a2, _amin(b, a1), b)
        else:  # a1 int, a2 AVar
            if a1 < _amin(b, a2):
                raise _Clash
            b[a2.key] = a1
        body1 = reindex(p.body, p.binder, q.binder)
        local = []
        if isinstance(body1, ELEM_PATS) and isinstance(q.body, ELEM_PATS):
            unify_elem(body1, q.body, b, local)
        elif isinstance(body1, SET_PATS) and isinstance(q.body, SET_PATS):
            unify_set(body1, q.body, b, local)
        else:
            raise UnsupportedUnification("family body kinds differ")
        _quantify(local, ((q.binder, resolve_arity(q.arity, b)),), defer)
        return
    # anything involving a union (or a form not handled above) is kept as
    # a retained equation, solved at match/enumerate time
    defer.append(Constraint((), p, q))


def _unify_explicit_family(e, fam, b):
    """A listing of no members or of two or more against a family."""
    if e.members:
        raise UnsupportedUnification("explicit listing of size >= 2 vs family")
    ar = resolve_arity(fam.arity, b)
    if isinstance(ar, int):
        if ar != 0:
            raise _Clash
    else:
        if _amin(b, ar) > 0:
            raise _Clash
        b[ar.key] = 0


# ---------------------------------------------------------------------------
# composition

_fresh_counter = itertools.count(1)


def _subst_constraint(c, b):
    return Constraint(
        tuple(
            (bn, resolve_arity(ar, b) if isinstance(ar, AVar) else ar)
            for bn, ar in c.binders
        ),
        normalize(subst(c.left, b)),
        normalize(subst(c.right, b)),
    )


def compose(t1: Template, t2: Template) -> Template:
    """Template of an application, from templates of operator and operand,
    each a base template or one that compose built, whose constraints are
    therefore normalized."""
    if t1.is_empty:
        return EMPTY_TEMPLATE
    root = t1.root
    if not isinstance(root, ArrowPat):
        raise TemplateError(f"operator template root is not an arrow: {pretty(root)}")

    # the operator's and the operand copies' constraints, each with the
    # names of the variables it reads
    b, defer, extra = {}, [], [(c, _reads(c).keys()) for c in t1.constraints]
    operand = (t2, [_reads(c).keys() for c in t2.constraints])
    try:
        _consume(root.ante, (), operand, b, defer, extra)
        new_root = normalize(subst(root.cons, b))
        # a normalized constraint none of whose names b binds or bounds
        # comes out of _subst_constraint as it went in
        touched = {key[1] for key in b}
        out = []
        for c, names in [(c, None) for c in defer] + extra:
            if names is None or not touched.isdisjoint(names):
                c = _subst_constraint(c, b)
            # composition builds no values and its element patterns end in
            # variables, so its only ground set is {}: {} = {} says nothing
            if not c.binders and all(isinstance(q, ExplicitPat) and not q.members
                                     for q in (c.left, c.right)):
                continue
            out.append(c)
    except _Clash:
        return EMPTY_TEMPLATE
    return Template(new_root, tuple(out))


def _consume(ante, prefix, operand, b, defer, extra):
    """Unify operator antecedent `ante`, inside the family binders of
    prefix, with fresh copies of the operand template: bindings go to b,
    deferred equations to defer, the copies' own constraints to extra.
    operand is the template with the names each of its constraints reads."""
    ante = subst(ante, b)
    if operand[0].is_empty:
        # the operand family is empty, so the antecedent must be empty
        local = []
        unify_set(ante, ExplicitPat(()), b, local)
        _quantify(local, prefix, defer)
        return
    if isinstance(ante, ExplicitPat):
        for m in ante.members:
            _consume_member(m, prefix, operand, b, defer, extra)
        return
    if isinstance(ante, SVar):
        binder = f"i{next(_fresh_counter)}"
        arity = AVar(f"n{next(_fresh_counter)}", tuple(bn for bn, _ in prefix))
        body = _operand_copy(operand, prefix + ((binder, arity),), extra)
        _bind(b, ante, FamilyPat(arity, binder, body))
        return
    if isinstance(ante, FamilyPat):
        sub = prefix + ((ante.binder, resolve_arity(ante.arity, b)),)
        if isinstance(ante.body, ELEM_PATS):
            _consume_member(ante.body, sub, operand, b, defer, extra)
        else:
            # a union-family: the antecedent is the union over the
            # binder of the instance sets
            _consume(ante.body, sub, operand, b, defer, extra)
        return
    if isinstance(ante, UnionPat):
        for part in ante.parts:
            _consume(part, prefix, operand, b, defer, extra)
        return
    raise UnsupportedUnification(f"antecedent form not supported: {type(ante).__name__}")


def _consume_member(m, prefix, operand, b, defer, extra):
    local = []
    unify_elem(m, _operand_copy(operand, prefix, extra), b, local)
    _quantify(local, prefix, defer)


def _operand_copy(operand, prefix, extra):
    """A fresh copy of the operand, renamed apart, whose root and
    constraints gain the enclosing family binders, outermost first, at the
    end of every index, so each instance varies independently.  The copy's
    constraints go to extra, each with its names: the operand's, renamed,
    and the arities of the binders it gains.  Its root is returned."""
    t2, names = operand
    suffix, outer_first = f".{next(_fresh_counter)}", tuple(bn for bn, _ in prefix)
    arities = {bar.name for _, bar in prefix if isinstance(bar, AVar)}
    for c, cnames in zip(t2.constraints, names):
        # the binder declarations must track the renamed references
        cb = tuple((bn + suffix, rename_vars(ar, suffix) if isinstance(ar, AVar) else ar)
                   for bn, ar in c.binders)
        extra.append((Constraint(prefix + cb, rename_vars(c.left, suffix, outer_first),
                                 rename_vars(c.right, suffix, outer_first)),
                      {n + suffix for n in cnames} | arities))
    return rename_vars(t2.root, suffix, outer_first)


class _Shape:
    """A template that equals another exactly when the two have the same
    `_shape_key`, with the key's hash kept."""

    __slots__ = ("template", "key", "hash")

    def __init__(self, t):
        self.template, self.key = t, _shape_key(t)
        self.hash = hash(self.key)

    def __hash__(self):
        return self.hash

    def __eq__(self, other):
        return self.hash == other.hash and self.key == other.key


def _shape_key(t):
    """t up to renaming: its nodes in preorder, root first, then each
    constraint's binders and sides, as one flat tuple of node tags, part
    counts, integer arities and values, with each variable name and binder
    numbered by its first appearance.  A binder in a variable's index is
    its number bit-inverted, so it is negative and no index position.  Two
    templates have equal keys exactly when a one-to-one renaming of names
    and binders takes one to the other."""
    ids, out, todo = {}, [], [t.root]
    for c in t.constraints:
        todo.append(len(c.binders))
        for bn, ar in c.binders:
            todo += (bn, ar)
        todo += (c.left, c.right)
    todo.reverse()
    while todo:
        p = todo.pop()
        if isinstance(p, _Var):
            out += (p.kind, ids.setdefault(p.name, len(ids)), len(p.index))
            out += [~ids.setdefault(c, len(ids)) if isinstance(c, str) else c
                    for c in p.index]
            if isinstance(p, AVar):
                out.append(p.minimum)
        elif isinstance(p, ArrowPat):
            out.append("ar")
            todo += (p.cons, p.ante)
        elif isinstance(p, FamilyPat):
            out += ("fam", ids.setdefault(p.binder, len(ids)))
            todo += (p.body, p.arity)
        elif isinstance(p, (ExplicitPat, UnionPat)):
            parts = _parts(p)
            out += ("ex" if isinstance(p, ExplicitPat) else "un", len(parts))
            todo += reversed(parts)
        elif isinstance(p, str):  # a constraint's binder
            out.append(ids.setdefault(p, len(ids)))
        else:  # an int arity or count, a value, or the empty template's root
            out.append(p)
    return tuple(out)


@lru_cache(maxsize=None)
def _shape(t):
    """t's `_Shape`, built once per template."""
    return _Shape(t)


@lru_cache(maxsize=None)
def _compose_shapes(s1, s2):
    """`compose` of the templates of two `_Shape`s, once per pair of shapes."""
    return compose(s1.template, s2.template)


@lru_cache(maxsize=None)
def template_of(term: Term) -> Template:
    """Template of a closed applicative term over the K and S atoms.  A
    term nested deeper than the interpreter's recursion limit allows
    raises TemplateError.

    Composition is memoised on the shapes of operator and operand: their
    templates up to a one-to-one renaming of variables and binders
    (`_shape_key`).  This is exact because `compose` reads names only
    through equality, except that `_strip_foreign` sorts assignments that
    do not depend on one another, and makes each fresh name from a
    counter.  So inputs equal up to renaming give outputs equal up to
    renaming, and the memo hands back the first such output built.  The
    variable names in a template, and in a composition error's message,
    depend on which term of that shape the process composed first."""
    try:
        if isinstance(term, Atom):
            return base_template(term.name)
        if isinstance(term, App):
            return _compose_shapes(_shape(template_of(term.left)),
                                   _shape(template_of(term.right)))
    except RecursionError:
        raise TemplateError("term nested too deeply") from None
    raise TemplateError("templates are defined for closed K/S terms only")


# ---------------------------------------------------------------------------
# matching against concrete elements


# the most splits of a target set g among a union's open parts that
# `Matcher._match_union` may try, counted before it tries any: a family of
# four open instances over four elements, each taking one of g's 16 subsets.
# Beyond it the matcher raises UnsupportedMatch, so its False never rests
# on a guess.
_MAX_SPLITS = 16 ** 4


class Matcher:
    """Backtracking matcher of patterns against concrete elements.

    `slack` widens the arity range tried for listing families whose arity
    variable is shared elsewhere: a family {r_i : i <= n} may be realized
    by fewer than n distinct values when instances collapse.  A set-bodied
    family may realize g, {} included, with fewer than len(g) instances:
    such arities are tried only for the arity variables named in `exact`.

    Every union it meets, a set-bodied family at a fixed arity included (the
    union of its instances), is decided by one cover search,
    `_match_union`, which tries every split of g among the open parts; a
    union with more than `_MAX_SPLITS` splits raises UnsupportedMatch.

    A call makes one matcher, and `instance` builds each family instance
    once for the call's matcher, constraint check and enumerator alike.
    """

    def __init__(self, slack=0, exact=frozenset()):
        self.slack, self.exact = slack, exact
        self.instances = {}  # (pattern, binder, index) -> its instance

    def instance(self, p, binder, i):
        """p's instance at index i of binder, as `reindex` builds it."""
        q = self.instances.get((p, binder, i))
        if q is None:
            q = self.instances[p, binder, i] = reindex(p, binder, i)
        return q

    # -- elements ----------------------------------------------------
    def match_elem(self, p, v, b):
        if isinstance(p, EVar):
            cur = b.get(p.key)
            if cur is None:
                b2 = dict(b)
                b2[p.key] = v
                yield b2
            elif isinstance(cur, GElem) and cur == v:
                yield b
            return
        if isinstance(p, GElem):
            if p == v:
                yield b
            return
        if isinstance(p, ArrowPat):
            if isinstance(v, Arrow):
                for b1 in self.match_set(p.ante, v.ante, b):
                    yield from self.match_elem(p.cons, v.cons, b1)
            return
        raise UnsupportedMatch(f"element pattern {type(p).__name__}")

    # -- sets --------------------------------------------------------
    def match_set(self, p, g, b):
        if isinstance(p, SVar):
            cur = b.get(p.key)
            if cur is None:
                b2 = dict(b)
                b2[p.key] = g
                yield b2
            elif isinstance(cur, GSet) and cur == g:
                yield b
            return
        if isinstance(p, GSet):
            if p == g:
                yield b
            return
        if isinstance(p, ExplicitPat):
            yield from self._match_listing(p.members, g, b)
            return
        if isinstance(p, FamilyPat):
            yield from self._match_family(p, g, b)
            return
        if isinstance(p, UnionPat):
            yield from self._match_union(p.parts, g, b)
            return
        raise UnsupportedMatch(f"set pattern {type(p).__name__}")

    def _match_listing(self, members, g, b, idx=0, used=frozenset()):
        # each member pattern maps to some element; jointly they cover g.
        # members[idx:] are left, and used holds the positions in g that
        # the others took.  A branch is cut when the members left cannot
        # cover the elements not yet used, one each: it could never yield.
        if idx == len(members):
            if len(used) == len(g):
                yield b
            return
        for j, e in enumerate(g):
            used1 = used | {j}
            if len(g) - len(used1) > len(members) - idx - 1:
                continue
            for b1 in self.match_elem(members[idx], e, b):
                yield from self._match_listing(members, g, b1, idx + 1, used1)

    def _arity_candidates(self, a, g, b, body_is_elem):
        a = resolve_arity(a, b)
        if isinstance(a, int):
            return a, [a]
        if body_is_elem or a.name not in self.exact:
            if len(g) == 0:  # {} takes n = 0 when the body is an element
                return a, ([0] if a.minimum == 0 else [])
            return a, list(range(max(a.minimum, len(g)), len(g) + self.slack + 1))
        return a, list(range(a.minimum, len(g) + self.slack + 1))

    def _match_family(self, p, g, b):
        body_is_elem = isinstance(p.body, ELEM_PATS)
        a, candidates = self._arity_candidates(p.arity, g, b, body_is_elem)
        for n in candidates:
            if n < len(g) and body_is_elem:
                continue
            b0 = b
            if isinstance(a, AVar):
                b0 = dict(b)
                b0[a.key] = n
            if n == 0:
                if len(g) == 0:
                    yield b0
                continue
            # indices 1..n mapped onto the elements, or instances joined to g
            members = [self.instance(p.body, p.binder, i) for i in range(1, n + 1)]
            if body_is_elem:
                yield from self._match_listing(members, g, b0)
            else:
                yield from self._match_union(members, g, b0)

    def _match_union(self, parts, g, b):
        """Bindings under which the set parts join to exactly g, with the
        parts concretized once, under b.  Every ground part must lie in g.
        Each open part but the last takes a subset of g, in `_subsets`
        order; the last takes the elements still uncovered together with
        each subset of the covered ones."""
        covered, open_parts = set(), []
        for q in parts:
            q = _concretize(q, b, self.instance)
            if not isinstance(q, GSet):
                open_parts.append(q)
            elif q.issubset(g):
                covered.update(q)
            else:
                return
        k = len(open_parts)
        if not k:
            if len(covered) == len(g):
                yield b
            return
        # each open part but the last has 2^len(g) choices, and the last at
        # most one per subset of what the others may have covered
        if 2 ** (len(g) * k if k > 1 else len(covered)) > _MAX_SPLITS:
            raise UnsupportedMatch(
                f"union of {k} open parts over {len(g)} elements has too many splits")
        subsets = [gset(sub) for sub in _subsets(list(g))] if k > 1 else ()
        yield from self._cover(open_parts, g, subsets, covered, b)

    def _cover(self, parts, g, subsets, covered, b, i=0):
        """Bindings under which parts[i:] join the covered elements to g."""
        if i == len(parts) - 1:
            leftover = [e for e in g if e not in covered]
            for sub in _subsets([e for e in g if e in covered]):
                yield from self.match_set(parts[i], gset(leftover + list(sub)), b)
            return
        for sub in subsets:
            for b1 in self.match_set(parts[i], sub, b):
                yield from self._cover(parts, g, subsets, covered.union(sub), b1, i + 1)


def _subsets(xs):
    for k in range(len(xs) + 1):
        yield from itertools.combinations(xs, k)


# ---------------------------------------------------------------------------
# constraint checking at match/enumerate time


class _ConstraintCheck:
    """The one object of a match, an enumeration or a staged application:
    it holds the call's `Matcher` and decides whether all retained
    equations hold (for some value of any leftover existential variables)
    under a concrete binding, memoised for the call.

    A side of a retained equation reads from a concrete binding only the
    values of its own variables, every instance of each.  So each side is
    concretized once per distinct set of those values, and each
    equation's verdict, a raise included, is cached on the values both
    sides read: bindings that differ only elsewhere share them.  The
    equations are still tried in order, so the first False (or raise) is
    the one an unmemoised check would give.  A memoised error is kept
    without its traceback, which would hold the check's frames, and each
    raise of it raises a fresh copy.  The instances of the families and
    binders that the equations expand come from the matcher's table.  A
    check never sees a second template, and it is dropped with the call.
    """

    def __init__(self, constraints, slack, max_arity=4, exact=frozenset()):
        self.constraints = constraints
        self.max_arity = max_arity
        self.matcher = Matcher(slack, exact)
        self.reads = [_reads(c) for c in constraints]
        self.memo = {}
        self.sides = {}  # (side, the values it reads) -> its concretized form

    def __call__(self, b):
        for i in range(len(self.constraints)):
            ok = self._verdict(i, b)
            if ok is not True:
                if ok is False:
                    return False
                raise type(ok)(*ok.args)
        return True

    def refutes(self, indices, b):
        """Does one of these equations fail under b?  One that raises is
        undecided here; the full check raises it in its turn."""
        return any(self._verdict(i, b) is False for i in indices)

    def _verdict(self, i, b):
        """True, False or the TemplateError that equation i raises."""
        reads = self.reads[i]
        left, right = [], []
        for item in b.items():
            side = reads.get(item[0][1])
            if side:
                if side & _LEFT:
                    left.append(item)
                if side & _RIGHT:
                    right.append(item)
        left, right = frozenset(left), frozenset(right)
        key = (i, left, right)
        ok = self.memo.get(key)
        if ok is None:
            try:
                ok = self._holds(self.constraints[i], b, left, right)
            except TemplateError as exc:
                ok = exc.with_traceback(None)
            self.memo[key] = ok
        return ok

    def _holds(self, c, b, left_reads, right_reads):
        """Does equation c, one of the retained ones or an instance of one,
        hold under b?  left_reads and right_reads are the items of b that
        its left and its right side read."""
        if c.binders:
            (binder, arity), rest = c.binders[0], c.binders[1:]
            a, inst = resolve_arity(arity, b), self.matcher.instance
            return any(all(self._holds(Constraint(rest, inst(c.left, binder, i),
                                                  inst(c.right, binder, i)),
                                       b, left_reads, right_reads)
                           for i in range(1, n + 1))
                       for n in ([a] if isinstance(a, int) else range(self.max_arity + 1)))
        left = self._side(c.left, left_reads, b)
        right = self._side(c.right, right_reads, b)
        if isinstance(left, GSet) and isinstance(right, GSet):
            return left == right
        if isinstance(left, GSet):
            left, right = right, left
        if isinstance(right, GSet):  # does some binding make left the value?
            return next(self.matcher.match_set(left, right, dict(b)), None) is not None
        raise UnsupportedMatch(
            f"set equation with both sides open: {pretty(left)} = {pretty(right)}"
        )

    def _side(self, p, reads, b):
        """What `normalize` and `_concretize` make of p under b, once per
        distinct set of the items of b that p reads."""
        key = (p, reads)
        q = self.sides.get(key)
        if q is None:
            q = self.sides[key] = normalize(_concretize(p, b, self.matcher.instance))
        return q


_LEFT, _RIGHT = 1, 2


def _reads(c):
    """The names of the variables that constraint c reads, each mapped to
    the sides that read it (_LEFT, _RIGHT or both).  A binder's arity is
    read by both.  Instances of a variable differ only in their index, and
    a binding key is (kind, name, index)."""
    reads = {}
    for side, p in ((_LEFT, c.left), (_RIGHT, c.right)):
        for key in free_vars(p):
            reads[key[1]] = reads.get(key[1], 0) | side
    for _, ar in c.binders:
        if isinstance(ar, AVar):
            reads[ar.name] = _LEFT | _RIGHT
    return reads


def _concretize(p, b, inst):
    """Put the value that concrete binding b gives each variable in its
    place, expand each family whose arity b fixes, taking its instances
    from inst (the call's `Matcher.instance`, or `reindex` outside a call),
    and give each part that is then ground as its value.  This is the one
    place where a ground pattern becomes a value: a part is ground exactly
    when it comes back as a `GElem` or a `GSet`."""
    if isinstance(p, (EVar, SVar)):
        v = b.get(p.key)
        return p if v is None else v
    if isinstance(p, (GElem, GSet)):
        return p
    if isinstance(p, ArrowPat):
        ante, cons = _concretize(p.ante, b, inst), _concretize(p.cons, b, inst)
        if isinstance(ante, GSet) and isinstance(cons, GElem):
            return Arrow(ante, cons)
        return ArrowPat(ante, cons)
    if isinstance(p, FamilyPat):
        ar = resolve_arity(p.arity, b)
        if not isinstance(ar, int):
            q = normalize(FamilyPat(ar, p.binder, _concretize(p.body, b, inst)))
            # a family whose instances coincide is a one-member listing
            v = _ground_value(q.members, GElem) if isinstance(q, ExplicitPat) else None
            return q if v is None else v
        parts = tuple(_concretize(inst(p.body, p.binder, i), b, inst)
                      for i in range(1, ar + 1))
        if isinstance(p.body, ELEM_PATS):
            v = _ground_value(parts, GElem)
            return normalize(ExplicitPat(parts)) if v is None else v
        v = _ground_value(parts, GSet)
        return normalize(UnionPat(parts)) if v is None else v
    if isinstance(p, ExplicitPat):
        parts = tuple(_concretize(m, b, inst) for m in p.members)
        v = _ground_value(parts, GElem)
        return ExplicitPat(parts) if v is None else v
    if isinstance(p, UnionPat):
        parts = tuple(_concretize(q, b, inst) for q in p.parts)
        v = _ground_value(parts, GSet)
        return UnionPat(parts) if v is None else v
    raise TypeError(f"not a pattern: {p!r}")


def _ground_value(parts, kind):
    """The set that concrete parts, all elements or all sets (`kind`),
    list or join, or None if one of them is not concrete."""
    if not all(isinstance(q, kind) for q in parts):
        return None
    return gset(parts if kind is GElem else itertools.chain.from_iterable(parts))


# ---------------------------------------------------------------------------
# membership and enumeration


def matches(t: Template, e: GElem):
    """Bindings under which the concrete element realizes the template
    (retained constraints verified by the call's one `_ConstraintCheck`)."""
    if t.is_empty:
        return
    check = _ConstraintCheck(t.constraints, e.width)
    for b in check.matcher.match_elem(t.root, e, {}):
        if check(b):
            yield b


def member_via_template(t: Template, e: GElem) -> bool:
    """Exact membership of a concrete element in the described family."""
    for _ in matches(t, e):
        return True
    return False


def instantiate(t: Template, b) -> GElem:
    """Build the concrete element for a fully concrete binding."""
    if t.is_empty:
        raise TemplateError("cannot instantiate the empty template")
    pat = _concretize(t.root, b, reindex)
    if not isinstance(pat, GElem):
        missing = sorted(k for k in free_vars(pat))
        raise TemplateError(f"binding leaves variables open: {missing}")
    return pat


_POOL_CACHE = {}

# the step budget of an enumeration that is given none
DEFAULT_BUDGET = 2_000_000


def _pool_subsets(rank, set_size, max_nat):
    """The canonical sets of at most set_size members of a pool, smallest
    first, in itertools.combinations order.

    Every set variable enumerated over the same pool shares them.  They
    are built on demand, so a run that stops early (a cut branch, or a
    step budget on bounds with a large pool) builds no more of them than
    it took.
    """
    key = ("subsets", rank, set_size, max_nat)
    entry = _POOL_CACHE.get(key)
    if entry is None:
        pool = universe(rank, set_size, max_nat)
        combos = itertools.chain.from_iterable(
            itertools.combinations(pool, k) for k in range(set_size + 1))
        entry = _POOL_CACHE[key] = ([], map(gset, combos))
    built, source = entry
    i = 0
    while True:
        if i == len(built):
            nxt = next(source, None)
            if nxt is None:
                return
            built.append(nxt)
        yield built[i]
        i += 1


class _Enumerator:
    """The (value, binding) pairs of element and set patterns within the
    bounds, antecedents first, by backtracking over one binding.

    Family instances come from the table of the call's `Matcher`.  Given a
    `plan` (see `_check_plan`), a branch is cut as soon as it refutes a
    retained constraint whose variables it has all bound.  A generator
    given `allowed`, a set of elements, yields only the pairs whose element
    lies in it or whose set lies inside it, in the order it would yield
    them without it.
    """

    def __init__(self, bounds: Bounds, check, budget=DEFAULT_BUDGET, plan=None):
        self.bounds = bounds
        self.budget = budget
        self.steps = 0
        self.check = check
        self.plan = plan or {}
        self._sized = set()  # pool ranks already checked against the budget
        self._subsets = {}  # (allowed, rank) -> the pool's sets inside allowed
        self._floors = {}  # pattern -> `_rank_floor`

    def _exceeded(self, detail=""):
        return BudgetExceeded(f"template enumeration exceeded {self.budget} steps{detail}",
                              self.steps, self.budget, self.bounds)

    def _tick(self):
        self.steps += 1
        if self.steps > self.budget:
            raise self._exceeded()

    def _pool_rank(self, depth):
        """The rank of the pool that a variable at this depth ranges over.
        A pool larger than the budget runs out of budget unbuilt."""
        rank = min(depth, self.bounds.max_rank)
        if rank not in self._sized:
            bounds = self.bounds
            if count_g(rank, bounds.max_set_size, bounds.max_nat,
                       limit=self.budget) > self.budget:
                raise self._exceeded(
                    f": the rank-{rank} pool has more than {self.budget} elements")
            self._sized.add(rank)
        return rank

    def gen_elem(self, p, depth, b, allowed=None):
        self._tick()
        bounds = self.bounds
        if isinstance(p, EVar):
            cur = b.get(p.key)
            if cur is not None:
                if cur.rank <= depth and (allowed is None or cur in allowed):
                    yield cur, b
                return
            rank = self._pool_rank(depth)
            if allowed is None:
                values = universe(rank, bounds.max_set_size, bounds.max_nat)
            else:
                values = _in_pool_order(allowed, rank)
            for v in values:
                b2 = dict(b)
                b2[p.key] = v
                yield v, b2
            return
        if isinstance(p, GElem):
            if (allowed is None or p in allowed) and self._fits(p, p.width, depth):
                yield p, b
            return
        if isinstance(p, ArrowPat):
            if depth < self._rank_floor(p):
                return  # every value of p has a higher rank
            ante_allowed = cons_allowed = None
            if allowed is not None:
                # an allowed arrow's antecedent, and the consequents that
                # go with each
                conses = {}
                for x in allowed:
                    if isinstance(x, Arrow):
                        conses.setdefault(x.ante, set()).add(x.cons)
                if not conses:
                    return
                ante_allowed = frozenset().union(*conses)
            ante_checks, cons_checks = self.plan.get(p, _NO_CHECKS)
            for aset, b1 in self.gen_set(p.ante, depth - 1, b, ante_allowed):
                if allowed is not None:
                    cons_allowed = conses.get(aset)
                    if cons_allowed is None:
                        continue
                if ante_checks and self.check.refutes(ante_checks, b1):
                    continue
                for c, b2 in self.gen_elem(p.cons, depth - 1, b1, cons_allowed):
                    if cons_checks and self.check.refutes(cons_checks, b2):
                        continue
                    yield Arrow(aset, c), b2
            return
        raise TemplateError(f"cannot enumerate element pattern {type(p).__name__}")

    def gen_set(self, p, depth, b, allowed=None):
        self._tick()
        bounds = self.bounds
        if isinstance(p, SVar):
            cur = b.get(p.key)
            if cur is not None:
                if (all(x.rank <= depth for x in cur)
                        and (allowed is None or allowed.issuperset(cur))):
                    yield cur, b
                return
            rank = self._pool_rank(depth)
            if allowed is None:
                values = _pool_subsets(rank, bounds.max_set_size, bounds.max_nat)
            else:
                values = self._allowed_subsets(allowed, rank)
            for val in values:
                self._tick()
                b2 = dict(b)
                b2[p.key] = val
                yield val, b2
            return
        if isinstance(p, GSet):
            if ((allowed is None or allowed.issuperset(p))
                    and self._fits(p, max(len(p), p.width), depth)):
                yield p, b
            return
        if isinstance(p, ExplicitPat):
            yield from self._gen_union(p.members, depth, b, allowed)
            return
        if isinstance(p, FamilyPat):
            ar = resolve_arity(p.arity, b)
            if isinstance(ar, int):
                yield from self._gen_family(p, ar, depth, b, allowed)
                return
            for n in range(_amin(b, ar), bounds.max_arity + 1):
                yield from self._gen_family(p, n, depth, {**b, ar.key: n}, allowed)
            return
        if isinstance(p, UnionPat):
            yield from self._gen_union(p.parts, depth, b, allowed)
            return
        raise TemplateError(f"cannot enumerate set pattern {type(p).__name__}")

    def _rank_floor(self, p):
        """A lower bound on the rank of every value of pattern p: an arrow
        is one above its parts, a listing or union at least each part, a
        family may have no instances."""
        floor = self._floors.get(p)
        if floor is None:
            if isinstance(p, ArrowPat):
                floor = 1 + max(self._rank_floor(p.ante), self._rank_floor(p.cons))
            elif isinstance(p, (GElem, GSet)):
                floor = p.rank
            else:
                floor = max(map(self._rank_floor, _parts(p)), default=0)
            self._floors[p] = floor
        return floor

    def _fits(self, v, width, depth):
        """Does value v, whose widest set has `width` members, lie within
        the bounds at this depth?"""
        bounds = self.bounds
        return (v.rank <= depth and v.max_nat <= bounds.max_nat
                and width <= bounds.max_set_size)

    def _allowed_subsets(self, allowed, rank):
        """The sets of `_pool_subsets` at this rank whose members all lie
        in allowed, in the same order."""
        key = (allowed, rank)
        sets = self._subsets.get(key)
        if sets is None:
            members = _in_pool_order(allowed, rank)
            sizes = range(min(self.bounds.max_set_size, len(members)) + 1)
            sets = self._subsets[key] = [
                gset(combo) for k in sizes for combo in itertools.combinations(members, k)]
        return sets

    def _gen_family(self, p, n, depth, b, allowed=None):
        inst = self.check.matcher.instance
        insts = [inst(p.body, p.binder, i) for i in range(1, n + 1)]
        yield from self._gen_union(insts, depth, b, allowed)

    def _gen_union(self, parts, depth, b, allowed=None, idx=0, acc=frozenset(),
                   big=EMPTY_SET):
        """The union of the parts' values (an element part adds itself),
        each branch cut as soon as the union so far has more than
        max_set_size members: the final union could only be larger.  Once
        the union is full, a part may only take members it already has.
        parts[idx:] are left; acc holds the members so far, and big is the
        largest part that went into it."""
        if idx == len(parts):
            yield _union_value(acc, big), b
            return
        cap, part = self.bounds.max_set_size, parts[idx]
        room = acc if len(acc) == cap else allowed
        if isinstance(part, ELEM_PATS):
            for v, b1 in self.gen_elem(part, depth, b, room):
                acc1 = acc | {v}
                if len(acc1) <= cap:
                    yield from self._gen_union(parts, depth, b1, allowed, idx + 1, acc1, big)
        else:
            for s, b1 in self.gen_set(part, depth, b, room):
                acc1 = acc.union(s)
                if len(acc1) <= cap:
                    yield from self._gen_union(parts, depth, b1, allowed, idx + 1, acc1,
                                               s if len(s) > len(big) else big)


_NO_CHECKS = ((), ())


def _in_pool_order(allowed, rank):
    """The members of allowed of at most this rank, in the order of the
    pool that `universe` lists: by rank, canonically within a rank.
    Every value the enumerator builds lies within its bounds, so these are
    the pool's members that lie in allowed."""
    return sorted((v for v in allowed if v.rank <= rank), key=lambda v: (v.rank, v))


def _union_value(acc, big):
    """The canonical set of the members in acc.  big is the largest part
    that went into acc, so it is that set when it has as many members."""
    return big if len(big) == len(acc) else gset(acc)


@lru_cache(maxsize=None)
def _check_plan(t: Template):
    """Where enumeration checks each of t's retained constraints early, and
    the least rank bound at which it can list anything.

    Returns (plan, arities, least, settler).  plan maps arrow patterns of
    t's root to the indices of the constraints checked as soon as the
    arrow's antecedent, and as soon as its consequent, is bound; arities
    holds the names of the root's arity variables (see
    `enumerate_template`).  A constraint is checked at the arrow side
    that binds the last root node mentioning one of its variables: the
    innermost such side outside every family, whose instances are bound
    one at a time.  From there on the binding gives the constraint's
    variables the values the finished binding gives them, and its verdict
    depends on nothing else, so a False there is the root check's False.
    It is also checked where each of its sides, binders' arities included,
    becomes ground on its own, if all that side's variables are root
    variables.  There the open side is matched against the ground one with
    its unbound variables free, at every arity the enumerator could bind,
    so a False says that no completion of the branch passes.
    A side on the root's consequent spine ends where the root does, and
    the root check follows it at once, so it gets no check of its own.

    least is the smallest rank bound at which every retained equation
    without binders can hold by ranks (`_least_rank`), and settler the
    index of the first equation that needs it (None when least is 0).
    The same walk of the root maps the name of each of its element and set
    variables to the keys its nodes read (`_keys_read`) and the most
    arrows above any of them.
    """
    root = t.root
    if not t.constraints or not isinstance(root, ArrowPat):
        return {}, frozenset(), 0, None
    # each variable node in walk order, with the side that binds it
    found, rooted = [], {}
    stack = [(root, None, False, 0, ())]
    while stack:
        p, side, in_family, depth, fams = stack.pop()
        if isinstance(p, _Var):
            found.append((p, side))
            if not isinstance(p, AVar):  # keys None once two nodes differ
                keys = _keys_read(p, fams)
                seen, deepest = rooted.get(p.name, (keys, depth))
                rooted[p.name] = (keys if seen == keys else None, max(deepest, depth))
        elif isinstance(p, ArrowPat):
            stack.append((p.cons, side if in_family else (p, 1), in_family, depth + 1, fams))
            stack.append((p.ante, side if in_family else (p, 0), in_family, depth + 1, fams))
        elif isinstance(p, FamilyPat):
            stack.append((p.body, side, True, depth, fams + (p,)))
            if isinstance(p.arity, AVar):
                stack.append((p.arity, side, in_family, depth, fams))
        else:
            stack.extend((q, side, in_family, depth, fams) for q in reversed(_parts(p)))
    spine = set()
    p = root
    while isinstance(p, ArrowPat):
        spine.add((p, 1))
        p = p.cons
    names = {q.name for q, _ in found}
    plan, least, settler = {}, 0, None
    for i, c in enumerate(t.constraints):
        reads, points = _reads(c), set()
        for sides in (_LEFT | _RIGHT, _LEFT, _RIGHT):  # both bound, then each alone
            own = {name for name, s in reads.items() if s & sides}
            if sides == _LEFT | _RIGHT or own <= names:
                points.add(next((s for q, s in reversed(found) if q.name in own), (root, 0)))
        for p, k in points - spine:
            plan.setdefault(p, ([], []))[k].append(i)
        if not c.binders:
            need = _least_rank(c, rooted)
            if need > least:
                least, settler = need, i
    return ({p: (tuple(ante), tuple(cons)) for p, (ante, cons) in plan.items()},
            frozenset(q.name for q, _ in found if isinstance(q, AVar)), least, settler)


def _keys_read(v, fams):
    """What variable node v reads under the families fams, outermost
    first: its kind, the arity of each family and its own index, with
    every binder in scope named by the position of its family.  Two nodes
    with equal results read the same keys of a binding."""
    pos, arities = {}, []
    for k, f in enumerate(fams):
        a = f.arity
        arities.append(a if isinstance(a, int) else (a.name, _by_position(a.index, pos)))
        pos[f.binder] = k
    return v.kind, tuple(arities), _by_position(v.index, pos)


def _by_position(index, pos):
    return tuple(("binder", pos[c]) if c in pos else c for c in index)


def _side_ranks(p, rooted):
    """The floor and the ceiling of set pattern p, one side of a retained
    equation, against a root described by `rooted` (see `_check_plan`).

    The floor is a rank that p's value surely reaches: the most, over
    the listing members, union parts and bodies of families of arity at
    least 1 that it surely holds, of the arrows above each of their leaves
    plus the leaf's own rank (0 for a variable).  The ceiling is (d, c):
    at rank bound R every value of p has rank at most max(R - d, c), d
    None when no variable bounds it; or None when p has no ceiling.  A
    variable whose every node, in the root and in p, reads the same keys
    takes a value of rank at most R less the arrows above it in the root;
    any other variable, a key the root never binds included, is unbounded.
    """
    floor, d, c = 0, None, 0
    leaves, keys = [], {}
    stack = [(p, 0, True, ())]
    while stack:
        q, above, sure, fams = stack.pop()
        if isinstance(q, (GElem, GSet)):
            c = max(c, above + q.rank)
            if sure:
                floor = max(floor, above + q.rank)
        elif isinstance(q, (EVar, SVar)):
            leaves.append((q.name, above))
            if sure:
                floor = max(floor, above)
            read = _keys_read(q, fams)
            keys[q.name] = read if keys.get(q.name, read) == read else None
        elif isinstance(q, ArrowPat):
            stack.append((q.ante, above + 1, sure, fams))
            stack.append((q.cons, above + 1, sure, fams))
        elif isinstance(q, FamilyPat):
            ar = q.arity if isinstance(q.arity, int) else q.arity.minimum
            stack.append((q.body, above, sure and ar >= 1, fams + (q,)))
        else:
            stack.extend((r, above, sure, fams) for r in _parts(q))
    for name, above in leaves:
        root_keys, depth = rooted.get(name, (None, 0))
        if root_keys is None or keys[name] != root_keys:
            return floor, None
        d = depth - above if d is None else min(d, depth - above)
    return floor, (d, c)


def _least_rank(c, rooted):
    """The least rank bound at which the two sides of binder-free equation
    c can be equal by ranks alone: each side's ceiling must reach the
    other side's floor (`_side_ranks`); math.inf if no bound does."""
    (left_floor, left_ceil), (right_floor, right_ceil) = (
        _side_ranks(c.left, rooted), _side_ranks(c.right, rooted))
    least = 0
    for ceiling, floor in ((left_ceil, right_floor), (right_ceil, left_floor)):
        if ceiling is not None and ceiling[1] < floor:  # max(R - d, c) >= floor
            least = max(least, math.inf if ceiling[0] is None else floor + ceiling[0])
    return least


def settled_by_ranks(t: Template, max_rank):
    """Why t lists no element within max_rank by the ranks of its retained
    equations alone (`_check_plan`'s least), naming the equation that
    needs the least rank bound; None when ranks leave max_rank open."""
    _, _, least, settler = _check_plan(t)
    if max_rank >= least:
        return None
    below = "at any rank" if least == math.inf else f"below rank {least}"
    return f"no element {below} (where {_constraint_text(t.constraints[settler])})"


def enumerate_template(t: Template, bounds: Bounds, budget=DEFAULT_BUDGET):
    """All described elements within the bounds.

    Returns (elements, truncated); truncated is always True for a
    nonempty pattern since the full family is unbounded in general.

    `budget` caps the enumerator's steps (one per pattern node visited
    and one per set tried for a set variable); a run that needs more
    raises BudgetExceeded.  So does a variable whose pool of elements is
    larger than the budget: the pool's size is counted, up to the budget,
    before any of it is built.  Steps count only the work actually done,
    so a branch that is cut early costs no more budget.

    A template whose retained equations cannot hold by ranks within
    max_rank (`_check_plan`'s least) lists nothing, and no branch of it is
    enumerated: one side of such an equation surely holds a member of a
    rank that the other side's values cannot reach within the bound.

    Branches are cut in three ways, all exact:
    - An arrow pattern whose values all have a rank above the depth left
      is not enumerated: it could yield nothing.
    - A branch is cut as soon as a partial set has more than max_set_size
      distinct members: the final set could only be larger.  Once a set
      holds max_set_size members, the rest of it is built only from those
      members, so nothing is built that this cut would drop.
    - Each retained constraint is checked as soon as the branch has bound
      every root variable it reads, and also as soon as it has bound all
      the variables of one of its sides (`_check_plan`); the branch is cut
      when it fails.  With both sides bound the verdict depends only on
      their values, which nothing later changes.  With one side ground,
      the other is matched against it with its unbound variables free, at
      every arity the enumerator could give them (the matcher's slack is at
      least max_arity, and the root's arity variables are `exact` to it),
      so a False says that no completion of the branch passes; a match with
      too many splits to try raises, and a constraint that raises there
      cuts nothing.
    Every binding that survives is then checked against all retained
    constraints in order, so the first that fails or raises decides.
    The enumerator, the early checks and this last check share one
    `_ConstraintCheck`, so each constraint's verdict is memoised for the
    life of the call, keyed on the values the binding gives to its own
    variables, and its `Matcher` builds each family instance once.
    """
    if t.is_empty:
        return [], False
    plan, arities, least, _ = _check_plan(t)
    if bounds.max_rank < least:
        return [], True
    slack = max(bounds.max_set_size, bounds.max_arity)
    check = _ConstraintCheck(t.constraints, slack, bounds.max_arity, arities)
    enum = _Enumerator(bounds, check, budget, plan)
    out = []
    seen = set()
    for v, b in enum.gen_elem(t.root, bounds.max_rank, {}):
        if v in seen:
            continue
        if check(b):
            seen.add(v)
            out.append(v)
    out.sort()
    return out, True


# ---------------------------------------------------------------------------
# staged application against extensional argument sets


def apply_template_chain(t: Template, arg_sets, bounds: Bounds):
    """Elements of t applied to extensional argument sets, stage by stage.

    Each stage consumes one argument set N: the current pattern must be
    an arrow, its antecedent is matched against finite subsets of N, and
    surviving branches continue with the consequent.  Ground results are
    exact; branches with leftover variables fall back to bounded
    enumeration and set the truncation flag.
    """
    if t.is_empty:
        return [], False
    sets = [s if isinstance(s, GSet) else gset(s) for s in arg_sets]
    slack = max(bounds.max_set_size, bounds.max_arity,
                max((s.width for s in sets), default=0))
    cap = max(bounds.max_set_size, bounds.max_arity)
    truncated = False
    check = _ConstraintCheck(t.constraints, slack, bounds.max_arity)
    names = frozenset().union(*check.reads)

    # a state's pattern is concretized once, under the state's binding
    states = [(_concretize(t.root, {}, check.matcher.instance), {})]
    for n_set in sets:
        nxt = []
        for pat, b in states:
            if isinstance(pat, EVar):
                return [], True  # unconstrained head: nothing exact to say
            if not isinstance(pat, (ArrowPat, Arrow)):
                continue  # naturals never apply
            for b1 in _match_ante(check.matcher, pat.ante, n_set, b, cap):
                nxt.append((_concretize(pat.cons, b1, check.matcher.instance), b1))
        seen = set()
        states = []
        for pat, b in nxt:
            key = pat_key(pat), frozenset(kv for kv in b.items() if kv[0][1] in names)
            if key not in seen:
                seen.add(key)
                states.append((pat, b))
    out = []
    seen = set()
    enum = _Enumerator(bounds, check)
    for pat, b in states:
        if isinstance(pat, GElem):
            if pat not in seen and check(b):
                seen.add(pat)
                out.append(pat)
            continue
        truncated = True
        for v, b2 in enum.gen_elem(pat, bounds.max_rank, b):
            if check(b2) and v not in seen:
                seen.add(v)
                out.append(v)
    out.sort()
    return out, truncated


def _match_ante(matcher, ante, n_set, b, cap):
    """Bindings for which the antecedent, concretized under b, denotes a
    subset of n_set.

    An open antecedent is matched against the subsets of n_set, smallest
    first: a listing against those with at most one element per member,
    a union against those with at most cap elements plus one per part,
    any other form against those with at most cap elements.
    """
    if isinstance(ante, GSet):
        if ante.issubset(n_set):
            yield b
        return
    if isinstance(ante, ExplicitPat):
        size = len(ante.members)
    elif isinstance(ante, UnionPat):
        size = cap + len(ante.parts)
    else:
        size = cap
    for k in range(min(size, len(n_set)) + 1):
        for combo in itertools.combinations(n_set, k):
            yield from matcher.match_set(ante, gset(combo), b)


# ---------------------------------------------------------------------------
# the closure predicate used by the companion experiments


def has_singleton_setvar(t: Template) -> bool:
    """Does the template hold a variable singleton {t} anywhere, such as
    K's antecedent: a listing whose only member is an element variable?"""
    if t.is_empty:
        return False
    sides = [t.root] + [p for c in t.constraints for p in (c.left, c.right)]
    return any(isinstance(q, ExplicitPat) and len(q.members) == 1
               and isinstance(q.members[0], EVar)
               for p in sides for q, _ in _nodes(p))


# ---------------------------------------------------------------------------
# rendering and serialization


def pretty(p) -> str:
    if isinstance(p, _Var):
        return _var_text(p.name, p.index)
    if isinstance(p, Nat):
        return str(p.value)
    if isinstance(p, (ArrowPat, Arrow)):
        return f"({pretty(p.ante)} -> {pretty(p.cons)})"
    if isinstance(p, (ExplicitPat, GSet)):
        return "{" + ", ".join(pretty(m) for m in _listing(p)) + "}"
    if isinstance(p, FamilyPat):
        ar = str(p.arity) if isinstance(p.arity, int) else pretty(p.arity)
        if isinstance(p.body, ELEM_PATS):
            return "{" + f"{pretty(p.body)} : {p.binder} in 1..{ar}" + "}"
        return f"U({p.binder} in 1..{ar}) {pretty(p.body)}"
    if isinstance(p, UnionPat):
        return " + ".join(pretty(q) for q in p.parts)
    raise TypeError(f"not a pattern: {p!r}")


def template_to_text(t: Template) -> str:
    if t.is_empty:
        return "<empty>"
    return "\n".join([pretty(t.root)]
                     + [f"  where {_constraint_text(c)}" for c in t.constraints])


def _constraint_text(c: Constraint) -> str:
    prefix = "".join(f"forall {bn} in 1..{ar if isinstance(ar, int) else pretty(ar)}: "
                     for bn, ar in c.binders)
    return f"{prefix}{pretty(c.left)} = {pretty(c.right)}"


def _var_text(name, index):
    if not index:
        return name
    return name + "[" + ",".join(str(c) for c in index) + "]"


def pattern_to_json(p):
    if isinstance(p, EVar):
        return {"evar": {"name": p.name, "index": list(p.index)}}
    if isinstance(p, ArrowPat):
        return {"tarrow": {"ante": pattern_to_json(p.ante),
                           "cons": pattern_to_json(p.cons)}}
    if isinstance(p, SVar):
        return {"svar": {"name": p.name, "index": list(p.index)}}
    if isinstance(p, ExplicitPat):
        return {"explicit": [pattern_to_json(m) for m in p.members]}
    if isinstance(p, FamilyPat):
        return {"family": {"arity": _arity_to_json(p.arity), "index": p.binder,
                           "body": pattern_to_json(p.body)}}
    if isinstance(p, UnionPat):
        return {"union": [pattern_to_json(q) for q in p.parts]}
    raise TypeError(f"not a pattern: {p!r}")


def _arity_to_json(ar):
    if isinstance(ar, int):
        return ar
    return {"name": ar.name, "index": list(ar.index), "min": ar.minimum}


def template_to_json(t: Template):
    if t.is_empty:
        return {"empty": True}
    return {
        "root": pattern_to_json(t.root),
        "constraints": [
            {
                "binders": [{"index": bn, "arity": _arity_to_json(ar)}
                            for bn, ar in c.binders],
                "left": pattern_to_json(c.left),
                "right": pattern_to_json(c.right),
            }
            for c in t.constraints
        ],
    }
