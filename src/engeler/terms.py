"""Terms of combinatory logic: parsing, printing, metrics, enumeration.

Applicative terms over the atoms K, S, B, I, J, L, M and numbered variables
x0, x1, ...  Application is a binary tree node; concrete syntax associates to
the left, so ``SKK`` is ``(S K) K``.
"""

from __future__ import annotations

from functools import lru_cache

ATOM_NAMES = ("K", "S", "B", "I", "J", "L", "M")

# Short aliases accepted by the parser for the first few variables.
VAR_ALIASES = {"x": 0, "y": 1, "z": 2, "w": 3}

# The digits of variable indices and element naturals (str.isdigit would
# also take '²' and '٣').
DIGITS = frozenset("0123456789")

# Process-independent structural hashing (salted str hashes would make
# frontier ordering irreproducible across runs).
_MASK = (1 << 64) - 1


def _mix(tag, a, b):
    h = (tag * 0x9E3779B97F4A7C15) & _MASK
    h ^= a
    h = (h * 0xC2B2AE3D27D4EB4F) & _MASK
    h ^= b
    h = (h * 0x165667B19E3779F9) & _MASK
    return h ^ (h >> 29)


class Term:
    """Base class; use atom(), var(), app() to build."""

    __slots__ = ("_hash", "size")

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Term({print_term(self)!r})"

    def __str__(self):
        return print_term(self)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Term) or self._hash != other._hash:
            return False
        return _term_eq(self, other)


class Atom(Term):
    __slots__ = ("name",)
    __match_args__ = ("name",)

    def __init__(self, name):
        self.name = name
        self.size = 1
        self._hash = _mix(1, ATOM_NAMES.index(name) + 1, 0)


class Var(Term):
    __slots__ = ("index",)
    __match_args__ = ("index",)

    def __init__(self, index):
        self.index = index
        self.size = 1
        self._hash = _mix(2, index + 1, 0)


class App(Term):
    __slots__ = ("left", "right")
    __match_args__ = ("left", "right")

    def __init__(self, left, right):
        self.left = left
        self.right = right
        self.size = left.size + right.size
        self._hash = _mix(3, left._hash, right._hash)


def _term_eq(a, b):
    # Iterative structural equality (avoids recursion limits on deep spines).
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if x is y:
            continue
        if type(x) is not type(y):
            return False
        if isinstance(x, Atom):
            if x.name != y.name:
                return False
        elif isinstance(x, Var):
            if x.index != y.index:
                return False
        else:
            stack.append((x.left, y.left))
            stack.append((x.right, y.right))
    return True


_ATOMS = {name: Atom(name) for name in ATOM_NAMES}


def atom(name: str) -> Atom:
    try:
        return _ATOMS[name]
    except KeyError:
        raise ValueError(f"unknown atom {name!r}") from None


@lru_cache(maxsize=None)
def var(index: int) -> Var:
    if index < 0:
        raise ValueError("variable index must be >= 0")
    return Var(index)


def app(left: Term, right: Term) -> App:
    return App(left, right)


def app_spine(head: Term, *args: Term) -> Term:
    """Left-nested application of head to args."""
    t = head
    for a in args:
        t = App(t, a)
    return t


def spine(t: Term):
    """Decompose t as (head, [arg1, ..., argn]) along the left spine."""
    args = []
    while isinstance(t, App):
        args.append(t.right)
        t = t.left
    args.reverse()
    return t, args


# ---------------------------------------------------------------------------
# Parsing


class ParseError(ValueError):
    """Syntax error; `offset` is a byte offset into the input."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (byte {offset})")
        self.offset = offset


def _byte_offset(text, char_index):
    return len(text[:char_index].encode("utf-8"))


def _tokenize(text):
    toks = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c == "(":
            toks.append(("(", None, i))
            i += 1
        elif c == ")":
            toks.append((")", None, i))
            i += 1
        elif c == "·":  # explicit application dot
            toks.append((".", None, i))
            i += 1
        elif c in _ATOMS:
            toks.append(("atom", c, i))
            i += 1
        elif c == "x" and i + 1 < n and text[i + 1] in DIGITS:
            j = i + 1
            while j < n and text[j] in DIGITS:
                j += 1
            try:
                index = int(text[i + 1 : j])
            except ValueError:  # more digits than int() converts
                raise ParseError("variable index too long",
                                 _byte_offset(text, i)) from None
            toks.append(("var", index, i))
            i = j
        elif c in VAR_ALIASES:
            toks.append(("var", VAR_ALIASES[c], i))
            i += 1
        else:
            raise ParseError(f"unexpected character {c!r}", _byte_offset(text, i))
    return toks


def parse_term(text: str) -> Term:
    """Parse concrete syntax: juxtaposition or '·' for application,
    parentheses for grouping, atoms KSBIJLM, variables x0, x1, ... with
    aliases x y z w.  Parses with its own stack, so text nested to any
    depth is read."""
    toks = _tokenize(text)
    if not toks:
        raise ParseError("empty term", _byte_offset(text, len(text)))
    toks.append((None, None, len(text)))
    # items of the innermost open group, whether an item must come next,
    # the '(' that opened the group (None at the top), and the groups
    # around it as (items, opener) pairs
    items, expect_item, opener, outer = [], True, None, []
    for kind, value, ci in toks:
        if kind == "atom" or kind == "var":
            items.append(atom(value) if kind == "atom" else var(value))
            expect_item = False
        elif kind == ".":
            if expect_item:
                raise ParseError("misplaced '·'", _byte_offset(text, ci))
            expect_item = True
        elif kind == "(":
            outer.append((items, opener))
            items, expect_item, opener = [], True, ci
        else:  # ')' or the end closes the innermost group
            if expect_item and items:
                raise ParseError("dangling '·'", _byte_offset(text, ci))
            if not items:
                raise ParseError("expected a term", _byte_offset(text, ci))
            t = items[0]
            for it in items[1:]:
                t = App(t, it)
            if opener is None:
                if kind is not None:
                    raise ParseError("unbalanced ')'", _byte_offset(text, ci))
                return t
            if kind is None:
                raise ParseError("unbalanced '('", _byte_offset(text, opener))
            items, opener = outer.pop()
            items.append(t)
            expect_item = False


# ---------------------------------------------------------------------------
# Printing


def print_term(t: Term, style: str = "minimal") -> str:
    """Render a term.  'minimal' uses left association and only the
    parentheses it must; 'full' parenthesizes every application with an
    explicit dot, e.g. ((S·K)·K)."""
    if style == "minimal":
        return _print_minimal(t)
    if style == "full":
        return _print_full(t)
    raise ValueError(f"unknown style {style!r}")


def _print_minimal(t):
    out = []
    # (term, parenthesize?) work stack
    work = [(t, False)]
    while work:
        item = work.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        node, parens = item
        if isinstance(node, Atom):
            out.append(node.name)
        elif isinstance(node, Var):
            out.append(f"x{node.index}")
        else:
            if parens:
                out.append("(")
                work.append(")")
            work.append((node.right, True))
            work.append((node.left, False))
    return "".join(out)


def _print_full(t):
    out = []
    work = [t]
    while work:
        node = work.pop()
        if isinstance(node, str):
            out.append(node)
        elif isinstance(node, Atom):
            out.append(node.name)
        elif isinstance(node, Var):
            out.append(f"x{node.index}")
        else:
            out.append("(")
            work.extend([")", node.right, "·", node.left])
    return "".join(out)


# ---------------------------------------------------------------------------
# JSON wire format: {"atom": "S"} | {"var": 0} | {"app": [l, r]}


def term_json(t: Term) -> str:
    """The JSON text of t, written with its own stack, so that a term of
    any depth is written."""
    out, work = [], [t]
    while work:
        node = work.pop()
        if isinstance(node, str):
            out.append(node)
        elif isinstance(node, App):
            out.append('{"app": [')
            work += ("]}", node.right, ", ", node.left)
        elif isinstance(node, Atom):
            out.append(f'{{"atom": "{node.name}"}}')
        else:
            out.append(f'{{"var": {node.index}}}')
    return "".join(out)


# ---------------------------------------------------------------------------
# Metrics


def term_stats(t: Term) -> dict:
    """Leaf count plus per-kind tallies of the leaves."""
    size = s_count = k_count = var_count = 0
    work = [t]
    while work:
        node = work.pop()
        if isinstance(node, App):
            work.append(node.left)
            work.append(node.right)
            continue
        size += 1
        if isinstance(node, Var):
            var_count += 1
        elif node.name == "S":
            s_count += 1
        elif node.name == "K":
            k_count += 1
    return {
        "size": size,
        "s_count": s_count,
        "k_count": k_count,
        "var_count": var_count,
    }


def is_closed(t: Term) -> bool:
    return term_stats(t)["var_count"] == 0


def atoms_used(t: Term) -> set:
    out = set()
    work = [t]
    while work:
        node = work.pop()
        if isinstance(node, App):
            work.append(node.left)
            work.append(node.right)
        elif isinstance(node, Atom):
            out.add(node.name)
    return out


# ---------------------------------------------------------------------------
# Enumeration


def _shapes(n, leaves):
    # All binary trees with n leaves over the given leaf terms, in a fixed
    # order: leaf choices first, then split position.
    if n == 1:
        return list(leaves)
    out = []
    for i in range(1, n):
        for l in _shapes(i, leaves):
            for r in _shapes(n - i, leaves):
                out.append(App(l, r))
    return out


def enumerate_terms(max_leaves: int, alphabet=("S",)):
    """Yield every closed term over `alphabet` with at most max_leaves
    leaves, in nondecreasing leaf count, each exactly once."""
    leaves = [atom(a) for a in alphabet]
    for n in range(1, max_leaves + 1):
        yield from _shapes(n, leaves)


def enumerate_s_terms(max_leaves: int):
    """All-S terms by nondecreasing leaf count; Catalan(n-1) of size n."""
    return enumerate_terms(max_leaves, alphabet=("S",))


# ---------------------------------------------------------------------------
# Standard combinators with K/S definitions

# Sigma0 behaves as an identity without rewriting to SKK.  Its traditional
# display, S(S(S(SK)(S(KK)S(KK)I)))(KI))K, is unbalanced by one right
# parenthesis; of all single-character corrections, exactly one yields a
# term with `Sigma0 x ->* x` (13 leftmost-outermost steps), and that form
# is kept here: the middle reads S(KK)(S(KK)I).
_STDLIB_SOURCES = {
    "B": "S(KS)K",
    "I": "SKK",
    "L": "((S((S(KS))K))(K((S((SK)K))((SK)K))))",
    "M": "S(SKK)(SKK)",
    "Kstarstar": "K(K(SKK))",
    "Sigma0": "S(S(S(SK)(S(KK)(S(KK)I)))(KI))K",
}


@lru_cache(maxsize=None)
def stdlib_lookup(name: str) -> Term:
    """Closed K/S definition of a library combinator (B, I, L, M,
    Kstarstar, Sigma0)."""
    try:
        src = _STDLIB_SOURCES[name]
    except KeyError:
        raise KeyError(
            f"no library definition for {name!r}; known: {sorted(_STDLIB_SOURCES)}"
        ) from None
    return parse_term(src)


def expand_stdlib(t: Term) -> Term:
    """Replace B, I, L, M atoms by their K/S definitions.  J has no such
    definition here and is rejected.  Walks with its own stack, so a term
    of any depth expands, and keeps each node whose two sides are
    unchanged, so a K/S term comes back as itself."""
    done, work = [], [t]
    while work:
        node = work.pop()
        if node is None:  # the App under the marker has both sides done
            node = work.pop()
            right = done.pop()
            left = done[-1]
            if left is not node.left or right is not node.right:
                done[-1] = App(left, right)
            else:
                done[-1] = node
        elif type(node) is App:
            work += (node, None, node.right, node.left)
        elif type(node) is Atom and node.name != "K" and node.name != "S":
            if node.name == "J":
                raise ValueError("no K/S definition available for J")
            done.append(stdlib_lookup(node.name))
        else:
            done.append(node)
    return done[0]
