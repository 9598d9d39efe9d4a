"""Shared test helpers."""

import re

from engeler.terms import app, atom

_SUFFIXED = re.compile(r"([A-Za-z]+)((?:\.\d+)+)")


def canon_template_text(text: str) -> str:
    """Rename suffixed template variables by first appearance.

    Fresh-variable suffixes (t.3, f.10, i.54, ...) depend on a global
    counter and shift whenever unrelated code allocates variables, so
    golden comparisons must not depend on them.  Each distinct suffixed
    name is rewritten to base + ordinal: the first "t.<anything>" seen
    becomes t0, the next distinct one t1, and so on.  Unsuffixed names
    (the base-template vocabulary: t, tau, f, r, s, i, n) pass through.
    """
    seen = {}

    def sub(m):
        full, base = m.group(0), m.group(1)
        if full not in seen:
            seen[full] = f"{base}{sum(1 for k in seen if _SUFFIXED.match(k).group(1) == base)}"
        return seen[full]

    return _SUFFIXED.sub(sub, text)


def random_term(rng, leaves, alphabet="SK"):
    """Uniform-ish random closed term with exactly `leaves` leaves."""
    if leaves == 1:
        return atom(rng.choice(alphabet))
    split = rng.randint(1, leaves - 1)
    return app(random_term(rng, split, alphabet),
               random_term(rng, leaves - split, alphabet))


def exhaust_budget_on(monkeypatch, name):
    """Make enumeration of the template of the term `name` run out of its
    budget at once, wherever `engeler.templates.enumerate_template` is
    looked up at call time."""
    import engeler.templates
    from engeler.terms import parse_term

    exhausting = engeler.templates.template_of(parse_term(name))
    enumerate_template = engeler.templates.enumerate_template

    def budgeted(t, bounds, budget):
        if t is exhausting:
            raise engeler.templates.BudgetExceeded("faked", budget, budget, bounds)
        return enumerate_template(t, bounds, budget=budget)

    monkeypatch.setattr(engeler.templates, "enumerate_template", budgeted)
