"""Companion construction over the base element ({0} |-> 0).

An element is base-rooted when peeling arrow antecedents eventually
lands exactly on ({0} |-> 0).  Its companion swaps that core for
({0} |-> mu) with a fresh natural mu, threaded through a template match
of the hosting term: either some matched element variable holds a
base-rooted value (case "i") or the match pins an element variable to 0
inside a set variable bound to {0} (case "ii").  The closure sweep
checks that companions of members are again members — which holds for
terms built from S alone, and is exactly what a term behaving like K
would violate.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import Arrow, GElem, GSet, Nat, gset, nat
from .terms import Term, atoms_used, is_closed
from .templates import (
    instantiate,
    matches,
    member_via_template,
    template_of,
)


class CompanionError(ValueError):
    """Base class for companion-construction failures."""


class NotBaseRooted(CompanionError):
    pass


class NoCaseApplies(CompanionError):
    """A reportable finding: the match fits neither replacement case."""


@dataclass(frozen=True)
class B0BaseDecomposition:
    prefix: tuple  # the peeled antecedent sets, outermost first
    depth: int


def b0() -> GElem:
    return Arrow(gset((nat(0),)), nat(0))


def b_mu(mu: int) -> GElem:
    if mu < 1:
        raise ValueError("mu must be at least 1")
    return Arrow(gset((nat(0),)), nat(mu))


def b0_base(e: GElem):
    """Decomposition of e as nested arrows ending at ({0} |-> 0), if any."""
    core = b0()
    prefix = []
    x = e
    while x != core:
        if not isinstance(x, Arrow):
            return None
        prefix.append(x.ante)
        x = x.cons
    return B0BaseDecomposition(tuple(prefix), len(prefix))


def rebuild(dec: B0BaseDecomposition, core: GElem) -> GElem:
    out = core
    for ante in reversed(dec.prefix):
        out = Arrow(ante, out)
    return out


def substitute_mu(e: GElem, mu: int) -> GElem:
    """Same antecedent prefix, terminal ({0}|->0) replaced by ({0}|->mu)."""
    dec = b0_base(e)
    if dec is None:
        raise NotBaseRooted("element has no base decomposition")
    return rebuild(dec, b_mu(mu))


def choose_mu(e: GElem) -> int:
    return e.max_nat + 1


def _require_s_only(sigma: Term):
    if not is_closed(sigma):
        raise CompanionError("term must be closed")
    used = atoms_used(sigma)
    if used - {"S"}:
        raise CompanionError(
            f"companion construction is defined for S-only terms, got atoms {sorted(used)}"
        )


def companion_candidates(sigma: Term, e: GElem, mu: int):
    """All (case, element) companion candidates across template matches.

    Case "i" replaces the deepest base-rooted element-variable value;
    case "ii" (tried only when no variable supports case "i") bumps an
    element variable matched to 0 inside a {0}-valued set variable.
    """
    _require_s_only(sigma)
    if mu <= e.max_nat:
        raise CompanionError("mu must exceed every natural in the element")
    if b0_base(e) is None:
        raise NotBaseRooted("element has no base decomposition")
    t = template_of(sigma)
    found_match = False
    out = []
    seen = set()
    for b in matches(t, e):
        found_match = True
        evars = [
            (key, val)
            for key, val in b.items()
            if key[0] == "e" and isinstance(val, GElem)
        ]
        case_i = []
        for key, val in evars:
            dec = b0_base(val)
            if dec is not None:
                case_i.append((dec.depth, key, val))
        if case_i:
            deepest = max(d for d, _, _ in case_i)
            for depth, key, val in case_i:
                if depth != deepest:
                    continue
                b2 = dict(b)
                b2[key] = substitute_mu(val, mu)
                cand = instantiate(t, b2)
                if ("i", cand) not in seen:
                    seen.add(("i", cand))
                    out.append(("i", cand))
            continue
        has_sing = any(
            key[0] == "s" and isinstance(val, GSet)
            and len(val) == 1 and val[0] == nat(0)
            for key, val in b.items()
        )
        zeros = [
            key for key, val in evars if isinstance(val, Nat) and val.value == 0
        ]
        if has_sing and zeros:
            for key in zeros:
                b2 = dict(b)
                b2[key] = nat(mu)
                cand = instantiate(t, b2)
                if ("ii", cand) not in seen:
                    seen.add(("ii", cand))
                    out.append(("ii", cand))
            continue
    if not found_match:
        raise CompanionError("element is not a member of the term's denotation")
    if not out:
        raise NoCaseApplies(
            "no template variable supports either replacement case"
        )
    return out


# the set width and step budget of a sweep given none: at these a sweep
# of the S-only terms up to 4 leaves finishes
SWEEP_SET_WIDTH = 1
SWEEP_BUDGET = 400_000


def sweep_closure(max_leaves: int = 4, max_rank: int = 3,
                  set_width: int = SWEEP_SET_WIDTH, max_nat: int = 1,
                  budget: int = SWEEP_BUDGET, progress=None):
    """Closure check for every base-rooted element found by bounded
    template enumeration of every S-only term up to the leaf budget.

    Enumeration depth adapts per term: the rank bound is raised from 3
    (or from max_rank, if lower) up to max_rank while the step budget
    holds out, and the deepest completed rank's elements are used.  A
    term whose enumeration meets a retained constraint the matcher cannot
    decide (UnsupportedMatch) is skipped: summary["unsupported"] maps it
    to the message, and its rank reached is 0.  Returns (records,
    summary); summary counts closed / violated / no-case findings and
    notes the rank reached per term.  summary["unchecked"] maps every
    term with no element checked to the reason: unsupported, the budget
    exhausted at a rank before any completed, or no base-rooted element
    up to the rank reached, or the retained equation whose ranks rule out
    every element up to it (`settled_by_ranks`).
    """
    from .model import Bounds
    from .templates import (
        BudgetExceeded, UnsupportedMatch, enumerate_template, settled_by_ranks,
    )
    from .terms import enumerate_s_terms, print_term

    records = []
    summary = {"terms": 0, "elements": 0, "closed": 0, "violated": 0,
               "no_case": 0, "rank_reached": {}, "unsupported": {},
               "unchecked": {}}
    for sigma in enumerate_s_terms(max_leaves):
        summary["terms"] += 1
        name = print_term(sigma)
        t = template_of(sigma)
        elems, reached, exhausted = [], 0, None
        try:
            for rank in range(min(3, max_rank), max_rank + 1):
                bounds = Bounds(max_rank=rank, max_set_size=set_width,
                                max_nat=max_nat)
                try:
                    cur, _ = enumerate_template(t, bounds, budget=budget)
                except BudgetExceeded:
                    exhausted = rank
                    break
                elems, reached = cur, rank
        except UnsupportedMatch as exc:
            summary["unsupported"][name] = str(exc)
            summary["unchecked"][name] = f"unsupported: {exc}"
            summary["rank_reached"][name] = 0
            continue
        summary["rank_reached"][name] = reached
        based = [e for e in elems if b0_base(e) is not None]
        if not based:
            summary["unchecked"][name] = (
                f"budget exhausted at rank {exhausted}" if exhausted and not reached else
                settled_by_ranks(t, reached)
                or f"no base-rooted element up to rank {reached}")
        for e in based:
            summary["elements"] += 1
            rec = closure_report(sigma, e)
            records.append(rec)
            if rec["case"] == "none":
                summary["no_case"] += 1
            elif rec["member"]:
                summary["closed"] += 1
            else:
                summary["violated"] += 1
            if progress is not None:
                progress(rec)
    return records, summary


def closure_report(sigma: Term, e: GElem, source: str = "") -> dict:
    """One sweep record: companion candidates and their membership.  The
    element and its companions are kept as values; `cli` writes them."""
    from .terms import print_term

    mu = choose_mu(e)
    record = {
        "sigma": print_term(sigma),
        "element": e,
        "mu": mu,
    }
    if source:
        record["source"] = source
    try:
        cands = companion_candidates(sigma, e, mu)
    except NoCaseApplies as exc:
        record.update(case="none", companion=None, member=None, finding=str(exc))
        return record
    # companion_candidates checks the term first, so the template is
    # built only for a closed S-only term
    t = template_of(sigma)
    cases = sorted({case for case, _ in cands})
    members = [member_via_template(t, c) for _, c in cands]
    if len(cands) == 1:
        record.update(
            case=cands[0][0],
            companion=cands[0][1],
            member=members[0],
        )
    else:
        record.update(
            case="/".join(cases),
            companion=[c for _, c in cands],
            member=all(members),
        )
    return record
