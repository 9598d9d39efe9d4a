"""Command-line surface: term utilities, denotation queries, and the
experiment drivers.

Exit codes: 0 success or pass; 1 usage, parse or input error; 2 bounded
failure (fuel, cycle, enumeration budget); 3 semantic error (an
unsupported composition or match, or a violated precondition); 4
experiment fail.  A command that stops on an error prints one line on
stderr, never a traceback: `main` maps the exceptions a command raises to
these codes in one place.  All machine output is line-delimited JSON
behind --json; human-readable text otherwise.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from dataclasses import asdict, dataclass
from functools import partial

from .companion import SWEEP_BUDGET, SWEEP_SET_WIDTH, b0, closure_report, sweep_closure
from .model import (
    ApplyExpr,
    Bounds,
    Denotation,
    ElementSyntaxError,
    Extensional,
    GElem,
    enumerate_g,
    eval_setexpr,
    extensional_bullet,
    gelem_from_json,
    gelem_json,
    gelem_to_text,
    gset,
    gset_to_text,
    parse_gelem,
)
from .rewrite import (
    DEFAULT_FUEL,
    DEFAULT_WIDTH,
    NORMAL_FORM,
    identity_behavior,
    normal_form,
    reduce,
    reduces_to,
)
from .templates import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    TemplateError,
    enumerate_template,
    has_singleton_setvar,
    member_via_template,
    settled_by_ranks,
    template_of,
    template_to_json,
    template_to_text,
)
from .oracle import member_oracle
from .terms import (
    ParseError,
    Term,
    atom,
    enumerate_s_terms,
    expand_stdlib,
    parse_term,
    print_term,
    stdlib_lookup,
    term_json,
    term_stats,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BOUNDED = 2
EXIT_SEMANTIC = 3
EXIT_EXPERIMENT = 4

# Config file keys (key=value, '#' comments).  Flags override these;
# these override a command's own defaults, and those the built-in ones.
DEFAULTS = {"fuel": DEFAULT_FUEL, "width": DEFAULT_WIDTH, **asdict(Bounds()),
            "budget": DEFAULT_BUDGET}
# closure-sweep runs at sweep_closure's own defaults, under which a full
# sweep finishes; at DEFAULTS it runs out of time and memory
SWEEP_DEFAULTS = {"max_set_size": SWEEP_SET_WIDTH, "budget": SWEEP_BUDGET}
MAX_S = 8  # search-identity's largest S-leaf budget


class ConfigError(ValueError):
    pass


def _count(text: str) -> int:
    """The value of every numeric flag and config key: digits 0-9 only."""
    if text.isascii() and text.isdigit():
        try:
            return int(text)
        except ValueError:  # more digits than int() converts
            pass
    raise argparse.ArgumentTypeError(
        f"expected a non-negative integer, got {text!r}")


def load_config(path: str) -> dict:
    out = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value")
            key, val = (s.strip() for s in line.split("=", 1))
            if key not in DEFAULTS:
                raise ConfigError(
                    f"{path}:{lineno}: unknown key {key!r} "
                    f"(known: {', '.join(sorted(DEFAULTS))})"
                )
            try:
                out[key] = _count(val)
            except argparse.ArgumentTypeError as exc:
                raise ConfigError(f"{path}:{lineno}: {key}: {exc}") from None
    return out


def effective_settings(args) -> dict:
    cfg = DEFAULTS | getattr(args, "own_defaults", {})
    if getattr(args, "config", None):
        cfg.update(load_config(args.config))
    for key in DEFAULTS:
        flag = getattr(args, key, None)
        if flag is not None:
            cfg[key] = flag
    return cfg


class Emitter:
    """Route output: plain text, or one JSON object per line."""

    def __init__(self, as_json: bool, out=None):
        self.as_json = as_json
        self.out = out if out is not None else sys.stdout

    def emit(self, text: str, obj=None):
        if self.as_json:
            if obj is not None:
                print(_json_line(obj), file=self.out)
        else:
            print(text, file=self.out)

    def note(self, text: str):
        # commentary that scripts should be able to skip
        if not self.as_json:
            print(f"# {text}", file=self.out)


def _json_line(obj) -> str:
    """json.dumps(obj, sort_keys=True), except that a Term is written by
    term_json and a GElem by gelem_json, wherever it sits in obj's dicts
    and lists, so that a term or an element of any depth is written."""
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{json.dumps(key)}: {_json_line(val)}"
                               for key, val in sorted(obj.items())) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(map(_json_line, obj)) + "]"
    if isinstance(obj, Term):
        return term_json(obj)
    if isinstance(obj, GElem):
        return gelem_json(obj)
    return json.dumps(obj)


@dataclass
class ExperimentReport:
    name: str
    parameters: dict
    cases: list
    verdict: str  # pass | fail | inconclusive-bounds
    wall_time: float

    def to_json(self):
        return {
            "name": self.name,
            "parameters": self.parameters,
            "cases": self.cases,
            "verdict": self.verdict,
            "wall_time": round(self.wall_time, 3),
        }

    def emit(self, em: Emitter):
        if em.as_json:
            for case in self.cases:
                em.emit("", {"case": case})
            em.emit("", self.to_json() | {"cases": len(self.cases)})
            return
        for case in self.cases:
            ok = case.get("ok")
            mark = "ok " if ok else ("?? " if ok is None else "FAIL")
            ident = case.get("id") or case.get("term") or "-"
            detail = case.get("detail", "")
            em.emit(f"[{mark}] {ident}  {detail}".rstrip())
        params = " ".join(f"{k}={v}" for k, v in sorted(self.parameters.items()))
        em.emit(
            f"verdict: {self.verdict} ({len(self.cases)} cases, "
            f"{self.wall_time:.1f}s; {params})"
        )


def _verdict(cases, covered=True) -> str:
    if any(c.get("ok") is False for c in cases):
        return "fail"
    return "pass" if covered else "inconclusive-bounds"


# ---------------------------------------------------------------------------
# argument helpers


class _Parser(argparse.ArgumentParser):
    # argparse prints its usage block and exits 2 on bad usage; the
    # contract is one line on stderr and reserves 2 for bounded failures.
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _resolve_term(text: str, expand: bool = True):
    """A term literal, or the name of a library combinator; library atoms
    are replaced by their K/S sources when `expand` is set."""
    try:
        t = parse_term(text)
    except ParseError as first:
        try:
            t = stdlib_lookup(text.strip())
        except KeyError:
            raise first from None
    return expand_stdlib(t) if expand else t


def _parse_element(text: str):
    """An element in text form ('({0} -> 0)', '3') or as a JSON element
    object (see gelem_from_json).  Text form starts with '(' or is all
    digits 0-9; anything else is read as JSON."""
    text = text.strip()
    if text.startswith("(") or (text.isascii() and text.isdigit()):
        return parse_gelem(text)
    try:
        obj = _load_json(text)
    except json.JSONDecodeError as exc:
        raise ElementSyntaxError(
            f"{text!r} is neither element text nor JSON ({exc})"
        ) from None
    return gelem_from_json(obj)


def _load_json(text: str):
    """json.loads; JSON nested deeper than the decoder can follow, or with
    a number longer than int() converts, is an ElementSyntaxError, since
    only elements are read as JSON here."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ElementSyntaxError("JSON nested too deeply") from None
    except json.JSONDecodeError:
        raise
    except ValueError:  # int()'s limit on the digits it converts
        raise ElementSyntaxError("JSON number too long") from None


def _read_set_file(path: str):
    """Read a set of elements from a file.

    A file whose content starts with '[' is a JSON array of element
    objects, as written by --json (e.g. [{"nat": 0}]).  Otherwise it holds
    one element per line, in text or JSON form; '#' starts a comment.
    """
    with open(path, encoding="utf-8") as fh:
        content = fh.read()
    stripped = content.strip()
    if stripped.startswith("["):
        return gset([gelem_from_json(o) for o in _load_json(stripped)])
    elems = []
    for line in content.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            elems.append(_parse_element(line))
    return gset(elems)


def _element_text(val) -> str:
    """Text form of an element, or of a list of them."""
    if isinstance(val, list):
        return " | ".join(map(gelem_to_text, val))
    return gelem_to_text(val)


# ---------------------------------------------------------------------------
# plain term commands


def cmd_parse(args, em, cfg):
    t = _resolve_term(args.term, args.expand)
    text, obj = print_term(t), {"term": print_term(t), "json": t}
    if args.stats:
        obj["stats"] = stats = term_stats(t)
        text += "\n# " + " ".join(f"{k}={v}" for k, v in sorted(stats.items()))
    em.emit(text, obj)
    return EXIT_OK


def cmd_reduce(args, em, cfg):
    t = _resolve_term(args.term, args.expand)
    trace = reduce(t, fuel=cfg["fuel"])
    if em.as_json:
        if args.trace:
            for k, step in enumerate(trace.steps):
                em.emit("", {"step": k, "term": step.term,
                             "redex": list(step.redex)})
        em.emit("", {"outcome": trace.outcome,
                     "final": trace.final,
                     "steps": len(trace.steps)})
    else:
        if args.trace:
            for step in trace.steps:
                em.emit(print_term(step.term))
        em.emit(print_term(trace.final))
        em.note(f"{trace.outcome} after {len(trace.steps)} steps")
    return EXIT_OK if trace.outcome == NORMAL_FORM else EXIT_BOUNDED


def cmd_normal_form(args, em, cfg):
    t = _resolve_term(args.term, args.expand)
    final, ok = normal_form(t, fuel=cfg["fuel"])
    em.emit(print_term(final), {"final": final, "normal": ok})
    return EXIT_OK if ok else EXIT_BOUNDED


# ---------------------------------------------------------------------------
# denotation commands


def cmd_template(args, em, cfg):
    tpl = template_of(_resolve_term(args.term))
    em.emit(template_to_text(tpl), {"template": template_to_json(tpl)})
    return EXIT_OK


def cmd_member(args, em, cfg):
    t = _resolve_term(args.term)
    e = _parse_element(args.element)
    if args.via == "oracle":
        got = member_oracle(t, e)
    else:
        got = member_via_template(template_of(t), e)
    em.emit("true" if got else "false",
            {"term": print_term(t), "element": e,
             "member": got, "via": args.via})
    return EXIT_OK


def cmd_enumerate(args, em, cfg):
    tpl = template_of(_resolve_term(args.term))
    bounds = Bounds(max_rank=cfg["max_rank"], max_set_size=cfg["max_set_size"],
                    max_nat=cfg["max_nat"], max_arity=cfg["max_arity"])
    elems, _ = enumerate_template(tpl, bounds, budget=cfg["budget"])
    for e in elems:
        em.emit(gelem_to_text(e), {"element": e, "text": gelem_to_text(e)})
    settled = settled_by_ranks(tpl, bounds.max_rank)
    if settled:
        em.note(f"ranks settle it: {settled}")
    em.note(f"count={len(elems)} within rank<={bounds.max_rank} "
            f"set<={bounds.max_set_size} nat<={bounds.max_nat}")
    if em.as_json:
        em.emit("", {"count": len(elems), "bounds": vars(bounds)})
    return EXIT_OK


def cmd_apply(args, em, cfg):
    sets = [_read_set_file(p) for p in args.set_file]
    if len(sets) < 2:
        print("apply: need an operator file and at least one operand file",
              file=sys.stderr)
        return EXIT_USAGE
    expr = Extensional(sets[0])
    for s in sets[1:]:
        expr = ApplyExpr(expr, Extensional(s))
    # extensional application reads only the rank bound
    result = eval_setexpr(expr, bounds=Bounds(max_rank=cfg["max_rank"]))
    for e in sorted(result.elements):
        em.emit(gelem_to_text(e), {"element": e})
    em.note(f"count={len(result.elements)} truncated={result.truncated}")
    if em.as_json:
        em.emit("", {"count": len(result.elements),
                     "truncated": result.truncated})
    return EXIT_OK


# ---------------------------------------------------------------------------
# companion commands


def cmd_companion(args, em, cfg):
    rec = closure_report(_resolve_term(args.term),
                         _parse_element(args.element), source=args.term)
    if em.as_json:
        em.emit("", rec)
        return EXIT_OK
    for key in ("sigma", "element", "mu", "case", "companion", "member",
                "finding"):
        if key in rec:
            val = rec[key]
            if key in ("element", "companion") and val is not None:
                val = _element_text(val)
            em.emit(f"{key}: {val}")
    return EXIT_OK


def cmd_closure_sweep(args, em, cfg):
    t0 = time.time()
    records, summary = sweep_closure(
        max_leaves=args.max_leaves,
        max_rank=cfg["max_rank"],
        set_width=cfg["max_set_size"],
        max_nat=cfg["max_nat"],
        budget=cfg["budget"],
    )
    cases = [
        {
            "id": f"{rec['sigma']} : {_element_text(rec['element'])}",
            "ok": bool(rec["member"]) if rec["case"] != "none" else None,
            "detail": f"case={rec['case']} companion="
                      f"{_element_text(rec['companion']) if rec['companion'] else '-'}",
        }
        for rec in records
    ] + [
        {"id": term, "ok": None, "detail": reason}
        for term, reason in summary["unchecked"].items()
    ]
    report = ExperimentReport(
        name="closure-sweep",
        parameters={
            "max_leaves": args.max_leaves,
            "max_rank": cfg["max_rank"],
            "set_width": cfg["max_set_size"],
            "max_nat": cfg["max_nat"],
            "budget": cfg["budget"],
            "rank_reached": summary["rank_reached"],
        },
        cases=cases,
        verdict=_verdict(cases, covered=summary["elements"] > 0),
        wall_time=time.time() - t0,
    )
    report.emit(em)
    em.note(
        f"terms={summary['terms']} elements={summary['elements']} "
        f"closed={summary['closed']} violated={summary['violated']} "
        f"no-case={summary['no_case']} "
        f"unsupported={len(summary['unsupported'])} "
        f"coverage={summary['terms'] - len(summary['unchecked'])}/{summary['terms']}"
    )
    return EXIT_OK if report.verdict == "pass" else EXIT_EXPERIMENT


# ---------------------------------------------------------------------------
# experiment drivers


def cmd_search_identity(args, em, cfg):
    t0 = time.time()
    if args.max_s > MAX_S:
        print(f"search-identity: max_s={args.max_s} exceeds the cap {MAX_S}",
              file=sys.stderr)
        return EXIT_USAGE
    probe = b0()
    cases = []
    for t in enumerate_s_terms(args.max_s):
        name = print_term(t)
        behavior = identity_behavior(t, fuel=cfg["fuel"], width=cfg["width"])
        case = {"id": name, "behavior": behavior}
        try:
            hit = member_via_template(template_of(t), probe)
        except TemplateError as exc:
            hit = None
            case["semantic_note"] = str(exc)
        case["b0_member"] = hit
        if hit:
            # a base element in the denotation would let the companion
            # construction manufacture a contradiction witness
            case["companion_check"] = closure_report(t, probe, source=name)
        ok = behavior != "yes" and hit is not True
        case["ok"] = ok
        case["detail"] = f"behavior={behavior} b0-member={hit}"
        cases.append(case)
    # control: a term that genuinely has identity behavior, to show the
    # probes can fire (contains K, so it sits outside the searched family)
    control = parse_term("SKK")
    control_member = member_via_template(template_of(control), probe)
    cases.append(
        {
            "id": "control:SKK",
            "behavior": identity_behavior(control, fuel=cfg["fuel"],
                                          width=cfg["width"]),
            "b0_member": control_member,
            "ok": control_member is True,
            "detail": f"b0-member={control_member} (expected true)",
        }
    )
    report = ExperimentReport(
        name="search-identity",
        parameters={"max_s": args.max_s, "fuel": cfg["fuel"],
                    "width": cfg["width"]},
        cases=cases,
        verdict=_verdict(cases),
        wall_time=time.time() - t0,
    )
    report.emit(em)
    return EXIT_OK if report.verdict == "pass" else EXIT_EXPERIMENT


# --- the golden verification suite ----------------------------------------


@dataclass(frozen=True)
class GoldenDenotation:
    """Hand-checked facts about one term's denotation: membership probes,
    then optionally the exact listing at Bounds(rank, 1, 1)."""

    term: str  # a term literal or a library name, expanded to K/S
    probes: tuple  # (element text, expected membership) pairs
    passed: str  # the detail reported when every check holds
    rank: int = 0  # 0: no listing check
    listing: tuple = ()  # the expected listing, as element texts
    same_as: str = ""  # or: a term whose nonempty listing must match


def _check_golden(g: GoldenDenotation):
    tpl = template_of(_resolve_term(g.term))
    for text, want in g.probes:
        if member_via_template(tpl, parse_gelem(text)) is not want:
            return False, f"probe {text} expected {want}"
    if g.rank:
        bounds = Bounds(g.rank, 1, 1)
        elems, _ = enumerate_template(tpl, bounds)
        if g.same_as:
            expected, _ = enumerate_template(
                template_of(_resolve_term(g.same_as)), bounds)
            if not expected:
                return False, f"{g.same_as} lists nothing at rank {g.rank}"
        else:
            expected = [parse_gelem(text) for text in g.listing]
        if sorted(elems) != sorted(expected):
            return False, (f"rank-{g.rank} listing "
                           f"{[gelem_to_text(e) for e in elems]}")
    return True, g.passed


GOLDEN = {
    "skk-denotation": GoldenDenotation(
        "SKK",
        (("({0} -> 0)", True), ("({1} -> 1)", True), ("({0} -> 1)", False),
         ("({0,1} -> 0)", False), ("({} -> 0)", False)),
        "5 probes + exact rank-1 listing",
        rank=1, listing=("({0} -> 0)", "({1} -> 1)"),
    ),
    "ki-denotation": GoldenDenotation(
        "K I",
        (("({} -> ({0} -> 0))", True), ("({} -> ({1} -> 1))", True),
         ("({} -> ({0} -> 1))", False), ("({0} -> ({0} -> 0))", False)),
        "4 probes; listing agrees with SK",
        rank=2, same_as="SK",
    ),
    "kstarstar-denotation": GoldenDenotation(
        "Kstarstar",
        (("({} -> ({} -> ({0} -> 0)))", True),
         ("({} -> ({} -> ({0} -> 1)))", False),
         ("({0} -> ({} -> ({0} -> 0)))", False)),
        "3 probes + exact rank-3 listing",
        rank=3,
        listing=("({} -> ({} -> ({0} -> 0)))", "({} -> ({} -> ({1} -> 1)))"),
    ),
    # a nonempty first antecedent is rejected
    "sk-template": GoldenDenotation(
        "SK",
        (("({0} -> 0)", False),),
        "empty-antecedent shape confirmed",
        rank=2, listing=("({} -> ({0} -> 0))", "({} -> ({1} -> 1))"),
    ),
    # the hand-checked minimal member is in, the variant whose consequent
    # is decoupled from its antecedent is out, and nothing has rank 3
    "ss-template": GoldenDenotation(
        "SS",
        (("({} -> ({({} -> ({} -> 0))} -> ({} -> 0)))", True),
         ("({} -> ({({} -> ({} -> 0))} -> ({} -> 1)))", False)),
        "minimal member in, decoupled variant out, no rank-3 elements",
        rank=3,
    ),
    # the base element b0 is in, two non-members are out
    "sigma0-contains-b0": GoldenDenotation(
        "Sigma0",
        (("({0} -> 0)", True), ("({0} -> 1)", False), ("({} -> 0)", False)),
        "base element in, two non-members rejected",
    ),
}


@dataclass(frozen=True)
class Law:
    """An application law of a base combinator, checked on 200 trials:
    the denotation of `atom` applied to `operands` sampled sets must be
    exactly the extensional right-hand side `rhs` of those sets."""

    atom: str
    seed: int
    operands: int
    rhs: object  # the sampled sets -> the expected set
    broke: str  # failure text, formatted with the sets and the result
    passed: str


LAWS = {
    "k-law": Law("K", 11, 2, lambda m, n: m,
                 "K applied to {0}, {1} gave {result}",
                 "200 sampled pairs, exact agreement"),
    "s-law": Law("S", 12, 3,
                 lambda m, n, ell: extensional_bullet(
                     extensional_bullet(m, ell), extensional_bullet(n, ell)),
                 "composition law broke on {0}, {1}, {2}",
                 "200 sampled triples, exact agreement"),
}


def _check_law(law: Law):
    pool = list(enumerate_g(1, 1, 1))
    rng = random.Random(law.seed)
    wide = Bounds(max_rank=6, max_set_size=4, max_nat=3, max_arity=4)
    for trial in range(200):
        sets = [gset(rng.sample(pool, rng.randint(0, 2)))
                for _ in range(law.operands)]
        expr = Denotation(atom(law.atom))
        for s in sets:
            expr = ApplyExpr(expr, Extensional(s))
        result = eval_setexpr(expr, wide)
        if result.truncated:
            return False, f"trial {trial}: truncated"
        if result.elements != law.rhs(*sets):
            broke = law.broke.format(*map(gset_to_text, sets),
                                     result=gset_to_text(result.elements))
            return False, f"trial {trial}: {broke}"
    return True, law.passed


def _case_singleton_sweep():
    for t in enumerate_s_terms(4):
        if has_singleton_setvar(template_of(t)):
            return False, f"{print_term(t)} shows a one-element antecedent"
    if not has_singleton_setvar(template_of(atom("K"))):
        return False, "control K should show a one-element antecedent"
    return True, "no S-only template forces a one-element antecedent (<=4 leaves)"


def _case_closure_sweep():
    _, summary = sweep_closure(max_leaves=3)
    if summary["violated"]:
        return False, f"{summary['violated']} closure violations"
    if summary["elements"] == 0:
        return False, "sweep covered no elements"
    return True, (
        f"{summary['elements']} base-rooted elements closed "
        f"({summary['no_case']} no-case findings)"
    )


def _case_sk_sksk_reduction():
    if not reduces_to(parse_term("SK(SKSK)"), parse_term("SKK"), fuel=50):
        return False, "rewrite not found within fuel 50"
    return True, "derivable within fuel 50"


def _case_sigma0_identity():
    sigma = expand_stdlib(stdlib_lookup("Sigma0"))
    got = identity_behavior(sigma)
    if got != "yes":
        return False, f"identity probe returned {got}"
    return True, "applied to a fresh variable, rewrites to it"


def _golden(name):
    return name, partial(_check_golden, GOLDEN[name])


VERIFY_CASES = [
    _golden("skk-denotation"),
    _golden("ki-denotation"),
    _golden("kstarstar-denotation"),
    _golden("sk-template"),
    _golden("ss-template"),
    ("k-law", partial(_check_law, LAWS["k-law"])),
    ("s-law", partial(_check_law, LAWS["s-law"])),
    ("singleton-sweep", _case_singleton_sweep),
    ("closure-sweep", _case_closure_sweep),
    ("sk-sksk-reduction", _case_sk_sksk_reduction),
    ("sigma0-identity", _case_sigma0_identity),
    _golden("sigma0-contains-b0"),
]


def cmd_verify_paper(args, em, cfg):
    if args.list:
        for name, _ in VERIFY_CASES:
            em.emit(name, {"case": name})
        return EXIT_OK
    selected = VERIFY_CASES
    if args.case:
        selected = [(n, f) for n, f in VERIFY_CASES if n == args.case]
        if not selected:
            known = ", ".join(n for n, _ in VERIFY_CASES)
            print(f"verify-paper: unknown case {args.case!r} (known: {known})",
                  file=sys.stderr)
            return EXIT_USAGE
    t0 = time.time()
    cases = []
    for name, fn in selected:
        c0 = time.time()
        try:
            ok, detail = fn()
        except Exception as exc:  # a crashed case is a failed case
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        cases.append(
            {
                "id": name,
                "ok": ok,
                "detail": detail,
                "seconds": round(time.time() - c0, 2),
            }
        )
    report = ExperimentReport(
        name="verify-paper",
        parameters={"cases": len(cases)},
        cases=cases,
        verdict=_verdict(cases),
        wall_time=time.time() - t0,
    )
    report.emit(em)
    return EXIT_OK if report.verdict == "pass" else EXIT_EXPERIMENT


# ---------------------------------------------------------------------------
# wiring


def _add_common(sp):
    sp.add_argument("--config", help="key=value settings file")
    sp.add_argument("--json", action="store_true",
                    help="line-delimited JSON output")


def _add_counts(sp, *keys, own_defaults=None):
    """Numeric flags for config keys; an unset flag keeps the config value,
    and with none the command's own default, else the built-in one."""
    own_defaults = own_defaults or {}
    sp.set_defaults(own_defaults=own_defaults)
    for key in keys:
        default = own_defaults.get(key, DEFAULTS[key])
        sp.add_argument("--" + key.replace("_", "-"), dest=key, type=_count,
                        default=None, help=f"default {default} or config {key}")


_BOUNDS = ("max_rank", "max_set_size", "max_nat")


def build_parser() -> _Parser:
    parser = _Parser(prog="engeler",
                     description="combinatory rewriting and graph-model "
                                 "denotation workbench")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse and reprint a term")
    p.add_argument("term")
    p.add_argument("--expand", action="store_true",
                   help="replace library combinators by their K/S sources")
    p.add_argument("--stats", action="store_true")
    _add_common(p)
    p.set_defaults(fn=cmd_parse)

    p = sub.add_parser("reduce", help="leftmost-outermost rewriting")
    p.add_argument("term")
    _add_counts(p, "fuel")
    p.add_argument("--trace", action="store_true", help="print every step")
    p.add_argument("--expand", action="store_true")
    _add_common(p)
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("normal-form", help="reduce and print the final term")
    p.add_argument("term")
    _add_counts(p, "fuel")
    p.add_argument("--expand", action="store_true")
    _add_common(p)
    p.set_defaults(fn=cmd_normal_form)

    p = sub.add_parser("template", help="denotation description of a K/S term")
    p.add_argument("term")
    _add_common(p)
    p.set_defaults(fn=cmd_template)

    p = sub.add_parser("member", help="is an element in a term's denotation")
    p.add_argument("term")
    p.add_argument("element", help="element text like '({0} -> 0)' or JSON")
    p.add_argument("--via", choices=("template", "oracle"), default="template")
    _add_common(p)
    p.set_defaults(fn=cmd_member)

    p = sub.add_parser("enumerate",
                       help="list denotation elements within bounds")
    p.add_argument("term")
    _add_counts(p, *_BOUNDS, "max_arity", "budget")
    _add_common(p)
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("apply",
                       help="set application on explicit element files")
    p.add_argument("set_file", nargs="+",
                   help="set files: a JSON array of element objects as "
                        "written by --json (e.g. [{\"nat\": 0}]), or one "
                        "element per line in text or JSON form, with '#' "
                        "comments")
    _add_counts(p, "max_rank")
    _add_common(p)
    p.set_defaults(fn=cmd_apply)

    p = sub.add_parser("companion",
                       help="companion construction for one element")
    p.add_argument("term")
    p.add_argument("element")
    _add_common(p)
    p.set_defaults(fn=cmd_companion)

    p = sub.add_parser("closure-sweep",
                       help="companion closure over enumerated elements")
    p.add_argument("--max-leaves", type=_count, default=4,
                   help="S-leaf budget for the term sweep (default 4)")
    _add_counts(p, *_BOUNDS, "budget", own_defaults=SWEEP_DEFAULTS)
    _add_common(p)
    p.set_defaults(fn=cmd_closure_sweep)

    p = sub.add_parser("search-identity",
                       help="look for identity behavior among S-only terms")
    p.add_argument("--max-s", type=_count, default=6,
                   help=f"S-leaf budget (default 6, at most {MAX_S})")
    _add_counts(p, "fuel", "width")
    _add_common(p)
    p.set_defaults(fn=cmd_search_identity)

    p = sub.add_parser("verify-paper",
                       help="run the golden verification suite")
    p.add_argument("--case", help="run a single named case")
    p.add_argument("--list", action="store_true", help="list case names")
    _add_common(p)
    p.set_defaults(fn=cmd_verify_paper)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed its one-line error or the help; surface
        # its status as a return value so embedders never see the exception
        return int(exc.code or 0)
    # The one map from exceptions to exit codes; the first match wins.
    # ParseError, ElementSyntaxError, JSONDecodeError and ConfigError are
    # ValueErrors, and BudgetExceeded is a TemplateError.  A RecursionError
    # is input nested deeper than some recursive step allows, such as the
    # JSON encoder writing out a deep template.
    try:
        return args.fn(args, Emitter(args.json), effective_settings(args))
    except (ParseError, ElementSyntaxError, json.JSONDecodeError, ConfigError,
            KeyError, OSError, RecursionError) as exc:
        print(f"engeler: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceeded as exc:
        b = exc.bounds
        print(f"{args.command}: {exc} (steps used {exc.steps}, budget {exc.budget}, "
              f"bounds rank {b.max_rank}, set size {b.max_set_size}, "
              f"nat {b.max_nat}, arity {b.max_arity})", file=sys.stderr)
        return EXIT_BOUNDED
    except (TemplateError, ValueError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_SEMANTIC


if __name__ == "__main__":
    sys.exit(main())
