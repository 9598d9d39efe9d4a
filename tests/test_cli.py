"""Command-line interface: exit codes, text and JSON output, config."""

import inspect
import json
import shutil
import subprocess
import sys

import pytest

from engeler import cli
from engeler.companion import closure_report, sweep_closure
from engeler.model import EvalResult, enumerate_g, gelem_to_json, gset, nat, parse_gelem
from engeler.terms import parse_term, term_json

from conftest import exhaust_budget_on


def run(capsys, *argv):
    code = cli.main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


# ---------------------------------------------------------------------------
# parse / reduce / normal-form

# 2,000 levels deep, more than the JSON encoder's recursion limit allows
DEEP_REDEX = "S(" * 2000 + "Kxy" + ")" * 2000
DEEP_NF = "S(" * 2000 + "x" + ")" * 2000


def test_parse(capsys):
    code, out, _ = run(capsys, "parse", "SKKx")
    assert code == 0
    assert out == "SKKx0\n"
    code, out, _ = run(capsys, "parse", "SKKx", "--stats")
    assert code == 0
    assert out == "SKKx0\n# k_count=2 s_count=1 size=4 var_count=1\n"


def test_parse_json(capsys):
    code, out, _ = run(capsys, "parse", "SKKx", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["term"] == "SKKx0"
    assert obj["json"]["app"][1] == {"var": 0}
    assert out == json.dumps(obj, sort_keys=True) + "\n"
    code, out, _ = run(capsys, "parse", "SKKx", "--stats", "--json")
    assert code == 0
    assert json.loads(out)["stats"] == {"k_count": 2, "s_count": 1, "size": 4, "var_count": 1}


@pytest.mark.parametrize("argv, key, want", [
    (("parse",), "json", DEEP_REDEX), (("reduce",), "final", DEEP_NF),
    (("normal-form",), "final", DEEP_NF)])
def test_json_writes_a_term_of_any_depth(capsys, argv, key, want):
    code, out, err = run(capsys, *argv, DEEP_REDEX, "--json")
    assert (code, err) == (0, "")
    t = parse_term(want)
    assert f'"{key}": {term_json(t)}' in out


def test_parse_error_exit(capsys):
    code, out, err = run(capsys, "parse", "((")
    assert code == 1
    assert "engeler:" in err


def test_reduce_normal_form(capsys):
    code, out, _ = run(capsys, "reduce", "SKKx")
    assert code == 0
    assert out.splitlines()[0] == "x0"
    assert "normal-form after 2 steps" in out


def test_reduce_trace(capsys):
    for extra in ((), ("--json",)):
        code, out, _ = run(capsys, "reduce", "SKKx", "--trace", *extra)
        assert code == 0
        assert len(out.strip().splitlines()) >= 3


def test_reduce_cycle_is_bounded_outcome(capsys):
    code, out, _ = run(capsys, "reduce", "MM")
    assert code == 2


def test_normal_form(capsys):
    code, out, _ = run(capsys, "normal-form", "SK(SKSK)x")
    assert code == 0
    assert out.strip() == "x0"


def test_unknown_flag_is_usage_error(capsys):
    assert cli.main(["reduce", "SKKx", "--no-such-flag"]) == 1


def test_unknown_command_is_usage_error(capsys):
    assert cli.main(["frobnicate"]) == 1


# ---------------------------------------------------------------------------
# template / member / enumerate


def test_template(capsys):
    code, out, _ = run(capsys, "template", "SKK")
    assert code == 0
    assert "->" in out


def test_template_unsupported_is_semantic_error(capsys):
    code, _, err = run(capsys, "template", "SSS(KK)")
    assert code == 3


def test_member_both_deciders(capsys):
    for via in ("template", "oracle"):
        code, out, _ = run(capsys, "member", "SKK", "({0} -> 0)", "--via", via)
        assert code == 0
        assert out.strip() == "true"
        code, out, _ = run(capsys, "member", "SKK", "({0} -> 1)", "--via", via)
        assert code == 0
        assert out.strip() == "false"


def test_member_bad_element(capsys):
    code, _, err = run(capsys, "member", "SKK", "({0} ->")
    assert code == 1


B0_JSON = json.dumps({"arrow": {"set": [{"nat": 0}], "elem": {"nat": 0}}})


@pytest.mark.parametrize("via", ["template", "oracle"])
def test_member_json_element(capsys, via):
    code, out, _ = run(capsys, "member", "SKK", B0_JSON, "--via", via)
    assert code == 0
    assert out.strip() == "true"


@pytest.mark.parametrize(
    "argv",
    [
        ("member", "SKK", "[1]"),
        ("member", "SKK", '{"nat": true}'),
        ("member", "SKK", '{"arrow": 3}'),
        ("member", "SKK", "hello"),
        ("companion", "S", "[1]"),
        ("member", "SKK", "({} -> " * 3000 + "0" + ")" * 3000),
        ("member", "SKK", '{"arrow": {"set": [], "elem": ' * 3000 + '{"nat": 0}'
         + "}}" * 3000),
    ],
)
def test_non_element_argument_is_parse_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("engeler:")


def test_enumerate(capsys):
    code, out, _ = run(
        capsys, "enumerate", "SKK", "--max-rank", "1", "--max-set-size", "1",
        "--max-nat", "1",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[:2] == ["({0} -> 0)", "({1} -> 1)"]
    assert lines[2].startswith("# count=2")


def test_enumerate_budget_exceeded(capsys):
    code, _, err = run(capsys, "enumerate", "S", "--budget", "100")
    assert code == 2
    assert err == ("enumerate: template enumeration exceeded 100 steps (steps used "
                   "101, budget 100, bounds rank 3, set size 2, nat 1, arity 3)\n")


def test_enumerate_unsupported_match_is_semantic_error(capsys):
    code, out, err = run(capsys, "enumerate", "S(SS)SS", "--max-rank", "2")
    assert code == 3
    assert out == ""
    assert err.startswith("enumerate:")


# ---------------------------------------------------------------------------
# apply


def test_apply(capsys, tmp_path):
    # the first file is the operator set, applied extensionally
    f1 = tmp_path / "m.txt"
    f2 = tmp_path / "n.txt"
    f1.write_text("({0} -> 0)\n# comment\n1\n")
    # the operand file is a JSON array of element objects, the form --json
    # writes; a bare 0 is not an element object
    f2.write_text('[{"nat": 0}]\n')
    code, out, _ = run(capsys, "apply", str(f1), str(f2))
    assert code == 0
    got = [ln for ln in out.strip().splitlines() if not ln.startswith("#")]
    assert got == ["0"]
    assert "count=1" in out and "truncated=False" in out
    code, out, _ = run(capsys, "apply", str(f1), str(f2), "--json")
    assert code == 0
    assert [json.loads(ln) for ln in out.splitlines()] == [
        {"element": {"nat": 0}}, {"count": 1, "truncated": False}]


def test_apply_needs_two_sets(capsys, tmp_path):
    f1 = tmp_path / "m.txt"
    f1.write_text("1\n")
    code, _, _ = run(capsys, "apply", str(f1))
    assert code == 1


def test_apply_json_lines_in_line_file(capsys, tmp_path):
    f1 = tmp_path / "m.txt"
    f2 = tmp_path / "n.txt"
    f1.write_text('{"arrow": {"set": [{"nat": 0}], "elem": {"nat": 1}}}\n')
    f2.write_text("0  # text form\n")
    code, out, _ = run(capsys, "apply", str(f1), str(f2))
    assert code == 0
    assert out.splitlines()[0] == "1"


def test_apply_non_element_json_is_parse_error(capsys, tmp_path):
    f1 = tmp_path / "m.txt"
    f2 = tmp_path / "n.txt"
    f1.write_text("({0} -> 0)\n")
    f2.write_text("[0]\n")
    code, out, err = run(capsys, "apply", str(f1), str(f2))
    assert code == 1
    assert out == ""
    assert err.startswith("engeler:")


# ---------------------------------------------------------------------------
# companion / closure-sweep / search-identity


def test_companion_case_ii(capsys):
    element = "({({0} -> ({} -> 0))} -> ({} -> ({0} -> 0)))"
    code, out, _ = run(capsys, "companion", "S", element, "--json")
    assert code == 0
    rec = json.loads(out)
    assert rec["case"] == "ii"
    assert rec["member"] is True
    code, out, _ = run(capsys, "companion", "S", element)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "sigma: S"
    assert "case: ii" in lines
    assert "member: True" in lines


def test_companion_rejects_non_member(capsys):
    code, _, _ = run(capsys, "companion", "S", "({0} -> 0)")
    assert code == 3


def test_closure_sweep_small(capsys):
    code, out, _ = run(capsys, "closure-sweep", "--max-leaves", "2", "--json")
    assert code == 0
    lines = [json.loads(ln) for ln in out.strip().splitlines()]
    assert lines[-1]["verdict"] == "pass"


def test_closure_sweep_reports_unsupported_terms(capsys, monkeypatch):
    import engeler.terms

    monkeypatch.setattr(engeler.terms, "enumerate_s_terms", lambda max_leaves: [
        engeler.terms.parse_term("S(SS)SS"), engeler.terms.parse_term("S")])
    code, out, _ = run(capsys, "closure-sweep", "--max-leaves", "5", "--max-rank", "3",
                       "--max-set-size", "1", "--max-nat", "0")
    assert code == 0
    assert "[?? ] S(SS)SS  unsupported: " in out
    assert "unsupported=1" in out


def test_closure_sweep_reports_coverage(capsys, monkeypatch):
    # every term that checked nothing is listed with its reason, and the
    # summary line gives the terms checked out of all terms
    import engeler.terms

    monkeypatch.setattr(engeler.terms, "enumerate_s_terms", lambda max_leaves: [
        engeler.terms.parse_term(n) for n in ("S(SS)(SS)", "S(SS)", "S")])
    exhaust_budget_on(monkeypatch, "S(SS)(SS)")
    code, out, _ = run(capsys, "closure-sweep", "--max-leaves", "5", "--max-rank", "3",
                       "--max-set-size", "1", "--max-nat", "1")
    assert code == 0
    assert "[?? ] S(SS)(SS)  budget exhausted at rank 3" in out
    assert "[?? ] S(SS)  no element below rank 4 (where {r[i] : i in 1..n} = " in out
    assert "unsupported=0 coverage=1/3" in out


@pytest.mark.parametrize(
    "extra, config, settings",
    [
        ((), "", {}),
        (("--max-set-size", "2"), "", {"set_width": 2}),
        (("--budget", "7", "--max-rank", "4"), "", {"budget": 7, "max_rank": 4}),
        ((), "max_set_size = 2\nbudget = 9\n", {"set_width": 2, "budget": 9}),
    ],
)
def test_closure_sweep_defaults(capsys, monkeypatch, tmp_path, extra, config, settings):
    # closure-sweep runs at sweep_closure's own defaults unless a flag or a
    # config value says otherwise
    seen = {}

    def fake_sweep(**kwargs):
        seen.update(kwargs)
        return [], {"terms": 0, "elements": 0, "closed": 0, "violated": 0,
                    "no_case": 0, "rank_reached": {}, "unsupported": {},
                    "unchecked": {}}

    monkeypatch.setattr(cli, "sweep_closure", fake_sweep)
    if config:
        (tmp_path / "engeler.conf").write_text(config)
        extra += ("--config", str(tmp_path / "engeler.conf"))
    run(capsys, "closure-sweep", *extra)
    own = {name: param.default
           for name, param in inspect.signature(sweep_closure).parameters.items()
           if name != "progress"}
    assert seen == own | settings


def test_search_identity(capsys):
    code, out, _ = run(capsys, "search-identity", "--max-s", "2")
    assert code == 0
    assert "control" in out


def test_search_identity_cap(capsys):
    code, _, _ = run(capsys, "search-identity", "--max-s", "99")
    assert code == 1


# ---------------------------------------------------------------------------
# verify-paper


def test_verify_paper_list(capsys):
    code, out, _ = run(capsys, "verify-paper", "--list")
    assert code == 0
    names = out.strip().splitlines()
    assert "sk-sksk-reduction" in names
    assert len(names) == 12


def test_verify_paper_single_case(capsys):
    code, out, _ = run(capsys, "verify-paper", "--case", "sk-sksk-reduction")
    assert code == 0
    assert "pass" in out


def test_verify_paper_full_suite(capsys):
    code, out, _ = run(capsys, "verify-paper")
    assert code == 0
    assert out.splitlines()[-1].startswith("verdict: pass (12 cases")


@pytest.mark.parametrize(
    "case, truncated, detail",
    [
        ("k-law", False, "trial 0: K applied to {({1} -> 1)}, {({} -> 1)} gave {7}"),
        ("s-law", False,
         "trial 0: composition law broke on {({0} -> 0)}, {1,({0} -> 1)}, {0}"),
        ("s-law", True, "trial 0: truncated"),
    ],
)
def test_law_checker_reports_the_failed_trial(capsys, monkeypatch, case, truncated,
                                              detail):
    monkeypatch.setattr(cli, "eval_setexpr",
                        lambda expr, bounds: EvalResult(gset([nat(7)]), truncated))
    code, out, _ = run(capsys, "verify-paper", "--case", case, "--json")
    assert code == 4
    rec = json.loads(out.splitlines()[0])["case"]
    assert (rec["id"], rec["ok"], rec["detail"]) == (case, False, detail)


def test_golden_checker_reports_the_failed_check():
    probe = cli.GoldenDenotation("SKK", (("({0} -> 1)", True),), "unused")
    assert cli._check_golden(probe) == (False, "probe ({0} -> 1) expected True")
    listing = cli.GoldenDenotation("SKK", (), "unused", rank=1,
                                   listing=("({0} -> 0)",))
    assert cli._check_golden(listing) == (
        False, "rank-1 listing ['({0} -> 0)', '({1} -> 1)']")


# ---------------------------------------------------------------------------
# config handling


def test_config_file_applies(capsys, tmp_path):
    cfg = tmp_path / "engeler.conf"
    cfg.write_text("# settings\nfuel = 1\n")
    code, _, _ = run(capsys, "reduce", "SKKx", "--config", str(cfg))
    assert code == 2  # one step of fuel is not enough


def test_flag_overrides_config(capsys, tmp_path):
    cfg = tmp_path / "engeler.conf"
    cfg.write_text("fuel = 1\n")
    code, _, _ = run(capsys, "reduce", "SKKx", "--config", str(cfg), "--fuel", "50")
    assert code == 0


def test_unknown_config_key(capsys, tmp_path):
    cfg = tmp_path / "engeler.conf"
    cfg.write_text("warp_speed = 9\n")
    assert cli.main(["parse", "S", "--config", str(cfg)]) == 1


def test_missing_config_file(capsys, tmp_path):
    assert cli.main(["parse", "S", "--config", str(tmp_path / "nope.conf")]) == 1


def test_negative_config_value(capsys, tmp_path):
    cfg = tmp_path / "engeler.conf"
    cfg.write_text("budget = -5\n")
    code, _, err = run(capsys, "enumerate", "SKK", "--config", str(cfg))
    assert code == 1
    assert err == f"engeler: {cfg}:1: budget: expected a non-negative integer, got '-5'\n"


# ---------------------------------------------------------------------------
# the exit-code contract: every misuse is one line on stderr, never a traceback

# an element nested 400 deep, each level in an antecedent
DEEP_ANTE = "({" * 400 + "0" + "} -> 0)" * 400
# an element nested 600 deep, each level in a consequent
DEEP_CONS = "({} -> " * 600 + "0" + ")" * 600
# more digits than int() converts (its limit is 4,300)
LONG_NUMBER = "1" * 5000


@pytest.mark.parametrize("element, answer", [
    (DEEP_ANTE, "false"),
    (f"({{{DEEP_ANTE}}} -> ({{}} -> {DEEP_ANTE}))", "true"),
], ids=["deep-antecedent", "deep-member-of-k"])
def test_member_of_a_deep_element(capsys, element, answer):
    assert run(capsys, "member", "K", element) == (0, answer + "\n", "")


def _s_member(inner):
    """A base-rooted member of S's denotation that holds `inner` twice."""
    return (f"({{({{{inner}}} -> ({{}} -> ({{0}} -> 0)))}} -> "
            f"({{}} -> ({{{inner}}} -> ({{0}} -> 0))))")


def test_json_line_writes_elements_as_the_json_encoder_does():
    for e in enumerate_g(2, 2, 1):
        assert cli._json_line({"element": e}) == json.dumps({"element": gelem_to_json(e)},
                                                            sort_keys=True)


def test_json_line_writes_nested_terms_and_elements_as_the_json_encoder_does():
    # search-identity writes a closure record inside each case
    e, t = parse_gelem("({0} -> 0)"), parse_term("SKx")
    line = {"case": {"record": {"element": e, "companion": [e, nat(1)]}, "term": t,
                     "ok": None, "ids": ("a", 2.5)}}
    spelled = {"case": {"record": {"element": gelem_to_json(e),
                                   "companion": [gelem_to_json(e), gelem_to_json(nat(1))]},
                        "term": json.loads(term_json(t)), "ok": None, "ids": ["a", 2.5]}}
    assert cli._json_line(line) == json.dumps(spelled, sort_keys=True)


@pytest.mark.parametrize("inner", [DEEP_ANTE, DEEP_CONS], ids=["antecedents", "consequents"])
def test_companion_writes_a_deep_element_as_text(capsys, inner):
    element = _s_member(inner)
    code, out, err = run(capsys, "companion", "S", element)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[:4] == ["sigma: S", f"element: {element}", "mu: 1", "case: i"]
    assert lines[5:] == ["member: True"]
    rec = closure_report(parse_term("S"), parse_gelem(element))
    assert parse_gelem(lines[4].removeprefix("companion: ")) == rec["companion"]


def test_member_json_writes_a_deep_element(capsys):
    # 600 levels deep, each in a consequent; json.loads cannot read this
    # line back at the default recursion limit, so it is built here
    element = "({} -> " * 600 + "0" + ")" * 600
    line = ('{"element": ' + '{"arrow": {"elem": ' * 600 + '{"nat": 0}'
            + ', "set": []}}' * 600 + ', "member": false, "term": "K", "via": "template"}')
    assert run(capsys, "member", "K", element, "--json") == (0, line + "\n", "")


# Each row carries its own name, so a row inserted anywhere renames no
# other test; the first thirty keep the names they had when ids came
# from row positions.
_EXIT_CODE_ROWS = [
    # a library name without a K/S definition
    ("argv0", ("template", "J"), 3, "template: no K/S definition available for J"),
    ("argv1", ("member", "J", "0"), 3, "member: no K/S definition"),
    ("argv2", ("enumerate", "J"), 3, "enumerate: no K/S definition"),
    ("argv3", ("companion", "J", "({0} -> 0)"), 3, "companion: no K/S definition"),
    ("argv4", ("parse", "J", "--expand"), 3, "parse: no K/S definition"),
    # preconditions of the oracle and the companion construction
    ("argv5", ("member", "--via", "oracle", "Sx", "({} -> ({} -> 0))"), 3,
     "member: oracle handles closed applicative terms only"),
    ("argv6", ("companion", "Sx", "({0} -> 0)"), 3, "companion: term must be closed"),
    # a term of any depth parses and expands
    ("argv7", ("parse", "S(" * 3000 + "S" + ")" * 3000, "--expand"), 0, "S(S(S(S("),
    # flags and values the parser rejects
    ("argv8", ("template", "SKK", "--no-expand"), 1,
     "engeler: error: unrecognized arguments: --no-expand"),
    ("argv9", ("closure-sweep", "--max-arity", "2"), 1,
     "engeler: error: unrecognized arguments: --max-arity"),
    ("argv10", ("enumerate", "SKK", "--max-set-size", "-1"), 1,
     "engeler enumerate: error: argument --max-set-size: expected a "
     "non-negative integer, got '-1'"),
    ("argv11", ("search-identity", "--max-s", "-1"), 1,
     "engeler search-identity: error: argument --max-s"),
    ("argv12", ("search-identity", "--max-s", "9"), 1,
     "search-identity: max_s=9 exceeds the cap 8"),
    ("argv13", ("verify-paper", "--case", "nope"), 1, "verify-paper: unknown case 'nope'"),
    ("argv14", ("apply", "no-such-set-file.txt", "no-such-set-file.txt"), 1,
     "engeler: [Errno 2] No such file or directory"),
    ("argv15", ("enumerate", "S", "--budget", "100"), 2,
     "enumerate: template enumeration exceeded 100 steps"),
    # a pool larger than the budget is found before it is built
    ("argv16", ("enumerate", "S", "--max-rank", "5", "--budget", "1000"), 2,
     "enumerate: template enumeration exceeded 1000 steps: the rank-3 pool"),
    ("argv17", ("enumerate", "SKK", "--max-rank", "4", "--budget", "1000"), 2,
     "enumerate: template enumeration exceeded 1000 steps: the rank-3 pool"),
    ("argv18", ("enumerate", "K", "--max-nat", "100000", "--budget", "1000"), 2,
     "enumerate: template enumeration exceeded 1000 steps: the rank-2 pool"),
    # an element of any depth is written out under --json
    ("argv19", ("member", "K", DEEP_ANTE, "--json"), 0, '{"element": {"arrow": '),
    # only 0-9 are digits, and a number longer than int() converts is a
    # syntax error
    ("argv20", ("member", "K", "²"), 1, "engeler: '²' is neither element text nor JSON"),
    ("argv21", ("member", "K", "({²}->0)"), 1, "engeler: expected '(' at 2"),
    ("argv22", ("parse", "x²"), 1, "engeler: unexpected character '²' (byte 1)"),
    ("argv23", ("parse", "x٣"), 1, "engeler: unexpected character '٣' (byte 1)"),
    ("argv24", ("member", "K", LONG_NUMBER), 1, "engeler: number too long at 0"),
    ("argv25", ("member", "K", f'{{"nat": {LONG_NUMBER}}}'), 1,
     "engeler: JSON number too long"),
    ("argv26", ("parse", "x" + LONG_NUMBER), 1,
     "engeler: variable index too long (byte 0)"),
    ("argv27", ("reduce", "SKKx", "--fuel", "٣"), 1,
     "engeler reduce: error: argument --fuel: expected a non-negative "
     "integer, got '٣'"),
    # a companion record of any depth is written out under --json
    ("argv28", ("companion", "S", _s_member(DEEP_ANTE), "--json"), 0,
     '{"case": "i", "companion": {"arrow": '),
    ("argv29", ("companion", "S", _s_member(DEEP_CONS), "--json"), 0,
     '{"case": "i", "companion": {"arrow": '),
]


@pytest.mark.parametrize(
    "argv, code, prefix",
    [row[1:] for row in _EXIT_CODE_ROWS],
    ids=[f"{name}-{code}-{prefix}" for name, _, code, prefix in _EXIT_CODE_ROWS],
)
def test_exit_code_contract(capsys, argv, code, prefix):
    got, out, err = run(capsys, *argv)
    assert got == code
    if code == cli.EXIT_OK:  # `prefix` starts the one line on stdout
        assert err == "" and out.startswith(prefix) and out.count("\n") == 1
        return
    assert out == ""
    assert err.startswith(prefix)
    assert err.endswith("\n") and err.count("\n") == 1
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# JSONL discipline


def test_json_mode_emits_parseable_lines(capsys):
    code, out, _ = run(
        capsys, "enumerate", "SK", "--max-rank", "2", "--max-set-size", "1",
        "--max-nat", "0", "--json",
    )
    assert code == 0
    for line in out.strip().splitlines():
        json.loads(line)


# ---------------------------------------------------------------------------
# the installed entry points


def test_module_entry_point():
    r = subprocess.run(
        [sys.executable, "-m", "engeler.cli", "parse", "SK"],
        capture_output=True, text=True,
    )
    assert r.returncode == 0
    assert r.stdout.strip() == "SK"


@pytest.mark.skipif(shutil.which("engeler") is None, reason="script not on PATH")
def test_console_script():
    r = subprocess.run(["engeler", "--help"], capture_output=True, text=True)
    assert r.returncode == 0
    assert "usage" in r.stdout.lower()
