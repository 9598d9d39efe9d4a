"""Regenerate the stored input lists in perfbench/inputs.

    python3 perfbench/regen_inputs.py                   # the inputs
    python3 perfbench/regen_inputs.py --known-failures  # the defect record

The lists are stored so that the inputs stay the same on every commit: a
later change that corrects the program changes its answers but not the
benchmark's inputs.  Rerun this only to move the benchmark to new inputs
on purpose.

* query_pool.txt: for every K/S term of up to 6 leaves, a constructed
  member and a constructed non-member (see MemberBuilder in
  workloads.py), one ``term<TAB>expected<TAB>element`` row each.  The
  expected answer comes from the construction, never from the program.
  The terms whose composition is unsupported by design (``template_of``
  raises) are listed in query_left_out.txt instead.
* sweep_pairs.json: the (S-only term, bounds) groups of the sweep, less
  the pairs whose enumeration exceeds the step budget or raises
  UnsupportedMatch.
* known_failures.json (only with ``--known-failures``): the pool rows the
  program answers wrongly or raises on, and the sweep pairs on which
  ``closure_report`` reports a violation.  The workloads ask these every
  round and count them as failed operations; the same fault on any other
  input makes the run incorrect.  It records the program's defects at
  the time it was written, so a fix turns those operations into passes
  without regenerating anything.
"""

import json
import os
import random
import sys
import types

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from engeler import companion, model, templates, terms  # noqa: E402
from workloads import MemberBuilder  # noqa: E402

# (max_rank, max_set_size, max_nat, max_leaves)
SWEEP_GROUPS = [(3, 1, 0, 5), (3, 2, 0, 3), (3, 1, 1, 1),
                (2, 1, 0, 5), (2, 2, 0, 4), (2, 1, 1, 4), (2, 2, 1, 4)]
SWEEP_BUDGET = 400_000
QUERY_MAX_LEAVES = 6
POOL_SEED = 2210


def query_pool():
    builder = MemberBuilder(types.SimpleNamespace(terms=terms, model=model),
                            random.Random(POOL_SEED))
    kept, left_out = [], []
    for t in terms.enumerate_terms(QUERY_MAX_LEAVES, alphabet=("K", "S")):
        text = terms.print_term(t)
        member = builder.build(t)
        rows = [] if member is None else [(member, True)]
        rows.append((builder.non_member(builder.build(t)), False))
        try:
            templates.template_of(t)
        except templates.TemplateError as exc:
            left_out.append((text, f"composition: {type(exc).__name__}"))
            continue
        kept.extend((text, "1" if expected else "0", model.gelem_to_text(element))
                    for element, expected in rows)
    return kept, left_out


def sweep_pairs():
    groups = []
    for rank, width, max_nat, leaves in SWEEP_GROUPS:
        bounds = model.Bounds(max_rank=rank, max_set_size=width, max_nat=max_nat)
        kept, left_out = [], {}
        for sigma in terms.enumerate_s_terms(leaves):
            text = terms.print_term(sigma)
            try:
                templates.enumerate_template(templates.template_of(sigma), bounds,
                                             budget=SWEEP_BUDGET)
            except (templates.BudgetExceeded, templates.UnsupportedMatch) as exc:
                left_out[text] = type(exc).__name__
                continue
            kept.append(text)
        groups.append({"max_rank": rank, "max_set_size": width, "max_nat": max_nat,
                       "max_leaves": leaves, "terms": kept, "left_out": left_out})
    return {"budget": SWEEP_BUDGET, "groups": groups}


def known_failures(pool, pairs):
    query = []
    for text, expected, element in pool:
        e = model.parse_gelem(element)
        try:
            got = templates.member_via_template(
                templates.template_of(terms.parse_term(text)), e)
        except templates.TemplateError as exc:
            what = f"raises {type(exc).__name__}"
        else:
            if got is (expected == "1"):
                continue
            what = f"answers {got}"
        query.append({"term": text, "expected": expected == "1", "element": element,
                      "what": what})
    sweep = []
    for group in pairs["groups"]:
        bounds = model.Bounds(max_rank=group["max_rank"],
                              max_set_size=group["max_set_size"],
                              max_nat=group["max_nat"])
        for text in group["terms"]:
            sigma = terms.parse_term(text)
            elems, _ = templates.enumerate_template(templates.template_of(sigma),
                                                    bounds, budget=SWEEP_BUDGET)
            bad = sum(1 for e in elems if companion.b0_base(e) is not None
                      and companion.closure_report(sigma, e)["member"] is False)
            if bad:
                sweep.append({"term": text, "max_rank": group["max_rank"],
                              "max_set_size": group["max_set_size"],
                              "max_nat": group["max_nat"],
                              "what": f"closure_report: member false for {bad} "
                                      "base elements"})
    return {"query": query, "sweep": sweep}


def read_rows(name):
    with open(os.path.join(HERE, "inputs", name), encoding="utf-8") as fh:
        return [line.rstrip("\n").split("\t") for line in fh
                if line.strip() and not line.startswith("#")]


def write_rows(name, header, rows):
    with open(os.path.join(HERE, "inputs", name), "w", encoding="utf-8") as fh:
        fh.write(f"# {header}\n")
        for row in rows:
            fh.write("\t".join(row) + "\n")


def write_json(name, obj):
    with open(os.path.join(HERE, "inputs", name), "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] == ["--known-failures"]:
        with open(os.path.join(HERE, "inputs", "sweep_pairs.json"),
                  encoding="utf-8") as fh:
            pairs = json.load(fh)
        write_json("known_failures.json",
                   known_failures(read_rows("query_pool.txt"), pairs))
    elif sys.argv[1:]:
        sys.exit(__doc__)
    else:
        kept, left_out = query_pool()
        write_rows("query_pool.txt", "term, expected member answer, element", kept)
        write_rows("query_left_out.txt",
                   "term whose composition is unsupported by design, why", left_out)
        write_json("sweep_pairs.json", sweep_pairs())
