"""Benchmark of the engeler workbench.

    python3 perfbench/run.py --workload reach --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; engeler is imported from its
``src`` directory, never from an installed copy.  Each workload is a closed
loop with one client in this single process: the next operation starts
when the previous one returns.  The loop repeats whole rounds of the same
operations until ``--seconds`` have passed, then checks every answer.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs some rounds
untraced and the rest with spans around engeler's public functions, and
prints the per-layer metrics and the tracing overhead.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import types
from time import perf_counter

T_PROCESS = perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
MODULES = ("terms", "rewrite", "model", "templates", "oracle", "companion")
SETUP_SAMPLES = 5  # this process's set-up and four in fresh processes
TRACE_UNTRACED_SHARE = 0.3  # of --seconds, run untraced to price the tracing

sys.path.insert(0, HERE)
import tracing  # noqa: E402
import workloads  # noqa: E402


def set_up(name, seed):
    """Import engeler from this checkout's src directory, build the inputs
    and warm up.  Returns (mods, workload, seconds since T_PROCESS)."""
    sys.path.insert(0, SRC)
    package = importlib.import_module("engeler")
    if os.path.dirname(os.path.abspath(package.__file__)) != os.path.join(SRC, "engeler"):
        raise ImportError(f"engeler comes from {package.__file__}, not from {SRC}")
    mods = types.SimpleNamespace(**{mod: importlib.import_module("engeler." + mod)
                                    for mod in MODULES})
    wl = workloads.WORKLOADS[name](mods, seed)
    if wl.warm_up is not None:
        wl.warm_up()
    return mods, wl, perf_counter() - T_PROCESS


def fresh_set_up(args):
    """Set-up seconds of this workload in a fresh process (--setup-only)."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.split()[-1])


REFERENCE_EVERY_S = 0.05  # run the reference loop this often during timing
# The reference loop's 10th-percentile time on an uncontended machine;
# timings are scaled to it (see README.md, "Machine speed").
REFERENCE_NOMINAL_S = 0.0007


def reference_loop():
    """Fixed pure-Python work (tuples, a dict, a sort), independent of
    engeler, timed between operations to gauge the machine's speed."""
    table = {}
    items = []
    for i in range(1500):
        key = (i % 97, i % 89, (i * 7919) % 1013)
        table[key] = table.get(key, 0) + 1
        items.append(key)
    items.sort()
    return len(table)


class Loop:
    """Closed-loop runner: whole rounds, one operation at a time."""

    def __init__(self, wl, tracer=None):
        self.wl = wl
        self.tracer = tracer
        self.best = [float("inf")] * len(wl.ops)  # fastest time per op
        self.failures = {}  # op index -> exception text
        self.first = {}  # op index -> digest from the first round
        self.mismatch = set()  # ops whose digest changed between rounds
        self.rounds = 0
        self.reference = []  # reference_loop times

    def run(self, seconds):
        wl, best, tracer = self.wl, self.best, self.tracer
        start = last_ref = perf_counter()
        rounds = 0
        while True:
            if wl.start_round is not None:
                wl.start_round()
            for i, op in enumerate(wl.ops):
                if tracer is not None:
                    tracer.op_id = (self.rounds + rounds, i)
                t0 = perf_counter()
                try:
                    result = op.run()
                except Exception as exc:  # a failed operation, counted
                    best[i] = min(best[i], perf_counter() - t0)
                    self.failures[i] = f"{type(exc).__name__}: {exc}"
                    continue
                best[i] = min(best[i], perf_counter() - t0)
                got = wl.digest(op, result)
                del result
                seen = self.first.setdefault(i, got)
                if seen is not got and seen != got:
                    self.mismatch.add(i)
                if perf_counter() - last_ref >= REFERENCE_EVERY_S:
                    t0 = perf_counter()
                    reference_loop()
                    last_ref = perf_counter()
                    self.reference.append(last_ref - t0)
            rounds += 1
            if perf_counter() - start >= seconds:
                break
        self.rounds += rounds
        return rounds, perf_counter() - start


def verify(wl, loop):
    """(failed ops per round, wrong ops, answer-kind counts per round)."""
    failed, wrong, kinds = 0, [], {}
    for i, op in enumerate(wl.ops):
        if i in loop.failures:
            if op.known_failure:
                failed += 1
            else:
                wrong.append((i, op.kind, loop.failures[i]))
            kinds["raised"] = kinds.get("raised", 0) + 1
            continue
        verdict, kind = wl.check(op, loop.first[i])
        if i in loop.mismatch:
            verdict, kind = workloads.WRONG, "changed-between-rounds"
        if verdict == workloads.FAILED:
            failed += 1
        elif verdict == workloads.WRONG:
            wrong.append((i, op.kind, kind))
        kinds[kind] = kinds.get(kind, 0) + 1
    if wl.check_round is not None:
        problem = wl.check_round([loop.first[i] for i in sorted(loop.first)])
        if problem:
            wrong.append((None, "round", problem))
    return failed, wrong, kinds


PERCENTILES = (50, 75, 80, 85, 90, 95, 98, 99, 99.5, 99.8, 99.9, 99.95, 99.99)


def tail_percentile(n):
    """The highest of PERCENTILES with at least ten samples, and at least
    one in a hundred, above it (nearest rank)."""
    def beyond(p):
        return n - min(n, max(1, math.ceil(p * n / 100)))
    return max(p for p in PERCENTILES if p == 50 or beyond(p) >= max(10, n // 100))


def percentile(sorted_values, p):
    """Nearest-rank percentile and the number of samples above it."""
    n = len(sorted_values)
    rank = min(n, max(1, math.ceil(p * n / 100)))
    return sorted_values[rank - 1], n - rank


def fmt_metrics(metrics):
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the set-up seconds and exit")
    args = ap.parse_args(argv)

    try:
        mods, wl, setup_own = set_up(args.workload, args.seed)
    except (ImportError, OSError) as exc:
        print(f"perfbench: cannot set up: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(setup_own)
        return 0

    notes = []  # the report lines above the JSON result, kept in the results file

    def say(line):
        print(line)
        notes.append(line)

    say(f"workload={wl.name} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace}")
    say(f"engeler.rewrite.BACKEND={mods.rewrite.BACKEND} "
        f"python={platform.python_version()} ({platform.python_implementation()})")
    say(f"round: {len(wl.ops)} operations; "
        + " ".join(f"{k}={v}" for k, v in wl.params.items()))

    tracer = None
    if args.trace:
        untraced = Loop(wl)
        u_rounds, u_wall = untraced.run(args.seconds * TRACE_UNTRACED_SHARE)
        tracer = tracing.Tracer()
        tracer.install(mods)
        loop = Loop(wl, tracer)
        loop.first, loop.mismatch = untraced.first, untraced.mismatch
        t_rounds, t_wall = loop.run(args.seconds * (1 - TRACE_UNTRACED_SHARE))
        tracer.uninstall()
        loop.failures.update(untraced.failures)
        overhead = 100.0 * ((t_wall / t_rounds) / (u_wall / u_rounds) - 1.0)
        say(f"untraced: {u_rounds} rounds in {u_wall:.3f} s; traced: {t_rounds} "
            f"rounds in {t_wall:.3f} s; tracing overhead {overhead:.1f} %")
        rounds = u_rounds + t_rounds
    else:
        loop = Loop(wl)
        rounds, _ = loop.run(args.seconds)

    failed_per_round, wrong, kinds = verify(wl, loop)
    attempted = rounds * len(wl.ops)
    failed = rounds * failed_per_round
    correct = not wrong
    say(f"attempted={attempted} failed={failed} rounds={rounds} correct={correct}")
    say("answers per round: " + " ".join(f"{k}={v}" for k, v in sorted(kinds.items())))
    for i, kind, why in wrong[:10]:
        say(f"WRONG op {i} ({kind}): {str(why)[:200]}")
    for i, text in list(loop.failures.items())[:5]:
        say(f"FAILED op {i} ({wl.ops[i].kind}): {text[:200]}")

    if args.trace:
        layer = tracer.layer_metrics(t_rounds)
        layer["trace.overhead_pct"] = (overhead, "%")
        metrics = dict(sorted(layer.items()))
        for name, (value, unit) in metrics.items():
            say(f"{name} = {value:.6g} {unit} per round")
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setup_times = [setup_own] + [fresh_set_up(args) for _ in range(SETUP_SAMPLES - 1)]
        raw = sorted(loop.best)
        ref = sorted(loop.reference)
        slowness = percentile(ref, 10)[0] / REFERENCE_NOMINAL_S
        lat = [t / slowness for t in raw]
        tail_p = tail_percentile(len(lat))
        tail, beyond = percentile(lat, tail_p)
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "ops_per_s": (len(lat) / sum(lat), "1/s"),
            "latency_p50_ms": (1000.0 * statistics.median(lat), "ms"),
            "latency_tail_ms": (1000.0 * tail, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        say(f"latency_tail_ms is p{tail_p:g} of {len(lat)} samples, one per "
            f"operation of the round, each its fastest of {rounds} rounds "
            f"({beyond} beyond it)")
        say(f"machine slowness {slowness:.4f}: reference loop p10 "
            f"{1000 * percentile(ref, 10)[0]:.4f} ms over {len(ref)} runs "
            f"(nominal {1000 * REFERENCE_NOMINAL_S:g} ms); unscaled: "
            f"ops_per_s={len(raw) / sum(raw):.6g} "
            f"latency_p50_ms={1000 * statistics.median(raw):.6g} "
            f"latency_tail_ms={1000 * percentile(raw, tail_p)[0]:.6g}")
        say("set-ups (this process, then fresh ones): "
            + " ".join(f"{t:.4f}" for t in setup_times) + " s")
        for name, (value, unit) in metrics.items():
            say(f"{name} = {value:.6g} {unit}")

    write_results(args, wl, metrics, tracer, attempted, failed, correct, kinds, notes)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": fmt_metrics(metrics)}))
    return 0


def write_results(args, wl, metrics, tracer, attempted, failed, correct, kinds, notes):
    os.makedirs(RESULTS, exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    summary = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
               "params": wl.params, "attempted": attempted, "failed": failed,
               "correct": correct, "answers_per_round": kinds, "notes": notes,
               "metrics": fmt_metrics(metrics)}
    with open(os.path.join(RESULTS, stem + ".json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    if tracer is not None:
        with open(os.path.join(RESULTS, stem + "-spans.json"), "w",
                  encoding="utf-8") as fh:
            json.dump({"spans": tracer.span_records(),
                       "span_cap": tracing.SPAN_CAP,
                       "spans_total": tracer.next_id}, fh)


if __name__ == "__main__":
    sys.exit(main())
