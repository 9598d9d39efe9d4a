"""Spans around calls into engeler's public functions, from outside the
program.

Each traced function is replaced, on every module that holds a reference
to it, by a wrapper, so a call is seen wherever its caller looks the name
up (templates calls its own imported ``gset``, oracle its own imported
``enumerate_g``).  A span records its name, start, end, parent span and
operation id.  A layer's self time is its span's duration minus the time
its child spans cover.  Recursive calls of a traced function are folded
into the outermost call.  Totals cover every call; the span list keeps
the first ``SPAN_CAP`` spans and is written out when the run ends.
"""

from __future__ import annotations

import gc
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

SPAN_CAP = 50_000

# counters kept besides the call counts, filled by the after-hooks
COUNTS = ("rewrite.reduce.steps", "templates.enumerate_template.elements",
          "templates.template_of.misses")

# (module, function) pairs wrapped in a traced run
TRACED = [
    ("rewrite", "reduces_to"),
    ("rewrite", "one_step_reducts"),
    ("rewrite", "reduce"),
    ("rewrite", "contract"),
    ("terms", "parse_term"),
    ("model", "gelem_from_json"),
    ("model", "enumerate_g"),
    ("model", "gset"),
    ("templates", "template_of"),
    ("templates", "member_via_template"),
    ("templates", "apply_template_chain"),
    ("templates", "enumerate_template"),
    ("oracle", "member_oracle"),
    ("companion", "closure_report"),
]


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.spans = []
        self.stack = []  # [span id, child seconds] per open span
        self.next_id = 0
        self.op_id = 0
        self.gc_s = 0.0
        self.gc_collections = 0
        self._gc_start = None
        self._restore = []

    # -- installation -------------------------------------------------------

    def install(self, mods):
        for mod_name, fn_name in TRACED:
            original = getattr(getattr(mods, mod_name), fn_name)
            name = f"{mod_name}.{fn_name}"
            if inspect.isgeneratorfunction(original):
                wrapper = self._wrap_generator(name, original)
            else:
                wrapper = self._wrap(name, original, self._after_hook(name, original))
            holders = [m for key, m in sys.modules.items()
                       if key == "engeler" or key.startswith("engeler.")]
            for holder in holders:
                for attr, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, attr, wrapper)
                        self._restore.append((holder, attr, original))
        gc.callbacks.append(self._on_gc)

    def uninstall(self):
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore.clear()
        gc.callbacks.remove(self._on_gc)

    def _after_hook(self, name, original):
        counts = self.counts
        if name == "rewrite.reduce":
            def after(result):
                counts["rewrite.reduce.steps"] += len(result.steps)
            return after, None
        if name == "templates.enumerate_template":
            def after(result):
                counts["templates.enumerate_template.elements"] += len(result[0])
            return after, None
        if name == "templates.template_of":
            # misses inside one outermost call, read off the lru cache
            info = original.cache_info

            def before():
                return info().misses

            def after(result, misses_before):
                counts["templates.template_of.misses"] += info().misses - misses_before
            return after, before
        return None, None

    # -- wrappers -------------------------------------------------------------

    def _open(self):
        span_id = self.next_id
        self.next_id += 1
        parent = self.stack[-1][0] if self.stack else None
        frame = [span_id, 0.0]
        self.stack.append(frame)
        return frame, parent

    def _close(self, name, frame, parent, start, end):
        self.stack.pop()
        duration = end - start
        self.self_s[name] += duration - frame[1]
        if self.stack:
            self.stack[-1][1] += duration
        if len(self.spans) < SPAN_CAP:
            self.spans.append((frame[0], name, start, end, parent, self.op_id))

    def _wrap(self, name, fn, hooks):
        after, before = hooks
        active = [False]
        calls = self.calls

        def traced(*args, **kwargs):
            if active[0]:
                return fn(*args, **kwargs)
            active[0] = True
            token = before() if before is not None else None
            frame, parent = self._open()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                active[0] = False
                self._close(name, frame, parent, start, end)
                calls[name] += 1
            if after is not None:
                if before is not None:
                    after(result, token)
                else:
                    after(result)
            return result
        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, name, fn):
        # one call per generator; every resumption is a span of its own
        def traced(*args, **kwargs):
            self.calls[name] += 1
            it = fn(*args, **kwargs)
            while True:
                frame, parent = self._open()
                start = perf_counter()
                try:
                    value = next(it)
                except StopIteration:
                    self._close(name, frame, parent, start, perf_counter())
                    return
                self._close(name, frame, parent, start, perf_counter())
                yield value
        traced.__wrapped__ = fn
        return traced

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_start = perf_counter()
        elif self._gc_start is not None:
            self.gc_s += perf_counter() - self._gc_start
            self.gc_collections += 1
            self._gc_start = None

    # -- results --------------------------------------------------------------

    def layer_metrics(self, rounds):
        """Per-layer values per traced round."""
        out = {name: (0.0, "count") for name in COUNTS}
        for mod_name, fn_name in TRACED:
            name = f"{mod_name}.{fn_name}"
            out[f"{name}.s"] = (self.self_s[name] / rounds, "s")
            out[f"{name}.calls"] = (self.calls[name] / rounds, "count")
        for name, value in self.counts.items():
            out[name] = (value / rounds, "count")
        out["python.gc.s"] = (self.gc_s / rounds, "s")
        out["python.gc.collections"] = (self.gc_collections / rounds, "count")
        sets = self.calls["model.gset"]
        elements = self.counts["templates.enumerate_template.elements"]
        out["templates.enumerate_template.elements_per_kgset"] = (
            1000.0 * elements / sets if sets else 0.0, "count/kset")
        return out

    def span_records(self):
        return [
            {"id": i, "name": n, "start": s, "end": e, "parent": p, "op": op}
            for i, n, s, e, p, op in self.spans
        ]
