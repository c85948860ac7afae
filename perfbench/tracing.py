"""Per-module spans recorded from outside the program.

`Tracer.install()` replaces each traced public function, in every loaded
`yuancert` module that imported it by name, with a wrapper that records
a span [name, start, end, parent span, command id]. `remove()` restores
the originals, so traced and untraced passes run in one process. Spans
stay in memory; `write()` stores them when the run ends.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

# module -> public functions traced under "<module>.<function>"
TARGETS = {
    "numeric_core": ("sym_eigen", "matrix_set_rank", "numerical_rank", "express_in_basis"),
    "yuan": ("certify_rank2", "yuan_two"),
    "nlp": ("check_mfcq", "multiplier_vertices", "second_order_certificate"),
    "quadprob": ("rank_increase_check", "jacobian_rank_reduce", "extract_dependence",
                 "quad_certificate"),
    "lp": ("lp_solve",),
    "cone": ("restrict",),
    "instances": ("load_instance", "dump_json", "input_digest"),
    "cli": ("main",),
}
# the min_eigenvalue calls made from `yuan` are the pencil evaluations
PENCIL_EVAL = ("yuan", "min_eigenvalue", "yuan.pencil_evals")
VERTEX_COUNTER = "nlp.vertices"

NAME, START, END, PARENT, CMD = range(5)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.cmd = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, count_result: str | None = None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self.cmd])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][END] = clock()
            if count_result is not None:
                self.counters[count_result] += len(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, module, attr: str, wrapper) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if key == "yuancert" or key.startswith("yuancert.")]
        mod, attr, name = PENCIL_EVAL
        self._patch(sys.modules[f"yuancert.{mod}"], attr,
                    self._wrap(name, getattr(sys.modules[f"yuancert.{mod}"], attr)))
        for mod, funcs in TARGETS.items():
            home = sys.modules[f"yuancert.{mod}"]
            for func in funcs:
                original = getattr(home, func)
                counter = VERTEX_COUNTER if (mod, func) == ("nlp", "multiplier_vertices") else None
                wrapper = self._wrap(f"{mod}.{func}", original, counter)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapper)

    def remove(self) -> None:
        while self._patches:
            module, attr, value = self._patches.pop()
            setattr(module, attr, value)

    def take(self) -> tuple[list, Counter]:
        """Hand over the spans and counters recorded so far and start afresh."""
        spans, counters = list(self.spans), Counter(self.counters)
        self.spans.clear()
        self.counters.clear()
        return spans, counters


def summarize(spans: list, counters: Counter) -> dict:
    """Per-name `calls`, inclusive `s` and `self_s` over one pass.

    Inclusive time counts only the outermost span of a name, so a
    recursive call is not counted twice.
    """
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    out: dict[str, float] = Counter()
    for idx, span in enumerate(spans):
        name = span[NAME]
        dur = span[END] - span[START]
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += dur - child[idx]
        parent = span[PARENT]
        while parent >= 0 and spans[parent][NAME] != name:
            parent = spans[parent][PARENT]
        if parent < 0:
            out[f"{name}.s"] += dur
    out["trace.self_total_s"] = sum(s[END] - s[START] - child[i] for i, s in enumerate(spans))
    for key, value in counters.items():
        out[key] += value
    out["yuan.pencil_evals"] = out.pop("yuan.pencil_evals.calls", 0)
    return out


def write(path: str, header: dict, passes: list) -> None:
    """One JSON header line, then one line per span (pass index appended)."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(header) + "\n")
        for number, spans in enumerate(passes):
            for span in spans:
                handle.write(json.dumps(span + [number]) + "\n")
