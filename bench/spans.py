"""Spans around jrtower's layer functions, kept in memory.

Tracer.install replaces each listed function at every name a jrtower
module looks it up by (for example the `perfect_power` that
jrtower.factor imported from jrtower.intmath), so calls between modules
and within one module both pass through the wrapper. A span records
its name, start, end, parent span and, for some functions, whether the
result was useful. Nothing inside jrtower changes.
"""

from __future__ import annotations

import functools
import sys
import time

# Layer -> the public functions whose calls become spans.
LAYERS = {
    "intmath": ("iroot", "perfect_power", "is_prime"),
    "factor": ("factorize", "factorize_cached"),
    "orbit": ("orbit_mod_p", "constant_terms", "tower_strict"),
    "residue": ("residue_certificate", "jacobi"),
    "squareclasses": ("quadratic_subfields", "two_independent", "sqrt2_free_certificate"),
    "verdict": (
        "jr_verdict",
        "hypothesis_check",
        "fermat_obstruction",
        "nested_radical_check",
        "cos_minpoly",
    ),
    "wreath": ("closure_order", "agemo_rank", "count_index2_subgroups"),
    "discriminant": ("discriminant_report", "disc_resultant_oracle"),
}

# Span name -> whether a result is a useful outcome, for the ratios.
OUTCOMES = {
    "factor.factorize": lambda f: f.complete,
    "squareclasses.two_independent": lambda r: r.status != "unknown",
}

NAME, START, END, PARENT, USEFUL = range(5)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn, outcome=None):
        name_id = len(self.names)
        self.names.append(name)
        spans, open_spans = self.spans, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name_id, clock(), 0.0, open_spans[-1] if open_spans else -1, None]
            open_spans.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                open_spans.pop()
            if outcome is not None:
                span[USEFUL] = bool(outcome(result))
            return result

        return traced

    def install(self) -> None:
        """Wrap every function of LAYERS in the imported jrtower modules."""
        modules = [
            m for n, m in list(sys.modules.items())
            if n == "jrtower" or n.startswith("jrtower.")
        ]
        for layer, functions in LAYERS.items():
            home = sys.modules[f"jrtower.{layer}"]
            for fn_name in functions:
                original = getattr(home, fn_name)
                name = f"{layer}.{fn_name}"
                wrapped = self.wrap(name, original, OUTCOMES.get(name))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapped)

    def clear(self) -> None:
        self.spans.clear()

    def dump(self) -> dict:
        return {"fields": ["name", "start", "end", "parent", "useful"],
                "names": self.names, "spans": self.spans}

    def metrics(self) -> dict[str, float]:
        """Calls and self time per span name, and the useful-outcome ratios.

        Self time is a span's duration minus its children's; spans of one
        thread nest, so the children never overlap.
        """
        count = [0] * len(self.names)
        total = [0.0] * len(self.names)
        in_children = [0.0] * len(self.names)
        useful = [0] * len(self.names)
        cached_id = self.names.index("factor.factorize_cached")
        factorize_id = self.names.index("factor.factorize")
        misses = 0
        for name_id, start, end, parent, ok in self.spans:
            count[name_id] += 1
            total[name_id] += end - start
            useful[name_id] += ok is True
            if parent >= 0:
                parent_id = self.spans[parent][NAME]
                in_children[parent_id] += end - start
                misses += name_id == factorize_id and parent_id == cached_id
        out: dict[str, float] = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = count[i]
            out[f"{name}.self_s"] = total[i] - in_children[i]

        def ratio(part: int, whole: int) -> float:
            return part / whole if whole else 0.0

        two_id = self.names.index("squareclasses.two_independent")
        out["factor.cache_hit_ratio"] = ratio(count[cached_id] - misses, count[cached_id])
        out["factor.complete_ratio"] = ratio(useful[factorize_id], count[factorize_id])
        out["squareclasses.decided_ratio"] = ratio(useful[two_id], count[two_id])
        return out
