"""In-memory spans for the traced benchmark run.

Spans are recorded from the benchmark's side only: around the library calls
the benchmark makes, and by wrapping the cross-module names a ``tkgc`` module
looks up at call time (for example ``tkgc.training.relation_factor``).  Each
span keeps (name, start, end, parent); a layer's self time is its span minus
the spans of its direct children.
"""

from __future__ import annotations

import functools
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass

# (module, attribute looked up at call time) -> span name "<layer>.<function>".
# Module "" is the package itself, whose names the benchmark calls.
WRAPPED = (
    ("", "parse_icews", "datasets.parse_icews"),
    ("", "build_dataset", "datasets.build_dataset"),
    ("", "save_dataset", "datasets.save_dataset"),
    ("", "load_dataset", "datasets.load_dataset"),
    ("", "augment_reciprocal", "datasets.augment_reciprocal"),
    ("", "build_filter_index", "datasets.build_filter_index"),
    ("", "load_checkpoint", "models.load_checkpoint"),
    ("", "train", "training.train"),
    ("", "evaluate", "evaluation.evaluate"),
    ("training", "init_state", "training.init_state"),
    ("training", "batch_loss", "training.batch_loss"),
    ("training", "adam_step", "training.adam_step"),
    ("training", "relation_factor", "models.relation_factor"),
    ("training", "relation_factor_backward", "models.relation_factor_backward"),
    ("training", "tail_matrix", "models.tail_matrix"),
    ("training", "_cmul_conj", "models.cmul_conj"),
    ("training", "cmul", "core.cmul"),
    ("training", "n3_terms", "regularizers.n3"),
    ("training", "n3_terms_grad", "regularizers.n3"),
    ("training", "temporal_penalty_grad", "regularizers.temporal_penalty_grad"),
    ("training", "_recurrent_forward", "regularizers.recurrent_forward"),
    ("training", "recurrent_generate", "regularizers.recurrent_forward"),
    ("training", "recurrent_generate_backward", "regularizers.recurrent_backward"),
    ("models", "relation_factor", "models.relation_factor"),
    ("models", "tail_matrix", "models.tail_matrix"),
    ("models", "_cmul_conj", "models.cmul_conj"),
    ("models", "cmul", "core.cmul"),
    ("evaluation", "score_all_objects_batch", "models.score_all_objects_batch"),
    ("evaluation", "_direction_ranks", "evaluation.rank"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), math.nan, parent))
        self._stack.append(idx)
        try:
            yield
        finally:
            self.spans[idx].end = time.perf_counter()
            self._stack.pop()

    def wrap(self, owner, attr: str, name: str, probe=None) -> None:
        """Replace ``owner.attr`` by a spanned version until ``restore``;
        ``probe`` sees each return value."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if probe is not None:
                probe(result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def counter(self, owner, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` without a span, until ``restore``."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def counted(*args, **kwargs):
            self.counts[name] = self.counts.get(name, 0) + 1
            return original(*args, **kwargs)

        setattr(owner, attr, counted)
        self._patches.append((owner, attr, original))

    def instrument(self, package, probes=None) -> None:
        """Wrap every name in ``WRAPPED``; ``probes`` maps a span name to a
        function that sees that call's return value."""
        for module, attr, name in WRAPPED:
            owner = getattr(package, module) if module else package
            if hasattr(owner, attr):
                self.wrap(owner, attr, name, (probes or {}).get(name))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total/self ms, per-call p50/p90 ms, and the
        total ms of direct children by name."""
        child_s = [0.0] * len(self.spans)
        for s in self.spans:
            if s.end < s.start:
                raise RuntimeError(f"span {s.name} was never closed")
            if s.parent >= 0:
                parent = self.spans[s.parent]
                if s.start < parent.start or s.end > parent.end:
                    raise RuntimeError(f"span {s.name} escapes {parent.name}")
                child_s[s.parent] += s.end - s.start
        out: dict[str, dict] = {}
        for i, s in enumerate(self.spans):
            entry = out.setdefault(
                s.name, {"calls": 0, "ms": 0.0, "self_ms": 0.0,
                         "durations_ms": [], "children_ms": {}})
            dur = (s.end - s.start) * 1e3
            entry["calls"] += 1
            entry["ms"] += dur
            entry["self_ms"] += dur - child_s[i] * 1e3
            entry["durations_ms"].append(dur)
            if s.parent >= 0:
                kids = out[self.spans[s.parent].name]["children_ms"]
                kids[s.name] = kids.get(s.name, 0.0) + dur
        for entry in out.values():
            durations = sorted(entry.pop("durations_ms"))
            entry["ms_p50"] = _percentile(durations, 0.5)
            entry["ms_p90"] = _percentile(durations, 0.9)
        return out

    def dump(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent} for s in self.spans]


def _percentile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolation percentile of an already sorted list."""
    pos = q * (len(sorted_values) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)
