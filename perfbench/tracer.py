"""Span recording at simscan's layer boundaries, for the traced run only.

While installed, the tracer rebinds the names through which one layer
calls the next (``Detector.document``, ``simscan.textprep.stem``,
``simscan.features.lcs_length``, ...) to wrappers that time each call.
The program's own functions run unchanged; `uninstall` restores every
name, so untraced ops never see a wrapper.

A span is ``(op, id, parent, name, start, end, calls, busy, work)``.  The
two leaf calls made thousands of times per op, `porter.stem` and
`kernels.lcs_length`, are folded into one span per parent: ``calls``
counts them, ``busy`` sums their time and ``work`` sums their m*n cells.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

from simscan import cli, detector, features, fingerprint, textprep
from simscan.detector import Detector


@dataclass
class Span:
    op: int
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    calls: int = 1
    busy: float = 0.0
    work: int = 0


def _cells(args) -> int:
    return len(args[0]) * len(args[1])


# (owner, attribute, span name, folded leaf?, work counter)
BOUNDARIES = (
    (cli, "main", "cli.main", False, None),
    (Detector, "document", "textprep.document", False, None),
    (textprep, "stem", "porter.stem", True, None),
    (Detector, "analyze_pair", "detector.analyze_pair", False, None),
    (Detector, "entry", "detector.entry", False, None),
    (Detector, "rank_candidates", "detector.rank", False, None),
    (detector, "statement_resemblance", "fingerprint.statement", False, None),
    (detector, "fingerprint_keys", "fingerprint.keys", False, None),
    (fingerprint, "fingerprint_keys", "fingerprint.keys", False, None),
    (detector, "top_keyword_similarity", "features.top_keyword", False, None),
    (detector, "first_sentence_similarity", "features.first_sentence", False, None),
    (detector, "query_phrase_similarity", "features.query_phrase", False, None),
    (detector, "lcs_similarity", "features.lcs", False, None),
    (features, "lcs_length", "kernels.lcs_length", True, _cells),
    (cli, "save_index", "detector.save_index", False, None),
    (cli, "load_index", "detector.load_index", False, None),
    (cli, "report_dict", "detector.render", False, None),
    (cli, "dumps_fixed", "detector.render", False, None),
)

# Calls whose arguments or results the post-op counters inspect.
CAPTURED = ("textprep.document", "detector.rank")


class Tracer:
    """Records spans for ops run between `install` and `uninstall`."""

    def __init__(self):
        self.spans: list[Span] = []
        self.captured: dict[str, list] = {name: [] for name in CAPTURED}
        self._op = -1
        self._stack: list[int | None] = [None]
        self._folded: list[dict[int | None, Span]] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self):
        self._folded.clear()
        for owner, attr, name, folded, work in BOUNDARIES:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            wrapper = self._leaf(name, original, work) if folded else self._span(name, original)
            setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def begin_op(self, op: int):
        self._op = op
        for values in self.captured.values():
            values.clear()

    def end_op(self) -> list[Span]:
        """Flush folded leaves and return the op's spans."""
        for by_parent in self._folded:
            for span in by_parent.values():
                span.id = len(self.spans)
                self.spans.append(span)
            by_parent.clear()
        return [span for span in self.spans if span.op == self._op]

    def _span(self, name: str, fn):
        spans, stack = self.spans, self._stack
        captured = self.captured.get(name)

        def traced(*args, **kwargs):
            span = Span(self._op, len(spans), stack[-1], name, 0.0, 0.0)
            spans.append(span)
            stack.append(span.id)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                span.busy = span.end - span.start
                stack.pop()
            if captured is not None:
                captured.append((args, result))
            return result

        return traced

    def _leaf(self, name: str, fn, work):
        stack = self._stack
        by_parent: dict[int | None, Span] = {}
        self._folded.append(by_parent)

        def traced(*args):
            start = perf_counter()
            result = fn(*args)
            end = perf_counter()
            span = by_parent.get(stack[-1])
            if span is None:
                span = by_parent[stack[-1]] = Span(self._op, -1, stack[-1], name, start, end, 0)
            span.end = end
            span.calls += 1
            span.busy += end - start
            if work is not None:
                span.work += work(args)
            return result

        return traced


def self_time(span: Span, spans: list[Span]) -> float:
    """Busy time of `span` not covered by its child spans."""
    return span.busy - sum(child.busy for child in spans if child.parent == span.id)
