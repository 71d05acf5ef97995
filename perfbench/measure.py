"""Closed-loop measurement, output checking and metric aggregation.

One client runs one op at a time, in-process and with ``--jobs 1``,
cycling through the workload's ops until the ops themselves have taken
the requested number of seconds.  Every op's output is checked outside
the timed region; a failed check counts the op as failed.

The untraced run gives the end-to-end metrics.  The traced run alternates
an untraced and a traced run of each op, the order flipping from op to op,
and gives the per-layer metrics plus the tracing overhead (traced minus
untraced median latency).  The host clock is calibrated between ops and
around set-ups, and every reported time is scaled by the calibrations
around it (``calibration.py``).
"""

from __future__ import annotations

import gc
import os
import random
import resource
import shutil
import statistics
import traceback
from pathlib import Path
from time import perf_counter

from simscan import kernels
from simscan.features import top_keywords
from simscan.fingerprint import char_kgrams, document_fingerprints, fingerprint_keys

from .calibration import HostClock
from .corpus import Generator
from .tracer import Span, Tracer, self_time
from .workloads import WORKLOADS, Op, Output, Workload, run_cli

SETUPS = 3
TAIL_BEYOND = 10
# The traced run counts work over its first COUNTED_OPS ops (distinct, as
# every workload has at least that many), so counts repeat exactly per seed.
COUNTED_OPS = 12

# Span name -> metric of its inclusive time per op.
INCLUSIVE_MS = {
    name: f"{name}_ms"
    for name in (
        "textprep.document", "porter.stem", "fingerprint.keys", "fingerprint.statement",
        "features.top_keyword", "features.first_sentence", "features.query_phrase",
        "features.lcs", "detector.save_index", "detector.load_index", "detector.rank",
        "detector.render",
    )
}
# Span name -> metric of its self time per op.
SELF_MS = {
    "cli.main": "cli.self_ms",
    "detector.analyze_pair": "detector.analyze_pair_self_ms",
    "detector.entry": "detector.entry_self_ms",
}
END_TO_END_UNITS = {
    "latency_ms_p50": "ms",
    "latency_ms_tail": "ms",
    "docs_per_s": "doc/s",
    "index_bytes_per_doc": "B",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    **{metric: "ms" for metric in INCLUSIVE_MS.values()},
    **{metric: "ms" for metric in SELF_MS.values()},
    "porter.distinct_ratio": "ratio",
    "fingerprint.unfingerprinted_ratio": "ratio",
    "fingerprint.key_collisions": "count",
    "features.lcs_sentence_pairs": "count",
    "features.lcs_cells": "count",
    "kernels.lcs_length_us": "us",
    "kernels.lcs_ns_per_cell": "ns",
    "kernels.tokenpair_ns_per_cell": "ns",
    "detector.entries_scored": "count",
    "detector.entries_sharing_ratio": "ratio",
    "trace.overhead_ms": "ms",
}
TOKEN_PAIR_LENGTHS = (16, 64, 256)
TOKEN_PAIR_COUNT = 8
TOKEN_PAIR_VOCAB = 50
TOKEN_PAIR_REPEAT = 3


class Runner:
    """Runs ops and keeps the attempted count and the failures."""

    def __init__(self, workload: Workload, pinned: list[str] | None = None):
        self.workload = workload
        self.pinned = pinned
        self.digests: dict[int, str] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, op: Op, tracer: Tracer | None = None) -> Output:
        """Run one op; `record` must check its output afterwards."""
        self.attempted += 1
        if tracer is not None:
            tracer.install()
        try:
            return Output(*run_cli(op.argv))
        except Exception:  # an uncaught error in the CLI fails the op
            return Output(-1, "", traceback.format_exc(), 0.0)
        finally:
            if tracer is not None:
                tracer.uninstall()

    def record(self, op: Op, output: Output):
        error = self.check(op, output)
        if error:
            self.failures.append(f"op {op.id} ({' '.join(op.argv)}): {error}")

    def check(self, op: Op, output: Output) -> str | None:
        first = op.id not in self.digests
        try:
            self.workload.collect(op, output)
            error = self.workload.check(op, output, first)
        except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
            return f"malformed output: {exc!r}"
        if error:
            return error
        digest = output.digest()
        if first:
            self.digests[op.id] = digest
        elif digest != self.digests[op.id]:
            return "output differs from the first run of the same op"
        if self.pinned is not None and digest != self.pinned[op.id]:
            return f"output sha256 {digest} differs from the pinned digest"
        return None


def set_up(
    name: str, seed: int, scale: float, workdir: Path, clock: HostClock
) -> tuple[Workload, list[float], list[float]]:
    """Set the workload up SETUPS times in fresh directories; keep the last.

    Returns the workload, the scaled and the wall set-up times, and leaves
    the process in the last set-up's directory.
    """
    times, wall = [], []
    for k in range(SETUPS):
        target = workdir / f"setup{k}"
        target.mkdir()
        os.chdir(target)
        workload = WORKLOADS[name]()
        before = clock.calibrate()
        start = perf_counter()
        workload.setup(Generator(seed), scale)
        wall.append(perf_counter() - start)
        times.append(clock.scaled(wall[-1], before, clock.calibrate()))
        if k:
            shutil.rmtree(workdir / f"setup{k - 1}")
    gc.collect()
    return workload, times, wall


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with TAIL_BEYOND samples beyond it, and which one."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def timed(
    runner: Runner, op: Op, clock: HostClock, tracer: Tracer | None = None
) -> tuple[Output, float]:
    """Run one op, calibrate, check its output; returns it and its scaled seconds.

    The calibration before the op is the one after the previous op or set-up.
    """
    before = clock.samples[-1]
    output = runner.run(op, tracer)
    scaled = clock.scaled(output.seconds, before, clock.calibrate())
    runner.record(op, output)
    return output, scaled


def measure(
    runner: Runner, seconds: float, clock: HostClock, setup_times: list[float]
) -> tuple[dict, dict]:
    """End-to-end metrics of an untraced run, and what the metadata records."""
    ops = runner.workload.ops
    wall: list[float] = []
    latencies: list[float] = []
    docs = 0
    while sum(wall) < seconds or not wall:
        op = ops[len(wall) % len(ops)]
        output, scaled = timed(runner, op, clock)
        wall.append(output.seconds)
        latencies.append(scaled)
        docs += op.docs
    tail_value, percentile = tail(latencies)
    metrics = {
        "latency_ms_p50": statistics.median(latencies) * 1e3,
        "latency_ms_tail": tail_value * 1e3,
        "docs_per_s": docs / sum(latencies),
        "index_bytes_per_doc": runner.workload.index_bytes_per_doc(),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb(),
    }
    return metrics, {
        "latency_samples": len(latencies),
        "latency_tail_percentile": percentile,
        "wall_latency_ms_p50": statistics.median(wall) * 1e3,
    }


def measure_traced(
    runner: Runner, seconds: float, clock: HostClock, seed: int
) -> tuple[dict, dict, list[Span]]:
    """Per-layer metrics, what the metadata records, and the spans."""
    ops = runner.workload.ops
    tracer = Tracer()
    untraced: list[float] = []
    traced: list[float] = []
    per_op: list[dict[str, float]] = []
    counts: dict[int, dict[str, int]] = {}
    busy = 0.0
    i = 0
    counted = min(COUNTED_OPS, len(ops))
    while busy < seconds or len(counts) < counted:
        op = ops[i % len(ops)]
        for with_trace in (False, True) if i % 2 == 0 else (True, False):
            if not with_trace:
                output, scaled = timed(runner, op, clock)
                untraced.append(scaled)
                busy += output.seconds
                continue
            tracer.begin_op(i)
            output, scaled = timed(runner, op, clock, tracer)
            spans = tracer.end_op()
            traced.append(scaled)
            busy += output.seconds
            per_op.append(layer_times(spans, scaled / output.seconds if output.seconds else 1.0))
            if len(counts) < counted:
                counts[op.id] = op_counts(tracer, spans)
        i += 1
    ns_per_cell, mismatch = token_pairs(random.Random(seed), clock)
    runner.attempted += 1
    if mismatch:
        runner.failures.append(mismatch)
    traced_p50 = statistics.median(traced)
    untraced_p50 = statistics.median(untraced)
    metrics = {}
    for metric in (*INCLUSIVE_MS.values(), *SELF_MS.values(),
                   "kernels.lcs_length_us", "kernels.lcs_ns_per_cell"):
        values = [times[metric] for times in per_op if metric in times]
        metrics[metric] = statistics.median(values) if values else 0.0
    metrics.update(aggregate_counts(list(counts.values())))
    metrics["kernels.tokenpair_ns_per_cell"] = ns_per_cell
    metrics["trace.overhead_ms"] = (traced_p50 - untraced_p50) * 1e3
    extra = {
        "latency_samples": len(untraced),
        "untraced_latency_ms_p50": untraced_p50 * 1e3,
        "traced_latency_ms_p50": traced_p50 * 1e3,
        "tracing_overhead_ms": metrics["trace.overhead_ms"],
    }
    return metrics, extra, tracer.spans


def layer_times(spans: list[Span], scale: float) -> dict[str, float]:
    """Per-layer times of one traced op, for the layers it entered.

    Times are multiplied by `scale`, the op's host-speed factor.
    """
    times: dict[str, float] = {}
    calls = cells = 0
    lcs_busy = 0.0
    for span in spans:
        if span.name in INCLUSIVE_MS:
            metric = INCLUSIVE_MS[span.name]
            times[metric] = times.get(metric, 0.0) + span.busy * scale * 1e3
        if span.name in SELF_MS:
            metric = SELF_MS[span.name]
            times[metric] = times.get(metric, 0.0) + self_time(span, spans) * scale * 1e3
        if span.name == "kernels.lcs_length":
            calls += span.calls
            cells += span.work
            lcs_busy += span.busy * scale
    if calls:
        times["kernels.lcs_length_us"] = lcs_busy / calls * 1e6
    if cells:
        times["kernels.lcs_ns_per_cell"] = lcs_busy / cells * 1e9
    return times


def op_counts(tracer: Tracer, spans: list[Span]) -> dict[str, int]:
    """Exact work counts of one traced op, taken after the op finished."""
    counts = dict.fromkeys(
        ("stem_calls", "distinct_content", "sentences", "unfingerprinted",
         "key_collisions", "lcs_pairs", "lcs_cells", "entries_scored", "entries_sharing"),
        0,
    )
    for span in spans:
        if span.name == "porter.stem":
            counts["stem_calls"] += span.calls
        elif span.name == "kernels.lcs_length":
            counts["lcs_pairs"] += span.calls
            counts["lcs_cells"] += span.work
    content = set()
    for (det, _, _), doc in tracer.captured["textprep.document"]:
        content.update(t for s in doc.sentences for t in s.tokens if t not in det.stopwords)
        fingerprints = document_fingerprints(doc)
        counts["sentences"] += len(doc.sentences)
        counts["unfingerprinted"] += len(doc.sentences) - len(fingerprints)
        counts["key_collisions"] += len(fingerprints) - len({fp.key for fp in fingerprints})
    counts["distinct_content"] = len(content)
    for (det, susp, index, *_), _ in tracer.captured["detector.rank"]:
        keys = fingerprint_keys(susp)
        keywords = top_keywords(susp, det.config.k_top).terms
        grams = char_kgrams(susp.normalized_text, det.config.k_char).gram_set()
        counts["entries_scored"] += len(index.entries)
        counts["entries_sharing"] += sum(
            1
            for entry in index.entries.values()
            if not keys.isdisjoint(entry.fingerprints)
            or not keywords.isdisjoint(entry.keywords)
            or not grams.isdisjoint(entry.first_grams)
            or not grams.isdisjoint(entry.query_grams)
        )
    return counts


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def aggregate_counts(per_op: list[dict[str, int]]) -> dict[str, float]:
    """Counts per op and ratios over every distinct op, each counted once."""
    total = {key: sum(counts[key] for counts in per_op) for key in per_op[0]}
    ops = len(per_op)
    return {
        "porter.distinct_ratio": _ratio(total["distinct_content"], total["stem_calls"]),
        "fingerprint.unfingerprinted_ratio": _ratio(total["unfingerprinted"], total["sentences"]),
        "fingerprint.key_collisions": total["key_collisions"] / ops,
        "features.lcs_sentence_pairs": total["lcs_pairs"] / ops,
        "features.lcs_cells": total["lcs_cells"] / ops,
        "detector.entries_scored": total["entries_scored"] / ops,
        "detector.entries_sharing_ratio": _ratio(total["entries_sharing"], total["entries_scored"]),
    }


def token_pairs(rng: random.Random, clock: HostClock) -> tuple[float, str | None]:
    """Seeded token-id pairs through the active LCS backend.

    Returns scaled nanoseconds per DP cell and a message if the public
    `lcs_length`, the pure-Python kernel and, when built, the compiled
    kernel disagree on any pair.
    """
    compiled = getattr(kernels, "_lcs_length_ids_compiled", None)
    active = compiled or kernels.lcs_length_ids_py
    pairs = []
    for length in TOKEN_PAIR_LENGTHS:
        for _ in range(TOKEN_PAIR_COUNT):
            xs = [rng.randrange(TOKEN_PAIR_VOCAB) for _ in range(length)]
            ys = [rng.randrange(TOKEN_PAIR_VOCAB) for _ in range(length)]
            a, b = kernels.encode_pair(xs, ys)
            expect = kernels.lcs_length_ids_py(a, b)
            if kernels.lcs_length(xs, ys) != expect or (compiled and compiled(a, b) != expect):
                return 0.0, f"LCS backends disagree on a length-{length} token pair"
            pairs.append((a, b))
    before = clock.calibrate()
    start = perf_counter()
    for _ in range(TOKEN_PAIR_REPEAT):
        for a, b in pairs:
            active(a, b)
    elapsed = clock.scaled(perf_counter() - start, before, clock.calibrate())
    cells = TOKEN_PAIR_REPEAT * sum(len(a) * len(b) for a, b in pairs)
    return elapsed / cells * 1e9, None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
