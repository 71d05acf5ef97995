"""The three workloads: their generated inputs, their ops and output checks.

Each workload writes its inputs into the current directory, so the paths
the CLI sees, and therefore its output bytes, do not depend on where the
benchmark runs.  An op is one ``simscan`` command line.

* compare -- ``simscan compare REF SUSP``.  LCS and fingerprinting of both
  sides dominate; no index is read or written.
* index -- ``simscan index SHARD OUT``.  Preprocessing, fingerprinting and
  the index writer dominate; no LCS, no ranking.
* scan -- ``simscan scan SUSP INDEX --top 10`` against an index of a few
  hundred documents built during set-up.  Index loading and ranking every
  entry dominate; no LCS.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from simscan import cli
from simscan.detector import Detector, load_index

from .corpus import Generator, stratified, text

COPY_SHARES = (0.0, 0.3, 0.9)
PAIRS = 36
INDEXED_REFS = 12
SHARDS = 12
SHARD_DOCS = 5
SCAN_CORPUS = 240
SUSPECTS = 24
TOP = 10
PLANTED_SHARE = 0.5
TOLERANCE = 1e-9


@dataclass(frozen=True)
class Op:
    id: int
    argv: tuple[str, ...]
    docs: int


@dataclass
class Output:
    code: int
    stdout: str
    stderr: str
    seconds: float
    artifact: bytes = b""

    def digest(self) -> str:
        return hashlib.sha256(self.stdout.encode("utf-8") + self.artifact).hexdigest()


def run_cli(argv) -> tuple[int, str, str, float]:
    """`simscan.cli.main(argv)` in-process; exit code, stdout, stderr, seconds."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        code = cli.main(list(argv))
        seconds = perf_counter() - start
    return code, out.getvalue(), err.getvalue(), seconds


def _index_setup(directory: str, out: str) -> int:
    """Index `directory` with the CLI during set-up; returns the file size."""
    code, _, stderr, _ = run_cli(["index", directory, out])
    if code != 0:
        raise RuntimeError(f"set-up index of {directory} failed: {stderr.strip()}")
    return Path(out).stat().st_size


def _write(path: str, sentences: list[str]):
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(text(sentences), encoding="utf-8")


def check_report(report: dict, ref_id: str, susp_id: str) -> str | None:
    """Ids, every value in [0, 1], and combined = mean of non-skipped features."""
    if report.get("ref_id") != ref_id or report.get("susp_id") != susp_id:
        return f"ids {report.get('ref_id')!r}/{report.get('susp_id')!r} != {ref_id!r}/{susp_id!r}"
    scores, skipped, combined = report.get("scores"), report.get("skipped"), report.get("combined")
    if not isinstance(scores, dict) or not isinstance(skipped, list) or not scores:
        return "report lacks scores or skipped"
    values = [combined] + [score.get("value") for score in scores.values()]
    for value in values:
        if not isinstance(value, (int, float)) or not 0.0 <= value <= 1.0:
            return f"value {value!r} outside [0, 1]"
    # Every weight is 1 under the default configuration.
    kept = [score["value"] for name, score in scores.items() if name not in skipped]
    expected = sum(kept) / len(kept) if kept else 0.0
    if not math.isclose(combined, expected, rel_tol=0.0, abs_tol=TOLERANCE):
        return f"combined {combined!r} != mean {expected!r} of non-skipped features"
    return None


def _parse(stdout: str):
    try:
        return json.loads(stdout), None
    except json.JSONDecodeError as exc:
        return None, f"unparseable JSON: {exc.msg}"


class Workload:
    """Set-up and per-op checks shared by the three workloads."""

    def __init__(self):
        self.ops: list[Op] = []
        self.index_bytes = 0
        self.indexed_docs = 0

    def setup(self, gen: Generator, scale: float):
        raise NotImplementedError

    def collect(self, op: Op, output: Output):
        """Read any file the op wrote; runs outside the timed region."""

    def check(self, op: Op, output: Output, first: bool) -> str | None:
        raise NotImplementedError

    def index_bytes_per_doc(self) -> float:
        return self.index_bytes / self.indexed_docs


def _count(base: int, scale: float, floor: int) -> int:
    return max(floor, round(base * scale))


class Compare(Workload):
    def setup(self, gen: Generator, scale: float):
        self.ops = []
        for i in range(_count(PAIRS, scale, len(COPY_SHARES))):
            count = stratified(i, 40, 100)
            ref = gen.sentences(count, 8, 45)
            susp = gen.derived(ref, count, COPY_SHARES[i % len(COPY_SHARES)], 8, 45)
            ref_path, susp_path = f"refs/ref_{i:02}.txt", f"susps/susp_{i:02}.txt"
            _write(ref_path, ref)
            _write(susp_path, susp)
            if i < INDEXED_REFS:
                _write(f"indexed/ref_{i:02}.txt", ref)
            self.ops.append(Op(i, ("compare", ref_path, susp_path), 2))
        # Index size of a sample of this workload's references (their sizes
        # are stratified, so any prefix is a spread mix); no op reads it.
        self.index_bytes = _index_setup("indexed", "indexed.jsonl")
        self.indexed_docs = min(INDEXED_REFS, len(self.ops))

    def check(self, op, output, first):
        if output.code != 0:
            return f"exit {output.code}: {output.stderr.strip()}"
        report, error = _parse(output.stdout)
        if error:
            return error
        return check_report(report, op.argv[1], op.argv[2])


class Index(Workload):
    OUT = "out.jsonl"

    def __init__(self):
        super().__init__()
        self._sized: set[int] = set()

    def setup(self, gen: Generator, scale: float):
        self.ops = []
        for i in range(_count(SHARDS, scale, 2)):
            shard = f"shards/shard_{i:02}"
            for k in range(SHARD_DOCS):
                count = stratified(i * SHARD_DOCS + k, 20, 60)
                _write(f"{shard}/doc_{k}.txt", gen.sentences(count, 6, 30))
            self.ops.append(Op(i, ("index", shard, self.OUT), SHARD_DOCS))

    def collect(self, op, output):
        if output.code != 0:
            return
        output.artifact = Path(self.OUT).read_bytes()
        if op.id not in self._sized:
            self._sized.add(op.id)
            self.index_bytes += len(output.artifact)
            self.indexed_docs += op.docs

    def check(self, op, output, first):
        if output.code != 0:
            return f"exit {output.code}: {output.stderr.strip()}"
        expected = f"indexed {op.docs} documents -> {self.OUT}\n"
        if output.stdout != expected:
            return f"stdout {output.stdout!r} != {expected!r}"
        if first:
            return self._check_entries(op)
        return None

    def _check_entries(self, op) -> str | None:
        """`load_index(OUT)` must equal an in-memory `build_index` of the shard."""
        det = Detector()
        shard = Path(op.argv[1])
        docs = [
            det.document(path.name, path.read_text(encoding="utf-8"))
            for path in sorted(shard.glob("*.txt"))
        ]
        expected = det.build_index(docs)
        loaded = load_index(self.OUT)
        if dict(loaded.entries) != dict(expected.entries):
            return f"index entries of {shard} differ from build_index"
        if dict(loaded.config) != dict(expected.config):
            return f"index config of {shard} differs from build_index"
        return None


class Scan(Workload):
    INDEX = "corpus.jsonl"

    def setup(self, gen: Generator, scale: float):
        corpus = []
        for j in range(_count(SCAN_CORPUS, scale, 10)):
            sentences = gen.sentences(stratified(j, 20, 60), 6, 30)
            _write(f"corpus/doc_{j:03}.txt", sentences)
            corpus.append(sentences)
        self.ops = []
        for i in range(_count(SUSPECTS, scale, 2)):
            count = stratified(i, 20, 60)
            if i % 2 == 0:
                source = corpus[gen.rng.randrange(len(corpus))]
                sentences = gen.derived(source, count, PLANTED_SHARE, 6, 30)
            else:
                sentences = gen.sentences(count, 6, 30)
            path = f"susps/susp_{i:02}.txt"
            _write(path, sentences)
            self.ops.append(Op(i, ("scan", path, self.INDEX, "--top", str(TOP)), 1))
        self.index_bytes = _index_setup("corpus", self.INDEX)
        self.indexed_docs = len(corpus)
        self.doc_ids = {f"doc_{j:03}.txt" for j in range(len(corpus))}

    def check(self, op, output, first):
        if output.code != 0:
            return f"exit {output.code}: {output.stderr.strip()}"
        payload, error = _parse(output.stdout)
        if error:
            return error
        if not isinstance(payload, dict) or not isinstance(payload.get("results"), list):
            return "scan output lacks a results list"
        results = payload["results"]
        if payload.get("susp_id") != op.argv[1]:
            return f"susp_id {payload.get('susp_id')!r} != {op.argv[1]!r}"
        if len(results) != min(TOP, self.indexed_docs):
            return f"{len(results)} results, expected {min(TOP, self.indexed_docs)}"
        for report in results:
            if report.get("ref_id") not in self.doc_ids:
                return f"ref_id {report.get('ref_id')!r} is not an indexed document"
            error = check_report(report, report["ref_id"], op.argv[1])
            if error:
                return error
        order = [(-report["combined"], report["ref_id"]) for report in results]
        if order != sorted(order):
            return "results out of (-combined, id) order"
        return None


WORKLOADS = {"compare": Compare, "index": Index, "scan": Scan}
