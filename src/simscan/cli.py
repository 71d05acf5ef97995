"""Command-line front end.

Four subcommands: `compare` two files, `index` a directory of .txt files,
`scan` a suspect file against a saved index, and `bench` the schemes on a
corpus.  Every report but the `bench` table is rendered here, as JSON or
as text.  Reports go to stdout, diagnostics to stderr.  Exit codes:
0 success, 1 usage error, 2 I/O error, 3 index version/config mismatch,
4 internal error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Callable

from . import __version__
from .detector import (
    DEFAULT_FEATURES,
    Detector,
    DetectorConfig,
    FeatureReport,
    IndexEntry,
    IndexFormatError,
    IndexVersionError,
    save_index,
)
from .detector import load_index  # noqa: F401  perfbench/tracer.py wraps cli.load_index
from .features import DEFAULT_GRAM_LEN, DEFAULT_K_TOP
from .textprep import load_stopwords

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_INDEX = 3
EXIT_INTERNAL = 4


class _CliError(Exception):
    """Carries the exit code for a diagnostic printed to stderr."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


class _ArgumentParser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parse_beta(raw: str) -> float | str:
    if raw == "paper":
        return raw
    try:
        return float(raw)
    except ValueError:
        raise _CliError(EXIT_USAGE, f"--beta must be 'paper' or a number, got {raw!r}") from None


def _parse_weights(raw: str) -> dict[str, float]:
    weights = {}
    for part in raw.split(","):
        name, sep, value = part.partition("=")
        name = name.strip()
        if not sep or not name:
            raise _CliError(EXIT_USAGE, f"--weights entries must be name=value, got {part!r}")
        if name in weights:
            raise _CliError(EXIT_USAGE, f"duplicate weight for {name!r}")
        try:
            weights[name] = float(value)
        except ValueError:
            raise _CliError(EXIT_USAGE, f"bad weight for {name!r}: {value!r}") from None
    return weights


def _detector(args) -> Detector:
    features = DEFAULT_FEATURES
    if args.features is not None:
        features = tuple(name.strip() for name in args.features.split(","))
    weights = _parse_weights(args.weights) if args.weights is not None else {}
    try:
        cfg = DetectorConfig(
            k_char=args.k,
            k_top=args.top_keywords,
            beta=_parse_beta(args.beta),
            features=features,
            feature_weights=weights,
            stopword_path=args.stopwords,
            phrase_path=args.phrases,
        )
    except ValueError as exc:
        raise _CliError(EXIT_USAGE, str(exc)) from None
    try:
        return Detector(cfg)
    except OSError as exc:
        flag, path = _failed_word_list(args)
        raise _CliError(EXIT_IO, f"cannot read {flag} {path!r}: {exc.strerror or exc}") from None
    except UnicodeDecodeError:
        flag, path = _failed_word_list(args)
        raise _CliError(EXIT_IO, f"not valid UTF-8: {flag} {path!r}") from None


def _failed_word_list(args) -> tuple[str, str]:
    """The flag and path of the word list `Detector` could not load.

    `Detector` loads the stopwords first, so if they load now, the phrases failed.
    """
    try:
        load_stopwords(args.stopwords)
    except (OSError, UnicodeDecodeError):
        return "--stopwords", args.stopwords
    return "--phrases", args.phrases


def _read_text(path: str) -> str:
    try:
        # open(), not Path: Path("") would name the current directory.
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise _CliError(EXIT_IO, f"cannot read {path!r}: {exc.strerror or exc}") from None
    except UnicodeDecodeError:
        raise _CliError(EXIT_IO, f"not valid UTF-8: {path!r}") from None


def _discover(directory: str, recursive: bool) -> list[tuple[str, Path]]:
    root = Path(directory)
    # Path("") is the current directory, which no one names by an empty argument.
    if not directory or not root.is_dir():
        raise _CliError(EXIT_IO, f"not a directory: {directory!r}")
    pattern = "**/*.txt" if recursive else "*.txt"
    files = sorted(p for p in root.glob(pattern) if p.is_file())
    return [(p.relative_to(root).as_posix(), p) for p in files]


def _corpus(args, build: Callable[[Detector, str, str], object]) -> tuple[Detector, list]:
    """The detector and `build(det, doc_id, text)` of every corpus file, in id order.

    Files are built in-process unless at least two files and two jobs allow
    a pool; the pool never has more workers than files.  It gets the files
    in one contiguous chunk per worker, so the detector is unpickled once
    per chunk rather than once per file.
    """
    if args.jobs < 1:
        raise _CliError(EXIT_USAGE, f"--jobs must be >= 1, got {args.jobs}")
    det = _detector(args)
    files = _discover(args.directory, args.recursive)
    if not files:
        _diagnose(f"warning: no .txt files found in {args.directory!r}")
    dets = [det] * len(files)
    ids = [doc_id for doc_id, _ in files]
    texts = [_read_text(str(path)) for _, path in files]
    jobs = min(args.jobs, len(files))
    if jobs < 2:
        return det, list(map(build, dets, ids, texts))
    # Imported here: it loads multiprocessing, which a serial run never needs.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        chunksize = math.ceil(len(files) / jobs)
        return det, list(pool.map(build, dets, ids, texts, chunksize=chunksize))


def _entry(det: Detector, doc_id: str, text: str) -> IndexEntry:
    return det.entry(det.document(doc_id, text))


def report_dict(report: FeatureReport) -> dict:
    """A JSON-ready view of a report with a stable key layout."""
    return {
        "ref_id": report.ref_id,
        "susp_id": report.susp_id,
        "scores": {
            name: {"value": score.value, "detail": dict(score.detail), "flags": list(score.flags)}
            for name, score in report.scores.items()
        },
        "skipped": sorted(report.skipped),
        "combined": report.combined,
    }


def dumps_fixed(obj) -> str:
    """json.dumps, indented by two spaces, with every float as 12 fractional digits.

    Fixed-point rendering keeps report bytes identical across platforms
    regardless of repr shortest-float behavior.
    """
    return _dumps(obj, "")


def _dumps(obj, indent: str) -> str:
    """`dumps_fixed` of a value on a line indented by `indent`.

    It recurses into itself, not into `dumps_fixed`, so that a wrapper of
    that name sees one call per payload.
    """
    if isinstance(obj, float):
        return f"{obj:.12f}"
    inner = indent + "  "
    sep = ",\n" + inner
    if isinstance(obj, dict) and obj:
        items = (f"{json.dumps(key)}: {_dumps(value, inner)}" for key, value in obj.items())
        return "{\n" + inner + sep.join(items) + "\n" + indent + "}"
    if isinstance(obj, (list, tuple)) and obj:
        items = (_dumps(item, inner) for item in obj)
        return "[\n" + inner + sep.join(items) + "\n" + indent + "]"
    return json.dumps(obj)


def _format_report_text(report: FeatureReport) -> str:
    lines = [f"ref:  {report.ref_id}", f"susp: {report.susp_id}"]
    for name, score in report.scores.items():
        flags = f"  [{','.join(score.flags)}]" if score.flags else ""
        lines.append(f"{name:<16} {score.value:.12f}{flags}")
    if report.skipped:
        lines.append(f"skipped: {', '.join(sorted(report.skipped))}")
    lines.append(f"{'combined':<16} {report.combined:.12f}")
    return "\n".join(lines)


def _ranking_text(ranked: list[tuple[str, FeatureReport]]) -> str:
    lines = []
    for rank, (doc_id, report) in enumerate(ranked, start=1):
        values = " ".join(
            f"{name}={score.value:.12f}"
            for name, score in report.scores.items()
            if not score.not_applicable
        )
        lines.append(f"{rank:>3}. {doc_id}  combined={report.combined:.12f}  {values}")
    return "\n".join(lines) or "no candidates"


def _emit(args, payload: Callable[[], object], text: Callable[[], str]) -> int:
    """Print `payload()` as JSON or `text()`, as `--format` asks."""
    # Flushed, so that a closed stdout fails inside `main`, not at exit.
    print(dumps_fixed(payload()) if args.format == "json" else text(), flush=True)
    return EXIT_OK


def cmd_compare(args) -> int:
    det = _detector(args)
    ref = det.document(args.reference, _read_text(args.reference))
    susp = det.document(args.suspect, _read_text(args.suspect))
    report = det.analyze_pair(ref, susp)
    return _emit(args, lambda: report_dict(report), lambda: _format_report_text(report))


def cmd_index(args) -> int:
    det, entries = _corpus(args, _entry)
    index = det.index_from_entries(entries)
    try:
        save_index(index, args.out)
    except OSError as exc:
        raise _CliError(EXIT_IO, f"cannot write {args.out!r}: {exc.strerror or exc}") from None
    print(f"indexed {len(index.entries)} documents -> {args.out}", flush=True)
    return EXIT_OK


def cmd_scan(args) -> int:
    if args.top < 0:
        raise _CliError(EXIT_USAGE, f"--top must be >= 0, got {args.top}")
    det = _detector(args)
    susp = det.document(args.suspect, _read_text(args.suspect))
    try:
        ranked = det.scan_index(susp, args.index, args.top)
    except OSError as exc:
        raise _CliError(EXIT_IO, f"cannot read {args.index!r}: {exc.strerror or exc}") from None
    except IndexFormatError as exc:
        raise _CliError(EXIT_IO, f"malformed index {args.index!r}: {exc}") from None
    except IndexVersionError as exc:
        raise _CliError(EXIT_INDEX, str(exc)) from None
    return _emit(
        args,
        lambda: {"susp_id": susp.id, "results": [report_dict(report) for _, report in ranked]},
        lambda: _ranking_text(ranked),
    )


def cmd_bench(args) -> int:
    # Imported here: only this command needs it.
    from .bench import format_table, run_bench

    det, docs = _corpus(args, Detector.document)
    rows = run_bench(docs, det)
    return _emit(args, lambda: [asdict(row) for row in rows], lambda: format_table(rows))


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--k", type=int, default=DEFAULT_GRAM_LEN, help="character gram length")
    common.add_argument(
        "--top-keywords", type=int, default=DEFAULT_K_TOP, dest="top_keywords",
        help="keyword set size cap",
    )
    common.add_argument(
        "--beta", default="1", help="'paper' or a fixed F-measure beta (default 1)"
    )
    common.add_argument(
        "--weights", default=None, help="feature weights as name=value,name=value"
    )
    common.add_argument(
        "--features", default=None,
        help=f"comma-separated features (default {','.join(DEFAULT_FEATURES)})",
    )
    common.add_argument("--stopwords", default=None, help="stopword file, one per line")
    common.add_argument("--phrases", default=None, help="cue phrase file, one per line")
    common.add_argument("--format", choices=("json", "text"), default="json")

    corpus = argparse.ArgumentParser(add_help=False)
    corpus.add_argument("directory")
    corpus.add_argument("--recursive", action="store_true", help="descend into subdirectories")
    corpus.add_argument("--jobs", type=int, default=1, help="worker processes")

    parser = _ArgumentParser(
        prog="simscan", description="Fingerprint-based text similarity scanner."
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("compare", parents=[common], help="score one document pair")
    p.add_argument("reference")
    p.add_argument("suspect")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("index", parents=[common, corpus], help="index a directory of .txt files")
    p.add_argument("out", help="index file to write")
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("scan", parents=[common], help="rank indexed documents for a suspect")
    p.add_argument("suspect")
    p.add_argument("index")
    p.add_argument("--top", type=int, default=10, help="result cap")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("bench", parents=[common, corpus], help="time the schemes on a corpus")
    p.set_defaults(func=cmd_bench)
    return parser


def _discard(stream) -> None:
    """Point the stream's descriptor at os.devnull, so the final flush cannot fail again."""
    with open(os.devnull, "w") as devnull, contextlib.suppress(AttributeError, ValueError):
        os.dup2(devnull.fileno(), stream.fileno())  # unless the stream has none


def _diagnose(line: str) -> None:
    """Print one diagnostic line to stderr, or nothing if stderr cannot take it."""
    if sys.stderr is None:  # started with descriptor 2 closed; print would use stdout
        return
    try:
        print(line, file=sys.stderr, flush=True)
    except OSError:
        _discard(sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _CliError as exc:
        code, message = exc.code, str(exc)
    except BrokenPipeError as exc:
        _discard(sys.stdout)
        code, message = EXIT_IO, f"cannot write output: {exc.strerror}"
    except Exception as exc:
        # A bug, not bad input: one line, never a traceback.
        code, message = EXIT_INTERNAL, f"internal error: {exc!r}"
    _diagnose(f"simscan: error: {message}")
    return code


if __name__ == "__main__":
    sys.exit(main())
