"""Command-line front end.

Four subcommands: `compare` two files, `index` a directory of .txt files,
`scan` a suspect file against a saved index, and `bench` the schemes on a
corpus.  Reports go to stdout, diagnostics to stderr.  Exit codes: 0
success, 1 usage error, 2 I/O error, 3 index version/config mismatch, 4
internal error.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict
from functools import partial
from pathlib import Path

from . import __version__
from .bench import format_table, run_bench
from .detector import (
    ALL_FEATURES,
    DEFAULT_FEATURES,
    Detector,
    DetectorConfig,
    FeatureReport,
    IndexFormatError,
    IndexVersionError,
    dumps_fixed,
    load_index,
    report_dict,
    save_index,
)
from .features import DEFAULT_GRAM_LEN, DEFAULT_K_TOP
from .textprep import Document

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
        raise _CliError(EXIT_IO, f"cannot read word list: {exc}") from None
    except UnicodeDecodeError as exc:
        raise _CliError(EXIT_IO, f"word list is not valid UTF-8: {exc}") from None


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _CliError(EXIT_IO, f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError:
        raise _CliError(EXIT_IO, f"not valid UTF-8: {path}") from None


def _discover(directory: str, recursive: bool) -> list[tuple[str, Path]]:
    root = Path(directory)
    if not root.is_dir():
        raise _CliError(EXIT_IO, f"not a directory: {directory}")
    pattern = "**/*.txt" if recursive else "*.txt"
    files = sorted(p for p in root.glob(pattern) if p.is_file())
    return [(p.relative_to(root).as_posix(), p) for p in files]


def _build_item(det: Detector, build, item: tuple[str, str]):
    return build(det, det.document(*item))


def _corpus(args, build) -> tuple[Detector, list]:
    """The detector and `build(det, doc)` of every corpus document, in id order.

    Documents are built in-process unless at least two files and two jobs
    allow a pool; the pool never has more workers than files.
    """
    if args.jobs < 1:
        raise _CliError(EXIT_USAGE, f"--jobs must be >= 1, got {args.jobs}")
    det = _detector(args)
    files = _discover(args.directory, args.recursive)
    if not files:
        print(f"warning: no .txt files found in {args.directory}", file=sys.stderr)
    texts = [(doc_id, _read_text(str(p))) for doc_id, p in files]
    jobs = min(args.jobs, len(texts))
    if jobs < 2:
        return det, [_build_item(det, build, item) for item in texts]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return det, list(pool.map(partial(_build_item, det, build), texts))


def _keep_document(det: Detector, doc: Document) -> Document:
    return doc


def _format_report_text(report: FeatureReport) -> str:
    lines = [f"ref:  {report.ref_id}", f"susp: {report.susp_id}"]
    for name in ALL_FEATURES:
        if name not in report.scores:
            continue
        score = report.scores[name]
        flags = f"  [{','.join(score.flags)}]" if score.flags else ""
        lines.append(f"{name:<16} {score.value:.12f}{flags}")
    if report.skipped:
        lines.append(f"skipped: {', '.join(sorted(report.skipped))}")
    lines.append(f"{'combined':<16} {report.combined:.12f}")
    return "\n".join(lines)


def cmd_compare(args) -> int:
    det = _detector(args)
    ref = det.document(args.reference, _read_text(args.reference))
    susp = det.document(args.suspect, _read_text(args.suspect))
    report = det.analyze_pair(ref, susp)
    if args.format == "json":
        print(dumps_fixed(report_dict(report), indent=2))
    else:
        print(_format_report_text(report))
    return EXIT_OK


def cmd_index(args) -> int:
    det, entries = _corpus(args, Detector.entry)
    index = det.index_from_entries(entries)
    try:
        save_index(index, args.out)
    except OSError as exc:
        raise _CliError(EXIT_IO, f"cannot write {args.out}: {exc.strerror or exc}") from None
    print(f"indexed {len(index.entries)} documents -> {args.out}")
    return EXIT_OK


def cmd_scan(args) -> int:
    if args.top < 0:
        raise _CliError(EXIT_USAGE, f"--top must be >= 0, got {args.top}")
    det = _detector(args)
    try:
        index = load_index(args.index)
        susp = det.document(args.suspect, _read_text(args.suspect))
        ranked = det.rank_candidates(susp, index, args.top)
    except OSError as exc:
        raise _CliError(EXIT_IO, f"cannot read {args.index}: {exc.strerror or exc}") from None
    except IndexFormatError as exc:
        raise _CliError(EXIT_IO, f"malformed index {args.index}: {exc}") from None
    except IndexVersionError as exc:
        raise _CliError(EXIT_INDEX, str(exc)) from None
    if args.format == "json":
        payload = {
            "susp_id": susp.id,
            "results": [report_dict(report) for _, report in ranked],
        }
        print(dumps_fixed(payload, indent=2))
    else:
        if not ranked:
            print("no candidates")
        for rank, (doc_id, report) in enumerate(ranked, start=1):
            values = " ".join(
                f"{name}={report.scores[name].value:.12f}"
                for name in ALL_FEATURES
                if name in report.scores and not report.scores[name].not_applicable
            )
            print(f"{rank:>3}. {doc_id}  combined={report.combined:.12f}  {values}")
    return EXIT_OK


def cmd_bench(args) -> int:
    det, docs = _corpus(args, _keep_document)
    rows = run_bench(docs, det)
    if args.format == "json":
        print(dumps_fixed([asdict(row) for row in rows], indent=2))
    else:
        print(format_table(rows))
    return EXIT_OK


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

    parser = _ArgumentParser(
        prog="simscan", description="Fingerprint-based text similarity scanner."
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("compare", parents=[common], help="score one document pair")
    p.add_argument("reference")
    p.add_argument("suspect")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("index", parents=[common], help="index a directory of .txt files")
    p.add_argument("directory")
    p.add_argument("out", help="index file to write")
    p.add_argument("--recursive", action="store_true", help="descend into subdirectories")
    p.add_argument("--jobs", type=int, default=1, help="worker processes")
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("scan", parents=[common], help="rank indexed documents for a suspect")
    p.add_argument("suspect")
    p.add_argument("index")
    p.add_argument("--top", type=int, default=10, help="result cap")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("bench", parents=[common], help="time the schemes on a corpus")
    p.add_argument("directory")
    p.add_argument("--recursive", action="store_true", help="descend into subdirectories")
    p.add_argument("--jobs", type=int, default=1, help="worker processes")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"simscan: error: {exc}", file=sys.stderr)
        return exc.code
    except Exception as exc:
        # A bug, not bad input: one line, never a traceback.
        print(f"simscan: error: internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
