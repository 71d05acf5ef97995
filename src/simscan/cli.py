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
import collections
import contextlib
import errno
import json
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path
from typing import Callable, Iterator

from . import __version__
from .detector import (
    DEFAULT_FEATURES,
    Detector,
    DetectorConfig,
    FeatureReport,
    IndexEntry,
    IndexFormatError,
    IndexVersionError,
    write_index,
)
from .detector import load_index, save_index  # noqa: F401  perfbench/tracer.py wraps both
from .features import DEFAULT_GRAM_LEN, DEFAULT_K_TOP, load_query_phrases
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

    def __reduce__(self):
        # So that a pool worker's fault reaches the parent as the same error.
        return type(self), (self.code, str(self))


class _ArgumentParser(argparse.ArgumentParser):
    """Writes its help, version and usage text through `_diagnose` and `_print`, as reports go."""

    def _print_message(self, message, file=None):
        # argparse's one write hook; `print` adds back the newline stripped here.  With
        # descriptors 1 and 2 closed, both streams are None, and `_print` reports that.
        (_diagnose if file is sys.stderr is not None else _print)(message.removesuffix("\n"))


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
            weight = float(value)
        except ValueError:
            raise _CliError(EXIT_USAGE, f"bad weight for {name!r}: {value!r}") from None
        if weight == 0 and any(c.isdecimal() and int(c) for c in value.lower().partition("e")[0]):
            # A nonzero literal underflowed to 0.0, which would mean "feature off".
            raise _CliError(EXIT_USAGE, f"weight for {name} underflows to 0.0: {value!r}")
        weights[name] = weight
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
        )
    except ValueError as exc:
        raise _CliError(EXIT_USAGE, str(exc)) from None
    # Each list a flag names is read once, after the config is checked.
    lists = {}
    for name, load in (("stopwords", load_stopwords), ("phrases", load_query_phrases)):
        path = getattr(args, name)
        if path is not None:
            with _reading(f"--{name} {path!r}"):
                lists[name] = load(path)
    return Detector(replace(cfg, **lists))


@contextlib.contextmanager
def _reading(name: str, verb: str = "read"):
    """Report a fault in reading, or doing `verb` to, the file that `name` names as exit 2."""
    try:
        yield
    except OSError as exc:
        raise _CliError(EXIT_IO, f"cannot {verb} {name}: {exc.strerror or exc}") from None
    except UnicodeDecodeError:
        raise _CliError(EXIT_IO, f"not valid UTF-8: {name}") from None


def _read_text(path: str) -> str:
    # open(), not Path: Path("") would name the current directory.
    with _reading(repr(path)), open(path, encoding="utf-8") as fh:
        return fh.read()


def _discover(directory: str, recursive: bool) -> list[tuple[str, str]]:
    """The corpus's `(doc_id, path)` pairs in id order, the order an index lists its records in."""
    root = Path(directory)
    # Path("") is the current directory, which no one names by an empty argument.
    if not directory or not root.is_dir():
        raise _CliError(EXIT_IO, f"not a directory: {directory!r}")
    pattern = "**/*.txt" if recursive else "*.txt"
    # ids are distinct, so the sort never compares paths
    files = sorted(
        (p.relative_to(root).as_posix(), str(p)) for p in root.glob(pattern) if p.is_file()
    )
    if not files:
        _diagnose(f"warning: no .txt files found in {directory!r}")
    return files


def _listed(path: str, directory: str, recursive: bool) -> bool:
    """Whether `_discover(directory, recursive)` would list `path` once it exists.

    Decided from real paths, without a look at the corpus's files: the file
    `write_index` writes to, and the name `path` itself in its real directory,
    which `_discover` would list and follow if it were a link.
    """
    root = Path(os.path.realpath(directory))
    head, name = os.path.split(path)
    if not name:  # a trailing slash names a directory, which `_discover` does not list
        return False
    for real in map(Path, (os.path.realpath(path), os.path.join(os.path.realpath(head), name))):
        if real.match("*.txt") and (real.parent == root or recursive and root in real.parents):
            return not real.is_dir()  # `_discover` lists files only
    return False


# One worker per this many files, up to the usable CPUs.  On a 2-CPU host,
# starting and feeding a pool of two costs about as much as building 30-80
# files in-process, so a smaller corpus stays in-process.
_FILES_PER_WORKER = 64
# The files a worker takes at once.  A batch's results come back together,
# so this bounds what a worker, and the parent per batch it waits on, hold.
_BATCH_FILES = 8


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on macOS or Windows
        return os.cpu_count() or 1


# A pool worker's detector, set once by `_start_worker`.
_worker: Detector | None = None


def _start_worker(det: Detector) -> None:
    global _worker
    _worker = det


def _build_batch(files: list[tuple[str, str]]) -> list[IndexEntry]:
    return [_entry(_worker, doc_id, path) for doc_id, path in files]


def _entries(det: Detector, files: list[tuple[str, str]]) -> Iterator[IndexEntry]:
    """Each file's index entry in id order, the file read and built when the entry is asked for.

    So neither the texts nor the entries are held together.  There is one
    worker per `_FILES_PER_WORKER` files, up to the usable CPUs; with fewer
    than two, the files are built in-process.  Otherwise each worker gets
    the detector once and takes `_BATCH_FILES` files at a time, and at most
    `2 * jobs` batches are out at once, which holds the caller to a few
    batches of results even when the pool builds faster than it consumes.
    """
    jobs = min(_usable_cpus(), len(files) // _FILES_PER_WORKER)
    if jobs < 2:
        for doc_id, path in files:
            yield _entry(det, doc_id, path)
        return
    # Imported here: it loads multiprocessing, which a serial run never needs.
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(max_workers=jobs, initializer=_start_worker, initargs=(det,))
    try:
        pending: collections.deque = collections.deque()
        for start in range(0, len(files), _BATCH_FILES):
            if len(pending) == 2 * jobs:
                yield from pending.popleft().result()
            pending.append(pool.submit(_build_batch, files[start : start + _BATCH_FILES]))
        while pending:
            yield from pending.popleft().result()
    finally:
        # If the caller stops early, the batches not yet started are dropped.
        pool.shutdown(cancel_futures=True)


def _entry(det: Detector, doc_id: str, path: str) -> IndexEntry:
    return det.entry(det.document(doc_id, _read_text(path)))


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


def _shown(name: str) -> str:
    """`name` for text output: a lone surrogate, from a non-UTF-8 file name, as `\\udcXX`."""
    return name.encode("utf-8", "backslashreplace").decode("utf-8")


def _format_report_text(report: FeatureReport) -> str:
    lines = [f"ref:  {_shown(report.ref_id)}", f"susp: {_shown(report.susp_id)}"]
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
        lines.append(f"{rank:>3}. {_shown(doc_id)}  combined={report.combined:.12f}  {values}")
    return "\n".join(lines) or "no candidates"


def _emit(args, payload: Callable[[], object], text: Callable[[], str]) -> int:
    """Print `payload()` as JSON or `text()`, as `--format` asks."""
    _print(dumps_fixed(payload()) if args.format == "json" else text())
    return EXIT_OK


def _print(line: str) -> None:
    """Print `line` to stdout; a stdout that cannot take it, full or closed, is exit 2."""
    try:
        if sys.stdout is None:  # started with descriptor 1 closed
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        # Flushed, so that a closed stdout fails here, not at exit.
        print(line, flush=True)
    except OSError as exc:
        _discard(sys.stdout)
        raise _CliError(EXIT_IO, f"cannot write output: {exc.strerror or exc}") from None


def cmd_compare(args) -> int:
    det = _detector(args)
    ref = det.document(args.reference, _read_text(args.reference))
    susp = det.document(args.suspect, _read_text(args.suspect))
    report = det.analyze_pair(ref, susp)
    return _emit(args, lambda: report_dict(report), lambda: _format_report_text(report))


def cmd_index(args) -> int:
    """Build and write one document at a time.

    The index's temporary file is created before the first input is read,
    so an output that cannot be written is reported ahead of any input fault.
    """
    det = _detector(args)
    files = _discover(args.directory, args.recursive)
    if _listed(args.out, args.directory, args.recursive):
        raise _CliError(
            EXIT_USAGE, f"output {args.out!r} would be read back as a document of the corpus"
        )
    # Closed on a fault in the writer too, so that a pool shuts down before `main` returns.
    with contextlib.closing(_entries(det, files)) as entries, _reading(repr(args.out), "write"):
        count = write_index(args.out, det.config_snapshot(), entries)
    _print(f"indexed {count} documents -> {_shown(args.out)}")
    return EXIT_OK


def cmd_scan(args) -> int:
    if args.top < 0:
        raise _CliError(EXIT_USAGE, f"--top must be >= 0, got {args.top}")
    det = _detector(args)
    susp = det.document(args.suspect, _read_text(args.suspect))
    try:
        with _reading(repr(args.index)):
            ranked = det.scan_index(susp, args.index, args.top)
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

    # In-process: unpickling each whole Document a worker sends back costs more than it saves.
    det = _detector(args)
    files = _discover(args.directory, args.recursive)
    rows = run_bench([det.document(doc_id, _read_text(path)) for doc_id, path in files], det)
    return _emit(args, lambda: [asdict(row) for row in rows], lambda: format_table(rows))


def build_parser() -> argparse.ArgumentParser:
    # What an index header records: every command takes these.
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--k", type=int, default=DEFAULT_GRAM_LEN, help="character gram length")
    config.add_argument(
        "--top-keywords", type=int, default=DEFAULT_K_TOP, help="keyword set size cap"
    )
    config.add_argument("--stopwords", help="stopword file, one per line")
    config.add_argument("--phrases", help="cue phrase file, one per line")

    scoring = argparse.ArgumentParser(add_help=False)
    scoring.add_argument("--weights", help="feature weights as name=value,name=value")
    scoring.add_argument(
        "--features", help=f"comma-separated features (default {','.join(DEFAULT_FEATURES)})"
    )
    scoring.add_argument("--format", choices=("json", "text"), default="json")

    # lcs_f is the one feature beta changes, and `scan` never scores it.
    beta = argparse.ArgumentParser(add_help=False)
    beta.add_argument("--beta", default="1", help="'paper' or a fixed F-measure beta (default 1)")

    corpus = argparse.ArgumentParser(add_help=False)
    corpus.add_argument("directory")
    corpus.add_argument("--recursive", action="store_true", help="descend into subdirectories")

    parser = _ArgumentParser(
        prog="simscan", description="Fingerprint-based text similarity scanner."
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.set_defaults(beta="1", weights=None, features=None)  # for `_detector`, on any command
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("compare", parents=[config, scoring, beta], help="score one document pair")
    p.add_argument("reference")
    p.add_argument("suspect")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("index", parents=[config, corpus], help="index a directory of .txt files")
    p.add_argument("out", help="index file to write")
    p.set_defaults(func=cmd_index)

    p = sub.add_parser(
        "scan", parents=[config, scoring], help="rank indexed documents for a suspect"
    )
    p.add_argument("suspect")
    p.add_argument("index")
    p.add_argument("--top", type=int, default=10, help="result cap")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser(
        "bench", parents=[config, scoring, beta, corpus], help="time the schemes on a corpus"
    )
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
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse's: 0 after help or version, 2 on a usage error
        return EXIT_USAGE if exc.code else EXIT_OK
    except _CliError as exc:
        code, message = exc.code, str(exc)
    except Exception as exc:
        # A bug, not bad input: one line, never a traceback.
        code, message = EXIT_INTERNAL, f"internal error: {exc!r}"
    _diagnose(f"simscan: error: {message}")
    return code


if __name__ == "__main__":
    sys.exit(main())
