"""CLI surface: exit codes, output schema, stream separation."""

import argparse
import concurrent.futures
import contextlib
import errno
import functools
import gc
import io
import json
import multiprocessing
import os
import random
import re
import string
import subprocess
import sys
import threading
import tracemalloc
import uuid
from pathlib import Path

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import simscan.cli
from simscan import __version__
from simscan.cli import (
    EXIT_INDEX,
    EXIT_INTERNAL,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    build_parser,
    dumps_fixed,
    main,
    report_dict,
)
from simscan.detector import MAX_GRAM_LEN, Detector, DetectorConfig, load_index

S1 = "Player kicked the ball.\n"
S2 = "Player kick the ball.\n"

CORPUS = {
    "a.txt": "the quick brown fox jumps over the lazy dog.\n",
    "b.txt": "We conclude that players kick balls. Another sentence about games here.\n",
    "c.txt": "zulu xray victor whisky quebec papa.\n",
}


@pytest.fixture()
def workspace(tmp_path):
    (tmp_path / "S1.txt").write_text(S1, encoding="utf-8")
    (tmp_path / "S2.txt").write_text(S2, encoding="utf-8")
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for name, text in CORPUS.items():
        (corpus / name).write_text(text, encoding="utf-8")
    return tmp_path


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def argparse_text(args, capsys, monkeypatch):
    """The stdout and stderr that argparse's own writer gives `args`: the bytes `main` keeps."""
    with monkeypatch.context() as patched, pytest.raises(SystemExit):
        patched.setattr(
            simscan.cli._ArgumentParser, "_print_message", argparse.ArgumentParser._print_message
        )
        build_parser().parse_args(args)
    captured = capsys.readouterr()
    return captured.out, captured.err


def test_compare_self_combined_is_one(workspace, capsys):
    ref = str(workspace / "S1.txt")
    code, out, err = run(["compare", ref, ref], capsys)
    assert code == EXIT_OK
    assert '"combined": 1.000000000000' in out
    payload = json.loads(out)
    assert payload["ref_id"] == payload["susp_id"] == ref
    assert err == ""


def test_compare_lcs_worked_example(workspace, capsys):
    code, out, _ = run(
        [
            "compare",
            str(workspace / "S1.txt"),
            str(workspace / "S2.txt"),
            "--features", "lcs_f",
            "--beta", "1",
        ],
        capsys,
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["scores"]["lcs_f"]["value"] == 0.75
    assert payload["scores"]["lcs_f"]["detail"]["lcs_length"] == 3
    assert payload["combined"] == 0.75


def test_compare_report_schema(workspace, capsys):
    _, out, _ = run(
        ["compare", str(workspace / "S1.txt"), str(workspace / "S2.txt")], capsys
    )
    payload = json.loads(out)
    assert set(payload) == {"ref_id", "susp_id", "scores", "skipped", "combined"}
    for name in ("statement", "top_keyword", "first_sentence", "query_phrase", "lcs_f"):
        assert set(payload["scores"][name]) == {"value", "detail", "flags"}


def test_compare_text_format(workspace, capsys):
    code, out, _ = run(
        ["compare", str(workspace / "S1.txt"), str(workspace / "S1.txt"),
         "--format", "text"],
        capsys,
    )
    assert code == EXIT_OK
    assert "combined         1.000000000000" in out


def test_compare_is_deterministic(workspace, capsys):
    args = ["compare", str(workspace / "S1.txt"), str(workspace / "S2.txt")]
    _, first, _ = run(args, capsys)
    _, second, _ = run(args, capsys)
    assert first == second


def test_stopword_lines_give_their_tokens(tmp_path, capsys):
    # "In short," stops "in" and "short", so the only shared keyword goes.
    (tmp_path / "ref.txt").write_text("In short, cats nap.\n", encoding="utf-8")
    (tmp_path / "susp.txt").write_text("Short dogs run.\n", encoding="utf-8")
    (tmp_path / "line.txt").write_text("In short,\n", encoding="utf-8")
    (tmp_path / "words.txt").write_text("in\nshort\n", encoding="utf-8")
    outs = []
    for name in ("line.txt", "words.txt"):
        args = ["compare", str(tmp_path / "ref.txt"), str(tmp_path / "susp.txt")]
        args += ["--features", "top_keyword", "--stopwords", str(tmp_path / name)]
        code, out, err = run(args, capsys)
        assert code == EXIT_OK and err == ""
        outs.append(out)
    assert outs[0] == outs[1]
    score = json.loads(outs[0])["scores"]["top_keyword"]
    assert score["detail"] == {"intersection": 0, "union": 4, "size_a": 2, "size_b": 2}


def test_usage_errors_exit_1(workspace, capsys, monkeypatch):
    # argparse's own errors: its usage text and one error line, as its writer writes them.
    bad = ([], ["compare"], ["compare", "a", "b", "--bogus"], ["nope"], ["index", "--k", "x"])
    for args in bad:
        out, err = argparse_text(args, capsys, monkeypatch)
        assert out == "" and err.startswith("usage: simscan")
        assert ": error: " in err.splitlines()[-1]
        assert run(args, capsys) == (EXIT_USAGE, out, err), args
    ref = str(workspace / "S1.txt")
    code, out, err = run(["compare", ref, ref, "--features", "nope"], capsys)
    assert code == EXIT_USAGE and out == "" and err != ""
    assert main(["compare", ref, ref, "--beta", "soft"]) == EXIT_USAGE
    assert main(["compare", ref, ref, "--weights", "lcs_f"]) == EXIT_USAGE
    assert main(["compare", ref, ref, "--k", "zero"]) == EXIT_USAGE
    assert main(["compare", ref, ref, "--k", "0"]) == EXIT_USAGE
    capsys.readouterr()
    for args in (
        ["compare", ref, ref, "--weights", "statement=nan"],
        ["compare", ref, ref, "--weights", "statement=inf"],
        ["compare", ref, ref, "--weights", "statement=1e308,lcs_f=1e308"],
        ["compare", ref, ref, "--beta", "nan"],
        ["compare", ref, ref, "--beta", "inf"],
        ["scan", ref, str(workspace / "idx.jsonl"), "--top", "-1"],
        ["compare", ref, ref, "--k", str(MAX_GRAM_LEN + 1)],
        # The config is checked before any word list is read.
        ["compare", ref, ref, "--k", "0", "--stopwords", str(workspace / "missing.txt")],
        # Nonzero literals that underflow to 0.0 are not weight 0.
        ["compare", ref, ref, "--weights", "statement=1e-400"],
        ["compare", ref, ref, "--weights", "statement=2e-324"],
        ["compare", ref, ref, "--weights", "statement=-1e-400"],
        ["compare", ref, ref, "--weights", "statement=1e-99999999999999999999999"],
        # Subnormal weights round their products with feature values.
        ["compare", ref, ref, "--weights", ",".join(
            f"{name}=5e-324"
            for name in ("statement", "top_keyword", "first_sentence", "query_phrase", "lcs_f")
        )],
    ):
        code, out, err = run(args, capsys)
        assert code == EXIT_USAGE and out == "", args
        assert err.startswith("simscan: error:") and err.count("\n") == 1, args
        literal = args[-1].partition("=")[2]
        if literal in ("1e-400", "2e-324", "-1e-400"):
            # the line quotes what was typed, not a float made up for it
            assert literal in err and "5e-324" not in err, args
    assert main(["compare", ref, ref, "--k", str(MAX_GRAM_LEN)]) == EXIT_OK
    capsys.readouterr()
    # Zero written any way is weight 0, the feature left out of `combined`.
    off = run(["compare", ref, ref, "--weights", "statement=0"], capsys)
    for zero in ("-0", "0e9"):
        assert run(["compare", ref, ref, "--weights", f"statement={zero}"], capsys) == off
    assert off[0] == EXIT_OK


def test_weight_names_are_stripped_like_feature_names(workspace, capsys):
    ref, susp = str(workspace / "S1.txt"), str(workspace / "S2.txt")
    spaced = run(
        ["compare", ref, susp, "--features", "statement, lcs_f",
         "--weights", "statement=1, lcs_f=3"],
        capsys,
    )
    plain = run(
        ["compare", ref, susp, "--features", "statement,lcs_f",
         "--weights", "statement=1,lcs_f=3"],
        capsys,
    )
    assert spaced[0] == EXIT_OK
    assert spaced == plain


def test_repeated_weight_name_is_an_error(workspace, capsys):
    ref = str(workspace / "S1.txt")
    for weights in ("statement=1,statement=3", "statement=1, statement =1"):
        code, out, err = run(["compare", ref, ref, "--weights", weights], capsys)
        assert code == EXIT_USAGE and out == ""
        assert err == "simscan: error: duplicate weight for 'statement'\n"


def test_empty_feature_or_weight_list_is_an_error(workspace, capsys):
    ref = str(workspace / "S1.txt")
    for flags in (["--features", ""], ["--weights", ""], ["--features="], ["--weights="]):
        code, out, err = run(["compare", ref, ref, *flags], capsys)
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("simscan: error:") and err.count("\n") == 1


def test_paper_beta_reports_one_without_common_words(tmp_path, capsys):
    ref, susp = tmp_path / "ref.txt", tmp_path / "susp.txt"
    ref.write_text("Alpha bravo charlie.\n", encoding="utf-8")
    susp.write_text("Delta echo foxtrot.\n", encoding="utf-8")
    code, out, _ = run(["compare", str(ref), str(susp), "--beta", "paper"], capsys)
    assert code == EXIT_OK
    assert json.loads(out)["scores"]["lcs_f"]["detail"]["lcs_length"] == 0
    assert '"beta": 1.000000000000' in out


def test_negative_zero_beta_reports_as_zero(workspace, capsys):
    ref, susp = str(workspace / "S1.txt"), str(workspace / "S2.txt")
    zero = run(["compare", ref, susp, "--beta", "0"], capsys)
    assert zero[0] == EXIT_OK and '"beta": 0.000000000000' in zero[1]
    assert run(["compare", ref, susp, "--beta", "-0"], capsys) == zero


def test_int_beta_reports_as_float():
    det = Detector(DetectorConfig(beta=2))
    a, b = det.document("a", S1), det.document("b", S2)
    rendered = dumps_fixed(report_dict(det.analyze_pair(a, b)))
    det = Detector(DetectorConfig(beta=2.0))
    assert dumps_fixed(report_dict(det.analyze_pair(a, b))) == rendered


def _readme_table(readme: str, heading: str) -> list[list[str]]:
    """The cells of each row of the flag table that follows `heading`."""
    table = readme.split(heading, 1)[1].split("\n\n", 2)[1]
    return [[cell.strip() for cell in row.strip("|").split("|")] for row in table.splitlines()[2:]]


def test_readme_lists_every_shared_option():
    subparsers = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    takers: dict[str, set[str]] = {}
    for command, sub in subparsers.choices.items():
        for action in sub._actions:
            for flag in set(action.option_strings) - {"-h", "--help"}:
                takers.setdefault(flag, set()).add(command)
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    shared = {row[0].strip("`") for row in _readme_table(readme, "Options shared by all")}
    everyone = set(subparsers.choices)
    assert shared == {flag for flag, commands in takers.items() if commands == everyone}
    # `scan`'s own `--top` and the corpus commands' `--recursive` are in the text above.
    some = {
        row[0].strip("`"): set(row[1].split(", "))
        for row in _readme_table(readme, "Options that only some subcommands take")
    }
    assert some == {
        flag: commands for flag, commands in takers.items()
        if flag not in shared | {"--top", "--recursive"}
    }


def test_parser_defaults_match_detector_config():
    args = build_parser().parse_args(["compare", "ref.txt", "susp.txt"])
    assert simscan.cli._detector(args).config == DetectorConfig()


def test_io_errors_exit_2(workspace, capsys, monkeypatch):
    monkeypatch.chdir(workspace)
    ref = str(workspace / "S1.txt")
    code, out, err = run(["compare", ref, str(workspace / "missing.txt")], capsys)
    assert code == EXIT_IO
    assert "missing.txt" in err and out == ""

    binary = workspace / "corpus" / "bad.txt"
    binary.write_bytes(b"\xff\xfe\x00 broken")
    code, _, err = run(["compare", ref, str(binary)], capsys)
    assert code == EXIT_IO and "bad.txt" in err
    code, _, err = run(
        ["index", str(workspace / "corpus"), str(workspace / "idx.jsonl")], capsys
    )
    assert code == EXIT_IO and "bad.txt" in err

    undecodable = workspace / "bad_list.txt"
    undecodable.write_bytes(b"\xff\xfe bad")
    good = workspace / "good"
    good.mkdir()
    (good / "a.txt").write_text(CORPUS["a.txt"], encoding="utf-8")
    out_dir = workspace / "out_dir"
    out_dir.mkdir()
    (good / "d.txt").mkdir()  # `_discover` would not list it
    cases = [
        ["compare", ref, ref, flag, str(path)]
        for flag in ("--stopwords", "--phrases")
        for path in (undecodable, workspace / "missing_list.txt")
    ]
    cases += [
        ["index", ref, str(workspace / "idx.jsonl")],  # a file, not a directory
        ["bench", ref],
        ["index", str(good), str(out_dir)],  # the output path is a directory
        ["index", str(good), str(good / "d.txt")],
        ["index", str(good), f"{good / 'e.txt'}/"],  # a directory name, not a document
    ]
    # Output paths that name a directory, with a trailing slash whether or
    # not a file of that name is there.
    (workspace / "real.jsonl").write_text("before\n", encoding="utf-8")
    cases += [
        ["index", str(good), out]
        for out in (".", "/", "", f"{workspace / 'absent.jsonl'}/", f"{workspace / 'real.jsonl'}/")
    ]
    # An empty input path names no file, not the current directory.
    cases += [
        ["index", "", str(workspace / "idx.jsonl")],
        ["bench", ""],
        ["compare", "", ref],
        ["compare", ref, ref, "--stopwords", ""],
        ["compare", ref, ref, "--phrases", ""],
        ["scan", ref, ""],
        ["scan", "", ref],
    ]
    for args in cases:
        code, out, err = run(args, capsys)
        assert code == EXIT_IO and out == "", args
        assert err.startswith("simscan: error:") and err.count("\n") == 1, args
        if args[:2] == ["index", str(good)]:
            assert err == f"simscan: error: cannot write {args[2]!r}: Is a directory\n", args
        if "" in args:
            assert "''" in err, args
        if args[0] in ("index", "bench") and args[1] == "":
            assert err == "simscan: error: not a directory: ''\n", args
        if args[0] in ("compare", "scan") and "" in args[1:3]:
            assert err == "simscan: error: cannot read '': No such file or directory\n", args
        if args[-2] in ("--stopwords", "--phrases"):
            flag, path = args[-2:]
            if path == str(undecodable):
                assert err == f"simscan: error: not valid UTF-8: {flag} {path!r}\n", args
            else:
                assert err.startswith(f"simscan: error: cannot read {flag} {path!r}: "), args
    assert out_dir.is_dir() and not list(workspace.glob("*.tmp"))
    assert not (workspace / "absent.jsonl").exists()
    assert (workspace / "real.jsonl").read_text(encoding="utf-8") == "before\n"


def test_each_word_list_is_read_once(workspace):
    """A list that can be read only once, such as a FIFO, is not read again for a diagnostic.

    The FIFO is written once; the missing phrase file must then exit 2
    naming `--phrases`, not hang on a second open of the FIFO.
    """
    fifo = workspace / "stopwords.fifo"
    os.mkfifo(fifo)

    def feed():
        with contextlib.suppress(BrokenPipeError), open(fifo, "w", encoding="utf-8") as fh:
            fh.write("the\n")

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    env = {**os.environ, "PYTHONPATH": str(Path(simscan.cli.__file__).parents[1])}
    args = ["compare", "S1.txt", "S2.txt", "--stopwords", fifo.name, "--phrases", "missing.txt"]
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "simscan", *args],
            cwd=workspace, capture_output=True, text=True, env=env, timeout=30,
        )
    finally:
        # A writer still waiting for a reader opens, writes to no one and ends.
        os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
        writer.join()
    assert proc.returncode == EXIT_IO and proc.stdout == ""
    assert proc.stderr == (
        "simscan: error: cannot read --phrases 'missing.txt': No such file or directory\n"
    )


def test_index_and_scan_roundtrip(workspace, capsys):
    corpus = str(workspace / "corpus")
    index_path = str(workspace / "idx.jsonl")
    code, out, err = run(["index", corpus, index_path], capsys)
    assert code == EXIT_OK
    assert "3 documents" in out and err == ""

    code, out, err = run(
        ["scan", str(workspace / "corpus" / "a.txt"), index_path], capsys
    )
    assert code == EXIT_OK and err == ""
    payload = json.loads(out)
    assert payload["results"][0]["ref_id"] == "a.txt"
    assert payload["results"][0]["combined"] == 1.0
    assert "lcs_f" in payload["results"][0]["skipped"]


def test_scan_top_cap_and_text_format(workspace, capsys):
    corpus = str(workspace / "corpus")
    index_path = str(workspace / "idx.jsonl")
    run(["index", corpus, index_path], capsys)
    code, out, _ = run(
        ["scan", str(workspace / "S1.txt"), index_path, "--top", "1",
         "--format", "text"],
        capsys,
    )
    assert code == EXIT_OK
    lines = [line for line in out.splitlines() if line.strip()]
    assert len(lines) == 1
    assert lines[0].startswith("  1. ")


def test_scan_exit_codes(workspace, capsys):
    corpus = str(workspace / "corpus")
    index_path = str(workspace / "idx.jsonl")
    run(["index", corpus, index_path], capsys)
    suspect = str(workspace / "S1.txt")

    # config mismatch -> 3
    assert main(["scan", suspect, index_path, "--k", "5"]) == EXIT_INDEX
    # schema mismatch -> 3
    lines = (workspace / "idx.jsonl").read_text().splitlines()
    header = json.loads(lines[0])
    header["schema"] = 9
    bad = workspace / "bad.jsonl"
    bad.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
    assert main(["scan", suspect, str(bad)]) == EXIT_INDEX
    # malformed index -> 2, missing index -> 2
    assert main(["scan", suspect, str(workspace / "S2.txt")]) == EXIT_IO
    assert main(["scan", suspect, str(workspace / "nope.jsonl")]) == EXIT_IO
    capsys.readouterr()
    digits = lines[1].replace('"k":4', '"k":' + "7" * 5000)
    assert digits != lines[1]
    hostile = {
        "undecodable": b"\xff\xfe bad",
        "nested": (lines[0] + "\n" + "[" * 100000 + "\n").encode(),
        "digits": (lines[0] + "\n" + digits + "\n").encode(),
    }
    for name, data in hostile.items():
        path = workspace / f"{name}.jsonl"
        path.write_bytes(data)
        code, out, err = run(["scan", suspect, str(path)], capsys)
        assert code == EXIT_IO and out == ""
        assert err.startswith("simscan: error: malformed index") and err.count("\n") == 1


def test_scan_matches_an_index_built_under_the_phrases_without_repeats(workspace, capsys):
    (workspace / "once.txt").write_text("we find that\nin general,\n", encoding="utf-8")
    (workspace / "twice.txt").write_text("we find that\nin general,\nwe find that\n", "utf-8")
    index_path = str(workspace / "idx.jsonl")
    once, twice, suspect = (str(workspace / name) for name in ("once.txt", "twice.txt", "S1.txt"))
    assert run(["index", str(workspace / "corpus"), index_path, "--phrases", once], capsys)[0] == 0
    code, out, err = run(["scan", suspect, index_path, "--phrases", twice], capsys)
    assert code == EXIT_OK and out and err == ""


def test_scan_reports_a_bad_last_record_before_a_config_mismatch(workspace, capsys):
    """Records are scored as they are read, and the config is checked after the last."""
    index_path = workspace / "idx.jsonl"
    run(["index", str(workspace / "corpus"), str(index_path)], capsys)
    header, *records = index_path.read_text().splitlines()
    head = json.loads(header)
    head["config"]["k_top"] += 1
    mismatched = workspace / "mismatched.jsonl"
    mismatched.write_text("\n".join([json.dumps(head), *records]) + "\n")
    suspect = str(workspace / "S1.txt")
    code, out, err = run(["scan", suspect, str(mismatched)], capsys)
    assert code == EXIT_INDEX and out == "" and "does not match" in err

    both = workspace / "both.jsonl"
    both.write_text("\n".join([json.dumps(head), *records[:-1], records[-1][:-5]]) + "\n")
    code, out, err = run(["scan", suspect, str(both)], capsys)
    assert code == EXIT_IO and out == ""
    assert err.startswith(
        f"simscan: error: malformed index {str(both)!r}: line {len(records) + 1}: invalid JSON"
    )
    assert err.count("\n") == 1


def test_scan_reports_a_suspect_fault_before_an_index_fault(workspace, capsys):
    missing = str(workspace / "missing.txt")
    malformed = workspace / "malformed.jsonl"
    malformed.write_text("not json\n")
    for index in (str(malformed), str(workspace / "nope.jsonl")):
        code, out, err = run(["scan", missing, index], capsys)
        assert code == EXIT_IO and out == ""
        assert err == f"simscan: error: cannot read {missing!r}: No such file or directory\n"


def test_scan_rejects_hand_edited_index(workspace, capsys):
    index_path = workspace / "idx.jsonl"
    run(["index", str(workspace / "corpus"), str(index_path)], capsys)
    lines = index_path.read_text().splitlines()
    header, record = json.loads(lines[0]), json.loads(lines[2])
    assert record["id"] == "b.txt"
    edits = {
        "repeated": ({}, {"fingerprints": record["fingerprints"] * 2}),
        "unsorted": ({}, {"first_grams": record["first_grams"][::-1]}),
        "scheme": ({}, {"scheme": "bogus"}),
        "k": ({}, {"k": 99}),
        "schema-true": ({"schema": True}, {}),
        "schema-float": ({"schema": 1.0}, {}),
        "id-number": ({}, {"id": 7}),
        "digest-list": ({}, {"token_digest": [record["token_digest"]]}),
        "digest-upper": ({}, {"token_digest": record["token_digest"].upper()}),
        "key-short": ({}, {"fingerprints": sorted(["abcd", *record["fingerprints"]])}),
    }
    contents = {
        name: [json.dumps({**header, **head_edit}), json.dumps({**record, **record_edit})]
        for name, (head_edit, record_edit) in edits.items()
    }
    contents["not-an-object"] = [json.dumps(header), "[1, 2]"]
    contents["no-schema"] = [json.dumps({"config": header["config"]}), json.dumps(record)]
    suspect = str(workspace / "S1.txt")
    for name, lines in contents.items():
        path = workspace / f"{name}.jsonl"
        path.write_text("\n".join(lines) + "\n")
        code, out, err = run(["scan", suspect, str(path)], capsys)
        assert code == EXIT_IO and out == "", name
        assert err.startswith("simscan: error: malformed index"), name
        assert err.count("\n") == 1, name


def test_scan_refuses_header_values_of_the_wrong_type(workspace, capsys):
    """`save_index` writes k_char and k_top as integers; 4.0 or true is a mismatch."""
    suspect = str(workspace / "S1.txt")
    edits = {
        "k_char-float": ("4", {"k_char": 4.0}),
        "k_top-float": ("4", {"k_top": 10.0}),
        "k_char-true": ("1", {"k_char": True}),
    }
    for name, (k, edit) in edits.items():
        path = workspace / f"{name}.jsonl"
        run(["index", str(workspace / "corpus"), str(path), "--k", k], capsys)
        header, *records = path.read_text().splitlines()
        head = json.loads(header)
        head["config"].update(edit)
        path.write_text("\n".join([json.dumps(head), *records]) + "\n")
        code, out, err = run(["scan", suspect, str(path), "--k", k], capsys)
        assert code == EXIT_INDEX and out == "", name
        assert "does not match" in err and err.count("\n") == 1, name


def test_internal_error_is_one_line(workspace, capsys, monkeypatch):
    def broken(*args):
        raise RuntimeError("boom\nsecond line")

    monkeypatch.setattr(Detector, "analyze_pair", broken)
    ref = str(workspace / "S1.txt")
    code, out, err = run(["compare", ref, ref], capsys)
    assert code == EXIT_INTERNAL and out == ""
    assert err.startswith("simscan: error: internal error: RuntimeError(")
    assert err.count("\n") == 1


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_closed_stdout_exits_2(workspace, fmt, unbuffered):
    """A reader that closed the pipe early is an output error, not a bug."""
    ref = str(workspace / "S1.txt")
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {
        **os.environ,
        "PYTHONPATH": str(Path(simscan.cli.__file__).parents[1]),
        "PYTHONUNBUFFERED": unbuffered,
    }
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "simscan", "compare", ref, ref, "--format", fmt],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == EXIT_IO, proc.stderr
    assert proc.stderr.startswith("simscan: error:") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr


def test_closed_stdout_without_a_descriptor_exits_2(workspace, capsys, monkeypatch):
    """A stdout object without a descriptor whose write fails is exit 2.

    Its write fails as on a closed pipe, then as on a full disk.
    """
    for error in (errno.EPIPE, errno.ENOSPC):

        class Unwritable(io.StringIO):
            def write(self, text):
                raise OSError(error, os.strerror(error))

        monkeypatch.setattr(sys, "stdout", Unwritable())
        ref = str(workspace / "S1.txt")
        assert main(["compare", ref, ref]) == EXIT_IO
        err = capsys.readouterr().err
        assert err == f"simscan: error: cannot write output: {os.strerror(error)}\n"


@pytest.mark.parametrize(
    "stdout", ["closed", "full"] if os.path.exists("/dev/full") else ["closed"]
)
@pytest.mark.parametrize("command", ["compare", "index", "version", "help"])
def test_closed_or_full_stdout_exits_2(workspace, command, stdout):
    """Descriptor 1 closed before Python starts, or on /dev/full: exit 2 and one line.

    With descriptor 1 closed, sys.stdout is None.  `index` still writes its index.
    argparse's version and help text fail as a report does.
    """
    args = {
        "compare": ["compare", "S1.txt", "S2.txt"],
        "index": ["index", "corpus", "out.jsonl"],
        "version": ["--version"],
        "help": ["compare", "--help"],
    }[command]
    env = {**os.environ, "PYTHONPATH": str(Path(simscan.cli.__file__).parents[1])}
    with open(os.devnull if stdout == "closed" else "/dev/full", "w") as sink:
        streams = {"preexec_fn": lambda: os.close(1)} if stdout == "closed" else {"stdout": sink}
        proc = subprocess.run(
            [sys.executable, "-m", "simscan", *args],
            cwd=workspace, stderr=subprocess.PIPE, text=True, env=env, **streams,
        )
    strerror = os.strerror(errno.EBADF if stdout == "closed" else errno.ENOSPC)
    assert proc.returncode == EXIT_IO
    assert proc.stderr == f"simscan: error: cannot write output: {strerror}\n"
    if command == "index":
        assert sorted(load_index(workspace / "out.jsonl").entries) == sorted(CORPUS)


@pytest.mark.parametrize("args", [["--version"], ["compare", "--help"]], ids=["version", "help"])
def test_help_with_both_output_descriptors_closed_exits_2(args):
    """With descriptors 1 and 2 closed, both streams are None, and text for stdout still fails."""
    env = {**os.environ, "PYTHONPATH": str(Path(simscan.cli.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "simscan", *args],
        preexec_fn=lambda: (os.close(1), os.close(2)), env=env,
    )
    assert proc.returncode == EXIT_IO


@pytest.mark.parametrize("at_start", [False, True], ids=["reader-closed", "no-descriptor"])
@pytest.mark.parametrize(
    "args, code",
    [
        (["compare", "S1.txt", "missing.txt"], EXIT_IO),
        (["scan", "S1.txt", "missing.idx"], EXIT_IO),
        (["index", "empty", "out.idx"], EXIT_OK),
    ],
    ids=["compare", "scan", "index"],
)
def test_unwritable_stderr_keeps_exit_code_and_stdout(workspace, args, code, at_start):
    """A diagnostic that cannot be written changes neither the exit code nor stdout.

    Stderr is a pipe whose reader has closed it, or descriptor 2 is closed
    before Python starts; then sys.stderr is None, and print(file=None)
    would write the diagnostic to stdout.
    """
    (workspace / "empty").mkdir()
    read_end, write_end = os.pipe()
    os.close(read_end)
    streams = {"preexec_fn": lambda: os.close(2)} if at_start else {"stderr": write_end}
    env = {**os.environ, "PYTHONPATH": str(Path(simscan.cli.__file__).parents[1])}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "simscan", *args],
            cwd=workspace, stdout=subprocess.PIPE, text=True, env=env, **streams,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == code
    if code == EXIT_OK:
        assert proc.stdout == "indexed 0 documents -> out.idx\n"
        assert load_index(workspace / "out.idx").entries == {}
    else:
        assert proc.stdout == ""


int_flag = st.integers(-3, 10**6)
text_flag = st.one_of(
    st.sampled_from(["1", "0", "paper", "nan", "-inf", "1e400", "1e-320", ""]),
    st.text(alphabet="statemnopq_fluic=,.-1e0 ", max_size=24),
)
feature_list = st.lists(
    st.sampled_from(
        ["statement", "top_keyword", "first_sentence", "query_phrase", "lcs_f",
         "full_char", "trigram_jaccard", "nope", ""]
    ),
    max_size=4,
).map(",".join)
weight_list = st.lists(
    st.tuples(
        st.sampled_from(["statement", "lcs_f", "full_char", "nope", ""]),
        st.sampled_from(["=", ""]),
        st.one_of(st.floats(allow_nan=True).map(repr), text_flag),
    ).map("".join),
    max_size=3,
).map(",".join)


def test_random_flags_exit_with_one_line(workspace, capsys):
    index_path = workspace / "idx.jsonl"
    run(["index", str(workspace / "corpus"), str(index_path)], capsys)
    ref, susp = str(workspace / "S1.txt"), str(workspace / "S2.txt")

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(["compare", "scan", "index"]),
        st.fixed_dictionaries(
            {},
            optional={
                "--k": int_flag,
                "--top-keywords": int_flag,
                "--beta": text_flag,
                "--weights": weight_list,
                "--features": feature_list,
                "--top": int_flag,
            },
        ),
    )
    def check(command, flags):
        takes = {"--k", "--top-keywords"}
        if command == "compare":
            args = ["compare", ref, susp]
            takes |= {"--beta", "--weights", "--features"}
        elif command == "scan":
            args = ["scan", susp, str(index_path)]
            takes |= {"--weights", "--features", "--top"}
        else:
            args = ["index", str(workspace / "corpus"), str(workspace / "random.jsonl")]
        args += [f"{flag}={value}" for flag, value in flags.items() if flag in takes]
        code, out, err = run(args, capsys)
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_IO, EXIT_INDEX), (args, err)
        if code == EXIT_OK:
            assert err == ""
            assert out.startswith("indexed 3 documents") if command == "index" else json.loads(out)
        else:
            assert out == "" and err.startswith("simscan: error:"), (args, err)
            assert err.count("\n") == 1, (args, err)

    check()


def test_scan_never_raises_on_damaged_index(workspace, capsys):
    index_path = workspace / "idx.jsonl"
    run(["index", str(workspace / "corpus"), str(index_path)], capsys)
    data = index_path.read_bytes()
    suspect = str(workspace / "S1.txt")
    damaged = workspace / "damaged.jsonl"
    truncate = st.integers(0, len(data) - 1).map(lambda cut: data[:cut])
    flip = st.tuples(st.integers(0, len(data) - 1), st.integers(1, 255)).map(
        lambda pos_mask: data[: pos_mask[0]]
        + bytes([data[pos_mask[0]] ^ pos_mask[1]])
        + data[pos_mask[0] + 1 :]
    )

    @settings(max_examples=200)
    @given(st.one_of(truncate, flip))
    def check(content):
        damaged.write_bytes(content)
        code, out, err = run(["scan", suspect, str(damaged)], capsys)
        assert code in (EXIT_OK, EXIT_IO, EXIT_INDEX)
        if code == EXIT_OK:
            assert err == "" and "results" in json.loads(out)
        else:
            assert out == ""
            assert err.startswith("simscan: error:") and err.count("\n") == 1

    check()


def test_compare_long_y_word(workspace, capsys):
    for suffix in ("ed", "eed"):
        path = workspace / f"y{suffix}.txt"
        path.write_text("y" * 1500 + suffix, encoding="utf-8")
        code, out, err = run(["compare", str(path), str(path)], capsys)
        assert code == EXIT_OK and err == ""
        assert json.loads(out)["combined"] == 1.0


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size and batches, runs them in-process."""

    sizes: list = []
    batches: list = []

    def __init__(self, max_workers, initializer=None, initargs=()):
        self.sizes.append(max_workers)
        if initializer is not None:
            # what a real pool sends to and gets back from its workers must pickle
            initializer(*pickle.loads(pickle.dumps(initargs)))

    def submit(self, fn, *args):
        fn, args = pickle.loads(pickle.dumps((fn, args)))
        self.batches.append(len(args[0]))
        future = concurrent.futures.Future()
        try:
            future.set_result(pickle.loads(pickle.dumps(fn(*args))))
        except Exception as exc:
            future.set_exception(pickle.loads(pickle.dumps(exc)))
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


@pytest.fixture()
def recording_pool(monkeypatch):
    """`_RecordingPool` in place of the process pool, on a host of 8 usable CPUs."""
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(_RecordingPool, "batches", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(simscan.cli, "_usable_cpus", lambda: 8)
    return _RecordingPool


def test_jobs_size_the_pool_by_files(workspace, capsys, monkeypatch, recording_pool):
    monkeypatch.setattr(simscan.cli, "_BATCH_FILES", 2)
    corpus = str(workspace / "corpus")
    serial = workspace / "serial.jsonl"
    pooled = workspace / "pooled.jsonl"
    run(["index", corpus, str(serial)], capsys)
    assert recording_pool.sizes == []
    # one worker per file: the 3 files cap the 8 CPUs
    monkeypatch.setattr(simscan.cli, "_FILES_PER_WORKER", 1)
    code, _, _ = run(["index", corpus, str(pooled)], capsys)
    assert code == EXIT_OK and recording_pool.sizes == [3]
    assert pooled.read_bytes() == serial.read_bytes()
    # the files go out in batches of `_BATCH_FILES`, however many workers there are
    monkeypatch.setattr(simscan.cli, "_usable_cpus", lambda: 2)
    code, _, _ = run(["index", corpus, str(pooled)], capsys)
    assert code == EXIT_OK and recording_pool.sizes == [3, 2]
    assert recording_pool.batches == [2, 1, 2, 1]
    assert pooled.read_bytes() == serial.read_bytes()

    single = workspace / "single"
    single.mkdir()
    (single / "only.txt").write_text(S1, encoding="utf-8")
    code, _, _ = run(["index", str(single), str(pooled)], capsys)
    assert code == EXIT_OK and recording_pool.sizes == [3, 2]


@pytest.mark.parametrize(
    "files_per_worker, cpus, flags, workers",
    [
        (2, 2, [], 2),  # min(CPUs, 6 files // 2)
        (2, 8, [], 3),
        (4, 8, [], None),  # 6 // 4 is one worker, so no pool
        (1, 1, [], None),  # one usable CPU, as under `taskset -c 0`, starts no pool
        (1, 4, [], 4),  # capped by the CPUs
        (4, 8, ["--recursive"], 2),  # 8 // 4: the subdirectory's files count too
        (1, 8, ["--recursive"], 8),
    ],
)
def test_worker_count_follows_the_files_and_the_cpus(
    tmp_path, capsys, monkeypatch, recording_pool, files_per_worker, cpus, flags, workers
):
    corpus = _copies(tmp_path / "corpus", list(CORPUS.values()), 6)
    _copies(corpus / "sub", list(CORPUS.values()), 2)
    serial = tmp_path / "serial.jsonl"
    assert run(["index", str(corpus), str(serial), *flags], capsys)[0] == EXIT_OK
    assert recording_pool.sizes == []

    monkeypatch.setattr(simscan.cli, "_FILES_PER_WORKER", files_per_worker)
    monkeypatch.setattr(simscan.cli, "_usable_cpus", lambda: cpus)
    out = tmp_path / "out.jsonl"
    assert run(["index", str(corpus), str(out), *flags], capsys)[0] == EXIT_OK
    assert out.read_bytes() == serial.read_bytes()
    assert recording_pool.sizes == ([] if workers is None else [workers])


def test_bench_builds_in_process(tmp_path, capsys, monkeypatch, recording_pool):
    """Above the threshold at which `index` starts a pool, `bench` starts none."""
    corpus = _copies(tmp_path / "corpus", list(CORPUS.values()), 6)
    monkeypatch.setattr(simscan.cli, "_FILES_PER_WORKER", 2)
    code, out, _ = run(["bench", str(corpus)], capsys)
    assert code == EXIT_OK and recording_pool.sizes == []
    rows = json.loads(out)
    assert rows and [row["docs"] for row in rows] == [6] * len(rows)
    assert run(["index", str(corpus), str(tmp_path / "out.jsonl")], capsys)[0] == EXIT_OK
    assert recording_pool.sizes == [3]


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("index", "--beta", "1"),
        ("index", "--weights", "statement=1"),
        ("index", "--features", "statement"),
        ("index", "--format", "json"),
        ("index", "--jobs", "2"),
        ("scan", "--beta", "1"),
        ("bench", "--jobs", "1"),
    ],
)
def test_commands_refuse_options_they_do_not_read(workspace, capsys, command, flag, value):
    corpus, out = str(workspace / "corpus"), workspace / "out.jsonl"
    index = workspace / "idx.jsonl"
    assert run(["index", corpus, str(index)], capsys)[0] == EXIT_OK
    args = {
        "index": ["index", corpus, str(out)],
        "scan": ["scan", str(workspace / "S1.txt"), str(index)],
        "bench": ["bench", corpus],
    }[command]
    code, stdout, err = run([*args, flag, value], capsys)
    assert code == EXIT_USAGE and stdout == ""
    assert f"unrecognized arguments: {flag}" in err
    assert not out.exists()


def test_index_empty_dir_warns_on_stderr(workspace, capsys):
    empty = workspace / "empty"
    empty.mkdir()
    out_path = str(workspace / "empty.jsonl")
    code, out, err = run(["index", str(empty), out_path], capsys)
    assert code == EXIT_OK
    assert "warning" in err
    assert "0 documents" in out
    # the file holds just the header
    assert len((workspace / "empty.jsonl").read_text().splitlines()) == 1


def test_index_determinism_and_jobs(workspace, capsys, monkeypatch):
    corpus = str(workspace / "corpus")
    p1, p2, p3 = (str(workspace / name) for name in ("i1.jsonl", "i2.jsonl", "i3.jsonl"))
    run(["index", corpus, p1], capsys)
    run(["index", corpus, p2], capsys)
    # a real pool of two workers
    monkeypatch.setattr(simscan.cli, "_FILES_PER_WORKER", 1)
    monkeypatch.setattr(simscan.cli, "_usable_cpus", lambda: 2)
    code, _, _ = run(["index", corpus, p3], capsys)
    assert code == EXIT_OK
    b1 = (workspace / "i1.jsonl").read_bytes()
    assert b1 == (workspace / "i2.jsonl").read_bytes()
    assert b1 == (workspace / "i3.jsonl").read_bytes()


def test_index_recursive_flag(workspace, capsys):
    corpus = workspace / "corpus"
    sub = corpus / "sub"
    sub.mkdir()
    (sub / "n.txt").write_text("Nested file text here.\n", encoding="utf-8")
    flat = str(workspace / "flat.jsonl")
    deep = str(workspace / "deep.jsonl")
    run(["index", str(corpus), flat], capsys)
    run(["index", str(corpus), deep, "--recursive"], capsys)
    from simscan.detector import load_index

    assert "sub/n.txt" not in load_index(flat).entries
    assert "sub/n.txt" in load_index(deep).entries


def _copies(directory: Path, texts: list[str], count: int) -> Path:
    directory.mkdir()
    for i in range(count):
        (directory / f"doc_{i:03}.txt").write_text(texts[i % len(texts)], encoding="utf-8")
    return directory


def test_index_memory_does_not_grow_with_the_corpus(tmp_path, monkeypatch):
    """`index` holds one document's text and entry at a time, or with a pool a few batches.

    Both corpora are copies of the same three texts, so the detector's stem
    memo ends the same size, and a tenfold corpus must peak within 1.5x.
    Every text has more than 20 sentences and every sentence more than 20
    tokens: CPython keeps up to 2000 freed tuples of each length up to 20
    for reuse, which tracemalloc counts as live, and that cache would fill
    with the corpus's token, sentence and key tuples.  With two workers,
    tracemalloc sees only the parent, which writes the entries and holds up
    to four batches; a batch is one file here, so that the smaller corpus
    fills those four too.  The cyclic collector is off while a run is
    traced: the argument parser is garbage in reference cycles once
    `main` has parsed, and a collection that happened to free it in one
    run only would count it in one peak only.
    """
    monkeypatch.setattr(simscan.cli, "_FILES_PER_WORKER", 1)
    monkeypatch.setattr(simscan.cli, "_BATCH_FILES", 1)
    rng = random.Random(0)
    vocabulary = [
        "".join(rng.choices(string.ascii_lowercase, k=rng.randint(3, 10))) for _ in range(400)
    ]
    sentences = (" ".join(rng.choices(vocabulary, k=rng.randint(24, 40))) for _ in range(72))
    texts = [". ".join(next(sentences) for _ in range(24)) + ".\n" for _ in range(3)]
    corpora = {count: _copies(tmp_path / f"corpus_{count}", texts, count) for count in (6, 60)}
    for cpus in (1, 2):
        monkeypatch.setattr(simscan.cli, "_usable_cpus", lambda: cpus)
        # One untraced run first, so that one-time loads count in neither peak.
        assert main(["index", str(corpora[6]), str(tmp_path / "warm.jsonl")]) == EXIT_OK
        peaks = []
        for count, corpus in corpora.items():
            gc.disable()
            tracemalloc.start()
            try:
                code = main(["index", str(corpus), str(tmp_path / "index.jsonl")])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
                gc.enable()
            assert code == EXIT_OK
        assert peaks[1] <= 1.5 * peaks[0], (cpus, peaks)


def _spawn_pool(monkeypatch):
    """Real pools whose workers start from a fresh interpreter, on a host of two CPUs."""
    pool = functools.partial(
        concurrent.futures.ProcessPoolExecutor, mp_context=multiprocessing.get_context("spawn")
    )
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
    monkeypatch.setattr(simscan.cli, "_usable_cpus", lambda: 2)


@pytest.mark.parametrize("cpus", [1, 2])
def test_index_fault_in_the_last_file_keeps_the_old_index(tmp_path, capsys, monkeypatch, cpus):
    """The last file by id is read after every other record is written.

    With two CPUs and one worker per file, a real pool's worker reads the
    bad file, so the fault comes back from a worker.
    """
    corpus = _copies(tmp_path / "corpus", list(CORPUS.values()), 3)
    out = tmp_path / "idx.jsonl"
    assert run(["index", str(corpus), str(out)], capsys)[0] == EXIT_OK
    before = out.read_bytes()
    bad = corpus / "zz.txt"
    bad.write_bytes(b"\xff\xfe broken")
    monkeypatch.setattr(simscan.cli, "_FILES_PER_WORKER", 1)
    monkeypatch.setattr(simscan.cli, "_usable_cpus", lambda: cpus)
    code, stdout, err = run(["index", str(corpus), str(out)], capsys)
    assert (code, stdout) == (EXIT_IO, "")
    assert err == f"simscan: error: not valid UTF-8: {str(bad)!r}\n"
    assert out.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus", "idx.jsonl"]


def test_spawned_workers_get_the_detector_from_the_initializer(tmp_path, capsys, monkeypatch):
    """A spawned worker inherits no memory, so it builds only with what it was sent.

    A fault in a worker's last file exits 2 with the serial message, keeps
    the old index, and leaves no worker process running.
    """
    _spawn_pool(monkeypatch)
    corpus = _copies(tmp_path / "corpus", list(CORPUS.values()), 12)
    serial, pooled = tmp_path / "serial.jsonl", tmp_path / "pooled.jsonl"
    assert run(["index", str(corpus), str(serial)], capsys)[0] == EXIT_OK
    monkeypatch.setattr(simscan.cli, "_FILES_PER_WORKER", 1)
    # A non-default setting shows that the workers' detector is the parent's.
    for flags in ([], ["--k", "3"]):
        code, _, err = run(["index", str(corpus), str(pooled), *flags], capsys)
        assert (code, err) == (EXIT_OK, "")
        assert (pooled.read_bytes() == serial.read_bytes()) is not flags
    assert load_index(str(pooled)).config["k_char"] == 3

    before = pooled.read_bytes()
    bad = corpus / "zz.txt"
    bad.write_bytes(b"\xff\xfe broken")
    code, stdout, err = run(["index", str(corpus), str(pooled)], capsys)
    assert (code, stdout) == (EXIT_IO, "")
    assert err == f"simscan: error: not valid UTF-8: {str(bad)!r}\n"
    assert pooled.read_bytes() == before
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("recursive", [False, True])
def test_index_bytes_do_not_depend_on_the_worker_count(tmp_path, capsys, monkeypatch, recursive):
    """Serial, automatic, two and three workers all write the same index.

    Under `--recursive`, id order and path order differ (`a-b/x.txt` sorts
    before `a/x.txt`, but the directory `a` before `a-b`).
    """
    corpus = _copies(tmp_path / "corpus", list(CORPUS.values()), 9)
    for sub in ("a", "a-b"):
        _copies(corpus / sub, list(CORPUS.values())[::-1], 3)
    flags = ["--recursive"] if recursive else []
    indexes = []
    # On 3 CPUs, 4 files per worker is 2 workers flat and 3 recursive.
    for files_per_worker, cpus in ((4, 1), (4, 3), (1, 2), (1, 3)):
        monkeypatch.setattr(simscan.cli, "_FILES_PER_WORKER", files_per_worker)
        monkeypatch.setattr(simscan.cli, "_usable_cpus", lambda: cpus)
        out = tmp_path / "out.jsonl"
        assert run(["index", str(corpus), str(out), *flags], capsys)[0] == EXIT_OK
        indexes.append(out.read_bytes())
    assert indexes == [indexes[0]] * 4
    assert indexes[0].count(b"\n") == (16 if recursive else 10)


def test_index_reports_an_unwritable_output_before_a_bad_input(workspace, capsys):
    """The index's temporary file is created before the first input is read."""
    (workspace / "corpus" / "bad.txt").write_bytes(b"\xff\xfe broken")
    out = workspace / "missing" / "idx.jsonl"
    code, stdout, err = run(["index", str(workspace / "corpus"), str(out)], capsys)
    assert (code, stdout) == (EXIT_IO, "")
    assert err == f"simscan: error: cannot write {str(out)!r}: No such file or directory\n"


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs on this platform")
def test_index_refuses_a_fifo_at_the_output(workspace, capsys):
    """Replacing it would leave a regular file where the FIFO was."""
    fifo = workspace / "pipe"
    os.mkfifo(fifo)
    code, stdout, err = run(["index", str(workspace / "corpus"), str(fifo)], capsys)
    assert (code, stdout) == (EXIT_IO, "")
    assert err == f"simscan: error: cannot write {str(fifo)!r}: not a regular file\n"
    assert fifo.is_fifo() and not list(workspace.glob("*.tmp"))


def test_index_writes_through_a_link_at_the_output(workspace, capsys):
    corpus = str(workspace / "corpus")
    direct = workspace / "direct.jsonl"
    assert run(["index", corpus, str(direct)], capsys)[0] == EXIT_OK
    (workspace / "old").mkdir()
    target = workspace / "old" / "idx.jsonl"
    target.write_text("an old index\n", encoding="utf-8")
    link = workspace / "link.jsonl"
    link.symlink_to(Path("old") / "idx.jsonl")
    code, stdout, err = run(["index", corpus, str(link)], capsys)
    assert (code, err) == (EXIT_OK, "")
    assert stdout == f"indexed 3 documents -> {link}\n"
    assert link.is_symlink() and target.read_bytes() == direct.read_bytes()
    assert not list(workspace.glob("**/*.tmp"))

    dangling = workspace / "dangling.jsonl"
    dangling.symlink_to("new.jsonl")
    assert run(["index", corpus, str(dangling)], capsys)[0] == EXIT_OK
    assert dangling.is_symlink() and (workspace / "new.jsonl").read_bytes() == direct.read_bytes()


@pytest.mark.parametrize("recursive", [False, True])
@pytest.mark.parametrize("present", [False, True])
def test_index_refuses_an_output_it_would_read_as_a_document(
    workspace, capsys, recursive, present
):
    """A `.txt` output in the corpus would come back as a record of the next run."""
    corpus = workspace / "corpus"
    (corpus / "sub").mkdir()
    # A link is listed and followed wherever it points.
    (corpus / "link.txt").symlink_to(workspace / "elsewhere.jsonl")
    flags = ["--recursive"] if recursive else []
    outs = [corpus / "idx.txt", corpus / "link.txt"]
    outs += [corpus / "sub" / "idx.txt"] if recursive else []
    for out in outs:
        if present:
            out.write_text("the old bytes\n", encoding="utf-8")
        code, stdout, err = run(["index", str(corpus), str(out), *flags], capsys)
        assert (code, stdout) == (EXIT_USAGE, ""), out
        message = f"output {str(out)!r} would be read back as a document of the corpus"
        assert err == f"simscan: error: {message}\n", out
        if present:
            assert out.read_text(encoding="utf-8") == "the old bytes\n"
        else:
            assert not out.exists()
    assert not list(workspace.glob("**/*.tmp"))


def test_index_writes_an_output_it_would_not_read(workspace, capsys):
    corpus = workspace / "corpus"
    (corpus / "sub").mkdir()
    for out in (corpus / "sub" / "idx.txt", corpus / "idx.jsonl"):
        code, stdout, _ = run(["index", str(corpus), str(out)], capsys)
        assert code == EXIT_OK and stdout.startswith("indexed 3 documents"), out


def test_index_fault_in_the_writer_shuts_the_pool_down(tmp_path, capsys, monkeypatch):
    """The writer fails after one entry, while a real pool of two still has batches out."""
    corpus = _copies(tmp_path / "corpus", list(CORPUS.values()), 12)
    monkeypatch.setattr(simscan.cli, "_FILES_PER_WORKER", 1)
    monkeypatch.setattr(simscan.cli, "_BATCH_FILES", 1)
    monkeypatch.setattr(simscan.cli, "_usable_cpus", lambda: 2)
    held, taken = [], []

    def write_one_then_fail(path, config, entries):
        held.append(entries)  # so that only closing it, not its release, stops the pool
        taken.append(next(entries))
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(simscan.cli, "write_index", write_one_then_fail)
    out = tmp_path / "idx.jsonl"
    code, stdout, err = run(["index", str(corpus), str(out)], capsys)
    assert multiprocessing.active_children() == []
    assert (code, stdout) == (EXIT_IO, "")
    assert err == f"simscan: error: cannot write {str(out)!r}: No space left on device\n"
    assert [entry.doc_id for entry in taken] == ["doc_000.txt"]


def test_bench_table(workspace, capsys):
    code, out, err = run(
        ["bench", str(workspace / "corpus"), "--format", "text"], capsys
    )
    assert code == EXIT_OK and err == ""
    assert "statement" in out and "full_char" in out

    code, out, _ = run(["bench", str(workspace / "corpus")], capsys)
    rows = json.loads(out)
    assert [row["scheme"] for row in rows] == [
        "full_char", "trigram_jaccard", "statement", "features",
    ]


def test_bench_empty_dir(workspace, capsys):
    empty = workspace / "none"
    empty.mkdir()
    code, out, err = run(["bench", str(empty)], capsys)
    assert code == EXIT_OK
    assert json.loads(out) == []
    assert "warning" in err


def test_module_entry_point(workspace):
    ref = str(workspace / "S1.txt")
    proc = subprocess.run(
        [sys.executable, "-m", "simscan", "compare", ref, ref],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["combined"] == 1.0
    proc = subprocess.run(
        [sys.executable, "-m", "simscan", "compare", ref],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1


@pytest.mark.skipif(sys.platform != "linux", reason="needs file names that are not UTF-8")
def test_text_output_shows_a_name_that_is_not_utf8_as_json_does(tmp_path, capsys):
    """A name byte that is not UTF-8 reaches Python as a lone surrogate.

    Text output writes it as `\\udcXX`, as JSON does, so that a strict
    UTF-8 stdout can take it.  A valid non-ASCII name prints unchanged.
    """
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    bad = corpus / os.fsdecode(b"caf\xe9.txt")
    bad.write_text(S1, encoding="utf-8")
    (corpus / "naïve.txt").write_text(S2, encoding="utf-8")
    out = tmp_path / os.fsdecode(b"idx\xe9.jsonl")
    commands = [
        ["index", str(corpus), str(out)],
        ["compare", str(bad), str(corpus / "naïve.txt"), "--format", "text"],
        ["scan", str(bad), str(out), "--format", "text"],
    ]
    outputs = []
    for argv in commands:
        code, stdout, err = run(argv, capsys)
        assert (code, err) == (EXIT_OK, "")
        outputs.append(stdout.encode("utf-8"))  # strict: a lone surrogate raises
    assert outputs[0] == f"indexed 2 documents -> {tmp_path}/idx\\udce9.jsonl\n".encode()
    ids = f"ref:  {corpus}/caf\\udce9.txt\nsusp: {corpus}/naïve.txt\n"
    assert outputs[1].startswith(ids.encode())
    assert b"  1. caf\\udce9.txt  combined=1.000000000000" in outputs[2]

    env = {
        **os.environ,
        "PYTHONIOENCODING": "utf-8:strict",
        "PYTHONPATH": str(Path(simscan.cli.__file__).parents[1]),
    }
    for argv, expected in zip(commands, outputs):
        proc = subprocess.run(
            [sys.executable, "-m", "simscan", *argv], capture_output=True, env=env
        )
        assert (proc.returncode, proc.stderr, proc.stdout) == (EXIT_OK, b"", expected)


def test_cli_import_loads_no_process_pool():
    """Only a run with two or more workers needs a pool, so importing the CLI loads none of it.

    Nothing needs `uuid` or `importlib.resources` at all, no command needs
    `fractions`, and only `bench` needs `simscan.bench`.  Python runs with
    -S, so that no module a site `.pth` file imports can hide one of these.
    """
    code = (
        "import sys, simscan.cli; "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('multiprocessing', 'concurrent', 'uuid', 'fractions') "
        "or m.startswith('importlib.resources') or m == 'simscan.bench'))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(simscan.cli.__file__).parents[1])},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def _tagged_dumps_fixed(obj) -> str:
    """The writer `dumps_fixed` replaced: floats tagged as strings, then a regex."""
    tag = uuid.uuid4().hex

    def tag_floats(obj):
        if isinstance(obj, bool):
            return obj
        if isinstance(obj, float):
            return f"@{tag}:{obj:.12f}@"
        if isinstance(obj, dict):
            return {key: tag_floats(value) for key, value in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [tag_floats(item) for item in obj]
        return obj

    tagged = json.dumps(tag_floats(obj), indent=2)
    return re.sub(f'"@{tag}:(-?\\d+\\.\\d{{12}})@"', r"\1", tagged)


json_strings = st.text(st.sampled_from('a "\\\n\u00ef\u65e5\U0001f600')) | st.text()
json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | json_strings
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(json_strings, inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=300)
@given(json_values)
def test_dumps_fixed_matches_tagged_writer(obj):
    assert dumps_fixed(obj) == _tagged_dumps_fixed(obj)


def test_version_flag(capsys):
    assert main(["--version"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("simscan ")


def test_help_and_version_print_argparse_text(capsys, monkeypatch):
    """Help and version text reach stdout through `_print`, byte for byte as argparse writes it."""
    commands = ("compare", "index", "scan", "bench")
    for args in (["--help"], ["--version"], *([command, "--help"] for command in commands)):
        out, err = argparse_text(args, capsys, monkeypatch)
        assert out.startswith(("usage: simscan", "simscan ")) and out.endswith("\n") and err == ""
        assert run(args, capsys) == (EXIT_OK, out, ""), args
    assert argparse_text(["--version"], capsys, monkeypatch)[0] == f"simscan {__version__}\n"
