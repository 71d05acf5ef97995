"""CLI surface: exit codes, output schema, stream separation."""

import json
import subprocess
import sys

import pytest

from simscan.cli import EXIT_INDEX, EXIT_IO, EXIT_OK, EXIT_USAGE, main

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


def test_usage_errors_exit_1(workspace, capsys):
    assert main([]) == EXIT_USAGE
    assert main(["compare"]) == EXIT_USAGE
    assert main(["compare", "a", "b", "--bogus"]) == EXIT_USAGE
    assert main(["nope"]) == EXIT_USAGE
    capsys.readouterr()
    ref = str(workspace / "S1.txt")
    code, out, err = run(["compare", ref, ref, "--features", "nope"], capsys)
    assert code == EXIT_USAGE and out == "" and err != ""
    assert main(["compare", ref, ref, "--beta", "soft"]) == EXIT_USAGE
    assert main(["compare", ref, ref, "--weights", "lcs_f"]) == EXIT_USAGE
    assert main(["compare", ref, ref, "--k", "zero"]) == EXIT_USAGE
    assert main(["compare", ref, ref, "--k", "0"]) == EXIT_USAGE
    capsys.readouterr()
    for flags in (
        ["--weights", "statement=nan"],
        ["--weights", "statement=inf"],
        ["--weights", "statement=1e308,lcs_f=1e308"],
        ["--beta", "nan"],
        ["--beta", "inf"],
    ):
        code, out, err = run(["compare", ref, ref, *flags], capsys)
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("simscan: error:") and err.count("\n") == 1


def test_io_errors_exit_2(workspace, capsys):
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
    for flag in ("--stopwords", "--phrases"):
        code, out, err = run(["compare", ref, ref, flag, str(undecodable)], capsys)
        assert code == EXIT_IO and out == ""
        assert err.startswith("simscan: error:") and err.count("\n") == 1


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
    undecodable = workspace / "undecodable.jsonl"
    undecodable.write_bytes(b"\xff\xfe bad")
    code, out, err = run(["scan", suspect, str(undecodable)], capsys)
    assert code == EXIT_IO and out == ""
    assert err.startswith("simscan: error: malformed index") and err.count("\n") == 1


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


def test_index_determinism_and_jobs(workspace, capsys):
    corpus = str(workspace / "corpus")
    p1, p2, p3 = (str(workspace / name) for name in ("i1.jsonl", "i2.jsonl", "i3.jsonl"))
    run(["index", corpus, p1], capsys)
    run(["index", corpus, p2], capsys)
    code, _, _ = run(["index", corpus, p3, "--jobs", "2"], capsys)
    assert code == EXIT_OK
    b1 = (workspace / "i1.jsonl").read_bytes()
    assert b1 == (workspace / "i2.jsonl").read_bytes()
    assert b1 == (workspace / "i3.jsonl").read_bytes()
    assert main(["index", corpus, p1, "--jobs", "0"]) == EXIT_USAGE
    capsys.readouterr()


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


def test_version_flag(capsys):
    assert main(["--version"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("simscan ")
