"""Golden byte pins: the CLI's stdout and index bytes over a fixed corpus.

Each case runs `simscan.cli.main` on the corpus below, in a fresh working
directory, and compares the sha256 of everything the case printed (and of
the index file it wrote, if any) with the digests in `DIGESTS`.  A changed
digest is a change of behaviour.  `bench` prints wall times, so its output
is hashed with every seconds-per-pair figure masked, and nothing else.
After an intended change, print the new digests with

    PYTHONPATH=src python tests/test_golden.py

and paste them over `DIGESTS`.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import hashlib
import io
import os
import re
import sys
import tempfile
from pathlib import Path

import pytest

import simscan.cli
from simscan.cli import main

CORPUS = {
    "alpha.txt": (
        "Fingerprints of key sentences save time and space. "
        "The survey shows that students copy whole paragraphs from the web. "
        "Most copied passages keep their first sentence intact! "
        "In conclusion, we find that sentence fingerprints catch verbatim reuse.\n"
    ),
    "alpha_near.txt": (
        "Fingerprints of key sentences save time and space. "
        "Students copy whole paragraphs from the web, the survey shows. "
        "Most copied passages keep the first sentence intact! "
        "In conclusion, sentence fingerprints catch verbatim reuse.\n"
    ),
    "beta.txt": (
        "Rivers carry sediment towards the coast. "
        "We conclude that the delta grows each spring? "
        "Floods reshape the banks every few years. "
        "In general, the experiment shows that silt settles slowly.\n"
    ),
    "cueless.txt": (
        "Bakers knead dough before dawn. Ovens warm the small shop. "
        "Customers queue for fresh bread and rolls.\n"
    ),
    "empty.txt": "",
    "short_first.txt": (
        "Hi. We find that the delta grows each spring. "
        "Fingerprints of key sentences save time and space.\n"
    ),
    "unicode.txt": (
        "Ünïcödé façade naïve café. İstanbul ΣΊΣΥΦΟΣ straße ﬁnal… "
        "日本語の文章です。 Ｆｕｌｌｗｉｄｔｈ ٣٤ digits! étoile ​zero width.\n"
    ),
    "unicode_near.txt": (
        "Ünïcödé façade naïve café. İstanbul ΣΊΣΥΦΟΣ straße final… "
        "日本語の文章です。 Fullwidth ٣٤ digits! étoile zero width.\n"
    ),
}

PHRASES = "# cue phrases\nthe delta grows...\nmost copied\n\n"

# A file beside `corpus/`, so that no index or scan case sees it, whose name
# needs JSON escaping: a non-ASCII letter, a double quote and a backslash.
ESCAPED = 'na\u00efve "quoted" back\\slash.txt'

C = "corpus/"
IDX = "out.idx"

# name -> the argv of each command run in order.  Every command must exit 0.
CASES = {
    "compare_near": [["compare", C + "alpha.txt", C + "alpha_near.txt"]],
    "compare_empty_suspect": [["compare", C + "alpha.txt", C + "empty.txt"]],
    "compare_empty_reference": [["compare", C + "empty.txt", C + "alpha.txt"]],
    "compare_escaped_id": [
        ["compare", C + "alpha.txt", ESCAPED],
        ["compare", ESCAPED, C + "alpha.txt"],
    ],
    "compare_cueless": [["compare", C + "cueless.txt", C + "beta.txt"]],
    "compare_short_first": [["compare", C + "short_first.txt", C + "beta.txt"]],
    "compare_unicode": [["compare", C + "unicode.txt", C + "unicode_near.txt"]],
    "compare_k3": [["compare", C + "alpha.txt", C + "alpha_near.txt", "--k", "3"]],
    "compare_k6": [["compare", C + "short_first.txt", C + "alpha.txt", "--k", "6"]],
    "compare_beta_paper": [
        ["compare", C + "alpha.txt", C + "alpha_near.txt", "--beta", "paper"],
        ["compare", C + "unicode.txt", C + "alpha.txt", "--beta", "paper"],
    ],
    "compare_beta_half": [["compare", C + "alpha_near.txt", C + "alpha.txt", "--beta", "0.5"]],
    "compare_whole_document": [
        [
            "compare", C + "alpha.txt", C + "alpha_near.txt",
            "--features", "full_char,trigram_jaccard",
        ],
        [
            "compare", C + "beta.txt", C + "short_first.txt", "--k", "3",
            "--features", "statement,full_char,trigram_jaccard,lcs_f",
        ],
    ],
    "compare_zero_weight": [
        [
            "compare", C + "alpha.txt", C + "alpha_near.txt",
            "--weights", "statement=0,lcs_f=2.5",
        ]
    ],
    "compare_phrases": [
        ["compare", C + "alpha.txt", C + "alpha_near.txt", "--phrases", "phrases.txt"]
    ],
    "compare_text": [
        ["compare", C + "alpha.txt", C + "alpha_near.txt", "--format", "text"],
        ["compare", C + "cueless.txt", C + "empty.txt", "--format", "text"],
    ],
    "index": [["index", "corpus", IDX]],
    "index_k3": [["index", "corpus", IDX, "--k", "3"]],
    "index_k6_phrases": [["index", "corpus", IDX, "--k", "6", "--phrases", "phrases.txt"]],
    "scan": [["index", "corpus", IDX], ["scan", C + "alpha_near.txt", IDX]],
    "scan_k3": [
        ["index", "corpus", IDX, "--k", "3"],
        ["scan", C + "short_first.txt", IDX, "--k", "3", "--top", "3"],
    ],
    "scan_top0": [
        ["index", "corpus", IDX],
        ["scan", C + "alpha_near.txt", IDX, "--top", "0"],
        ["scan", C + "alpha_near.txt", IDX, "--top", "0", "--format", "text"],
    ],
    "scan_top_above_size": [
        ["index", "corpus", IDX, "--phrases", "phrases.txt"],
        ["scan", C + "beta.txt", IDX, "--top", "50", "--phrases", "phrases.txt"],
        [
            "scan", C + "unicode_near.txt", IDX, "--top", "50", "--format", "text",
            "--phrases", "phrases.txt", "--weights", "query_phrase=0",
        ],
    ],
    "bench_json": [["bench", "corpus", "--format", "json"]],
    "bench_text": [["bench", "corpus", "--format", "text"]],
}

# `bench` timings: the JSON `seconds_per_pair` values and the table's s/pair column.
_TIMINGS = re.compile(r'("seconds_per_pair": )-?\d+\.\d+|^(\S+ +\d+ +\d+ +)\S+', re.M)

# name -> (sha256 of stdout, sha256 of the index file or None).
DIGESTS = {
    "bench_json": (
        "d5a1825394b82bb5390e2912d8463eb984b4caae3f5553e42e1518ffe0b47510",
        None,
    ),
    "bench_text": (
        "3bbb958df9e088d2e56e3e08d65474fcc683caa8402266dea65b9a382f500350",
        None,
    ),
    "compare_beta_half": (
        "957bacfc97b5c1ee6dae99e05806108c28c10e0bec0c6b9286a5316724132e7e",
        None,
    ),
    "compare_beta_paper": (
        "662a202051bbaadb70d7839add3ddef07ea2290f8da6e05abcfba903506acc4d",
        None,
    ),
    "compare_cueless": (
        "9f5c47c865bbc6da6dfd03243249dbcd698b615e344b9256d3c1bcdb771c4a9b",
        None,
    ),
    "compare_empty_reference": (
        "e16a136261fe5bc3d923b0745ee8609c261465e3a9f528ea657558ed30c87a09",
        None,
    ),
    "compare_empty_suspect": (
        "55e35845561f7dbc5b085c435a9de58f6ffcc10008113b22abc47c86c0a1b83d",
        None,
    ),
    "compare_escaped_id": (
        "5ad8b589ef6c0417b078546825cc36a4d4df14e9b6acc4ecd88a84134310f309",
        None,
    ),
    "compare_k3": (
        "9d7629f85858c90e0dea28362144cd203ec336bfc652f5a045fec8c1c1ae9376",
        None,
    ),
    "compare_k6": (
        "76f3ccf96c3d895b35e3168b0a8099dc7fe814e9267205ee0b0eec821e425661",
        None,
    ),
    "compare_near": (
        "06ab32ad4b76fd75dbfc4335cbc957ed2f19abff4fb3e154bc5571c352d9a3f3",
        None,
    ),
    "compare_phrases": (
        "90f06bdd6334947e076c1986bef9a69d0cd3dd5c31e7c63d000b4f05ccc86734",
        None,
    ),
    "compare_short_first": (
        "13649832b5c956e4b34324b79464ce52221d621f3ec2ea3abc0485b3fa8f4a3e",
        None,
    ),
    "compare_text": (
        "64fbbe17da5fb7f4dd20879925690ef2fc8b78fc000fa3f78385513af302b014",
        None,
    ),
    "compare_unicode": (
        "d878934576a9f00e05fd560b6af7af7a0d4f3ff323498af93ca395d25ddd8a7e",
        None,
    ),
    "compare_whole_document": (
        "8af562453dfc40b087c3288bb69b9efbcaad4c8202416e41145c08a5f03d843d",
        None,
    ),
    "compare_zero_weight": (
        "48499770caaeedd7043ac8fb9d5cd72d16573de45ac0e8da7c66933afb71c68b",
        None,
    ),
    "index": (
        "71a1e9b1095cdbc8e3f98c6395d085ef8e2333cd265e3653d2bb1e7e03a583f1",
        "cfb3174420a430caeba0d018f8b98dd9a4cf33f9a99de7839b5b45cac62ca570",
    ),
    "index_k3": (
        "71a1e9b1095cdbc8e3f98c6395d085ef8e2333cd265e3653d2bb1e7e03a583f1",
        "433bf796f3fae89f4b41fcf349b150877ba39f3c37926df181a5a98f0e549ef1",
    ),
    "index_k6_phrases": (
        "71a1e9b1095cdbc8e3f98c6395d085ef8e2333cd265e3653d2bb1e7e03a583f1",
        "44b6c5e41f4c1babfe234152bcae7bde78569baf6a00332147b49f7abb62293f",
    ),
    "scan": (
        "ad64e3ebca0fcc42adbcbba0b39399563917036ceb6e1ac25c47dc71976d7acb",
        "cfb3174420a430caeba0d018f8b98dd9a4cf33f9a99de7839b5b45cac62ca570",
    ),
    "scan_k3": (
        "61e5e115a0f6017980bb8a43477a0a708448adfc0030a9cc0a1b5d5c56a16ced",
        "433bf796f3fae89f4b41fcf349b150877ba39f3c37926df181a5a98f0e549ef1",
    ),
    "scan_top0": (
        "169d3081e0c3c5e06de845bd07a47ed294914c475d84c7d5421f3049cda54ac5",
        "cfb3174420a430caeba0d018f8b98dd9a4cf33f9a99de7839b5b45cac62ca570",
    ),
    "scan_top_above_size": (
        "6a31ecdd75f945e52de6fe6b61ccaa1c9f50005dd778d7dc14a037d5d0fafe08",
        "688381ae28fea76e8445425e7e1e763decabd62dc4dd61fc8c5a226fcae1ac1b",
    ),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(workdir: Path, commands: list[list[str]]) -> tuple[str, str | None]:
    """Write the corpus into `workdir`, run the commands there, digest the output."""
    (workdir / "corpus").mkdir()
    for name, text in CORPUS.items():
        (workdir / "corpus" / name).write_text(text, encoding="utf-8")
    (workdir / "phrases.txt").write_text(PHRASES, encoding="utf-8")
    (workdir / ESCAPED).write_text(CORPUS["alpha_near.txt"], encoding="utf-8")
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for argv in commands:
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed):
                code = main(argv)
            assert code == 0, f"{argv} exited {code}"
            text = printed.getvalue()
            if argv[0] == "bench":
                text = _TIMINGS.sub(lambda m: (m[1] or m[2]) + "*", text)
            out.write(text)
    finally:
        os.chdir(cwd)
    index = workdir / IDX
    index_sha = _sha(index.read_bytes()) if index.exists() else None
    return _sha(out.getvalue().encode("utf-8")), index_sha


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digest(name, tmp_path):
    assert run_case(tmp_path, CASES[name]) == DIGESTS[name]


def test_index_digest_on_a_two_worker_pool(tmp_path, monkeypatch):
    """The `index` case, built by a real pool of two workers, prints and writes the same bytes."""
    sizes = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(simscan.cli, "_FILES_PER_WORKER", 1)
    monkeypatch.setattr(simscan.cli, "_usable_cpus", lambda: 2)
    assert run_case(tmp_path, CASES["index"]) == DIGESTS["index"]
    assert sizes == [2]


def print_digests() -> None:
    """Print `DIGESTS` for the code as it is now."""
    print("DIGESTS = {")
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            stdout, index = run_case(Path(tmp), CASES[name])
        index_repr = "None" if index is None else f'"{index}"'
        print(f'    "{name}": (\n        "{stdout}",\n        {index_repr},\n    ),')
    print("}")


if __name__ == "__main__":
    sys.exit(print_digests())
