"""Regression gate on the CLI's output formats.

Each file under ``tests/data/golden`` holds the stdout of one command
below.  The cluster, code-book and sweep files were written by the
pointer-tree implementation that level-order clusters replaced; the
``ensemble`` files by the version whose ``run_ensemble`` still tallied its
cell apart from ``sweep``.  Cluster JSON, code-book text, sweep CSV and
ensemble JSON must stay byte-identical.  DOT output is compared as a set
of lines: a graph's statements may come in any order, and a level-order
walk emits them in a different one than the depth-first walk that wrote
the files.
"""

import csv
from pathlib import Path

import pytest

from perccode import cli

GOLDEN = Path(__file__).parent / "data" / "golden"

CASES = {
    "sample-p0.5-d8-s7.json": ["sample", "--p", "0.5", "--depth", "8", "--seed", "7"],
    "sample-p0.7-d9-s11-i3.json": [
        "sample", "--p", "0.7", "--depth", "9", "--seed", "11", "--index", "3",
    ],
    "sample-p0-d4.json": ["sample", "--p", "0", "--depth", "4"],
    "sample-p1-d2.json": ["sample", "--p", "1", "--depth", "2"],
    "sample-p0.5-d8-s7.dot": [
        "sample", "--p", "0.5", "--depth", "8", "--seed", "7", "--format", "dot",
    ],
    "sample-p0.7-d9-s11-i3.dot": [
        "sample", "--p", "0.7", "--depth", "9", "--seed", "11", "--index", "3",
        "--format", "dot",
    ],
    "sample-p1-d2.dot": ["sample", "--p", "1", "--depth", "2", "--format", "dot"],
    "codebook-p0.6-d10-s123.txt": [
        "codebook", "--p", "0.6", "--depth", "10", "--seed", "123",
    ],
    "codebook-p0.6-d10-s123-weights.txt": [
        "codebook", "--p", "0.6", "--depth", "10", "--seed", "123", "--weights",
    ],
    "codebook-p0.7-d9-s11-i3.txt": [
        "codebook", "--p", "0.7", "--depth", "9", "--seed", "11", "--index", "3",
    ],
    "codebook-p0.7-d9-s11-i3-weights.txt": [
        "codebook", "--p", "0.7", "--depth", "9", "--seed", "11", "--index", "3",
        "--weights",
    ],
    "sweep.csv": [
        "sweep", "--p", "0.5", "--p", "0.75", "--depth", "4", "--depth", "7",
        "--samples", "200", "--seed", "2",
    ],
    # samples that fit the ensemble's block of uniforms and samples that outgrow it
    "sweep-block.csv": [
        "sweep", "--p", "0", "--p", "0.45", "--p", "0.6", "--p", "0.7", "--p", "0.9",
        "--p", "1", "--depth", "1", "--depth", "12", "--depth", "16",
        "--samples", "300", "--seed", "2021",
    ],
    # one cell's JSON: its key order, leaf means and leaf SEs; rows that resume
    # past their last block; a single sample, where every SE is 0.0
    "ensemble-p0.6-d12-n500-s3.json": [
        "ensemble", "--p", "0.6", "--depth", "12", "--samples", "500", "--seed", "3",
    ],
    "ensemble-p0.9-d14-n60-smax.json": [
        "ensemble", "--p", "0.9", "--depth", "14", "--samples", "60",
        "--seed", "18446744073709551615",
    ],
    "ensemble-p0-d3-n1.json": ["ensemble", "--p", "0", "--depth", "3", "--samples", "1"],
}


def golden_rows(name: str) -> list[dict[str, str]]:
    """The cells of a golden sweep CSV, read past its ``# rng_version`` line."""
    lines = (GOLDEN / name).read_text(encoding="ascii").splitlines()
    return list(csv.DictReader(line for line in lines if not line.startswith("#")))


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(capsys, name):
    assert cli.main(CASES[name]) == 0
    out = capsys.readouterr().out
    want = (GOLDEN / name).read_bytes().decode("ascii")
    if name.endswith(".dot"):
        assert sorted(out.splitlines()) == sorted(want.splitlines())
    else:
        assert out == want


def _codebook_run(capsys, argv):
    code = cli.main(argv)
    return code, capsys.readouterr().out


@pytest.mark.parametrize("weights", [[], ["--weights", "--p", "0.7"]], ids=["words", "weights"])
def test_codebook_of_a_golden_cluster_document_matches_the_golden_book(capsys, weights):
    document = str(GOLDEN / "sample-p0.7-d9-s11-i3.json")
    golden = GOLDEN / f"codebook-p0.7-d9-s11-i3{'-weights' if weights else ''}.txt"
    run = _codebook_run(capsys, ["codebook", "--cluster", document, *weights])
    assert run == (0, golden.read_bytes().decode("ascii"))


# the p = 0 and p = 1 books have no text form, so both runs exit 1 alike
@pytest.mark.parametrize("weights", [[], ["--weights"]], ids=["words", "weights"])
@pytest.mark.parametrize(
    "name", ["sample-p0.5-d8-s7.json", "sample-p0-d4.json", "sample-p1-d2.json"]
)
def test_codebook_of_a_golden_cluster_document_is_the_sampled_book(capsys, name, weights):
    sampled = ["codebook", *CASES[name][1:], *weights]
    p = CASES[name][CASES[name].index("--p") + 1]
    loaded = ["codebook", "--cluster", str(GOLDEN / name), "--p", p, *weights]
    assert _codebook_run(capsys, loaded) == _codebook_run(capsys, sampled)
