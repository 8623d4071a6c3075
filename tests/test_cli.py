import argparse
import json
import time
from pathlib import Path

import numpy as np
import pytest

from perccode import cli, percolate
from perccode.ensemble import CSV_COLUMNS
from perccode.percolate import Cluster, cluster_to_json

from conftest import SEVEN_LEAF_WORDS, cluster_from_codewords

GOLDEN = Path(__file__).parent / "data" / "golden"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def seven_leaf_paths(tmp_path, seven_leaf_cluster):
    cluster_path = tmp_path / "cluster.json"
    cluster_path.write_text(json.dumps(cluster_to_json(seven_leaf_cluster)))
    book_path = tmp_path / "book.txt"
    book_path.write_text("".join(w + "\n" for w in SEVEN_LEAF_WORDS))
    return str(cluster_path), str(book_path)


def test_analytic_table(capsys):
    code, out, err = run_cli(capsys, "analytic", "--p", "0.6")
    assert code == 0
    doc = json.loads(out)
    assert doc["expected_code_length"] == pytest.approx(2.571429, abs=1e-6)
    assert doc["lambda_mean"] == pytest.approx(0.571429, abs=1e-6)
    assert doc["lambda_var"] == pytest.approx(1.21008, abs=1e-5)
    assert doc["lambda_var_exact"] == pytest.approx(0.104168, abs=1e-6)
    assert doc["extinction_probability"] == pytest.approx(4 / 9, abs=1e-12)
    assert "rng=" in err


def test_analytic_multiple_densities(capsys):
    code, out, _ = run_cli(capsys, "analytic", "--p", "0.5", "--p", "0.6")
    assert code == 0
    docs = json.loads(out)
    assert [d["p"] for d in docs] == [0.5, 0.6]


def test_analytic_out_of_window_exits_one(capsys):
    code, out, err = run_cli(capsys, "analytic", "--p", "0.75")
    assert code == 1
    assert "sqrt(1/2)" in err


def test_analytic_variance_window_is_nullable(capsys):
    # between cbrt(1/4) and sqrt(1/2) only the variance diverges
    code, out, err = run_cli(capsys, "analytic", "--p", "0.65")
    assert code == 0
    doc = json.loads(out)
    assert doc["lambda_var"] is None
    assert doc["lambda_var_exact"] == pytest.approx(0.141876, abs=1e-6)
    assert "cbrt(1/4)" in err


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["analytic", "--p", "abc"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["analytic", "--frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 2
    for argv in (["ensemble", "--threads", "2"], ["sweep", "--p", "0.5", "--threads", "2"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2


FLAGS = {
    "analytic": {"--p", "--out"},
    "sample": {"--p", "--depth", "--seed", "--index", "--format", "--out"},
    "codebook": {"--p", "--depth", "--seed", "--index", "--cluster", "--weights", "--out"},
    "ensemble": {"--p", "--depth", "--seed", "--samples", "--out"},
    "sweep": {"--p", "--depth", "--seed", "--samples", "--out"},
    "oracle": {"--p", "--depth", "--out"},
    "decode": {"--book", "--bits", "--out"},
}


def test_each_subcommand_declares_exactly_its_flags():
    (commands,) = [
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    assert set(commands.choices) == set(FLAGS)
    for name, sub in commands.choices.items():
        declared = {s for a in sub._actions for s in a.option_strings}
        assert declared == FLAGS[name] | {"-h", "--help"}, name


def test_analytic_has_no_depth(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["analytic", "--p", "0.5", "--depth", "3"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "twice, once",
    [
        (["sample", "--p", "0.3", "--p", "0.9", "--depth", "3", "--depth", "5"],
         ["sample", "--p", "0.9", "--depth", "5"]),
        (["codebook", "--p", "0.3", "--p", "0.6", "--depth", "9", "--depth", "6",
          "--seed", "123"],
         ["codebook", "--p", "0.6", "--depth", "6", "--seed", "123"]),
        (["ensemble", "--p", "0.2", "--p", "0.4", "--depth", "9", "--depth", "3",
          "--samples", "20"],
         ["ensemble", "--p", "0.4", "--depth", "3", "--samples", "20"]),
        (["oracle", "--depth", "1", "--depth", "2"], ["oracle", "--depth", "2"]),
    ],
)
def test_repeated_cell_flag_keeps_its_last_value(capsys, twice, once):
    code, out_twice, _ = run_cli(capsys, *twice)
    assert code == 0
    assert run_cli(capsys, *once)[:2] == (0, out_twice)


def test_cell_defaults(capsys):
    # the oracle's default depth must not leak into the other subcommands
    code, out, _ = run_cli(capsys, "sample")
    assert code == 0
    assert json.loads(out)["depth_bound"] == 8
    code, out, _ = run_cli(capsys, "oracle")
    assert code == 0
    doc = json.loads(out)
    assert (doc["p"], doc["depth"]) == (0.5, 3)
    code, out, _ = run_cli(capsys, "ensemble", "--samples", "5")
    assert code == 0
    doc = json.loads(out)
    assert (doc["p"], doc["depth"], doc["seed"]) == (0.5, 8, cli.DEFAULT_SEED)


@pytest.mark.parametrize(
    "command",
    ["analytic", "sample", "codebook", "ensemble", "sweep", "oracle", "decode"],
)
def test_every_subcommand_has_help(capsys, command):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "--help" in out or "usage" in out


def test_sample_json_is_deterministic(capsys):
    code1, out1, _ = run_cli(
        capsys, "sample", "--p", "0.5", "--depth", "8", "--seed", "7"
    )
    code2, out2, _ = run_cli(
        capsys, "sample", "--p", "0.5", "--depth", "8", "--seed", "7"
    )
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["depth_bound"] == 8
    assert doc["root"]["gen"] == 0


def test_sample_dot_format(capsys):
    code, out, _ = run_cli(
        capsys, "sample", "--p", "1.0", "--depth", "2", "--format", "dot"
    )
    assert code == 0
    assert out.startswith("digraph cluster {")
    assert '"0" -> "01" [label="1"];' in out


def test_codebook_from_file(capsys, seven_leaf_paths):
    cluster_path, _ = seven_leaf_paths
    code, out, _ = run_cli(capsys, "codebook", "--cluster", cluster_path)
    assert code == 0
    assert out == "00\n0100\n0101\n1010\n1011\n110\n1110\n"


def test_codebook_with_weights(capsys, seven_leaf_paths):
    cluster_path, _ = seven_leaf_paths
    code, out, _ = run_cli(
        capsys, "codebook", "--cluster", cluster_path, "--weights", "--p", "0.5"
    )
    assert code == 0
    first = out.splitlines()[0].split()
    assert first[0] == "00"
    assert float(first[1]) == pytest.approx(0.25 / 0.6875, abs=1e-12)


@pytest.mark.parametrize("flag", [["--depth", "5"], ["--seed", "3"], ["--index", "2"]])
@pytest.mark.parametrize("cluster_first", [True, False])
def test_codebook_from_file_refuses_sampling_flags(capsys, seven_leaf_paths, flag, cluster_first):
    # the file fixes the cluster, so a flag choosing which cluster to sample would go unused
    cluster = ["--cluster", seven_leaf_paths[0]]
    argv = ["codebook", *(cluster + flag if cluster_first else flag + cluster)]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument --cluster: not allowed with {flag[0]}" in captured.err


def test_codebook_from_file_refuses_abbreviated_sampling_flags(capsys, seven_leaf_paths):
    for flag in (["--dep", "5"], ["--seed=3"], ["--ind", "0"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(["codebook", "--cluster", seven_leaf_paths[0], *flag])
        assert exc.value.code == 2
        assert "not allowed with" in capsys.readouterr().err


def test_log_shows_values_not_which_flags_were_given(capsys):
    # only the values go to the log, not which flags carried them
    code, _, err = run_cli(capsys, "codebook", "--p", "0.6", "--depth", "6", "--seed", "123")
    assert code == 0
    assert "depth=6 index=0" in err and "seed=123" in err and "given" not in err


def test_codebook_from_file_logs_no_sampling_defaults(capsys, seven_leaf_paths):
    # a loaded cluster reads no depth, index or seed, so the log shows none
    code, _, err = run_cli(capsys, "codebook", "--cluster", seven_leaf_paths[0])
    assert code == 0
    line = err.splitlines()[0]
    assert line.startswith("[perccode codebook] ") and f"cluster={seven_leaf_paths[0]}" in line
    assert "depth=" not in line and "index=" not in line and "seed=" not in line


def test_codebook_sampled_matches_library(capsys):
    code, out, _ = run_cli(
        capsys, "codebook", "--p", "0.6", "--depth", "6", "--seed", "123"
    )
    assert code == 0
    words = out.split()
    assert words == sorted(words)


@pytest.mark.parametrize("weights", [[], ["--weights"]])
def test_root_only_codebook_exits_one(capsys, weights):
    # the text form cannot hold the empty codeword
    code, out, err = run_cli(capsys, "codebook", "--p", "0", "--depth", "4", *weights)
    assert code == 1
    assert out == ""
    assert "root-only" in err


@pytest.mark.parametrize("weights", [[], ["--weights"]])
@pytest.mark.parametrize("cell", [["--p", "1", "--depth", "2"], ["--depth", "0"]])
def test_leafless_codebook_exits_one(capsys, tmp_path, cell, weights):
    # every leaf of p=1 sits at the depth bound; a depth-0 root is at it
    out_path = tmp_path / "book.txt"
    code, out, err = run_cli(capsys, "codebook", *cell, *weights, "--out", str(out_path))
    assert code == 1
    assert out == ""
    assert "no leaf above its depth bound" in err
    assert not out_path.exists()


def test_leafless_codebook_from_file_exits_one(capsys, tmp_path):
    path = tmp_path / "cluster.json"
    assert run_cli(capsys, "sample", "--p", "1", "--depth", "2", "--out", str(path))[0] == 0
    code, out, err = run_cli(capsys, "codebook", "--cluster", str(path), "--weights")
    assert code == 1
    assert out == ""
    assert "no leaf above its depth bound" in err


def test_codebook_from_too_deep_file_exits_one(capsys, tmp_path):
    depth = 1500
    text = (
        f'{{"depth_bound": {depth}, "root": '
        + "".join(f'{{"gen": {g}, "left": ' for g in range(depth - 1))
        + f'{{"gen": {depth - 1}}}'
        + "}" * depth
    )
    path = tmp_path / "chain.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "codebook", "--cluster", str(path))
    assert code == 1
    assert out == ""
    assert "recursion limit" in err


def test_codebook_from_file_with_infinite_depth_bound_exits_one(capsys, tmp_path):
    path = tmp_path / "cluster.json"
    path.write_text('{"depth_bound": Infinity, "root": {"gen": 0}}')
    code, out, err = run_cli(capsys, "codebook", "--cluster", str(path))
    assert code == 1
    assert out == ""
    assert "depth_bound must be an integer >= 0" in err


def test_sample_too_deep_for_json_exits_one(capsys, monkeypatch):
    depth = 1500
    chain = Cluster(depth, [np.array([True, False])] * depth)
    monkeypatch.setattr(percolate, "sample_cluster", lambda params, depth, stream: chain)
    code, out, err = run_cli(capsys, "sample", "--depth", str(depth))
    assert code == 1
    assert out == ""
    assert "recursion limit" in err


@pytest.mark.parametrize("command", ["sample", "codebook", "ensemble", "sweep"])
def test_supercritical_frontier_exits_one(capsys, monkeypatch, tmp_path, command):
    # the p = 0.9 frontier grows about 1.8x per generation and would pass
    # 10^9 nodes by generation 36; it is refused at the per-generation cap
    # without asking the stream for the oversized draw, and a sweep is
    # refused before it builds the row of its shallow cell
    requests, raw = [], []

    class Recording:
        def __init__(self, stream):
            self.stream = stream
            # the ensemble's resume draws raw words through the stream's bit generator
            self.bit_generator = self

        def random(self, n=None, out=None):
            requests.append(n if out is None else out.size)
            return self.stream.random(n, out=out)

        def random_raw(self, n):
            requests.append(n)
            raw.append(n)
            return self.stream.bit_generator.random_raw(n)

    keyed, at = percolate.cluster_stream, percolate.SampleStreams.at
    monkeypatch.setattr(percolate, "cluster_stream", lambda *key: Recording(keyed(*key)))
    monkeypatch.setattr(percolate.SampleStreams, "at", lambda self, *a: Recording(at(self, *a)))
    started = time.perf_counter()
    out_path = tmp_path / "sweep.csv"
    argv = {
        "ensemble": ["--p", "0.9", "--depth", "40", "--samples", "1"],
        "sweep": ["--p", "0.9", "--depth", "4", "--depth", "40", "--samples", "1", "--out", str(out_path)],
    }.get(command, ["--p", "0.9", "--depth", "40"])
    code, out, err = run_cli(capsys, command, *argv)
    assert time.perf_counter() - started < 10.0
    assert code == 1
    assert out == ""
    assert "MAX_GENERATION_UNIFORMS = 16777216" in err
    assert "[sweep]" not in err and not out_path.exists()
    assert requests and max(requests) <= percolate.MAX_GENERATION_UNIFORMS
    # the ensemble's one sample outgrows its block: the resume is seen drawing, up to the cap
    assert bool(raw) == (command in ("ensemble", "sweep"))
    assert max(raw, default=0) <= percolate.MAX_GENERATION_UNIFORMS


def test_sweep_refuses_a_grid_before_logging_any_cell(capsys, monkeypatch):
    # p = 0.9 outgrows a cap of 64 uniforms a generation by depth 14; the whole
    # grid is drawn before any cell is measured, so p = 0.5 logs no line first
    monkeypatch.setattr(percolate, "MAX_GENERATION_UNIFORMS", 64)
    argv = ["sweep", "--p", "0.5", "--p", "0.9", "--depth", "14", "--samples", "50", "--seed", "1"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "MAX_GENERATION_UNIFORMS = 64" in err
    assert "[sweep]" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--p", "0.5", "--depth", "3", "--samples", "5"],
        ["ensemble", "--depth", "3", "--samples", "5"],
    ],
)
def test_out_in_a_missing_directory_exits_one_before_any_work(capsys, monkeypatch, tmp_path, argv):
    def no_draw(*args, **kwargs):
        raise AssertionError("drew samples for an output it cannot write")

    monkeypatch.setattr("perccode.ensemble.grid_tallies", no_draw)
    path = tmp_path / "missing" / "cells.csv"
    code, out, err = run_cli(capsys, *argv, "--out", str(path))
    assert code == 1
    assert out == ""
    assert f"--out {path}: no directory" in err
    assert "[sweep]" not in err
    assert not path.parent.exists()


@pytest.mark.parametrize("target", ["directory", "empty"])
@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--p", "0.5", "--depth", "3", "--samples", "3"],
        ["ensemble", "--depth", "3", "--samples", "5"],
    ],
)
def test_out_naming_no_file_exits_one_before_any_work(capsys, monkeypatch, tmp_path, argv, target):
    def no_draw(*args, **kwargs):
        raise AssertionError("drew samples for an output it cannot write")

    monkeypatch.setattr("perccode.ensemble.grid_tallies", no_draw)
    monkeypatch.chdir(tmp_path)
    path = str(tmp_path) if target == "directory" else ""
    code, out, err = run_cli(capsys, *argv, "--out", path)
    assert code == 1
    assert out == ""
    assert f"--out {path!r}: not a file path" in err
    assert "[sweep]" not in err
    assert list(tmp_path.iterdir()) == []


def test_decode_against_book_file(capsys, seven_leaf_paths):
    _, book_path = seven_leaf_paths
    code, out, _ = run_cli(
        capsys, "decode", "--book", book_path, "--bits", "000100110"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["indices"] == [0, 1, 5]
    assert doc["symbols"] == ["s1", "s2", "s6"]


def test_decode_error_exits_one(capsys, seven_leaf_paths):
    _, book_path = seven_leaf_paths
    code, _, err = run_cli(capsys, "decode", "--book", book_path, "--bits", "01")
    assert code == 1
    assert "error" in err


def test_missing_book_file_exits_one(capsys):
    code, _, err = run_cli(capsys, "decode", "--book", "/nope/book.txt", "--bits", "0")
    assert code == 1


def test_ensemble_cell_json(capsys):
    code, out, _ = run_cli(
        capsys,
        "ensemble", "--p", "0", "--depth", "4", "--samples", "50", "--seed", "1",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["samples"] == 50
    assert doc["used"] == 50
    assert doc["mean_H_bits"] == 0.0
    assert doc["mean_leaf_counts"][0] == 1.0


# per subcommand, an argv that succeeds and one that fails; BOOK is a code book file
_WRITES = {
    "analytic": (["--p", "0.5", "--p", "0.6"], ["--p", "0.75"]),
    "sample": (["--p", "0.6", "--depth", "6", "--format", "dot"], ["--p", "0.9", "--depth", "40"]),
    "codebook": (
        ["--p", "0.7", "--depth", "9", "--seed", "11", "--index", "3", "--weights"],
        ["--p", "1", "--depth", "2"],
    ),
    "ensemble": (
        ["--p", "0.6", "--depth", "6", "--samples", "40", "--seed", "3"],
        ["--p", "0.5", "--depth", "4", "--samples", str(10**15)],
    ),
    "sweep": (
        ["--p", "0.5", "--p", "0.6", "--depth", "4", "--depth", "6", "--samples", "40"],
        ["--p", "0.5", "--depth", "4", "--samples", str(10**15)],
    ),
    "oracle": (["--p", "0.6", "--depth", "2"], ["--depth", "4"]),
    "decode": (["--book", "BOOK", "--bits", "000100110"], ["--book", "BOOK", "--bits", "2"]),
}


@pytest.mark.parametrize("command", list(_WRITES))
def test_out_writes_the_stdout_bytes_and_a_failure_writes_nothing(
    capsys, monkeypatch, tmp_path, seven_leaf_paths, command
):
    book = seven_leaf_paths[1]
    ok, failing = ([book if a == "BOOK" else a for a in argv] for argv in _WRITES[command])
    code, stdout_text, _ = run_cli(capsys, command, *ok)
    assert code == 0 and stdout_text
    path = tmp_path / "out.txt"
    code, out, _ = run_cli(capsys, command, *ok, "--out", str(path))
    assert code == 0
    assert out == ""
    assert path.read_bytes() == stdout_text.encode("ascii")
    path.unlink()
    # sample's p = 0.9 frontier outgrows a cap of 64 uniforms a generation by generation 6
    monkeypatch.setattr(percolate, "MAX_GENERATION_UNIFORMS", 64)
    for argv in ([], ["--out", str(path)]):
        code, out, err = run_cli(capsys, command, *failing, *argv)
        assert code == 1
        assert out == ""
        assert f"perccode {command}: error:" in err
        assert not path.exists()


@pytest.mark.parametrize("command", ["ensemble", "sweep"])
def test_impossible_sample_count_exits_one(capsys, command):
    # the tallies of a 10^15-sample cell take petabytes, so the cell is refused at once
    code, out, err = run_cli(
        capsys, command, "--p", "0.5", "--depth", "4", "--samples", str(10**15)
    )
    assert code == 1
    assert out == ""
    assert f"perccode {command}: error:" in err and "Traceback" not in err


# a grid of 2 p x 2000 samples to depth 12 needs 4 * 2000 * (2 * 25 + 12) = 496,000 bytes
PAGES = {"SC_PHYS_PAGES": 100, "SC_PAGE_SIZE": 4096}


@pytest.mark.parametrize("samples, fits", [(2000, False), (1600, True)])
def test_sweep_larger_than_memory_exits_one_before_keying_a_stream(
    capsys, monkeypatch, samples, fits
):
    # 100 pages of 4096 bytes: 409,600 bytes, under 2000 samples' tallies and over 1600's
    monkeypatch.setattr(percolate.os, "sysconf", PAGES.__getitem__)
    keyed, philox_stream = [], percolate._philox_stream
    monkeypatch.setattr(
        percolate, "_philox_stream", lambda *key: keyed.append(key) or philox_stream(*key)
    )
    argv = ["sweep", "--p", "0.5", "--p", "0.6", "--depth", "12", "--samples", str(samples)]
    code, out, err = run_cli(capsys, *argv)
    assert (code, bool(keyed), "[sweep]" in err) == ((0, True, True) if fits else (1, False, False))
    if not fits:
        assert out == ""
        assert "need 496000 bytes, over the 409600 of physical memory" in err


@pytest.mark.parametrize("sysconf", [-1, ValueError, OSError], ids=["unknown", "no-name", "fails"])
def test_sweep_runs_where_physical_memory_is_unknown(capsys, monkeypatch, sysconf):
    def unknown(name):
        if sysconf == -1:
            return -1
        raise sysconf(name)

    monkeypatch.setattr(percolate.os, "sysconf", unknown)
    code, out, _ = run_cli(capsys, "sweep", "--p", "0.5", "--depth", "4", "--samples", "20")
    assert code == 0 and len(out.splitlines()) == 3


def test_main_runs_again_in_one_process(capsys, monkeypatch, tmp_path):
    # the parser is built once and shared: no flag, default or --cluster note
    # of one call may reach the next
    document = str(GOLDEN / "sample-p0.7-d9-s11-i3.json")
    book = (GOLDEN / "codebook-p0.7-d9-s11-i3.txt").read_text(encoding="ascii")
    assert run_cli(capsys, "codebook", "--cluster", document)[:2] == (0, book)
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    with pytest.raises(SystemExit) as exc:
        cli.main(["codebook", "--cluster", document, "--seed", "2"])
    assert exc.value.code == 2
    assert "not allowed with --seed" in capsys.readouterr().err
    sampled = ["codebook", "--p", "0.7", "--depth", "9", "--seed", "11", "--index", "3"]
    assert run_cli(capsys, *sampled)[:2] == (0, book)
    grid = ["sweep", "--p", "0.5", "--p", "0.6", "--depth", "4", "--depth", "6", "--samples", "30"]
    first, second = run_cli(capsys, *grid), run_cli(capsys, *grid)
    assert first[:2] == second[:2] and first[0] == 0 and len(first[1].splitlines()) == 2 + 4
    # the logged parameters, not the timings, of the two calls agree
    assert first[2].splitlines()[0] == second[2].splitlines()[0]
    assert "depth=[4, 6] out=None p=[0.5, 0.6]" in second[2]
    path = tmp_path / "grid.csv"
    assert run_cli(capsys, *grid, "--out", str(path))[:2] == (0, "")
    assert path.read_text(encoding="ascii") == run_cli(capsys, *grid)[1] == first[1]
    assert built == []


def test_repeated_codeword_exits_one(capsys, tmp_path):
    book = tmp_path / "book.txt"
    book.write_text("0\n0\n1\n")
    code, out, err = run_cli(capsys, "decode", "--book", str(book), "--bits", "001")
    assert code == 1
    assert out == ""
    assert "prefix-free" in err


def test_sweep_writes_csv(capsys, tmp_path):
    out_path = tmp_path / "sweep.csv"
    code, _, _ = run_cli(
        capsys,
        "sweep", "--p", "0.5", "--p", "0.6", "--depth", "4", "--samples", "40",
        "--seed", "2", "--out", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[1] == ",".join(CSV_COLUMNS)
    assert len(lines) == 4


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--p", "0.5", "--depth", "3", "--samples", "2", "--seed", str(2**64)],
        ["ensemble", "--p", "0.5", "--depth", "3", "--samples", "2", "--seed", str(2**64)],
        ["sample", "--p", "0.5", "--depth", "3", "--seed", str(2**64)],
        ["sample", "--p", "0.5", "--depth", "3", "--index", str(2**64)],
    ],
)
def test_key_past_64_bits_exits_one(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "2**64" in err and "Traceback" not in err


def test_sweep_without_p_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--depth", "4", "--samples", "10"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_oracle_json(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--p", "0.5", "--depth", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["node_mean"][1] == pytest.approx(1.0, abs=1e-12)
    assert doc["leaf_var"][1] == pytest.approx(0.21875, abs=1e-12)
    assert doc["node_distributions"][1] == pytest.approx([0.25, 0.5, 0.25])


def test_oracle_depth_cap_exits_one(capsys):
    code, _, err = run_cli(capsys, "oracle", "--p", "0.5", "--depth", "5")
    assert code == 1
    assert "cap" in err
