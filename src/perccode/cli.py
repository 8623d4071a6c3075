"""Command-line front end.

Subcommands: ``analytic`` (closed-form table as JSON), ``sample`` (one
cluster as JSON or DOT), ``codebook`` (codeword listing of a sampled or
file-loaded cluster), ``ensemble`` (one Monte Carlo cell as JSON),
``sweep`` (CSV over a p/depth grid), ``oracle`` (exhaustive-enumeration
stats as JSON), and ``decode`` (parse a bitstring against a codebook).

Each subcommand declares exactly the flags it reads, and ``codebook
--cluster`` refuses the sampling flags it would not read.  ``sample``,
``codebook``, ``ensemble`` and ``oracle`` work on one ``(p, depth)`` cell:
they take one ``--p`` and one ``--depth``, and a repeated flag keeps its
last value.  Only ``analytic --p`` and ``sweep --p``/``--depth`` repeat.
On every subcommand ``--out PATH`` writes the output to PATH instead of stdout;
an empty PATH, a directory, or a PATH whose directory does not exist is refused
before any work.  Each subcommand returns its text and writes nothing; ``main``
writes it once, after the subcommand returns, so a failed one writes nothing.

Exit codes: 0 success, 2 usage error, 1 domain/runtime error, including
an allocation the machine cannot make or a cluster JSON nested deeper than
the json module can follow.  Every run logs its full
parameter set and the RNG version tag to stderr.  Seeds default to the
fixed constant ``DEFAULT_SEED`` so bare invocations are reproducible.
``build_parser`` builds the parser once per process, and each ``main`` reuses it.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import analytic, codec, ensemble, oracle, percolate
from .analytic import DomainError, ModelParams
from .percolate import RNG_VERSION

__all__ = ["main", "DEFAULT_SEED"]

DEFAULT_SEED = 20127


def _log_invocation(name: str, args: argparse.Namespace) -> None:
    # codebook --cluster samples nothing: its depth, index and seed defaults go unread
    unread = ("depth", "index", "seed") if getattr(args, "cluster", None) is not None else ()
    shown = {k: v for k, v in sorted(vars(args).items()) if k not in ("func", "given", *unread)}
    params = " ".join(f"{k}={v}" for k, v in shown.items())
    print(f"[perccode {name}] rng={RNG_VERSION} {params}", file=sys.stderr)


class _Given(argparse.Action):
    # a store action that notes its flag: codebook --cluster refuses the flags it would ignore
    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        given = namespace.given = {*getattr(namespace, "given", ()), self.option_strings[0]}
        if "--cluster" in given and len(given) > 1:
            parser.error(f"argument --cluster: not allowed with {min(given - {'--cluster'})}")


def _analytic_table(p: float) -> dict:
    params = ModelParams(p)
    # lambda (and with it the expected entropy/length) must exist for the table
    # to make sense; only the older variance has a narrower window and may be null
    table = {
        "p": params.p,
        "q": params.q,
        "extinction_probability": analytic.extinction_probability(params),
        "lambda_mean": analytic.lambda_mean(params),
        "expected_entropy_bits": analytic.expected_entropy(params),
        "expected_code_length": analytic.expected_code_length(params),
    }
    try:
        table["lambda_var"] = analytic.lambda_var(params)
    except DomainError as exc:
        print(f"[perccode analytic] note: {exc}", file=sys.stderr)
        table["lambda_var"] = None
    table["lambda_var_exact"] = analytic.lambda_var_exact(params)
    return table


def _cmd_analytic(args: argparse.Namespace) -> str:
    tables = [_analytic_table(p) for p in args.p or [0.5]]
    return json.dumps(tables[0] if len(tables) == 1 else tables, indent=2) + "\n"


def _sample_cluster_from_args(args: argparse.Namespace) -> percolate.Cluster:
    stream = percolate.cluster_stream(args.seed, args.index)
    return percolate.sample_cluster(ModelParams(args.p), args.depth, stream)


def _cmd_sample(args: argparse.Namespace) -> str:
    cluster = _sample_cluster_from_args(args)
    if args.format == "dot":
        return percolate.cluster_to_dot(cluster)
    return json.dumps(percolate.cluster_to_json(cluster), indent=2) + "\n"


def _cmd_codebook(args: argparse.Namespace) -> str:
    if args.cluster is not None:
        with open(args.cluster, "r", encoding="ascii") as fh:
            cluster = percolate.cluster_from_json(json.load(fh))
    else:
        cluster = _sample_cluster_from_args(args)
    book = codec.extract_codebook(cluster)
    if not book.words:
        raise ValueError("the cluster has no leaf above its depth bound, so its code book is empty")
    weights = codec.bernoulli_weights(book, args.p) if args.weights else None
    return codec.format_codebook(book, weights)


def _cmd_ensemble(args: argparse.Namespace) -> str:
    stats = ensemble.run_ensemble(ModelParams(args.p), args.depth, args.samples, args.seed)
    return json.dumps(vars(stats), indent=2) + "\n"


def _cmd_sweep(args: argparse.Namespace) -> str:
    config = ensemble.EnsembleConfig(
        p_values=args.p, depths=args.depth or [8], samples=args.samples, seed=args.seed
    )
    return ensemble.csv_text(ensemble.sweep(config))


def _cmd_oracle(args: argparse.Namespace) -> str:
    doc = dict(vars(oracle.exact_enumeration(ModelParams(args.p), args.depth)))
    doc["node_distributions"] = [d.tolist() for d in doc.pop("node_distributions")]
    return json.dumps(doc, indent=2) + "\n"


def _cmd_decode(args: argparse.Namespace) -> str:
    with open(args.book, "r", encoding="ascii") as fh:
        book = codec.parse_codebook(fh.read())
    indices = codec.decode(book, args.bits)
    labels = codec.symbol_labels(book)
    return json.dumps({"indices": indices, "symbols": [labels[i] for i in indices]}) + "\n"


def _cell(depth: int) -> argparse.ArgumentParser:
    # one parser per default depth: subparsers share their parents' flag
    # objects, so set_defaults(depth=...) on one would change them all
    cell = argparse.ArgumentParser(add_help=False)
    cell.add_argument(
        "--p", type=float, default=0.5, metavar="P",
        help="percolation density in [0, 1] (default %(default)s)",
    )
    cell.add_argument(
        "--depth", type=int, default=depth, metavar="N", action=_Given,
        help="maximum generation sampled (default %(default)s)",
    )
    return cell


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser ``main`` reads, built once and shared: parse with it, never modify it."""
    parser = argparse.ArgumentParser(
        prog="perccode",
        description="Percolation clusters on perfect binary trees as prefix codes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", metavar="PATH", help="write output here instead of stdout")
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument(
        "--seed", type=int, default=DEFAULT_SEED, metavar="S", action=_Given,
        help=f"master seed (default {DEFAULT_SEED}; fixed, never time-based)",
    )
    index = argparse.ArgumentParser(add_help=False)
    index.register("action", None, _Given)  # its flags default to action=_Given
    index.add_argument("--index", type=int, default=0, help="sample index within the seed")
    samples = argparse.ArgumentParser(add_help=False)
    samples.add_argument("--samples", type=int, default=10000, help="clusters per cell")
    cell = _cell(8)

    def add(name, func, parents, summary):
        command = sub.add_parser(name, parents=[*parents, out], help=summary)
        command.set_defaults(func=func)
        return command

    # repeatable flags keep default=None: argparse appends to a default list
    p_analytic = add("analytic", _cmd_analytic, [], "closed-form table as JSON")
    p_analytic.add_argument(
        "--p", action="append", type=float, metavar="P",
        help="percolation density; repeat for one table per value (default 0.5)",
    )

    p_sample = add("sample", _cmd_sample, [cell, seed, index], "sample one cluster and dump it")
    p_sample.add_argument("--format", choices=["json", "dot"], default="json")

    p_book = add("codebook", _cmd_codebook, [cell, seed, index], "codeword listing of a cluster")
    p_book.add_argument("--cluster", metavar="PATH", action=_Given, help="load a cluster JSON dump")
    p_book.add_argument(
        "--weights", action="store_true",
        help="append the normalized leaf probability as a second column",
    )

    add("ensemble", _cmd_ensemble, [cell, seed, samples], "one Monte Carlo cell, stats as JSON")

    p_sweep = add("sweep", _cmd_sweep, [seed, samples], "Monte Carlo grid over p x depth, CSV out")
    p_sweep.add_argument(
        "--p", action="append", type=float, metavar="P", required=True,
        help="percolation density in [0, 1]; repeat for a grid",
    )
    p_sweep.add_argument(
        "--depth", action="append", type=int, metavar="N",
        help="maximum generation sampled; repeat for a grid (default 8)",
    )

    add("oracle", _cmd_oracle, [_cell(3)], "exhaustive enumeration (depth <= 3) as JSON")

    p_decode = add("decode", _cmd_decode, [], "parse a bitstring against a codebook file")
    p_decode.add_argument("--book", required=True, metavar="PATH")
    p_decode.add_argument("--bits", required=True, metavar="BITS")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    _log_invocation(args.command, args)
    try:
        # refused before any work: each would fail only at the final write
        if args.out is not None and (args.out == "" or os.path.isdir(args.out)):
            raise ValueError(f"--out {args.out!r}: not a file path")
        if args.out is not None and not os.path.isdir(os.path.dirname(args.out) or "."):
            raise FileNotFoundError(f"--out {args.out}: no directory {os.path.dirname(args.out)}")
        text = args.func(args)
        if args.out is None:
            sys.stdout.write(text)
        else:
            with open(args.out, "w", encoding="ascii", newline="") as fh:
                fh.write(text)
        return 0
    except RecursionError:
        # only the json module recurses here, once per nesting level of a document
        message = (
            "cluster JSON nests deeper than Python's json module can follow "
            f"(about {sys.getrecursionlimit()} levels, the recursion limit)"
        )
    except (ValueError, OSError, MemoryError) as exc:
        message = str(exc)
    print(f"perccode {args.command}: error: {message}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
