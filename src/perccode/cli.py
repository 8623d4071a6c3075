"""Command-line front end.

Subcommands: ``analytic`` (closed-form table as JSON), ``sample`` (one
cluster as JSON or DOT), ``codebook`` (codeword listing of a sampled or
file-loaded cluster), ``ensemble`` (one Monte Carlo cell as JSON),
``sweep`` (CSV over a p/depth grid), ``oracle`` (exhaustive-enumeration
stats as JSON), and ``decode`` (parse a bitstring against a codebook).

Exit codes: 0 success, 2 usage error, 1 domain/runtime error.  Every run
logs its full parameter set and the RNG version tag to stderr.  Seeds
default to the fixed constant ``DEFAULT_SEED`` so bare invocations are
reproducible.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import analytic, codec, ensemble, oracle, percolate
from .analytic import DomainError, ModelParams
from .percolate import RNG_VERSION

__all__ = ["main", "DEFAULT_SEED"]

DEFAULT_SEED = 20127


def _log_invocation(name: str, args: argparse.Namespace) -> None:
    shown = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    params = " ".join(f"{k}={v}" for k, v in shown.items())
    print(f"[perccode {name}] rng={RNG_VERSION} {params}", file=sys.stderr)


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.write(text)


def _json_too_deep() -> ValueError:
    # the json module recurses once per nesting level of a document
    return ValueError(
        "cluster JSON nests deeper than Python's json module can follow "
        f"(about {sys.getrecursionlimit()} levels, the recursion limit)"
    )


def _analytic_table(p: float) -> dict:
    params = ModelParams(p)
    # lambda (and with it the expected entropy/length) must exist for the
    # table to make sense; its variance has a narrower window and may be null
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
    return table


def _cmd_analytic(args: argparse.Namespace) -> int:
    ps = args.p if args.p else [0.5]
    tables = [_analytic_table(p) for p in ps]
    doc = tables[0] if len(tables) == 1 else tables
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return 0


def _sample_cluster_from_args(args: argparse.Namespace) -> percolate.Cluster:
    params = ModelParams(args.p[0] if args.p else 0.5)
    stream = percolate.cluster_stream(args.seed, args.index)
    return percolate.sample_cluster(params, args.depth[0] if args.depth else 8, stream)


def _cmd_sample(args: argparse.Namespace) -> int:
    cluster = _sample_cluster_from_args(args)
    if args.format == "dot":
        _emit(percolate.cluster_to_dot(cluster), args.out)
    else:
        try:
            text = json.dumps(percolate.cluster_to_json(cluster), indent=2)
        except RecursionError:
            raise _json_too_deep() from None
        _emit(text + "\n", args.out)
    return 0


def _cmd_codebook(args: argparse.Namespace) -> int:
    if args.cluster is not None:
        with open(args.cluster, "r", encoding="ascii") as fh:
            try:
                doc = json.load(fh)
            except RecursionError:
                raise _json_too_deep() from None
        cluster = percolate.cluster_from_json(doc)
    else:
        cluster = _sample_cluster_from_args(args)
    book = codec.extract_codebook(cluster)
    weights = None
    if args.weights:
        p = args.p[0] if args.p else 0.5
        weights = codec.bernoulli_weights(book, p)
    _emit(codec.format_codebook(book, weights), args.out)
    return 0


def _cmd_ensemble(args: argparse.Namespace) -> int:
    params = ModelParams(args.p[0] if args.p else 0.5)
    depth = args.depth[0] if args.depth else 8
    stats = ensemble.run_ensemble(params, depth, args.samples, args.seed)
    if args.out is not None:
        with open(args.out, "w", encoding="ascii", newline="") as fh:
            ensemble.write_csv([stats], fh)
    doc = {
        k: v
        for k, v in stats.__dict__.items()
        if k not in ("mean_leaf_counts", "se_leaf_counts")
    }
    doc["mean_leaf_counts"] = stats.mean_leaf_counts
    doc["se_leaf_counts"] = stats.se_leaf_counts
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = ensemble.EnsembleConfig(
        p_values=args.p,
        depths=args.depth if args.depth is not None else [8],
        samples=args.samples,
        seed=args.seed,
    )
    rows = ensemble.sweep(config)
    _emit(ensemble.csv_text(rows), args.out)
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    params = ModelParams(args.p[0] if args.p else 0.5)
    depth = args.depth[0] if args.depth else 3
    stats = oracle.exact_enumeration(params, depth)
    doc = {
        "p": stats.p,
        "depth": stats.depth,
        "node_mean": stats.node_mean,
        "node_var": stats.node_var,
        "leaf_mean": stats.leaf_mean,
        "leaf_var": stats.leaf_var,
        "mean_normalization": stats.mean_normalization,
        "mean_entropy_bits": stats.mean_entropy_bits,
        "mean_avg_length": stats.mean_avg_length,
        "leafless_probability": stats.leafless_probability,
        "node_distributions": [d.tolist() for d in stats.node_distributions],
    }
    _emit(json.dumps(doc, indent=2) + "\n", args.out)
    return 0


def _cmd_decode(args: argparse.Namespace) -> int:
    with open(args.book, "r", encoding="ascii") as fh:
        book = codec.parse_codebook(fh.read())
    indices = codec.decode(book, args.bits)
    labels = codec.symbol_labels(book)
    doc = {"indices": indices, "symbols": [labels[i] for i in indices]}
    _emit(json.dumps(doc) + "\n", args.out)
    return 0


def _add_common(sub: argparse.ArgumentParser, *, seed: bool = True) -> None:
    sub.add_argument(
        "--p", action="append", type=float, metavar="P",
        help="percolation density in [0, 1]; repeatable where a grid makes sense",
    )
    sub.add_argument(
        "--depth", action="append", type=int, metavar="N",
        help="maximum generation sampled; repeatable where a grid makes sense",
    )
    sub.add_argument("--out", metavar="PATH", help="write output here instead of stdout")
    if seed:
        sub.add_argument(
            "--seed", type=int, default=DEFAULT_SEED, metavar="S",
            help=f"master seed (default {DEFAULT_SEED}; fixed, never time-based)",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perccode",
        description="Percolation clusters on perfect binary trees as prefix codes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analytic = sub.add_parser(
        "analytic", help="closed-form table (lambda, variance, entropy, length) as JSON"
    )
    _add_common(p_analytic, seed=False)
    p_analytic.set_defaults(func=_cmd_analytic)

    p_sample = sub.add_parser("sample", help="sample one cluster and dump it")
    _add_common(p_sample)
    p_sample.add_argument("--index", type=int, default=0, help="sample index within the seed")
    p_sample.add_argument("--format", choices=["json", "dot"], default="json")
    p_sample.set_defaults(func=_cmd_sample)

    p_book = sub.add_parser(
        "codebook", help="codeword listing for a sampled or file-loaded cluster"
    )
    _add_common(p_book)
    p_book.add_argument("--index", type=int, default=0, help="sample index within the seed")
    p_book.add_argument("--cluster", metavar="PATH", help="load a cluster JSON dump")
    p_book.add_argument(
        "--weights", action="store_true",
        help="append the normalized leaf probability as a second column",
    )
    p_book.set_defaults(func=_cmd_codebook)

    p_ens = sub.add_parser("ensemble", help="one Monte Carlo cell, stats as JSON")
    _add_common(p_ens)
    p_ens.add_argument("--samples", type=int, default=10000)
    p_ens.set_defaults(func=_cmd_ensemble)

    p_sweep = sub.add_parser("sweep", help="Monte Carlo grid over p x depth, CSV out")
    _add_common(p_sweep)
    p_sweep.add_argument("--samples", type=int, default=10000)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_oracle = sub.add_parser(
        "oracle", help="exhaustive-enumeration ground truth (depth <= 3) as JSON"
    )
    _add_common(p_oracle, seed=False)
    p_oracle.set_defaults(func=_cmd_oracle)

    p_decode = sub.add_parser("decode", help="parse a bitstring against a codebook file")
    p_decode.add_argument("--book", required=True, metavar="PATH")
    p_decode.add_argument("--bits", required=True, metavar="BITS")
    p_decode.add_argument("--out", metavar="PATH")
    p_decode.set_defaults(func=_cmd_decode)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "sweep" and not args.p:
        parser.error("sweep needs at least one --p")
    _log_invocation(args.command, args)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"perccode {args.command}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
