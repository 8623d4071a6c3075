"""Spans around the calls into perccode's layers, kept in memory.

:meth:`Tracer.install` replaces module attributes of the program with thin
wrappers: the public functions a caller uses (``percolate.sample_cluster``)
and the module-level names through which one layer calls another
(``ensemble.sample_tally``, ``oracle.tally``).  Nothing under ``src/``
changes.  A wrapper records a span (name, start, end, parent span) only
while the benchmark is inside one of its timed operations, which is itself
the root span ``bench.op``; checks between operations are not traced.

A span's self time is its duration minus its children's.  A layer's self
time is the sum over its spans, and ``bench.op`` self time is the part of
the timed work no layer accounts for (benchmark glue), so the layers'
self times add up to the traced wall time exactly.

A name that a later version of the program no longer has is skipped, and
its counts read 0.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import Counter

import numpy as np

from perccode import analytic, cli, codec, ensemble, infomeasure, oracle, percolate

OP = "bench.op"


class CountingStream:
    """A cluster stream that counts the uniforms drawn from it and the
    largest frontier (half the largest batch) it served."""

    __slots__ = ("_stream", "_tracer")

    def __init__(self, stream, tracer: "Tracer"):
        self._stream = stream
        self._tracer = tracer

    def random(self, n):
        tracer = self._tracer
        tracer.counts["percolate.uniforms"] += n
        if n > 2 * tracer.peak_frontier:
            tracer.peak_frontier = n // 2
        return self._stream.random(n)


def _counting_stream(tracer, args, result):
    return CountingStream(result, tracer)


def _count_used(tracer, args, result):
    tracer.counts["ensemble.used"] += result.used
    tracer.counts["ensemble.samples"] += result.samples
    return result


def _count_leafless(tracer, args, result):
    tracer.counts["infomeasure.leafless"] += result.entropy_bits is None
    return result


def _count_words(tracer, args, result):
    tracer.counts["codec.words"] += len(result.words)
    return result


def _count_encoded(tracer, args, result):
    tracer.counts["codec.encoded_bits"] += len(result)
    return result


def _count_decoded(tracer, args, result):
    tracer.counts["codec.decoded_bits"] += len(args[1])
    return result


def _count_configs(tracer, args, result):
    depth = args[1]
    tracer.counts["oracle.configs"] += 1 << (2 ** (depth + 1) - 2)
    return result


# (module, attribute, span name, hook run on the result while tracing)
WRAPPED = [
    (cli, "main", "cli.main", None),
    (ensemble, "sweep", "ensemble.sweep", None),
    (ensemble, "run_ensemble", "ensemble.run_ensemble", _count_used),
    (ensemble, "csv_text", "ensemble.csv_text", None),
    (ensemble, "write_csv", "ensemble.write_csv", None),
    (ensemble, "cluster_stream", "percolate.cluster_stream", _counting_stream),
    (ensemble, "sample_tally", "percolate.sample_tally", None),
    (ensemble, "measures", "infomeasure.measures", _count_leafless),
    (percolate, "cluster_stream", "percolate.cluster_stream", _counting_stream),
    (percolate, "sample_tally", "percolate.sample_tally", None),
    (percolate, "sample_cluster", "percolate.sample_cluster", None),
    (percolate, "tally", "percolate.tally", None),
    (percolate, "cluster_to_json", "percolate.cluster_to_json", None),
    (percolate, "cluster_from_json", "percolate.cluster_from_json", None),
    (infomeasure, "measures", "infomeasure.measures", _count_leafless),
    (analytic, "expected_entropy", "analytic.expected_entropy", None),
    (analytic, "expected_code_length", "analytic.expected_code_length", None),
    (analytic, "lambda_mean", "analytic.lambda_mean", None),
    (codec, "extract_codebook", "codec.extract_codebook", _count_words),
    (codec, "bernoulli_weights", "codec.bernoulli_weights", None),
    (codec, "format_codebook", "codec.format_codebook", None),
    (codec, "parse_codebook", "codec.parse_codebook", None),
    (codec, "encode", "codec.encode", _count_encoded),
    (codec, "decode", "codec.decode", _count_decoded),
    (oracle, "exact_enumeration", "oracle.exact_enumeration", _count_configs),
    (oracle, "tally", "percolate.tally", None),
    (oracle, "measures", "infomeasure.measures", _count_leafless),
]

LAYERS = ("analytic", "percolate", "infomeasure", "ensemble", "codec", "oracle", "cli")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.counts: Counter = Counter()
        self.peak_frontier = 0
        self._stack: list[int] = []
        self._active = False
        self._installed: list[tuple] = []
        self._op_id = self._name_id(OP)

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _begin(self, name_id: int) -> int:
        sid = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(name_id)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _finish(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def op(self, fn, args):
        """Run one timed operation of the benchmark as a root span."""
        sid = self._begin(self._op_id)
        self._active = True
        try:
            out = fn(*args)
        finally:
            self._active = False
            self._finish(sid)
        return out, self.end[sid] - self.start[sid]

    def _wrap(self, module, attr: str, span: str, hook) -> None:
        original = getattr(module, attr)
        name_id = self._name_id(span)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not tracer._active:
                return original(*args, **kwargs)
            sid = tracer._begin(name_id)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._finish(sid)
            return result if hook is None else hook(tracer, args, result)

        setattr(module, attr, traced)
        self._installed.append((module, attr, original))

    def install(self) -> None:
        for module, attr, span, hook in WRAPPED:
            if hasattr(module, attr):
                self._wrap(module, attr, span, hook)

    def uninstall(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    # ----------------------------------------------------------------------

    def span_table(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (count, total seconds, self seconds)."""
        n = len(self.start)
        if n == 0:
            return {}
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        name = np.frombuffer(self.name, dtype=np.int64)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=n)
        own = dur - child
        k = len(self.names)
        count = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        self_total = np.bincount(name, weights=own, minlength=k)
        return {
            self.names[i]: (int(count[i]), float(total[i]), float(self_total[i]))
            for i in range(k)
        }

    def write_spans(self, path) -> None:
        np.savez(
            path,
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            name=np.frombuffer(self.name, dtype=np.int64),
            names=np.array(self.names),
        )

    def layer_metrics(self, passes: int) -> tuple[dict[str, float], list[tuple]]:
        """Per-layer metrics per traced pass, and the table rows behind them
        (kind, name, count, total seconds, self seconds, share of traced wall),
        all per pass."""
        table = self.span_table()

        def get(name):
            return table.get(name, (0, 0.0, 0.0))

        def per_call_us(*names):
            calls = sum(get(x)[0] for x in names)
            return sum(get(x)[1] for x in names) / calls * 1e6 if calls else 0.0

        def per_unit_ns(names, units):
            return sum(get(x)[1] for x in names) / units * 1e9 if units else 0.0

        layer_self = {layer: 0.0 for layer in (*LAYERS, "bench")}
        for span, (_, _, own) in table.items():
            layer = span.split(".")[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + own
        wall = get(OP)[1]
        c = self.counts
        book_text = ("codec.bernoulli_weights", "codec.format_codebook", "codec.parse_codebook")
        format_calls = get("codec.format_codebook")[0]
        metrics = {
            "percolate.stream_key_us": per_call_us("percolate.cluster_stream"),
            "percolate.stream_key_calls": get("percolate.cluster_stream")[0] / passes,
            "percolate.sample_tally_us": per_call_us("percolate.sample_tally"),
            "percolate.uniforms": c["percolate.uniforms"] / passes,
            "percolate.ns_per_uniform": per_unit_ns(
                ("percolate.sample_tally", "percolate.sample_cluster"), c["percolate.uniforms"]
            ),
            "percolate.peak_frontier": self.peak_frontier,
            "percolate.sample_cluster_us": per_call_us("percolate.sample_cluster"),
            "percolate.json_roundtrip_us": (
                (get("percolate.cluster_to_json")[1] + get("percolate.cluster_from_json")[1])
                / get("percolate.cluster_to_json")[0] * 1e6
                if get("percolate.cluster_to_json")[0] else 0.0
            ),
            "infomeasure.measures_us": per_call_us("infomeasure.measures"),
            "infomeasure.calls": get("infomeasure.measures")[0] / passes,
            "infomeasure.leafless": c["infomeasure.leafless"] / passes,
            "ensemble.used_ratio": (
                c["ensemble.used"] / c["ensemble.samples"] if c["ensemble.samples"] else 0.0
            ),
            "ensemble.csv_us": per_call_us("ensemble.csv_text"),
            "analytic.closed_form_us": per_call_us(
                "analytic.expected_entropy", "analytic.expected_code_length", "analytic.lambda_mean"
            ),
            "codec.extract_us": per_call_us("codec.extract_codebook"),
            "codec.book_text_us": (
                sum(get(x)[1] for x in book_text) / format_calls * 1e6 if format_calls else 0.0
            ),
            "codec.encode_ns_per_bit": per_unit_ns(("codec.encode",), c["codec.encoded_bits"]),
            "codec.decode_ns_per_bit": per_unit_ns(("codec.decode",), c["codec.decoded_bits"]),
            "codec.words": c["codec.words"] / passes,
            "oracle.enum_us_per_config": per_unit_ns(("oracle.exact_enumeration",), c["oracle.configs"]) / 1e3,
            "oracle.configs": c["oracle.configs"] / passes,
        }
        for layer in LAYERS:
            metrics[f"{layer}.self_s"] = layer_self[layer] / passes
        metrics["trace.wall_s"] = wall / passes
        metrics["trace.unattributed_s"] = layer_self["bench"] / passes
        metrics["trace.spans"] = len(self.start) / passes

        rows = [
            ("layer", layer, "", own / passes, own / passes, own / wall if wall else 0.0)
            for layer, own in layer_self.items()
        ]
        rows += [
            ("span", span, count / passes, total / passes, own / passes, own / wall if wall else 0.0)
            for span, (count, total, own) in sorted(table.items())
        ]
        return metrics, rows
