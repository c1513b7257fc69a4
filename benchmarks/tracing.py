"""Spans and counters recorded around the public functions of plethabacus.

The tracer replaces each public function of the `partitions`, `abacus`,
`strips`, `symfunc` and `oracle` modules with a wrapper that records a
span (name, start, end, parent). The package imports names directly
(`symfunc` binds `r_decompose`, `partition_of`, ...), so a function is
replaced in every `plethabacus` module namespace that binds it.
`uninstall` puts every original back.

`Partition.part` is only counted: it runs millions of times per workload
and a span for each would not fit in memory. Its time stays in the self
time of the span that called it.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from pathlib import Path

LAYERS = ("partitions", "abacus", "strips", "symfunc", "oracle")
FOLDS = ("plethystic_mn_multi", "power_product_pleth")


def _r_decompose(counts, args, result):
    counts["strips.r_decompose.accepted"] += result is not None


def _plethystic_mn(counts, args, result):
    counts["symfunc.terms"] += len(result.terms)


def _schur_decompose(counts, args, result):
    counts["oracle.schur_decompose.in_terms"] += len(args[0].codes)
    counts["oracle.schur_decompose.out_terms"] += len(result.terms)


def _mul(counts, args, result):
    left, right = args
    if hasattr(right, "codes"):
        # int64 code and int64 coefficient per pairwise product
        counts["oracle.mul.bytes_computed"] += 16 * len(left.codes) * len(right.codes)
        counts["oracle.mul.out_terms"] += len(result.codes)


# span name -> function run on (counts, args, result) after each call
OBSERVERS = {
    "strips.r_decompose": _r_decompose,
    "symfunc.plethystic_mn": _plethystic_mn,
    "oracle.schur_decompose": _schur_decompose,
    "oracle.mul": _mul,
}
# every counter an observer adds to
OBSERVED_COUNTS = (
    "strips.r_decompose.accepted",
    "symfunc.terms",
    "oracle.schur_decompose.in_terms",
    "oracle.schur_decompose.out_terms",
    "oracle.mul.bytes_computed",
    "oracle.mul.out_terms",
)


class Tracer:
    """Records spans in flat arrays; one instance traces one pass."""

    def __init__(self, package):
        self.package = package
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        # 1 where no span of the same name encloses this one
        self.span_outermost = bytearray()
        self.counts: dict[str, int] = {}
        self._stack = [-1]
        self._active: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _span_wrapper(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        self._active.append(0)
        names, parents = self.span_name, self.span_parent
        starts, ends, outermost = self.span_start, self.span_end, self.span_outermost
        stack, active, counts = self._stack, self._active, self.counts
        observe = OBSERVERS.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            outermost.append(active[name_id] == 0)
            ends.append(0.0)
            active[name_id] += 1
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
                active[name_id] -= 1
            if observe is not None:
                observe(counts, args, result)
            return result

        return functools.wraps(fn)(wrapper)

    def _count_wrapper(self, key: str, fn):
        counts = self.counts
        counts[key] = 0

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return functools.wraps(fn)(wrapper)

    def _replace_everywhere(self, original, replacement):
        for mod_name, module in list(sys.modules.items()):
            if mod_name != self.package.__name__ and not mod_name.startswith(
                self.package.__name__ + "."
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, replacement)

    def _patch(self, owner, attr: str, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.counts.update(dict.fromkeys(OBSERVED_COUNTS, 0))
        pkg = self.package.__name__
        for layer in LAYERS:
            module = sys.modules[f"{pkg}.{layer}"]
            for attr, fn in list(vars(module).items()):
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    self._replace_everywhere(fn, self._span_wrapper(f"{layer}.{attr}", fn))
        partition = sys.modules[f"{pkg}.partitions"].Partition
        part = self._count_wrapper("partitions.Partition.part.calls", partition.part)
        self._patch(partition, "part", part)
        poly = sys.modules[f"{pkg}.oracle"].MultivariatePolynomial
        self._patch(poly, "__mul__", self._span_wrapper("oracle.mul", poly.__mul__))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def stats(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total_s (outermost spans) and self_s."""
        n = len(self.span_start)
        duration = [self.span_end[i] - self.span_start[i] for i in range(n)]
        covered = [0.0] * n
        parents = self.span_parent
        for i in range(n):
            p = parents[i]
            if p >= 0:
                covered[p] += duration[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        names = self.names
        for i in range(n):
            entry = out[names[self.span_name[i]]]
            entry["calls"] += 1
            entry["self_s"] += duration[i] - covered[i]
            if self.span_outermost[i]:
                entry["total_s"] += duration[i]
        return out

    def write(self, path: Path):
        """A JSON header line, then the span arrays as raw machine bytes."""
        header = {
            "names": self.names,
            "spans": len(self.span_start),
            "arrays": [["name", "i"], ["parent", "i"], ["start", "d"], ["end", "d"]],
            "byteorder": sys.byteorder,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(f)


def read_trace(path: Path) -> tuple[list[str], list[tuple[int, int, float, float]]]:
    """Span names and (name id, parent, start, end) rows of a written trace."""
    with open(path, "rb") as f:
        header = json.loads(f.readline())
        columns = []
        for _, code in header["arrays"]:
            arr = array(code)
            arr.fromfile(f, header["spans"])
            if header["byteorder"] != sys.byteorder:
                arr.byteswap()
            columns.append(arr)
    return header["names"], list(zip(*columns))


# per-layer metrics read from Tracer.stats(): <span name>.<field>
SPAN_METRICS = (
    "partitions.make_skew.calls",
    "partitions.make_skew.self_s",
    "abacus.abacus_of.calls",
    "abacus.abacus_of.self_s",
    "abacus.partition_of.calls",
    "abacus.partition_of.self_s",
    "abacus.swap_bead.calls",
    "abacus.swap_bead.self_s",
    "abacus.movable_beads.calls",
    "strips.r_decompose.calls",
    "strips.r_decompose.total_s",
    "strips.final_border_strip.calls",
    "strips.final_border_strip.self_s",
    "strips.sgn_r.calls",
    "strips.sgn_r.total_s",
    "strips.order_independent_sign.calls",
    "strips.order_independent_sign.total_s",
    "strips.sign_recursion_check.self_s",
    "symfunc.plethystic_mn.calls",
    "symfunc.plethystic_mn.self_s",
    "oracle.schur_decompose.total_s",
    "oracle.mul.total_s",
    "oracle.poly_schur.total_s",
    "oracle.poly_h.total_s",
    "oracle.pleth_pr.total_s",
)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric of one traced pass, zero where a layer sat idle."""
    stats = tracer.stats()
    counts = tracer.counts

    def field(span: str, key: str) -> float:
        return stats.get(span, {}).get(key, 0)

    out = {metric: field(*metric.rsplit(".", 1)) for metric in SPAN_METRICS}
    accepted = counts["strips.r_decompose.accepted"]
    out.update((k, v) for k, v in counts.items() if k != "strips.r_decompose.accepted")
    calls = out["strips.r_decompose.calls"]
    out["strips.accept_ratio"] = accepted / calls if calls else 0.0
    for key in ("calls", "self_s"):
        out[f"symfunc.fold.{key}"] = sum(field(f"symfunc.{name}", key) for name in FOLDS)
    out["trace.spans"] = len(tracer.span_start)
    return out
