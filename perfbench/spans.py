"""Boundary spans around the layer functions that ``rootsums.cli`` calls.

While a :class:`Tracer` is installed it replaces those names (and
``main`` itself) in the ``rootsums.cli`` namespace with timing
wrappers, so exactly the calls the CLI makes into each layer are seen.
Calls a layer makes internally count toward that layer; ``scalar`` is
only the ``Fraction`` alias, so its cost shows up inside every kernel.
"""

from __future__ import annotations

import dataclasses
import time
from numbers import Rational

# Name in rootsums.cli -> (layer, the metric its self time adds to).
BOUNDARY = {
    "main": ("cli", "cli.self_ms"),
    "parse_polynomial": ("parser", "parser.ms"),
    "parse_rational_list": ("parser", "parser.ms"),
    "to_signed": ("polynomial", "polynomial.ms"),
    "from_signed": ("polynomial", "polynomial.ms"),
    "poly_from_roots": ("polynomial", "polynomial.ms"),
    "power_sums_from_coeffs": ("newton", "newton.ms"),
    "coeffs_from_power_sums": ("newton", "newton.ms"),
    "negative_power_sums": ("newton", "newton.ms"),
    "log_derivative_power_sums": ("series", "series.expand_ms"),
    "cross_multiplied_check": ("series", "series.check_ms"),
    "power_sums_direct": ("roots", "roots.direct_ms"),
    "verify_by_substitution": ("roots", "roots.check_ms"),
    "truncation_report": ("roots", "roots.check_ms"),
}
COUNTED_LAYERS = ("parser", "polynomial", "newton", "series", "roots")
BITS_LAYERS = ("newton", "series", "roots")


def max_bits(value) -> int:
    """Largest numerator or denominator bit length anywhere in a result."""
    if isinstance(value, bool):
        return 0
    if isinstance(value, Rational):
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    if isinstance(value, (list, tuple)):
        return max(map(max_bits, value), default=0)
    if dataclasses.is_dataclass(value):
        return max((max_bits(getattr(value, f.name)) for f in dataclasses.fields(value)), default=0)
    return 0


@dataclasses.dataclass
class Span:
    name: str
    request: int
    parent: int  # index of the enclosing span in Tracer.spans, -1 for none
    start: int = 0  # perf_counter_ns
    end: int = 0
    done: int = 0  # end plus the tracer's own bookkeeping, excluded from every self time
    error: bool = False


class Tracer:
    """Records spans in memory; one instance per traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.bits = dict.fromkeys(BITS_LAYERS, 0)
        self.request = 0
        self._open: list[int] = []

    def _wrap(self, name: str, fn):
        layer = BOUNDARY[name][0]

        def traced(*args, **kwargs):
            span = Span(name, self.request, self._open[-1] if self._open else -1)
            self._open.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter_ns()
                self._open.pop()
                span.done = span.end
            if layer in self.bits:
                self.bits[layer] = max(self.bits[layer], max_bits(result))
            span.done = time.perf_counter_ns()
            return result

        return traced

    def install(self, module) -> dict:
        """Wrap the boundary names in ``module``; returns what to restore."""
        saved = {name: getattr(module, name) for name in BOUNDARY}
        for name, fn in saved.items():
            setattr(module, name, self._wrap(name, fn))
        return saved

    def summary(self) -> dict:
        """Per-layer self time (ms), calls, parser errors and max bits."""
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_ns[span.parent] += span.done - span.start
        metrics = {metric: 0.0 for _, metric in BOUNDARY.values()}
        metrics.update({f"{layer}.calls": 0 for layer in COUNTED_LAYERS})
        metrics["parser.errors"] = 0
        for span, children in zip(self.spans, child_ns):
            layer, metric = BOUNDARY[span.name]
            metrics[metric] += (span.end - span.start - children) / 1e6
            if layer in COUNTED_LAYERS:
                metrics[f"{layer}.calls"] += 1
            if layer == "parser" and span.error:
                metrics["parser.errors"] += 1
        metrics.update({f"{layer}.max_bits": bits for layer, bits in self.bits.items()})
        return metrics

    def records(self) -> list[dict]:
        return [dataclasses.asdict(span) for span in self.spans]
