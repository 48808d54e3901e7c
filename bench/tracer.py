"""Span aggregation for the traced benchmark run.

The traced run wraps public daglms functions from outside the package:
each wrapper replaces the name where its caller looks it up (a module
global or a class attribute) and records one span per call. A feedforward
job makes millions of calls, so spans are folded into per-name aggregates
on the fly (count, total, time covered by child spans, work units and a
log-bucket latency histogram) instead of being kept one object per call.
"""

from __future__ import annotations

import time

# histogram resolution: 4 buckets per power of two of the span in ns
_SUB_BITS = 2


def _bucket(ns: int) -> int:
    bits = ns.bit_length()
    if bits <= _SUB_BITS + 1:
        return ns
    return (bits << _SUB_BITS) | ((ns >> (bits - _SUB_BITS - 1)) & ((1 << _SUB_BITS) - 1))


def _bucket_bounds(index: int) -> tuple[float, float]:
    if index < 1 << (_SUB_BITS + 1):
        return float(index), float(index + 1)
    bits, sub = index >> _SUB_BITS, index & ((1 << _SUB_BITS) - 1)
    shift = bits - _SUB_BITS - 1
    lead = (1 << _SUB_BITS) | sub
    return float(lead << shift), float((lead + 1) << shift)


class SpanStat:
    """Aggregate of every span recorded under one name."""

    __slots__ = ("calls", "total_ns", "child_ns", "units", "hist")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.child_ns = 0
        self.units = 0
        self.hist: dict[int, int] = {}

    @property
    def self_ns(self) -> int:
        return self.total_ns - self.child_ns

    def quantile_ns(self, q: float) -> float:
        """Span length at quantile ``q``, interpolated inside its bucket."""
        if not self.calls:
            return 0.0
        rank = q * self.calls
        seen = 0
        for index in sorted(self.hist):
            count = self.hist[index]
            if seen + count >= rank:
                low, high = _bucket_bounds(index)
                return low + (high - low) * (rank - seen) / count
            seen += count
        return _bucket_bounds(max(self.hist))[1]

    def as_dict(self) -> dict:
        return {
            "calls": self.calls,
            "total_ns": self.total_ns,
            "self_ns": self.self_ns,
            "units": self.units,
            "p50_ns": self.quantile_ns(0.50),
            "p99_ns": self.quantile_ns(0.99),
        }


class Tracer:
    """Installs timing wrappers and folds their spans into :class:`SpanStat`."""

    def __init__(self):
        self.stats: dict[str, SpanStat] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str, units=None) -> None:
        """Replace ``owner.attr`` by a wrapper recording spans under ``name``.

        ``units(args)``, when given, returns the work units of one call
        (for example the samples of a run) and is summed per name.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        stat = self.stats.setdefault(name, SpanStat())
        stack = self._stack
        clock = time.perf_counter_ns
        bucket = _bucket

        def traced(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat.child_ns += stack.pop()
                if stack:
                    stack[-1] += elapsed
                stat.calls += 1
                stat.total_ns += elapsed
                if units is not None:
                    stat.units += units(args)
                key = bucket(elapsed)
                stat.hist[key] = stat.hist.get(key, 0) + 1

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict:
        return {name: stat.as_dict() for name, stat in self.stats.items()}


def _samples(args) -> int:
    return args[0].duration_samples


def install_daglms(tracer: Tracer) -> None:
    """Wrap the public calls of the five daglms layers, where callers find them."""
    from daglms import adapt, cli, dsp_core, sim, spr_design

    points = [
        (dsp_core.TransferOperator, "filter_step", "dsp_core.filter_step"),
        (dsp_core.TransferOperator, "filter_signal", "dsp_core.filter_signal"),
        (sim, "gen_noise", "dsp_core.gen_noise"),
        (spr_design, "roots_inside_unit_circle", "dsp_core.roots_inside_unit_circle"),
        (adapt.AdaptState, "update", "adapt.update"),
        (adapt.AdaptState, "update_from_error", "adapt.update_from_error"),
        (adapt.AdaptState, "effective_estimate", "adapt.effective_estimate"),
        (sim, "attenuation_db", "sim.attenuation_db"),
        (sim, "is_spr_numeric", "sim.spr_screen"),
        (cli, "is_spr_numeric", "spr_design.is_spr_numeric"),
        (cli, "is_pr_unit_pole", "spr_design.is_pr_unit_pole"),
        (cli, "log_gain_integral", "spr_design.log_gain_integral"),
        (cli, "spr_region_grid", "spr_design.spr_region_grid"),
        (spr_design, "arima2_spr_closed_form", "spr_design.arima2_spr_closed_form"),
        (cli, "cmd_compare", "cli.compare"),
        (cli, "cmd_contour", "cli.contour"),
    ]
    for owner, attr, name in points:
        tracer.wrap(owner, attr, name)
    tracer.wrap(sim, "run_feedforward", "sim.run_feedforward", units=_samples)
    tracer.wrap(sim, "run_sysid", "sim.run_sysid", units=_samples)
