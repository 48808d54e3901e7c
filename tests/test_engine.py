"""Engine tests: the compiled kernel, through ``run_many``, ``run_sysid`` and
``run_feedforward``, keeps the bits of the Python loop ``sim._adapt_loop``, the
whole-signal filters of both engines keep those of ``scipy.signal``'s ``lfilter``
and ``sosfilt``, its trace rows keep the bytes of ``repr``, and it falls back to
the Python code wherever it cannot build or load."""

import dataclasses
import logging
import math
import os
import subprocess
import sys
import threading
import types
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.signal
from hypothesis import given, settings
from hypothesis import strategies as st

import daglms
from daglms import (
    PRESET_ORDER,
    DagConfig,
    NoiseSpec,
    RunDiverged,
    ScenarioConfig,
    StepSizePolicy,
    TransferOperator,
    _kernel,
    cli,
    dsp_core,
    make_preset,
    run_feedforward,
    run_many,
    run_sysid,
    sim,
    spr_design,
)
from daglms.adapt import AdaptState
from daglms.dsp_core import _bandpass_sos
from daglms.sim import default_feedforward_scenario

FIELDS = ("e0", "e_post", "residual", "param_err", "atten_db", "atten_clamped", "theta_final")


def bits(a):
    return None if a is None else (a.dtype.str, a.shape, a.tobytes())


def single(run, *args):
    try:
        return run(*args)
    except RunDiverged as exc:
        return exc.trace


def oracle(scn, policy, cfg):
    """The run through the Python loop ``sim._adapt_loop``, on signals of its own, built
    under the patched load and not taken from the memo that the runs it checks fill."""
    with mock.patch.object(_kernel, "load", return_value=None):
        trace = sim._run(scn, sim._build_signals(scn), policy, cfg)
    assert trace.engine == "python"
    return trace


def norm_bits(trace):
    return None if trace.divergence_norm is None else float(trace.divergence_norm).hex()


def assert_same_trace(got, want, label):
    for field in FIELDS:
        assert bits(getattr(got, field)) == bits(getattr(want, field)), (label, field)
    assert (got.diverged, got.divergence_step) == (want.diverged, want.divergence_step), label
    assert norm_bits(got) == norm_bits(want), label
    assert (got.spr_ok, got.atten_window_samples, got.open_loop_prefix_samples) == (
        want.spr_ok, want.atten_window_samples, want.open_loop_prefix_samples
    ), label


def host_engine():
    """The engine that runs here: the kernel wherever it builds (the CI workflow
    checks that it does), so these tests also hold on a host without a compiler."""
    return "kernel" if _kernel.load() is not None else "python"


def assert_same_runs(scn, runs, run, engine=None):
    """Each trace of ``run_many`` and of the single-run call ``run`` equals, bit for
    bit, the Python loop's on the same signals, and came from ``engine`` (default:
    the host's)."""
    engine = engine or host_engine()
    many = run_many(scn, runs)
    assert len(many) == len(runs)
    for (policy, cfg), got in zip(runs, many):
        want = oracle(scn, policy, cfg)
        for trace in (got, single(run, scn, policy, cfg)):
            assert_same_trace(trace, want, (policy, cfg))
            assert trace.engine == engine
    return many


def sweep(gains):
    return [(getattr(StepSizePolicy, algo)(mu), make_preset(p)) for algo, mu in gains for p in PRESET_ORDER]


@pytest.mark.parametrize("n", [12, 16, 60, 61])
@pytest.mark.parametrize("B", [1, 3, 15])
def test_stacked_matmul_gives_dot_bits(n, B):
    """Each row of a stacked ``(B, n)`` block, as the kernel's history block is, gives
    ``np.dot``'s bits through a stacked ``matmul`` and through the kernel's dot product,
    against a slice of a longer signal (as a delay line is) and against itself."""
    kernel = _kernel.load()
    rng = np.random.default_rng([n, B])
    for _ in range(50):
        base = rng.standard_normal((B, n)) * rng.uniform(1e-3, 1e3)
        phi = rng.standard_normal(n + 7)[3:3 + n]  # a slice of a longer signal, as a delay line is
        shared = np.matmul(base[:, None, :], phi[:, None])[:, 0, 0]
        own = np.matmul(base[:, None, :], base[:, :, None])[:, 0, 0]
        assert bits(shared) == bits(np.array([np.dot(row, phi) for row in base]))
        assert bits(own) == bits(np.array([np.dot(row, row) for row in base]))
        if kernel is not None:
            for row, s, o in zip(base, shared, own):
                assert kernel._dot(kernel._ddot, kernel._inline, n, row.ctypes.data, phi.ctypes.data).hex() == float(s).hex()
                assert kernel._dot(kernel._ddot, kernel._inline, n, row.ctypes.data, row.ctypes.data).hex() == float(o).hex()


def compiled():
    kernel = _kernel.load()
    if kernel is None:
        pytest.skip("the kernel does not build on this host")
    return kernel


# (b, a) of every path a configuration file names, at three sample rates, and of orders 0 to 2
FILTERS = [
    (op._b, op._a)
    for op in [
        *(make(fs) for make in cli._PATHS.values() for fs in (2500.0, 8000.0, 48000.0)),
        TransferOperator((-0.7,)), TransferOperator((1.0, 1.0)),
        TransferOperator((0.5, 0.2, -0.1), (1.0, -1.1, 0.3)), TransferOperator((0.0, 1.0), (1.0, -0.5, 0.2)),
    ]
]


def signal(length, seed):
    """Noise with signed zeros in it: an order-0 filter keeps or drops the sign as scipy does."""
    x = np.random.default_rng(seed).standard_normal(length)
    x[1::7], x[3::11] = 0.0, -0.0
    return x


def engine_filters(engine, monkeypatch):
    """``(lfilter, sosfilt)`` of one engine, with :class:`_kernel.Kernel`'s signatures: the
    kernel's loops, or the Python loops of ``TransferOperator.filter_signal`` and
    ``dsp_core._sosfilt`` with the kernel out of reach."""
    if engine == "kernel":
        kernel = compiled()
        return kernel.lfilter, kernel.sosfilt
    monkeypatch.setattr(_kernel, "load", lambda: None)

    def lfilter(b, a, x, z):
        op = TransferOperator(b, a)
        op._state = z.tolist()
        y = op.filter_signal(x)
        z[:] = op._state
        return y

    return lfilter, dsp_core._sosfilt


ENGINES = ("kernel", "python")


def by_engine(lengths):
    """``(engine, length)`` cases, the kernel's under the length alone and the Python
    loops' under ``python-<length>``."""
    return [
        pytest.param(engine, n, id=f"{n}" if engine == "kernel" else f"{engine}-{n}")
        for engine in ENGINES
        for n in lengths
    ]


@pytest.mark.parametrize("engine", ENGINES)
def test_kernel_filters_pass_an_empty_signal(engine, monkeypatch):
    """An empty signal gives an empty output and leaves the state as it was. scipy is no
    oracle here: its ``lfilter`` returns a final state it never set, and its ``sosfilt``
    and its order-0 ``lfilter`` (``np.convolve``) raise."""
    (lfilter, sosfilt), x = engine_filters(engine, monkeypatch), np.zeros(0)
    for k, (b, a) in enumerate(FILTERS):
        zi = np.random.default_rng(k).standard_normal(len(b) - 1)
        z = zi.copy()
        assert bits(lfilter(b, a, x, z)) == bits(x) and bits(z) == bits(zi), k
    assert bits(sosfilt(_bandpass_sos(70.0, 170.0, 2500.0), x)) == bits(x)


@pytest.mark.parametrize("engine, length", by_engine([1, 2, 1000]))
def test_kernel_lfilter_gives_scipy_bits(engine, length, monkeypatch):
    """Each engine's ``lfilter`` gives ``scipy.signal.lfilter``'s output and final state,
    bit for bit, from zero state and from a drawn one."""
    (lfilter, _), x = engine_filters(engine, monkeypatch), signal(length, length)
    assert {len(b) for b, a in FILTERS} >= {1, 2, 3, 5}
    for k, (b, a) in enumerate(FILTERS):
        order = len(b) - 1
        z = np.zeros(order)
        assert bits(lfilter(b, a, x, z)) == bits(scipy.signal.lfilter(b, a, x)), k
        zi = np.random.default_rng(k).standard_normal(order)
        want, zf = scipy.signal.lfilter(b, a, x, zi=zi)
        z = zi.copy()
        assert bits(lfilter(b, a, x, z)) == bits(want), k
        assert bits(z) == bits(zf), k


@pytest.mark.parametrize("engine, length", by_engine([1, 2, 9216]))
def test_kernel_sosfilt_gives_scipy_bits(engine, length, monkeypatch):
    """Each engine's ``sosfilt`` gives ``scipy.signal.sosfilt``'s output bit for bit, on
    the band-pass designs of three sample rates and on drawn sections."""
    (_, sosfilt), x = engine_filters(engine, monkeypatch), signal(length, length)
    rng = np.random.default_rng(length)
    drawn = np.column_stack((rng.standard_normal((3, 3)), np.ones(3), rng.uniform(-0.9, 0.9, (3, 2))))
    for sos in [_bandpass_sos(fs / 40, fs / 15, fs) for fs in (2500.0, 8000.0, 48000.0)] + [drawn]:
        assert bits(sosfilt(sos, x)) == bits(scipy.signal.sosfilt(sos, x))


def test_kernel_filters_reject_bad_shapes():
    """A shape the C loops would read past is a ValueError, not a stray read."""
    kernel = compiled()
    with pytest.raises(ValueError):
        kernel.lfilter((1.0, 0.5), (1.0, -0.5), np.ones(4), np.zeros(2))
    with pytest.raises(ValueError):
        kernel.lfilter((1.0, 0.5), (2.0, -0.5), np.ones(4), np.zeros(1))
    with pytest.raises(ValueError):
        kernel.sosfilt(np.ones((2, 5)), np.ones(4))
    with pytest.raises(ValueError):
        kernel.sosfilt(np.ones((2, 6)) * 2.0, np.ones(4))
    with pytest.raises(ValueError):
        kernel.trace_rows(0, [np.ones(4), np.ones(3)], NO_WINDOW)
    with pytest.raises(ValueError):
        kernel.trace_rows(-1, [np.ones(4)], NO_WINDOW)
    with pytest.raises(ValueError):
        kernel.trace_rows(0, [np.ones(4)] * (_kernel.MAX_TRACE_COLUMNS + 1), NO_WINDOW)
    with pytest.raises(ValueError):
        kernel.trace_rows(0, [np.ones(4)], (np.ones(2), 0, 0))
    with pytest.raises(ValueError):
        kernel.trace_rows(0, [np.ones(4)], (np.ones((2, 2)), 0, 1))
    with pytest.raises(ValueError):
        kernel.trace_rows(0, [np.ones(4)], (np.ones(2), -1, 1))
    lead = b"0,\r\n1,\r\n2,\r\n3,\r\n"  # four rows of this writer's, each cut to its row's step
    assert bytes(kernel.trace_rows(0, [np.ones(4)], NO_WINDOW, lead)) == repr_rows(np.ones(4))
    for bad in [
        b"0,\r\n1\r\n2,\r\n3,\r\n",  # a row without ",\r\n"
        b"0,\r\n\n2,\r\n3,\r\n",  # a bare "\n"
        lead[:-4],  # one row too few
        lead + b"4,\r\n",  # one row too many
        memoryview(lead)[:-1],  # cut mid-row, before the "\n" that the buffer holds next
    ]:
        for trace_rows in (kernel.trace_rows, cli._trace_rows):
            with pytest.raises(ValueError, match="lead"):
                trace_rows(0, [np.ones(4)], NO_WINDOW, bad)


# the window of a trace with no attenuation series: every row ends in an empty field
NO_WINDOW = (np.empty(0), 0, 1)


def repr_rows(values, start=0) -> bytes:
    """The rows that ``Kernel.trace_rows`` writes for the one column ``values`` and
    :data:`NO_WINDOW`, by ``repr``."""
    return "".join(f"{start + i},{'' if v != v else repr(v)},\r\n" for i, v in enumerate(values.tolist())).encode()


def assert_rows_are_repr(kernel, values, start=0):
    values = np.asarray(values, dtype=np.float64)
    got, want = bytes(kernel.trace_rows(start, [values], NO_WINDOW)), repr_rows(values, start)
    if got != want:
        differ = [(v, a, b) for v, a, b in zip(values.tolist(), got.split(b"\r\n"), want.split(b"\r\n")) if a != b]
        pytest.fail(f"{len(differ)} of {values.size} rows differ from repr, the first: {differ[:5]}")


@pytest.fixture(scope="module")
def kernel():
    return compiled()


@settings(deadline=None, max_examples=300)
@given(values=st.lists(st.floats(), min_size=1, max_size=64))
def test_trace_rows_are_repr_on_drawn_floats(kernel, values):
    assert_rows_are_repr(kernel, values)


@settings(deadline=None, max_examples=300)
@given(patterns=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64), start=st.integers(0, 2**62))
def test_trace_rows_are_repr_on_drawn_bit_patterns(kernel, patterns, start):
    assert_rows_are_repr(kernel, np.array(patterns, dtype=np.uint64).view(np.float64), start)


def neighbours(values, width):
    """Each of ``values`` with its ``width`` nearest doubles on each side."""
    out = [np.asarray(values, dtype=np.float64)]
    for direction in (-np.inf, np.inf):
        x = out[0]
        for _ in range(width):
            x = np.nextafter(x, direction)
            out.append(x)
    return np.concatenate(out)


def test_trace_rows_are_repr_on_edges(kernel):
    """Every power of two, subnormals, the fixed/scientific switch points and their
    neighbours, the extremes and integers up to 2**53, each of both signs."""
    rng = np.random.default_rng(53)
    ends = np.arange(1, 10_001, dtype=np.uint64)
    subnormal = np.concatenate([ends, 2**52 - ends, rng.integers(1, 2**52, 50_000, dtype=np.uint64)])
    ends = np.arange(10_001)
    integers = np.concatenate([ends, 2**53 - ends, rng.integers(0, 2**53, 50_000, endpoint=True)])
    values = np.concatenate([
        np.ldexp(1.0, np.arange(-1074, 1024)),
        subnormal.view(np.float64),
        neighbours([1e-4, 1e-5, 1e16, 9999999999999998.0], 5),
        [0.0, np.inf, 5e-324, np.finfo(float).max, np.finfo(float).tiny],
        integers.astype(np.float64),
    ])
    assert_rows_are_repr(kernel, np.concatenate([values, -values]))


def test_trace_rows_are_repr_on_a_million_patterns(kernel):
    """A seeded sweep over all exponents (a full gate runs 10**8 of these)."""
    patterns = np.random.default_rng(2018).integers(0, 2**64, 10**6, dtype=np.uint64)
    assert_rows_are_repr(kernel, patterns.view(np.float64))


def test_trace_rows_leave_nan_fields_empty(kernel):
    """Every NaN, of either sign and any payload, is an empty field; the commas stay."""
    nan = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001, 2**64 - 1], dtype=np.uint64)
    other = np.array([1.5, np.nan, -0.0, 1e-300])
    rows = bytes(kernel.trace_rows(7, [nan.view(np.float64), other, nan.view(np.float64)], NO_WINDOW))
    assert rows == b"7,,1.5,,\r\n8,,,,\r\n9,,-0.0,,\r\n10,,1e-300,,\r\n"


def window_field(window, step) -> str:
    """The field of a ``trace_rows`` window at ``step``, by ``repr``."""
    values, first, length = window
    k = (step - first) // length if step >= first else -1
    return repr_field(values[k]) if 0 <= k < len(values) else ""


def repr_field(v) -> str:
    return "" if v != v else repr(v)


# zeros of both signs, NaNs of both signs and subnormals among drawn doubles
EDGE_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, np.nan, -np.nan, 5e-324, -5e-324, 2.225073858507201e-308, -1e-310, np.inf]),
)


@st.composite
def trace_blocks(draw):
    """A trace's rows as ``trace_rows`` columns and window, cut into blocks: ``e0``, an
    unrelated column, and ``residual`` drawn from either of them (the same bits, negated,
    so 0.0 against -0.0) or on its own; windows from a first step that may be 0 or past
    the last row, with rows after the last window, or an empty series."""
    rows = draw(st.lists(st.tuples(EDGE_FLOATS, EDGE_FLOATS, st.integers(0, 4), EDGE_FLOATS), min_size=1, max_size=80))
    e0, other, residual = [], [], []
    for a, b, source, c in rows:
        e0.append(a)
        other.append(b)
        residual.append((a, -a, b, -b, c)[source])
    n, start = len(rows), draw(st.sampled_from([0, 1, 4095, 2**40]))
    length = draw(st.integers(1, 9))
    values = draw(st.lists(EDGE_FLOATS, max_size=n // length + 2)) if draw(st.booleans()) else []
    window = (np.array(values, dtype=np.float64), start + draw(st.integers(0, n + 2)), length)
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=4)))
    columns = [np.array(c, dtype=np.float64) for c in (e0, other, residual)]
    leads = draw(st.none() | st.lists(st.text("0123456789.e+-,", max_size=30), min_size=n, max_size=n))
    return start, columns, window, [0, *cuts, n], leads


def assert_blocks_are_repr(trace_rows, case):
    """Blocks of a trace through ``trace_rows``, its windows split by their boundaries,
    give ``repr``'s rows: each window's value on every row of it, a repeated field with
    the bits of the field it repeats, each row led by its step or by its drawn lead, which
    each block takes as its rows' lead rows, each lead ending in ",\r\n"."""
    start, columns, window, cuts, leads = case
    rows = [f"{lead},\r\n".encode() for lead in leads or ()]
    got = b"".join(
        bytes(trace_rows(start + lo, [c[lo:hi] for c in columns], window, leads and b"".join(rows[lo:hi])))
        for lo, hi in zip(cuts, cuts[1:])
    )
    values = [c.tolist() for c in columns]
    windows = (window[0].tolist(), *window[1:])
    leads = leads or [str(start + i) for i in range(columns[0].size)]
    want = "".join(
        ",".join([leads[i], *(repr_field(v[i]) for v in values), window_field(windows, start + i)]) + "\r\n"
        for i in range(columns[0].size)
    )
    assert got == want.encode()


@settings(deadline=None, max_examples=400)
@given(case=trace_blocks())
def test_trace_rows_with_windows_and_repeats_are_repr(kernel, case):
    assert_blocks_are_repr(kernel.trace_rows, case)


@settings(deadline=None, max_examples=400)
@given(case=trace_blocks())
def test_python_trace_rows_with_windows_and_repeats_are_repr(case):
    """The same blocks through the kernel's Python twin, ``cli._trace_rows``."""
    assert_blocks_are_repr(cli._trace_rows, case)


def test_trace_with_a_prefix_mid_block_is_one_call(tmp_path, monkeypatch):
    """A trace of several blocks whose prefix ends mid-block gives the same bytes through
    ``cli._write_trace`` on either engine, block by block with the shared text, as one call
    of the kernel's row writer and one of its twin over the whole trace, led by the steps."""
    kernel = compiled()
    monkeypatch.setattr(cli, "_TRACE_BLOCK_ROWS", 64)
    n, prefix, window, rng = 3 * 64 + 21, 100, 7, np.random.default_rng(40)
    e0, e_post, residual, param_err = records = [rng.standard_normal(n) for _ in range(4)]
    for record in (e0, e_post, param_err):
        record[:prefix] = np.nan  # the open-loop rows record the measured residual alone
    atten = rng.uniform(-5.0, 40.0, (n - prefix) // window)
    trace = sim.RunTrace(2500.0, prefix, *records, atten_db=atten, atten_window_samples=window)
    columns = [np.arange(n) / 2500.0, *records]
    whole = [
        cli._TRACE_HEADER + bytes(rows(0, columns, (atten, prefix, window)))
        for rows in (kernel.trace_rows, cli._trace_rows)
    ]
    written = []
    for engine in (kernel, None):
        monkeypatch.setattr(_kernel, "load", lambda engine=engine: engine)
        text = cli._write_trace(tmp_path / "first.csv", trace)
        cli._write_trace(tmp_path / "shared.csv", trace, text)
        written += [(tmp_path / name).read_bytes() for name in ("first.csv", "shared.csv")]
    assert [start for start, _, _ in text] == [0, 64, 100, 164]
    assert whole[0] == whole[1] and written == [whole[0]] * 4


def window_one_step_late(columns, window):
    values, first, length = window
    return columns, (values, first + 1, length)


def repeats_by_value(columns, window):
    # a field equal to the first column's by value, not by bits, takes that column's bits
    return [columns[0], *(np.where(c == columns[0], columns[0], c) for c in columns[1:])], window


@pytest.mark.parametrize("broken", [window_one_step_late, repeats_by_value])
def test_row_writer_check_covers_windows_and_repeats(monkeypatch, caplog, broken):
    """A row writer that places a window one step late, or repeats a field that is equal
    only by value (-0.0 == 0.0), fails the check at load: the kernel does not load."""
    compiled()
    real = _kernel.Kernel.trace_rows

    def trace_rows(self, start, columns, window):
        return real(self, start, *broken(columns, window))

    monkeypatch.setattr(_kernel.Kernel, "trace_rows", trace_rows)
    monkeypatch.setattr(_kernel, "_kernel", None)
    with caplog.at_level(logging.DEBUG, logger="daglms._kernel"):
        assert _kernel.load() is None
    assert "daglms_trace_rows differs from repr" in caplog.text


def minimum_bits(result):
    return tuple(v.hex() for v in result)


def counted_twin(monkeypatch) -> list:
    """The calls that the verdicts hand to the Python twin where the kernel's entry declines
    them, recorded; called after the kernel loads, so that the load's self-check does not count."""
    calls, twin = [], spr_design._real_part_minimum
    monkeypatch.setattr(spr_design, "_real_part_minimum", lambda *args: calls.append(args) or twin(*args))
    return calls


def arima2(c1, c2, d1p):
    """The numerator and denominator of the cell, as check passes them: no pole term at d1p = 0."""
    return (1.0, c1, c2), (1.0, -d1p) if d1p else (1.0,)


def test_real_part_minimum_is_its_twin_on_seeded_cells(kernel):
    """10^4 seeded cells, d1p at 0, +-0.5, 0.9, +-(1 - 1e-15) or drawn, for both verdicts:
    the entry answers every call itself (None would be a decline), with the minimum and the
    x of the twin, bit for bit."""
    rng = np.random.default_rng(242)
    n = 10_000
    edges = [0.0, 0.5, -0.5, 0.9, 1.0 - 1e-15, -(1.0 - 1e-15)]
    d1p = rng.choice([*edges, *rng.uniform(-1.0, 1.0, len(edges))], n).tolist()
    for c1, c2, p in zip(rng.uniform(-3.0, 3.0, n).tolist(), rng.uniform(-2.0, 2.0, n).tolist(), d1p):
        num, den = arima2(c1, c2, p)
        for unit_pole in (False, True):
            got = kernel.real_part_minimum(num, den, unit_pole)
            want = minimum_bits(spr_design._real_part_minimum(num, den, unit_pole))
            assert got is not None and minimum_bits(got) == want, (c1, c2, p, unit_pole)


@pytest.mark.parametrize(
    "num, den, unit_pole, want",
    [
        # the response overflows the doubles near omega = 0; the minimum, at x = -1/4, does not
        ((1.0, 1e308, 1e308), (1.0,), False, (-1.125e308, -0.25)),
        # the lossless cell (0.5, -0.5, 0.5): its PR minimum is exactly 0
        (*arima2(0.5, -0.5, 0.5), True, (0.0, 1.0)),
        ((-1.0, 2.0, 2.0), (1.0, 2.0), False, (-0.0, -0.5)),  # a minimum of -0.0
        ((-1.0, 0.0, 0.5), (1.0,), False, (-1.5, -0.0)),  # at x = -0.0, a root of -0.0 / a1
        # a zero at x = -1 whose sign rests on each c being added as complex(c, 0.0)
        ((1.0, 1.0), (1.0, 1.0, -1.0), False, (0.0, -1.0)),
        ((1.0,), (1.0,), False, (1.0, 1.0)),  # a critical series of degree 0
        ((0.0, 1.0), (1.0,), True, (-0.5, 1.0)),
        # the scaling undone on the minimum: a subnormal, and a value below the doubles
        ((1e-160, 0.5e-160), (1e150,), False, (5e-311, -1.0)),
        ((1e-300, 0.5e-300), (1e300,), False, (0.0, -1.0)),
    ],
    ids=[
        "overflow", "lossless", "minus-zero-minimum", "minus-zero-x", "plus-zero", "degree-0", "unit-pole", "subnormal", "underflow",
    ],
)
def test_real_part_minimum_on_edge_rows(kernel, num, den, unit_pole, want):
    got = kernel.real_part_minimum(num, den, unit_pole)
    assert got is not None  # answered by the entry itself
    assert minimum_bits(got) == minimum_bits(want) == minimum_bits(spr_design._real_part_minimum(num, den, unit_pole))


def test_real_part_minimum_overflows_to_an_infinity(kernel):
    """A minimum beyond the double range is an infinity of its sign, as the twin's
    ``OverflowError`` branch gives it."""
    for num in ((1e308, 1e308, 1e308), (-1e308, -1e308, -1e308)):
        got = kernel.real_part_minimum(num, (1e-308, -0.999e-308), False)
        assert minimum_bits(got) == minimum_bits(spr_design._real_part_minimum(num, (1e-308, -0.999e-308), False))
        assert math.isinf(got[0])


def test_a_pole_on_a_candidate_raises_on_both_engines(kernel, monkeypatch):
    """D = 1 + q^-1 vanishes at x = -1: the entry declines and its twin raises."""
    assert kernel.real_part_minimum((1.0,), (1.0, 1.0), False) is None
    calls = counted_twin(monkeypatch)
    h = TransferOperator((1.0,), (1.0, 1.0))
    with pytest.raises(dsp_core.SingularityError, match="pole exactly on the evaluation point"):
        daglms.is_spr_numeric(h)
    assert len(calls) == 1
    with mock.patch.object(_kernel, "load", return_value=None), pytest.raises(dsp_core.SingularityError):
        daglms.is_spr_numeric(h)


@pytest.mark.parametrize("fs", [2500.0, 8000.0])
def test_secondary_path_ratio_takes_the_twin(kernel, monkeypatch, fs):
    """The degree-6 ratios of the secondary-path screen need the colleague matrix: the
    entry hands them to the twin, which gives the verdict of the Python engine."""
    g = sim.make_secondary_path(fs)
    ratios = [spr_design.ratio_transfer(g, model) for model in (g, sim.make_mismatched_model(fs))]
    with mock.patch.object(_kernel, "load", return_value=None):
        want = [daglms.is_spr_numeric(h) for h in ratios]
    calls = counted_twin(monkeypatch)
    assert [daglms.is_spr_numeric(h) for h in ratios] == want
    assert len(calls) == 2


def test_check_gives_the_same_bytes_without_the_kernel(kernel, tmp_path):
    """``check`` on 200 seeded cells and the edge rows writes the same table on both engines."""
    rng = np.random.default_rng(7)
    cells = zip(rng.uniform(-2.0, 2.0, 200), rng.uniform(-1.0, 1.0, 200), rng.choice([0.0, 0.5, 0.9], 200))
    custom = [f"--custom={c1!r},{c2!r},{d1p!r}" for c1, c2, d1p in (map(float, cell) for cell in cells)]
    argv = ["check", *custom, "--custom=1e308,1e308,0", "--custom=0.5,-0.5,0.5"]
    assert cli.main([*argv, "--out", str(tmp_path / "kernel")]) == 0
    with mock.patch.object(_kernel, "load", return_value=None):
        assert cli.main([*argv, "--out", str(tmp_path / "python")]) == 0
    assert (tmp_path / "kernel" / "check.csv").read_bytes() == (tmp_path / "python" / "check.csv").read_bytes()


def test_design_check_fails_on_a_differing_twin(monkeypatch, caplog):
    """A twin one ulp off on the self-check's rows fails the check at load: the kernel does not load."""
    compiled()
    real = spr_design._real_part_minimum

    def twin(num, den, unit_pole):
        value, x = real(num, den, unit_pole)
        return math.nextafter(value, math.inf), x

    monkeypatch.setattr(spr_design, "_real_part_minimum", twin)
    monkeypatch.setattr(_kernel, "_kernel", None)
    with caplog.at_level(logging.DEBUG, logger="daglms._kernel"):
        assert _kernel.load() is None
    assert "daglms_real_part_minimum differs from its twin" in caplog.text


@pytest.mark.parametrize(
    "mismatched, gains, diverged",
    [
        (False, [("lms", 0.2), ("nlms", 0.0002), ("plms", 0.22)], 0),
        (True, [("lms", 2.0), ("nlms", 0.01), ("plms", 3.0)], 9),
    ],
    ids=["default", "mismatched-diverging"],
)
def test_feedforward_sweep_matches_single_runs(mismatched, gains, diverged):
    """All 15 policy x preset runs of the 60-tap scenario, with attenuation windows."""
    scn = default_feedforward_scenario(duration_s=9.0, prefix_s=3.0, mismatched_model=mismatched)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the mismatched model's SPR screen
        many = assert_same_runs(scn, sweep(gains), run_feedforward)
    assert sum(trace.diverged for trace in many) == diverged
    assert all(trace.atten_db is not None for trace in many if not trace.diverged)


def sysid_scenario(n=16, duration=2000):
    rng = np.random.default_rng(7)
    return ScenarioConfig(
        kind="sysid",
        noise=NoiseSpec(kind="white", seed=5),
        n_adaptive_params=n,
        duration_samples=duration,
        true_params=0.5 * rng.standard_normal(n),
        measurement_noise_rms=0.01,
    )


def test_sysid_sweep_matches_single_runs():
    """``param_err`` included; arima2 and conj_nesterov diverge at plms(0.05), and
    filters with zero ``c`` weights behind ``d[0] = 1`` and ``d[0] < 1`` sum every slot."""
    scn = sysid_scenario()
    runs = sweep([("lms", 0.01), ("nlms", 0.2), ("plms", 0.05)])
    runs += [(StepSizePolicy.nlms(0.2), DagConfig((0.3,), (-0.5,))), (StepSizePolicy.lms(0.01), None)]
    runs += [(StepSizePolicy.nlms(0.2), cfg) for cfg in (DagConfig((0.0, 0.5, 0.0, -0.0)), DagConfig((0.5, 0.0), (-0.5,)))]
    many = assert_same_runs(scn, runs, run_sysid)
    assert 0 < sum(trace.diverged for trace in many) < len(runs)


@pytest.mark.parametrize("engine", ["host", "python"])
def test_numpy_integer_counts_keep_the_bits(monkeypatch, engine):
    """Counts given as NumPy integers are stored as Python ints, and their runs, sysid and
    feedforward, keep the bits of the same runs with plain int counts."""
    if engine == "python":
        monkeypatch.setattr(_kernel, "load", lambda: None)
    feedforward = default_feedforward_scenario(duration_s=2.0, prefix_s=0.5, n_taps=12)
    for scn, run in ((sysid_scenario(), run_sysid), (feedforward, run_feedforward)):
        counts = {name: np.int64(getattr(scn, name))
                  for name in ("n_adaptive_params", "duration_samples", "open_loop_prefix_samples")}
        numpy = dataclasses.replace(scn, **counts)
        assert all(type(getattr(numpy, name)) is int for name in counts)
        for policy, cfg in sweep([("nlms", 0.01), ("plms", 0.05)]):
            traces = []
            for config in (scn, numpy):
                monkeypatch.setattr(sim, "_memo", None)  # each builds its own signals
                traces.append(single(run, config, policy, cfg))
            assert_same_trace(*traces, (run.__name__, policy, cfg))
            assert traces[1].engine == (host_engine() if engine == "host" else "python")


@pytest.mark.parametrize("params", [[0.5, -0.3], [0.5, -0.3, 0.1, 0.2, 0.0]], ids=["short", "long"])
def test_reassigned_true_params_of_another_length_raise_on_both_engines(params):
    """``true_params`` reassigned after construction to a length other than the tap count is
    rejected where the signals are built, with the constructor's message, before either loop
    reads it: a single run, a sweep, with the kernel and without."""
    scn = sysid_scenario(3, 100)
    scn.true_params = np.array(params)
    for load in (_kernel.load, lambda: None):
        with mock.patch.object(_kernel, "load", load):
            for call in (lambda: run_sysid(scn, StepSizePolicy.nlms(0.2)), lambda: run_many(scn, sweep([("nlms", 0.2)]))):
                with pytest.raises(ValueError, match="n_adaptive_params must match true_params length"):
                    call()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_true_params_raise_on_both_engines(bad):
    """A NaN or infinite target is rejected where it enters, naming ``true_params``, and so
    where the signals re-check one assigned after construction, before either loop reads it:
    it would otherwise read as a divergence of every run."""
    with pytest.raises(ValueError, match=r"true_params must be finite, got \[0\.5, -?(nan|inf)\]"):
        ScenarioConfig("sysid", NoiseSpec(kind="white"), 2, 500, true_params=[0.5, bad])
    scn = sysid_scenario(2, 100)
    scn.true_params = np.array([0.5, bad])
    for load in (_kernel.load, lambda: None):
        with mock.patch.object(_kernel, "load", load):
            for call in (lambda: run_sysid(scn, StepSizePolicy.nlms(0.2)), lambda: run_many(scn, sweep([("nlms", 0.2)]))):
                with pytest.raises(ValueError, match="true_params must be finite"):
                    call()


def test_integer_true_params_give_the_bits_of_floats_on_both_engines():
    """Integer ``true_params`` reassigned after construction are taken as the floats they
    equal, as the constructor takes them: both engines run, with the bits of the float scenario."""
    floats = sysid_scenario(3, 300)
    floats.true_params = np.array([1.0, -2.0, 0.0])
    integers = sysid_scenario(3, 300)
    integers.true_params = np.array([1, -2, 0])
    runs = sweep([("nlms", 0.2)])
    for (policy, cfg), want in zip(runs, run_many(floats, runs)):
        assert_same_trace(oracle(integers, policy, cfg), want, (policy, cfg))
    assert_same_runs(integers, runs, run_sysid)


SHAPES = {
    "sysid": (lambda n: sysid_scenario(n, 400), run_sysid),
    "feedforward": (lambda n: default_feedforward_scenario(duration_s=0.24, prefix_s=0.08, n_taps=n), run_feedforward),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_every_length_matches_the_python_loop(shape):
    """n = 1...64 and 128 taps: ``ddot``'s kernels change with n, and n = 1 is
    ``np.dot``'s plain product."""
    make, run = SHAPES[shape]
    runs = [
        (StepSizePolicy.lms(0.01), make_preset("integral")),
        (StepSizePolicy.nlms(0.2), make_preset("arima2")),
        (StepSizePolicy.plms(0.05), make_preset("ipd")),
    ]
    for n in [*range(1, 65), 128]:
        assert_same_runs(make(n), runs, run)


@pytest.mark.parametrize(
    "num, den",
    [((-0.7,), None), ((1.0, 1.0), None), ((0.5, 0.2, -0.1), (1.0, -1.1, 0.3)), ((0.0, 1.0), (1.0, -0.5, 0.2))],
    ids=["gain", "fir", "iir", "delayed-iir"],
)
def test_secondary_path_orders_match_the_python_loop(num, den):
    """The kernel steps a path of order 0, 1 and 2 as ``TransferOperator.filter_step`` does."""
    path = TransferOperator(num, den)
    scn = ScenarioConfig(
        "feedforward", NoiseSpec(kind="white", seed=3), 8, 1500,
        primary_path=TransferOperator((1.0, 0.5)), secondary_path=path, open_loop_prefix_samples=300,
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the SPR screen of a delayed path
        assert_same_runs(scn, sweep([("nlms", 0.05)]), run_feedforward)


def test_one_diverging_run_returns_its_partial_trace():
    """``run_many`` of a single diverging run raises nothing."""
    [trace] = assert_same_runs(sysid_scenario(), [(StepSizePolicy.plms(0.05), make_preset("arima2"))], run_sysid)
    assert trace.diverged
    stop = trace.divergence_step - 1  # the diverging step stores no error
    assert not np.isnan(trace.e0[:stop]).any() and np.isnan(trace.e0[stop:]).all()


def test_divergence_keeps_the_norm(monkeypatch):
    """``RunDiverged`` carries the estimate norm that failed the check, the same from either engine."""
    args = (sysid_scenario(), StepSizePolicy.plms(0.05), make_preset("arima2"))
    engine = host_engine()
    with pytest.raises(RunDiverged) as kernel_run:
        run_sysid(*args)
    monkeypatch.setattr(sim._kernel, "load", lambda: None)
    with pytest.raises(RunDiverged) as python_run:
        run_sysid(*args)
    assert (kernel_run.value.trace.engine, python_run.value.trace.engine) == (engine, "python")
    assert kernel_run.value.step == python_run.value.step
    assert kernel_run.value.norm.hex() == python_run.value.norm.hex()
    assert not kernel_run.value.norm <= daglms.adapt.DIVERGENCE_LIMIT
    assert str(kernel_run.value) == f"run diverged at step {kernel_run.value.step}"


@pytest.mark.parametrize("engine", ["host", "python"])
def test_sweep_trace_keeps_the_norm(monkeypatch, engine):
    """A diverged trace of ``run_many`` carries the bits of the ``RunDiverged.norm`` that the
    same single run raises, on either engine; a run that did not diverge reads None."""
    if engine == "python":
        monkeypatch.setattr(sim._kernel, "load", lambda: None)
    scn = sysid_scenario()
    runs = [(StepSizePolicy.plms(0.05), make_preset("arima2")), (StepSizePolicy.nlms(0.2), make_preset("integral"))]
    diverged, calm = run_many(scn, runs)
    with pytest.raises(RunDiverged) as single_run:
        run_sysid(scn, *runs[0])
    assert (diverged.diverged, calm.diverged) == (True, False)
    assert diverged.divergence_norm.hex() == single_run.value.norm.hex()
    assert single_run.value.trace.divergence_norm is single_run.value.norm
    assert calm.divergence_norm is None and run_sysid(scn, *runs[1]).divergence_norm is None


# a gain filter with each history length K = len(d) + len(c) from 1 to 5: the presets, then
# long c and long d'
BY_DEPTH = [
    *(make_preset(name) for name in PRESET_ORDER),
    DagConfig((0.3, 0.2, 0.1, 0.05)),
    DagConfig((), (0.5, 0.2, 0.1, 0.05)),
    DagConfig((0.4,), (0.3, -0.2, 0.1)),
]


def both_loops(scn, policy, cfg, start=None, limit=None):
    """``Kernel.adapt`` and ``sim._adapt_loop`` on one scenario's signals, each from its own
    ``AdaptState``, started at ``start`` and checked against ``limit`` where given: the step
    and norm each returns, its state and its trace."""
    sig, out = sim._build_signals(scn), []
    for loop in (compiled().adapt, sim._adapt_loop):
        state = AdaptState(scn.n_adaptive_params, policy, cfg)
        if start is not None:
            state.theta_hist[:] = start
        if limit is not None:
            state.divergence_limit = limit
        trace = sim._new_trace(scn, sig, policy)
        out.append((*loop(state, sig, trace), state, trace))
    return out


def assert_same_loops(scn, policy, cfg, **kwargs):
    """Both loops take the same steps to the same history block, bit for bit, and report the
    same divergence with the same norm; returns the diverging step, 0 if none, and its norm."""
    (step, norm, state, trace), (want_step, want_norm, want_state, want_trace) = both_loops(scn, policy, cfg, **kwargs)
    assert step == want_step and state.t == want_state.t
    if step:
        assert norm.hex() == want_norm.hex()
    assert bits(state._hist) == bits(want_state._hist)
    for record in ("e0", "e_post", "param_err"):
        assert bits(getattr(trace, record)) == bits(getattr(want_trace, record)), record
    return step, want_norm


@pytest.mark.parametrize("cfg", BY_DEPTH, ids=lambda cfg: f"K{len(cfg.d) + len(cfg.c)}-{cfg.c}-{cfg.d_prime}")
def test_history_block_matches_the_python_loop(cfg):
    """The kernel's ring leaves the history block in the Python loop's order after runs of
    every length mod K, and after divergence at steps of every residue mod K."""
    K = len(cfg.d) + len(cfg.c)
    policy = StepSizePolicy.nlms(0.2)
    for duration in range(40, 40 + K):
        assert assert_same_loops(sysid_scenario(5, duration), policy, cfg)[0] == 0
    scn = sysid_scenario(5, 300)
    steps = {assert_same_loops(scn, policy, cfg, limit=norm)[0] for norm in np.linspace(0.05, 0.6, 40)}
    steps.discard(0)
    assert {step % K for step in steps} == set(range(K)), steps


# tap counts on each side of the inline dot's 16- and 32-element blocks and of its FMA tail
DOT_EDGES = [1, 2, 15, 16, 17, 31, 32, 33, 47, 48, 60, 63, 64, 65, 100]


@pytest.mark.parametrize("n", DOT_EDGES)
def test_steps_at_the_dot_block_edges_match_the_python_loop(n):
    """At each of :data:`DOT_EDGES` taps the kernel takes the Python loop's steps, bit for
    bit, to the same history block and records, diverging runs included."""
    scn, diverged = sysid_scenario(n, 300), 0
    for policy in LEVEL_POLICIES:
        for name in ("integral", "ipd", "arima2"):
            step, _ = assert_same_loops(scn, policy, make_preset(name))
            diverged += step > 0
    assert diverged


@pytest.mark.parametrize("n", [10000, 10001])
def test_the_longest_inline_dot_and_the_next_match_the_python_loop(n):
    """10000 taps, the longest dot summed inline, and 10001, the shortest that calls
    ``ddot``, which may split it across threads: short runs keep the Python loop's bits."""
    scn = sysid_scenario(n, 30)
    for policy, name in ((StepSizePolicy.nlms(0.2), "ipd"), (StepSizePolicy.plms(0.05), "arima2")):
        assert_same_loops(scn, policy, make_preset(name))


def test_a_history_of_more_than_64_slots_matches_the_python_loop():
    """40 c and 30 d' coefficients, so 71 history slots: the kernel's table of row pointers
    has no fixed bound, and its rows go back into the block in order, after runs of several
    lengths and after divergence."""
    cfg = DagConfig(tuple(0.01 * (-1) ** k for k in range(40)), tuple(0.01 / (k + 1) for k in range(30)))
    assert len(cfg.d) + len(cfg.c) == 71
    steps = [
        assert_same_loops(sysid_scenario(5, duration), policy, cfg)[0]
        for duration in (200, 237, 271) for policy in (StepSizePolicy.nlms(0.2), StepSizePolicy.nlms(3.0))
    ]
    assert 0 in steps and any(steps), steps


def test_inline_dot_is_np_dot():
    """The kernel's dot products give ``np.dot``'s bits at n = 1...299, 1000, 4097, 10000
    and 10001 (the pointer from there on), on seeded draws of mixed magnitude, for a pair and
    for a vector with itself; where the load took the inline order, so does each of these."""
    kernel = compiled()
    rng = np.random.default_rng(36)
    for n in [*range(1, 300), 1000, 4097, 10000, 10001]:
        for _ in range(4 if n < 300 else 2):
            x, y = np.ldexp(rng.uniform(-1, 1, (2, n)), rng.integers(-30, 30, (2, n)))
            for a, b in ((x, y), (x, x)):
                got = kernel._dot(kernel._ddot, kernel._inline, n, a.ctypes.data, b.ctypes.data)
                assert got.hex() == float(np.dot(a, b)).hex(), n


def running_norms(scn, policy, cfg):
    """The estimate norm that each step of the Python loop checks, from ``AdaptState.update``
    on the loop's own signals (a sysid loop has no path, so the two agree)."""
    sig, n, T = sim._build_signals(scn), scn.n_adaptive_params, scn.duration_samples
    state = AdaptState(n, policy, cfg)
    state.divergence_limit = math.inf
    norms = []
    for t, x in enumerate(sig.desired.tolist()):
        state.update(sig.rev[T - 1 - t:T - 1 - t + n], x)
        norms.append(math.sqrt(float(np.dot(state.theta, state.theta))))
    return norms


@pytest.mark.parametrize("n", [1, 3, 16, 61])
def test_divergence_bound_agrees_at_the_edge(n):
    """A limit equal to the norm that a step reaches passes that step on both engines, and
    the double below it stops the run at that step with that norm: the kernel's sum-of-squares
    bound never decides a step that the exact norm would decide otherwise."""
    scn, policy, cfg = sysid_scenario(n, 200), StepSizePolicy.nlms(0.2), make_preset("ipd")
    norms = running_norms(scn, policy, cfg)
    for step in (1, 2, int(np.argmax(norms[:50])) + 1, int(np.argmax(norms)) + 1):
        edge = norms[step - 1]
        assert edge > max(norms[:step - 1], default=0.0)  # the first step to reach it
        passed, _ = assert_same_loops(scn, policy, cfg, limit=edge)
        assert passed == 0 or passed > step
        stopped, norm = assert_same_loops(scn, policy, cfg, limit=math.nextafter(edge, -math.inf))
        assert (stopped, norm.hex()) == (step, edge.hex())


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning", "ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize(
    "start, limit, norm",
    [(math.nan, None, math.nan), (math.inf, None, math.nan), (1e200, None, math.inf), (1e200, math.inf, math.inf)],
    ids=["nan", "inf", "overflow", "overflow-inf-limit"],
)
def test_divergence_on_a_nan_or_inf_estimate(start, limit, norm):
    """A NaN or inf estimate, or one whose squares overflow, stops the first step on both
    engines with the same norm, also where the limit is inf. An inf estimate meets its own
    correction, an inf of the opposite sign, so its norm is NaN."""
    step, got = assert_same_loops(sysid_scenario(8, 50), StepSizePolicy.lms(0.01), make_preset("ipd"), start=start, limit=limit)
    assert (step, got.hex()) == (1, norm.hex())


def test_silent_disturbance_matches_single_runs():
    """A zero disturbance: every error is a signed zero, kept as the single run signs it."""
    scn = default_feedforward_scenario(duration_s=4.0, prefix_s=1.0, n_taps=8, amplitude=0.0)
    assert_same_runs(scn, sweep([("lms", 0.2), ("nlms", 0.0002), ("plms", 0.22)]), run_feedforward)


@pytest.mark.filterwarnings("ignore:could not verify the secondary path ratio:UserWarning")
@pytest.mark.parametrize("kind, taps", [("sysid", 1), ("sysid", 2), ("sysid", 8), ("feedforward", 1), ("feedforward", 2)])
def test_silent_input_keeps_signed_zeros(kind, taps):
    """Zero input of both signs: with one tap, ``np.dot`` signs a product of zeros
    (``0.0 * -0.0`` is -0.0) where a BLAS sum from +0.0 would not, and one-sample
    delay paths carry that sign into ``e0``."""
    noise = NoiseSpec(kind="white", seed=0, amplitude=0.0)
    if kind == "sysid":
        scn = ScenarioConfig(kind, noise, taps, 1000, true_params=np.linspace(-0.5, 0.5, taps))
        run = run_sysid
    else:
        delay = TransferOperator((0.0, 1.0))
        scn = ScenarioConfig(kind, noise, taps, 400, primary_path=delay, secondary_path=delay, open_loop_prefix_samples=50)
        run = run_feedforward
    assert_same_runs(scn, sweep([("lms", 0.2), ("nlms", 0.1), ("plms", 0.22)]), run)


@pytest.mark.filterwarnings("ignore:overflow encountered in dot:RuntimeWarning")
def test_constant_step_ignores_overflowing_power():
    """An unstable regressor filter drives ``phi . phi`` to inf; the lms run never reads it."""
    scn = default_feedforward_scenario(duration_s=9.0, prefix_s=3.0, n_taps=12)
    scn.regressor_filter = TransferOperator((1.0,), (1.0, -1.02))
    runs = [(StepSizePolicy.lms(1e-300), None), (StepSizePolicy.nlms(0.01), None)]
    many = assert_same_runs(scn, runs, run_feedforward)
    assert not any(trace.diverged for trace in many)


def test_no_runs():
    assert run_many(default_feedforward_scenario(duration_s=2.0, prefix_s=1.0, n_taps=4), []) == []


def test_sweep_keeps_order_under_fast_switching(monkeypatch, tmp_path):
    """Many short sweeps of 1 to 7 runs with the interpreter switching threads as often as
    it can: each writes every trace once and in run order and its summary rows in that
    order, and each, whole or stopped by a writer error at a seeded run, leaves no writer
    thread behind."""
    rng, written, failing = np.random.default_rng(25), [], [None]

    def run(scn, sig, policy, cfg, window_seconds):  # a finished trace that names its run
        return types.SimpleNamespace(
            atten_db=None, diverged=False, divergence_step=policy, spr_ok=None, wall_time_s=0.0
        )

    def write(path, trace, text):
        if trace.divergence_step == failing[0]:
            raise OSError("disk full")
        written.append(trace.divergence_step)

    monkeypatch.setattr(sim, "_signals", lambda scn: None)
    monkeypatch.setattr(sim, "_run", run)
    monkeypatch.setattr(cli, "_write_trace", write)
    threads, interval = threading.active_count(), sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for n in range(200):
            order = list(range(n % 7 + 1))
            algorithms = [f"a{k}" for k in order]
            options = {"algorithms": algorithms, "presets": ["integral"], "policies": dict(zip(algorithms, order)),
                       "window_seconds": 1.0, "threshold_db": 20.0}
            written.clear()
            failing[0] = None
            assert cli._sweep(None, options, tmp_path) == cli.EXIT_OK
            assert written == order
            summary = (tmp_path / "summary.csv").read_text().splitlines()[1:]
            assert [int(row.split(",")[3]) for row in summary] == order  # the divergence_step column
            assert threading.active_count() == threads
            written.clear()
            failing[0] = int(rng.integers(len(order)))
            with pytest.raises(OSError, match="disk full"):
                cli._sweep(None, options, tmp_path)
            assert written == order[:failing[0]]
            assert threading.active_count() == threads
    finally:
        sys.setswitchinterval(interval)


def test_run_error_reaches_the_caller(monkeypatch):
    """An error in a run of ``run_many`` is raised in the calling thread; the runs after it
    never start and no worker thread is left behind."""
    started, run = [], sim._run

    def failing_run(scn, sig, policy, cfg, *args):
        started.append(cfg)
        if len(started) == 2:
            raise ZeroDivisionError("in the second run")
        return run(scn, sig, policy, cfg, *args)

    monkeypatch.setattr(sim, "_run", failing_run)
    threads = threading.active_count()
    with pytest.raises(ZeroDivisionError, match="in the second run"):
        run_many(sysid_scenario(), sweep([("nlms", 0.2)]))
    assert threading.active_count() == threads
    assert len(started) == 2


def fail(*args):
    raise OSError("no compiler here")


@pytest.mark.parametrize(
    "name, value, reason",
    [
        ("_build", fail, "no compiler here"),  # no compiler, or the build failed
        ("_DDOT", "no_such_ddot", "no_such_ddot"),  # a NumPy on another BLAS
        ("_DDOT", "scipy_cblas_dasum64_", "where np.dot gives"),  # a BLAS call with other bits
        # a table one power of ten off: the row writer's self-check fails
        ("_pow10_table", lambda t=_kernel._pow10_table: np.roll(t(), 2), "differs from repr"),
    ],
    ids=["build", "symbol", "self-check", "repr-check"],
)
def test_fallback_gives_the_same_bytes(monkeypatch, caplog, name, value, reason):
    """Where the kernel cannot load, runs take the Python loop, with the same bytes,
    and the reason is logged once."""
    scn = default_feedforward_scenario(duration_s=2.0, prefix_s=0.5, n_taps=12, mismatched_model=True)
    runs = sweep([("lms", 2.0), ("nlms", 0.01), ("plms", 3.0)])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        engine, compiled = host_engine(), run_many(scn, runs)
        monkeypatch.setattr(_kernel, name, value)
        monkeypatch.setattr(_kernel, "_kernel", None)
        with caplog.at_level(logging.DEBUG, logger="daglms._kernel"):
            fallback = assert_same_runs(scn, runs, run_feedforward, engine="python")
    [record] = caplog.records
    assert record.getMessage().startswith("running the Python adaptation loop")
    assert reason in record.getMessage() or engine == "python"  # where nothing builds, the build fails first
    assert any(trace.diverged for trace in fallback)
    for got, want in zip(fallback, compiled):
        assert want.engine == engine
        assert_same_trace(got, want, "fallback")


def test_unwritable_cache_still_runs(monkeypatch, tmp_path):
    """A cache directory that cannot be made: the run takes the Python loop."""
    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker / "cache"))
    monkeypatch.setattr(_kernel, "_kernel", None)
    [trace] = assert_same_runs(sysid_scenario(), [(StepSizePolicy.nlms(0.2), make_preset("ipd"))], run_sysid, "python")
    assert not trace.diverged and trace.param_err[-1] < 0.05


def test_cached_build_is_reused(monkeypatch, tmp_path):
    """A second process finds the build in the cache, named by the source, flags and compiler."""
    if host_engine() != "kernel":
        pytest.skip("the kernel does not build on this host")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    path = _kernel._build()
    assert path.parent == tmp_path / "daglms" and path.name.startswith("_kernel-")
    assert (path.parent.stat().st_mode & 0o777) == 0o700
    assert [p.name for p in path.parent.iterdir()] == [path.name]  # no temporary file left
    built = path.stat()
    assert _kernel._build() == path
    assert (path.stat().st_ino, path.stat().st_mtime_ns) == (built.st_ino, built.st_mtime_ns)
    monkeypatch.setattr(_kernel, "_kernel", None)
    assert _kernel.load() is not None


@pytest.mark.parametrize(
    "features, machine, level",
    [
        ({"X86_V2": True, "X86_V3": True, "X86_V4": True}, "x86_64", "-march=x86-64-v4"),
        ({"X86_V3": True, "X86_V4": True}, "AMD64", "-march=x86-64-v4"),
        ({"X86_V2": True, "X86_V3": True, "X86_V4": False}, "x86_64", "-march=x86-64-v3"),
        ({"X86_V3": True}, "AMD64", "-march=x86-64-v3"),
        ({"X86_V2": True, "X86_V3": False, "X86_V4": False}, "x86_64", None),
        ({}, "x86_64", None),
        ({"X86_V3": True, "X86_V4": True}, "aarch64", None),
        ({"ASIMD": True, "SVE": True}, "aarch64", None),
    ],
    ids=["v4", "v4-amd64", "v3", "v3-amd64", "v2", "none", "aarch64-with-x86-features", "aarch64"],
)
def test_flags_take_the_widest_x86_64_level(features, machine, level):
    """The flags add the widest x86-64 level that NumPy reports, on an x86-64 machine only,
    and always keep the baseline flags."""
    flags = _kernel._flags(features, machine)
    assert flags == (_kernel._FLAGS if level is None else (*_kernel._FLAGS, level))
    assert "-ffp-contract=off" in flags and "-ffast-math" not in flags and "-march=native" not in flags


def test_each_level_has_its_own_cache_name(monkeypatch, tmp_path):
    """The cache names each flag set apart, so a cache that two hosts share never hands one
    the other's level."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    names = {_kernel._library("cc", _kernel._flags(f, "x86_64")) for f in ({"X86_V4": True}, {"X86_V3": True}, {})}
    assert len(names) == 3 and {path.parent for path in names} == {tmp_path / "daglms"}


def test_a_compiler_without_the_level_builds_the_baseline(monkeypatch, caplog, tmp_path):
    """A compiler that rejects the level's ``-march`` (gcc before 11, clang before 12) gives
    a kernel built with the baseline flags, not the Python loop, and the reason is logged,
    then the dot that the baseline build takes."""
    if host_engine() != "kernel":
        pytest.skip("the kernel does not build on this host")
    import sysconfig

    get = sysconfig.get_config_var
    wrapper = tmp_path / "old-cc"
    wrapper.write_text(
        "#!/bin/sh\n"
        'for arg; do [ "$arg" = -march=x86-64-v4 ] && { echo "bad value for -march=" >&2; exit 1; }; done\n'
        f'exec {get("CC") or "cc"} "$@"\n'
    )
    wrapper.chmod(0o755)
    monkeypatch.setattr(sysconfig, "get_config_var", lambda name: str(wrapper) if name == "CC" else get(name))
    monkeypatch.setattr(_kernel, "_flags", lambda features, machine: (*_kernel._FLAGS, "-march=x86-64-v4"))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(_kernel, "_kernel", None)
    with caplog.at_level(logging.DEBUG, logger="daglms._kernel"):
        [trace] = assert_same_runs(sysid_scenario(), [(StepSizePolicy.nlms(0.2), make_preset("ipd"))], run_sysid)
    assert trace.engine == "kernel"
    record, choice = caplog.records
    assert "without -march=x86-64-v4" in record.getMessage() and "bad value for -march=" in record.getMessage()
    # the baseline build has no inline order: its dot products call the pointer
    assert choice.getMessage() == f"dot products through {_kernel._DDOT}: this build has no AVX-512, so no inline order"
    lib = _kernel._library(str(wrapper), _kernel._FLAGS)
    assert [path.name for path in lib.parent.iterdir()] == [lib.name]


def blas_core() -> str:
    """The name of the OpenBLAS kernel set that NumPy's ``np.dot`` runs on this CPU."""
    import ctypes

    name = ctypes.CDLL(np._core._multiarray_umath.__file__).scipy_openblas_get_corename64_
    name.restype = ctypes.c_char_p
    return name().decode()


# the levels the kernel is built at, as the feature that _kernel._flags reads for each: the
# baseline on every host, x86-64-v3 and x86-64-v4 where this CPU has them
LEVEL_FEATURES = {"baseline": None, "x86-64-v3": "X86_V3", "x86-64-v4": "X86_V4"}


@pytest.fixture(scope="module")
def level_kernel(tmp_path_factory):
    """A function from a level of :data:`LEVEL_FEATURES` to the kernel built at that level into a
    cache of its own, once, and loaded with :class:`_kernel.Kernel`, whose self-checks run; it
    skips a level that this CPU lacks."""
    if host_engine() != "kernel":
        pytest.skip("the kernel does not build on this host")
    import platform
    import sysconfig

    host = np._core._multiarray_umath.__cpu_features__
    cache, built = tmp_path_factory.mktemp("levels"), {}

    def build(level):
        feature = LEVEL_FEATURES[level]
        if feature is not None and not (host.get(feature) and platform.machine().lower() in ("x86_64", "amd64")):
            pytest.skip(f"this CPU has no {level}: NumPy reports no {feature} on {platform.machine()}")
        if level not in built:
            flags = _kernel._flags({feature: True} if feature else {}, "x86_64")
            with pytest.MonkeyPatch.context() as patch:
                patch.setenv("XDG_CACHE_HOME", str(cache))
                built[level] = _kernel.Kernel(_kernel._compile(sysconfig.get_config_var("CC") or "cc", flags))
        return built[level]

    return build


# sysid at tap counts on each side of the vector widths and ddot's kernels, every preset, and
# five gains (lms(0.2) diverges from 60 taps on, nlms(3.0) on every run), then ff_compare's runs
LEVEL_POLICIES = [StepSizePolicy.lms(0.01), StepSizePolicy.nlms(0.2), StepSizePolicy.plms(0.05),
                  StepSizePolicy.lms(0.2), StepSizePolicy.nlms(3.0)]
LEVEL_SCENARIOS = [
    *(sysid_scenario(n, 400) for n in (1, 2, 3, 7, 16, 33, 60, 61)),
    default_feedforward_scenario(duration_s=1.2, prefix_s=0.3, n_taps=60),
]
FF_POLICIES = [StepSizePolicy.lms(0.2), StepSizePolicy.nlms(0.0002), StepSizePolicy.plms(0.22)]


def level_outcomes(kernel):
    """Each run of the level matrix through ``kernel`` (None: the Python loop and filters), on
    signals that the same engine builds: the signals' bits, then per run the step and norm
    that the loop returns, the history block it leaves and its records."""
    out = []
    with mock.patch.object(_kernel, "load", return_value=kernel), warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the SPR screen of the mismatched model
        for scn in LEVEL_SCENARIOS:
            sig = sim._build_signals(scn)
            out.append([bits(getattr(sig, name)) for name in ("desired", "rev", "rev_f", "target")])
            loop = kernel.adapt if kernel else sim._adapt_loop
            policies = FF_POLICIES if scn.kind == "feedforward" else LEVEL_POLICIES
            for policy in policies:
                for name in PRESET_ORDER:
                    state = AdaptState(scn.n_adaptive_params, policy, make_preset(name))
                    trace = sim._new_trace(scn, sig, policy)
                    step, norm = loop(state, sig, trace)
                    records = [bits(getattr(trace, record)) for record in ("e0", "e_post", "param_err")]
                    out.append((scn.kind, scn.n_adaptive_params, policy, name, step, norm.hex() if step else None,
                                state.t, bits(state._hist), *records))
    return out


@pytest.fixture(scope="module")
def python_outcomes():
    return level_outcomes(None)


@pytest.mark.parametrize("level", LEVEL_FEATURES)
def test_every_level_gives_the_same_bits(level_kernel, python_outcomes, level, monkeypatch):
    """The kernel built at each x86-64 level gives the baseline build's bits and the Python
    twins', on runs (diverging ones included), on whole-signal filters of band-pass noise, on
    trace rows with and without a lead, and on real-part minima."""
    kernel, baseline = level_kernel(level), level_kernel("baseline")
    # the dot each level took: at v4 the inline order wherever it gives np.dot's bits on the
    # self-check's cases, which it does on OpenBLAS's SkylakeX kernel; the pointer without AVX-512
    if level == "x86-64-v4":
        values, cases = _kernel._dot_cases()
        inline = [kernel._dot(kernel._ddot, 1, n, values[x:].ctypes.data, values[y:].ctypes.data).hex() for x, y, n in cases]
        assert kernel._inline == (inline == [float(np.dot(values[x:x + n], values[y:y + n])).hex() for x, y, n in cases])
        assert kernel._inline or blas_core() != "SkylakeX"
    else:
        assert kernel._inline == 0
    assert sum(1 for run in python_outcomes if isinstance(run, tuple) and run[4]) >= 40  # diverged runs
    for run, want, twin in zip(level_outcomes(kernel), level_outcomes(baseline), python_outcomes, strict=True):
        assert run == want == twin, run[:6] if isinstance(run, tuple) else "signals"
    noise = daglms.gen_noise(NoiseSpec(kind="bandpass", seed=3), 20000)
    lfilter, sosfilt = engine_filters("python", monkeypatch)
    for b, a in FILTERS:
        zi = np.random.default_rng(len(b)).standard_normal(len(b) - 1)
        results = []
        for run in (kernel.lfilter, baseline.lfilter, lfilter):
            z = zi.copy()
            results.append((bits(run(b, a, noise, z)), bits(z)))
        assert results[0] == results[1] == results[2], (b, a)
    for sos in [_bandpass_sos(fs / 40, fs / 15, fs) for fs in (2500.0, 8000.0, 48000.0)]:
        assert bits(kernel.sosfilt(sos, noise)) == bits(baseline.sosfilt(sos, noise)) == bits(sosfilt(sos, noise))
    cases = _kernel._repr_cases()
    columns, window = [cases, cases, -cases], (cases[:cases.size // 5], 3, 5)
    for lead in (None, b"".join(b"%d,%d.5,\r\n" % (i, i) for i in range(cases.size))):
        rows = [bytes(entry.trace_rows(0, columns, window, lead)) for entry in (kernel, baseline)]
        assert rows[0] == rows[1] == cli._trace_rows(0, columns, window, lead)
    for num, den in _kernel._design_cases():
        for unit_pole in (False, True):
            want = [v.hex() for v in spr_design._real_part_minimum(num, den, unit_pole)]
            for entry in (kernel, baseline):
                assert [v.hex() for v in entry.real_part_minimum(num, den, unit_pole)] == want, (num, den, unit_pole)


def test_import_and_contour_leave_the_kernel_unbuilt(tmp_path):
    """``import daglms`` and ``contour`` neither build nor load the kernel; ``check`` loads it
    for its verdicts."""
    src = str(Path(daglms.__file__).resolve().parents[1])
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))),
        "XDG_CACHE_HOME": str(tmp_path / "cache"),
    }
    out = tmp_path / "out"
    code = (
        "import sys, daglms; from daglms import _kernel, cli\n"
        "assert 'hashlib' not in sys.modules\n"
        f"assert cli.main(['contour', '--d1p', '0.5', '--c1-step', '0.5', '--out', {str(out)!r}]) == 0\n"
        "assert _kernel._kernel is None\n"
        f"assert cli.main(['check', '--out', {str(out)!r}]) == 0\n"
        "assert _kernel._kernel is not None\n"  # the Kernel, or False where it cannot build
    )
    subprocess.run([sys.executable, "-c", code], check=True, env=env, capture_output=True)


def test_check_leaves_numpy_random_unloaded(tmp_path):
    """The kernel's self-checks draw their cases from the stdlib's ``random``: a ``check`` in a
    fresh process, which loads the kernel, never imports ``numpy.random``."""
    src = str(Path(daglms.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = (
        "import sys; from daglms import _kernel, cli\n"
        f"assert cli.main(['check', '--out', {str(tmp_path)!r}]) == 0\n"
        "assert _kernel._kernel is not None\n"
        "assert 'numpy.random' not in sys.modules\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True, env=env, capture_output=True)
