"""The arc-structured friction-circle sweeps against the scalar loop
they replace: equal bit for bit on the bundled and random instances,
relaxed or not, on drawn tables with every endpoint choice, where a
backward root equals the bound exactly, and where f_fr^2 (1 + (2 ds
kappa)^2) overflows. Plus the traced memory of a solve at n = 1e5."""

import math
import tracemalloc
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toppkit import (PathSpec, build_model, bundled_instances,
                     random_table_instance, relax, solve,
                     wave_table_instance)
from toppkit.core import FrictionCircle
from toppkit.solver import _friction_sweeps

from conftest import OVERFLOWING_ROOT

INSTANCES = dict(bundled_instances(),
                 **{f"table_{k}": random_table_instance(k) for k in range(32)})

XI = (0.0, 0.05, 1.0)

ENDS = st.one_of(st.none(), st.just(0.0), st.floats(0.0, 8.0))

KAPPA = st.one_of(st.just(0.0), st.floats(0.0, 1e-300), st.floats(1e-3, 3.0))


def scalar_sweeps(points: np.ndarray, fr: FrictionCircle,
                     h_start: Optional[float], h_end: Optional[float]):
    """The scalar loop the friction sweeps replaced, squaring by
    multiplication: one Python step per point in each pass. The sweeps
    must equal it bit for bit."""
    kappa = fr.kappa(points)
    # Lists read fastest; bu and the results stay arrays to keep memory low.
    bu = memoryview(fr.ceiling(kappa))
    k, d = kappa.tolist(), np.diff(points).tolist()
    f2, xi, cap = fr.f_fr * fr.f_fr, fr.xi, 2.0 * fr.f_fr + fr.xi
    sqrt = math.sqrt  # a local name: read on every step of both loops
    n = len(k)
    backward, forward = np.empty(n), np.empty(n)
    b, fw = memoryview(backward), memoryview(forward)
    h = b[n - 1] = bu[n - 1] if h_end is None else min(bu[n - 1], h_end)
    for i in range(n - 2, -1, -1):
        h_next, ds, ki = h, d[i], k[i]
        t, w = h_next + xi * ds, 2.0 * ds * ki
        a = 1.0 + w * w
        if f2 * a < math.inf:
            h = (t + 2.0 * ds * sqrt(max(f2 * a - (ki * t) * (ki * t), 0.0))) / a
        else:  # f2 * a overflows: the same root, scaled by 1/a first
            kt = ki * t / a
            h = t / a + 2.0 * ds * sqrt(max(f2 / a - kt * kt, 0.0))
        h = min(max(h, t), bu[i], h_next + cap * ds)
        r = f2 - (ki * h) * (ki * h)
        while h + ((-2.0 * sqrt(r) if r > 0.0 else 0.0) - xi) * ds \
                - h_next > 0.0:
            h = math.nextafter(h, -math.inf)
            r = f2 - (ki * h) * (ki * h)
        b[i] = h
    h = fw[0] = b[0] if h_start is None else min(b[0], h_start)
    for i in range(1, n):
        kh = k[i - 1] * h
        r = f2 - kh * kh
        h = fw[i] = min(b[i], h + (
            (2.0 * sqrt(r) if r > 0.0 else 0.0) + xi) * d[i - 1])
    return backward, forward


def assert_bitwise_equal(points, fr, h_start, h_end):
    got = _friction_sweeps(points, fr, h_start, h_end)
    want = scalar_sweeps(points, fr, h_start, h_end)
    for name, g, w in zip(("backward", "forward"), got, want):
        bad = np.flatnonzero(g.view(np.int64) != w.view(np.int64))
        assert bad.size == 0, (name, bad[:5], g[bad[:5]], w[bad[:5]])


def relaxed_models(path):
    model = build_model(path)
    return [relax(model, xi) if xi else model for xi in XI]


@pytest.mark.parametrize("n", [2, 3, 21, 201, 1_001, 10_001])
def test_equal_to_scalar_loop(n):
    for path in INSTANCES.values():
        points = path.grid(n).points
        for model in relaxed_models(path):
            assert_bitwise_equal(points, model,
                                 *(path.endpoints or (None, None)))


@given(rows=st.lists(st.tuples(st.floats(0.01, 1.0), KAPPA),
                     min_size=2, max_size=6),
       v_max=st.floats(0.1, 3.0), f_fr=st.floats(0.1, 3.0),
       n=st.integers(2, 300), h_start=ENDS, h_end=ENDS)
@settings(max_examples=150, deadline=None)
def test_equal_on_drawn_tables(rows, v_max, f_fr, n, h_start, h_end):
    s = np.cumsum([gap for gap, _ in rows]).tolist()
    path = PathSpec("table", v_max, f_fr,
                    table=tuple(zip(s, (k for _, k in rows))))
    points = path.grid(n).points
    for model in relaxed_models(path):
        assert_bitwise_equal(points, model, h_start, h_end)


def test_root_equal_to_the_bound_is_copied():
    """One braking step from bu[1] = 1/k1 whose root is exactly vmax2.
    With bu[0] = vmax2, the array decision and the scalar step square
    alike, so the step is a run and the sweep returns bu[0]. With a
    higher ceiling, the scalar step returns the root itself; squaring
    with ``**`` (libm ``pow``) would give the float below."""
    k0, ds, k1 = 0.8566282100258467, 0.3246814003821313, 2.867312758432948
    vmax2 = 0.8141371728816146
    t, w = 1.0 / k1, 2.0 * ds * k0
    assert (t + 2.0 * ds * math.sqrt(1.0 + w * w - (k0 * t) * (k0 * t))) \
        / (1.0 + w * w) == vmax2
    points = np.array([0.0, ds])
    for ceiling in (vmax2, 1.0):
        fr = FrictionCircle(1.0, ceiling,
                            lambda s: np.interp(s, [0.0, ds], [k0, k1]))
        assert list(fr.ceiling(fr.kappa(points))) == [ceiling, t]
        assert _friction_sweeps(points, fr, None, None)[0][0] == vmax2
        assert_bitwise_equal(points, fr, None, None)


def test_overflowing_reach_equal_without_warning():
    """cap * ds and the slope times ds overflow to inf in the arrays, as in
    the scalar floats, and warn nowhere (pytest turns warnings into errors)."""
    path = PathSpec("arc", 2.5e69, 4.56e126, radius=6.05e132, angle=6.2e79)
    for n in (2, 12):
        points = path.grid(n).points
        assert 2.0 * path.f_fr * float(points[1] - points[0]) == math.inf
        for model in relaxed_models(path):
            assert_bitwise_equal(points, model, None, None)


def test_overflowing_root_below_the_bound_is_not_copied():
    """f2 * a overflows. bu[0] = vmax2 brakes to bu[1], but the root, scaled
    by 1/a first, is the float below vmax2: the scalar step returns it, so
    the run decision must take the scaled root too and not copy bu[0]."""
    f, ds, k0, k1 = 6.455753159714882e153, 3.6363117269686107, \
        7.723440996633454, 58.10094088679837
    vmax2 = 8.357653230333442e152
    a = 1.0 + (2.0 * ds * k0) * (2.0 * ds * k0)
    assert f * f * a == math.inf
    points = np.array([0.0, ds])
    fr = FrictionCircle(f, vmax2, lambda s: np.interp(s, [0.0, ds], [k0, k1]))
    assert list(fr.ceiling(fr.kappa(points))) == [vmax2, f / k1]
    assert fr.fminus(0.0, vmax2) * ds + vmax2 <= f / k1
    assert _friction_sweeps(points, fr, None, None)[0][0] \
        == math.nextafter(vmax2, 0.0)
    assert_bitwise_equal(points, fr, None, None)


@pytest.mark.parametrize("path", OVERFLOWING_ROOT.values(),
                         ids=OVERFLOWING_ROOT.keys())
@pytest.mark.parametrize("n", [3, 11, 101])
def test_overflowing_root_equal(path, n):
    """Where f2 * a overflows, the arrays and the scalar loop both take
    the root scaled by 1/a first."""
    points = path.grid(n).points
    for model in relaxed_models(path):
        assert_bitwise_equal(points, model, *path.endpoints)


@pytest.mark.parametrize("path", [random_table_instance(0),
                                  wave_table_instance()],
                         ids=["table_0", "wave_table"])
def test_solve_memory_at_1e5(path):
    # 12 float arrays of n: the traced peak of the scalar loop's solve,
    # which held kappa and ds as lists of Python floats
    n = 100_001
    model, grid = build_model(path), path.grid(n)
    tracemalloc.start()
    try:
        solve(grid, model, endpoints=path.endpoints)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 8 * n, peak
