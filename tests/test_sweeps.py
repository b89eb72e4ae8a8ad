"""The arc-structured friction-circle sweeps against the scalar loop
they replace: equal bit for bit on the bundled and random instances,
relaxed or not, on drawn tables with every endpoint choice, on tables
with fields across the float range, where a backward root equals the
bound exactly, and where f_fr^2 (1 + (2 ds kappa)^2) overflows; and
where chain blocks form: at n = 1e5, on tables with zero-curvature runs,
on lines and arcs whose f_fr is not sqrt(f_fr^2), and on the
benchmark's scaled specs. Plus, block by block, each point a backward
block evaluates against one scalar step, the share of work that failed
chain blocks take, blocks that fail within their wait of either end of
the grid, and the traced memory of a solve at n = 1e5."""

import math
import os
import sys
import tracemalloc
from typing import Optional

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from toppkit import (PathSpec, build_model, bundled_instances,
                     random_table_instance, relax, solve,
                     wave_table_instance)
from toppkit import solver
from toppkit.core import Discretization, FrictionCircle
from toppkit.solver import _BLOCK, _CAP, _friction_sweeps

from conftest import OVERFLOWING_ROOT, WIDE, assert_ceiling_rule, plain_model

INSTANCES = dict(bundled_instances(),
                 **{f"table_{k}": random_table_instance(k) for k in range(32)})

XI = (0.0, 0.05, 1.0)

ENDS = st.one_of(st.none(), st.just(0.0), st.floats(0.0, 8.0))

KAPPA = st.one_of(st.just(0.0), st.floats(0.0, 1e-300), st.floats(1e-3, 3.0))

# A rest-to-rest table whose curvature is zero over the middle of the path.
ZERO_RUN_TABLE = PathSpec("table", 10.0, 1.0, table=(
    (0.0, 0.8), (0.3, 0.0), (0.7, 0.0), (1.0, 0.8)), endpoints=(0.0, 0.0))

# v_max binds on s in [0.404, 0.415] of the forward pass, and from the
# start to 0.415 of the backward pass: at n = 10 001, ceiling runs that
# straddle the first block edge of the run masks (index BLOCK_ROWS).
BLOCK_EDGE_RUN = PathSpec("line", math.sqrt(1.17), 1.0, length=1.0,
                          endpoints=(0.3616, 0.0))

# A curvature spike between zero runs. At n = 101, (2 ds kappa)^2 reaches
# 0.49, and a backward block that proposes a plateau brakes into the spike
# from h_next above bu[i]: the root is below bu[i] and max(h, t) binds.
CURVATURE_SPIKE = PathSpec("table", 2.4, 1.9, table=(
    (0.0, 0.0), (0.5, 35.0), (1.0, 0.0)), endpoints=(0.0, 0.25))


def scalar_sweeps(points: np.ndarray, fr: FrictionCircle,
                     h_start: Optional[float], h_end: Optional[float]):
    """The scalar loop the friction sweeps replaced, squaring by
    multiplication: one Python step per point in each pass. A backward
    step from the ceiling returns the ceiling below it whenever that
    satisfies the step, as the generic step returns a feasible bound.
    The sweeps must equal it bit for bit."""
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
        c = bu[i]
        r = f2 - (ki * c) * (ki * c)
        if h_next == bu[i + 1] and c <= h_next + cap * ds and c + (
                (-2.0 * sqrt(r) if r > 0.0 else 0.0) - xi) * ds - h_next <= 0.0:
            h = b[i] = c  # the ceiling satisfies the step from the ceiling
            continue
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


def scalar_backward_step(fr, kappa, ceiling, delta, i, h_next):
    """One step of scalar_sweeps' backward loop: the value at i, from
    h_next at i + 1 (kappa, ceiling and delta as lists of floats)."""
    f2, xi, cap = fr.f_fr * fr.f_fr, fr.xi, 2.0 * fr.f_fr + fr.xi
    sqrt = math.sqrt
    ds, ki, c = delta[i], kappa[i], ceiling[i]
    r = f2 - (ki * c) * (ki * c)
    if h_next == ceiling[i + 1] and c <= h_next + cap * ds and c + (
            (-2.0 * sqrt(r) if r > 0.0 else 0.0) - xi) * ds - h_next <= 0.0:
        return c
    t, w = h_next + xi * ds, 2.0 * ds * ki
    a = 1.0 + w * w
    if f2 * a < math.inf:
        h = (t + 2.0 * ds * sqrt(max(f2 * a - (ki * t) * (ki * t), 0.0))) / a
    else:
        kt = ki * t / a
        h = t / a + 2.0 * ds * sqrt(max(f2 / a - kt * kt, 0.0))
    h = min(max(h, t), c, h_next + cap * ds)
    r = f2 - (ki * h) * (ki * h)
    while h + ((-2.0 * sqrt(r) if r > 0.0 else 0.0) - xi) * ds - h_next > 0.0:
        h = math.nextafter(h, -math.inf)
        r = f2 - (ki * h) * (ki * h)
    return h


def braking_excess(fr, kappa, delta, i, h, h_next):
    """h + fminus(h) ds - h_next, as the scalar backward step writes it:
    the step from h to h_next holds where this is at most 0."""
    ki = kappa[i]
    r = fr.f_fr * fr.f_fr - (ki * h) * (ki * h)
    return h + ((-2.0 * math.sqrt(r) if r > 0.0 else 0.0) - fr.xi) * delta[i] - h_next


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
    for path in (*INSTANCES.values(), BLOCK_EDGE_RUN):
        points = path.grid(n).points
        for model in relaxed_models(path):
            assert_bitwise_equal(points, model,
                                 *(path.endpoints or (None, None)))


@pytest.mark.parametrize("name", ["line", "capped_line", "capped_arc"])
def test_equal_to_scalar_loop_at_1e5(name):
    """At full size, where chain blocks reach their largest size."""
    path = INSTANCES[name]
    points = path.grid(100_001).points
    for model in relaxed_models(path):
        assert_bitwise_equal(points, model, *path.endpoints)


def benchmark_specs():
    """The benchmark's instance specs, each scaled by 4**a as it scales
    them for an operation."""
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "perfbench"))
    import bench  # the benchmark's own files, only read
    ref = bench.load_reference()["instances"]
    return [PathSpec.from_json_dict(bench.scaled_spec(ref[name]["spec"], a))
            for name in sorted(ref) for a in (-1, 0, 1)]


@st.composite
def chain_specs(draw, kinds=("zero_run", "line", "arc", "benchmark")):
    """A table with a zero-curvature run between curved ends, a line or an
    arc whose f_fr is not sqrt(f_fr**2) (a square that underflows, on a
    line, or overflows), or a scaled benchmark spec."""
    kind = draw(st.sampled_from(kinds))
    if kind == "benchmark":
        return draw(st.sampled_from(BENCHMARK_SPECS))
    v_max = draw(st.floats(0.1, 3.0))
    huge = st.floats(1.35e154, 8e307)  # f_fr**2 is inf
    if kind == "line":
        f_fr = draw(st.one_of(st.floats(1e-162, 1.4e-154), huge).filter(
            lambda f: math.sqrt(f * f) != f))
        return PathSpec("line", v_max, f_fr, length=draw(st.floats(0.1, 3.0)))
    if kind == "arc":
        return PathSpec("arc", v_max, draw(huge), radius=draw(st.floats(0.2, 5.0)),
                        angle=draw(st.floats(0.1, 6.0)))
    f_fr = draw(st.floats(0.1, 3.0))
    kappa = (draw(st.lists(st.floats(1e-3, 3.0), min_size=1, max_size=3))
             + [0.0] * draw(st.integers(2, 4))
             + draw(st.lists(st.floats(1e-3, 3.0), min_size=1, max_size=3)))
    s = np.cumsum(draw(st.lists(st.floats(0.01, 1.0), min_size=len(kappa),
                                max_size=len(kappa)))).tolist()
    return PathSpec("table", v_max, f_fr, table=tuple(zip(s, kappa)))


BENCHMARK_SPECS = benchmark_specs()


@given(path=chain_specs(), n=st.integers(2, 6000), data=st.data())
@settings(max_examples=100, deadline=None)
def test_equal_where_chains_form(path, n, data):
    """Bit for bit the scalar loop on the inputs that form chain blocks,
    with each end free, at rest or drawn, or as the spec gives it."""
    ends = st.one_of(st.just(path.endpoints or (None, None)),
                     st.tuples(ENDS, ENDS))
    points = path.grid(n).points
    for model in relaxed_models(path):
        assert_bitwise_equal(points, model, *data.draw(ends))


def copied_backward_points(monkeypatch, path, n, ends):
    """Sweep path at n points between ends, relaxed by each xi, and assert
    that every point a backward block copies is one scalar backward step
    from the point after it, and that every value the block's step gives
    that satisfies its step is that scalar step too, copied or not; return
    how many points the blocks copied."""
    points = path.grid(n).points
    delta = np.diff(points).tolist()
    copied = 0
    chain = solver._chain

    def checked(step, out, j, h, inc):
        nonlocal copied
        p = chain(step, out, j, h, inc)
        if step.__name__ == "back":
            hn = np.add.accumulate(np.concatenate(([h], inc)))[:-1]
            for i, h_next, got in zip(j.tolist(), hn.tolist(),
                                      step(j, hn).tolist()):
                if braking_excess(model, kappa, delta, i, got, h_next) <= 0.0:
                    want = scalar_backward_step(model, kappa, ceiling, delta,
                                                i, h_next)
                    assert got.hex() == want.hex(), (i, got, want)
            for i in j[:p].tolist():
                want = scalar_backward_step(model, kappa, ceiling, delta, i,
                                            float(out[i + 1]))
                assert out[i].hex() == want.hex(), (i, out[i], want)
            copied += p
        return p

    monkeypatch.setattr(solver, "_chain", checked)
    for model in relaxed_models(path):
        kappa = model.kappa(points)
        ceiling = model.ceiling(kappa).tolist()
        kappa = kappa.tolist()
        _friction_sweeps(points, model, *ends)
    return copied


@pytest.mark.parametrize("path, n, forms", [
    (INSTANCES["line"], 100_001, True), (INSTANCES["capped_line"], 100_001, True),
    (INSTANCES["capped_arc"], 100_001, True), (ZERO_RUN_TABLE, 10_001, True),
    (CURVATURE_SPIKE, 101, False),
    *((spec, 10_001, k == "arc") for k, spec in OVERFLOWING_ROOT.items())],
    ids=["line", "capped_line", "capped_arc", "zero_run_table", "curvature_spike",
         *(f"overflowing_root_{k}" for k in OVERFLOWING_ROOT)])
def test_each_copied_backward_point_is_one_scalar_step(monkeypatch, path, n, forms):
    """Block by block, not only in aggregate: a backward block copies a
    point only where it equals the scalar step from the point after it,
    and its step equals the scalar step wherever it satisfies the step.
    (forms: some backward block copies a point.)"""
    copied = copied_backward_points(monkeypatch, path, n, path.endpoints)
    assert (copied > 0) == forms


@given(path=chain_specs(("line", "arc")), n=st.integers(2, 6000),
       ends=st.tuples(ENDS, ENDS))
@settings(max_examples=100, deadline=None)
def test_each_copied_backward_point_is_one_scalar_step_where_chains_form(
        path, n, ends):
    """The same on the lines and arcs of test_equal_where_chains_form."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        copied_backward_points(monkeypatch, path, n, ends)


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


@st.composite
def extreme_tables(draw):
    """A table spec with fields from 1e-300 to near the largest float,
    each end free, at rest or at a positive squared speed; only specs
    that PathSpec accepts are kept."""
    s = sorted(draw(st.lists(WIDE, min_size=2, max_size=5, unique=True)))
    kappa = st.one_of(st.just(0.0), WIDE)
    ends = st.one_of(st.none(), st.just(0.0), WIDE)
    try:
        return PathSpec("table", draw(WIDE.filter(lambda v: v * v < math.inf)),
                        draw(WIDE.filter(lambda f: 2.0 * f < math.inf
                                         and f * f >= sys.float_info.min)),
                        table=tuple((x, draw(kappa)) for x in s),
                        endpoints=draw(st.tuples(ends, ends)))
    except ValueError:
        assume(False)


@given(path=extreme_tables(),
       n=st.one_of(st.integers(2, 12), st.sampled_from((101, 1001))))
@settings(max_examples=300, deadline=None)
def test_equal_on_extreme_tables(path, n):
    """Bit for bit the scalar loop, and the ceiling rule of the generic
    sweep, where roots and squares round at the ends of the float range."""
    try:
        grid = path.grid(n)
    except ValueError:  # n points do not fit in a span of a few floats
        assume(False)
    for model in relaxed_models(path):
        assert_bitwise_equal(grid.points, model, *path.endpoints)
        assert_ceiling_rule(
            grid.points, model,
            _friction_sweeps(grid.points, model, *path.endpoints)[0],
            solve(grid, plain_model(model), endpoints=path.endpoints).backward)


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


# Two-point steps whose min or max meets a tie: (f_fr, vmax2, kappa at
# both points, ds, h_start, h_end). Each curvature is nonzero and h_end
# is below bu[1], so both passes take their one scalar step.
TIES = {
    # kappa t rounds to 1 and a to 1: the root is t itself, below bu[0]
    "root-on-t": (1.0, 1e12, (1e-9, 1e-9), 1.0, None,
                  math.nextafter(1.0 / 1e-9, 0.0)),
    # test_root_equal_to_the_bound_is_copied's step from h_next = 1/k1,
    # here an end cap below bu[1]: the root is bu[0] = vmax2
    "root-on-bu": (1.0, 0.8141371728816146, (0.8566282100258467, 1e-300),
                   0.3246814003821313, None, 1.0 / 2.867312758432948),
    # kappa t is 0 to the floats and sqrt(f2) is f: the root is
    # h_next + slope_cap ds
    "root-on-reach": (1.0, 10.0, (1e-200, 1e-200), 1.0, None, 1.0),
    # the forward reach from rest, 2 f ds, is backward[1] = h_end
    "reach-on-backward": (1.0, 10.0, (1e-200, 1e-200), 1.0, 0.0, 2.0),
}


@pytest.mark.parametrize("name", sorted(TIES))
def test_ties_equal_the_scalar_loop(name):
    """The sweeps compare where the scalar loop calls min and max: on a
    tie both keep the same float."""
    f, vmax2, kappa, ds, h_start, h_end = TIES[name]
    fr = FrictionCircle(f, vmax2, lambda s: np.interp(s, [0.0, ds], kappa))
    points = np.array([0.0, ds])
    bu0, bu1 = fr.ceiling(fr.kappa(points))
    assert h_end < bu1
    # the backward step's terms in scalar_sweeps' floats, before the clip
    t, w = h_end + fr.xi * ds, 2.0 * ds * kappa[0]
    a, kt = 1.0 + w * w, kappa[0] * t
    root = (t + 2.0 * ds * math.sqrt(max(f * f * a - kt * kt, 0.0))) / a
    reach = h_end + fr.slope_cap * ds
    backward, forward = _friction_sweeps(points, fr, h_start, h_end)
    if name == "root-on-t":
        assert root == t < bu0 and backward[0] == t
    elif name == "root-on-bu":
        assert t < root == bu0 == vmax2 < reach
    elif name == "root-on-reach":
        assert root == reach < bu0 and backward[0] == reach
    else:
        assert h_start + 2.0 * f * ds == forward[1] == backward[1] == h_end
        assert h_end < backward[0]
    assert_bitwise_equal(points, fr, h_start, h_end)


def test_overflowing_reach_equal_without_warning():
    """cap * ds and the slope times ds overflow to inf in the arrays, as in
    the scalar floats, and warn nowhere (pytest turns warnings into errors)."""
    path = PathSpec("arc", 2.5e69, 4.56e126, radius=6.05e132, angle=6.2e79)
    for n in (2, 12):
        points = path.grid(n).points
        assert 2.0 * path.f_fr * float(points[1] - points[0]) == math.inf
        for model in relaxed_models(path):
            assert_bitwise_equal(points, model, None, None)


def test_overflowing_root_below_the_bound_is_copied():
    """f2 * a overflows. bu[0] = vmax2 brakes to bu[1], but the root, scaled
    by 1/a first, is the float below vmax2. The step starts on the ceiling
    and vmax2 satisfies it, so the sweep returns vmax2, as the generic step
    returns its feasible bound."""
    f, ds, k0, k1 = 6.455753159714882e153, 3.6363117269686107, \
        7.723440996633454, 58.10094088679837
    vmax2 = 8.357653230333442e152
    a = 1.0 + (2.0 * ds * k0) * (2.0 * ds * k0)
    assert f * f * a == math.inf
    t = f / k1
    kt = k0 * t / a
    assert t / a + 2.0 * ds * math.sqrt(f * f / a - kt * kt) \
        == math.nextafter(vmax2, 0.0)
    points = np.array([0.0, ds])
    fr = FrictionCircle(f, vmax2, lambda s: np.interp(s, [0.0, ds], [k0, k1]))
    assert list(fr.ceiling(fr.kappa(points))) == [vmax2, t]
    assert fr.fminus(0.0, vmax2) * ds + vmax2 <= t
    backward = _friction_sweeps(points, fr, None, None)[0]
    assert backward[0] == vmax2
    generic = solve(Discretization(points), plain_model(fr))
    assert list(generic.backward) == list(backward)
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


def test_chain_copies_finite_matches_only():
    """A block's verified prefix stops at its first inf or NaN, even where
    the step reproduces it."""
    for bad in (math.inf, math.nan):
        inc = np.array([1.0, 1.0, bad, 1.0])
        out, j = np.zeros(4), np.arange(4)
        assert solver._chain(lambda j, prev: prev + inc, out, j, 0.0, inc) == 2
        assert list(out) == [1.0, 2.0, 0.0, 0.0]


@pytest.mark.parametrize("path", [INSTANCES["line"], ZERO_RUN_TABLE],
                         ids=["line", "zero_run_table"])
def test_failed_blocks_take_a_bounded_share(monkeypatch, path):
    """Relaxed by 0.05 at n = 1e5. A failed block doubles the wait before
    the next one, up to _CAP points, so a pass fails at most
    log2(_CAP / _BLOCK) times plus once per _CAP points, and each failure
    wastes at most the block it proposed: a bounded share of the scalar
    steps between failures. (Retrying every 16 scalar steps would fail
    once per 16 steps of the table's curved ends.)"""
    blocks = []
    chain = solver._chain

    def counted(step, out, j, h, inc):
        p = chain(step, out, j, h, inc)
        blocks.append((inc.size, p))
        return p

    monkeypatch.setattr(solver, "_chain", counted)
    n = 100_001
    _friction_sweeps(path.grid(n).points, relax(build_model(path), 0.05),
                     *path.endpoints)
    failed = [size - p for size, p in blocks if p < size]
    assert sum(p for _, p in blocks) > n // 10  # the forward sums verify
    assert len(failed) <= 2 * (math.log2(_CAP / _BLOCK) + 1 + n / _CAP)
    assert sum(failed) <= n / 16


# Lines with ceiling v_max^2 = 1.97 at n = 1 001, where a zero-curvature
# step adds 0.002: braking to rest at the end, the backward sums meet the
# ceiling at index 15; accelerating from rest, the forward sums at 985.
NEAR_AN_END = {"backward": PathSpec("line", math.sqrt(1.97), 1.0, length=1.0,
                                    endpoints=(None, 0.0)),
               "forward": PathSpec("line", math.sqrt(1.97), 1.0, length=1.0,
                                   endpoints=(0.0, None))}


@pytest.mark.parametrize("name", sorted(NEAR_AN_END))
def test_block_failing_near_the_end_of_its_pass(monkeypatch, name):
    """A failed block waits at least 2 * _BLOCK points before the next, so
    one that fails at index 15 backward, or 985 of 1 001 forward, waits
    past the end of the grid, and only the pass's own loop bound stops it
    there. The pass still equals the scalar loop bit for bit."""
    blocks = []
    chain = solver._chain

    def counted(step, out, j, h, inc):
        p = chain(step, out, j, h, inc)
        blocks.append((out, j, p))
        return p

    monkeypatch.setattr(solver, "_chain", counted)
    path, n = NEAR_AN_END[name], 1_001
    got = dict(zip(("backward", "forward"), _friction_sweeps(
        path.grid(n).points, build_model(path), *path.endpoints)))
    failed = [int(j[p]) for out, j, p in blocks if out is got[name] and p < j.size]
    wait = 2 * _BLOCK  # the least wait after a failed block
    assert any(i - wait < -1 if name == "backward" else i + wait > n for i in failed)
    assert_bitwise_equal(path.grid(n).points, build_model(path), *path.endpoints)


@pytest.mark.parametrize("path", [random_table_instance(0),
                                  wave_table_instance(),
                                  INSTANCES["line"], INSTANCES["capped_arc"]],
                         ids=["table_0", "wave_table", "line", "capped_arc"])
def test_solve_memory_at_1e5(path):
    # 6 float arrays of n. The traced peak is 5.35 to 5.65 of them: kappa,
    # ds, the ceiling and both passes, plus block-sized temporaries and
    # (most on wave_table) the runs' stops. Whole-grid temporaries in the
    # run masks and the knot times took it to 10.7, stops built two or
    # three times over to 6.2, and a whole-grid ceiling mask held through
    # the sweeps to 5.8.
    n = 100_001
    model, grid = build_model(path), path.grid(n)
    tracemalloc.start()
    try:
        solve(grid, model, endpoints=path.endpoints)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 8 * n, peak
