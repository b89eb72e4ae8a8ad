"""Metamorphic referees: relations between the solves of related
problems, which hold without a closed form.

Scaling. A power of two scales every float the planner forms exactly,
as long as each stays normal. With f_fr, xi and the endpoint squared
speeds times 4**a and v_max times 2**a, the backward pass, the profile
and the oracle's profile scale by 4**a, and the traversal time by 2**-a.
With positions, lengths, radii and endpoint squared speeds times
c = 4**k, table curvatures divided by c and v_max times 2**k, the passes
scale by c and the time by 2**k. Both are checked bit for bit.

Reversal. A path driven backwards, with its ends swapped, takes the same
time in the limit. The discrete problem evaluates each slope window at
a segment's left end, so the two times differ at first order in the
spacing: their gap shows convergence without a closed form.
"""

import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from toppkit import (bundled_instances, build_model, dp_optimum,
                     random_table_instance, relax, solve, wave_table_instance)

from conftest import magnitudes

BASES = (*bundled_instances().values(),
         *(random_table_instance(k) for k in range(16)))
# A slice of WIDE whose floats keep room to scale by 4**5 and 4**-3.
MID = magnitudes(-150, 150)
# Relaxation levels, as multiples of f_fr: none, once, twice.
RELAXED = st.sampled_from(((), (0.25,), (0.3, 0.7)))
SIZES = st.one_of(st.integers(2, 60), st.sampled_from((201, 1_001)))


@st.composite
def specs(draw):
    """A bundled instance or a seeded table, as it is or with its limits
    redrawn from MID; only specs that PathSpec accepts are kept."""
    path = draw(st.sampled_from(BASES))
    if draw(st.booleans()):
        try:
            path = replace(path, v_max=draw(MID), f_fr=draw(MID))
        except ValueError:
            assume(False)
    return path


def _times(endpoints, q):
    return None if endpoints is None else tuple(
        None if h is None else h * q for h in endpoints)


def scaled_limits(path, a):
    q = 4.0 ** a
    return replace(path, f_fr=path.f_fr * q, v_max=path.v_max * 2.0 ** a,
                   endpoints=_times(path.endpoints, q))


def scaled_positions(path, k):
    c = 4.0 ** k
    if path.kind == "table":
        fields = {"table": tuple((s * c, kappa / c) for s, kappa in path.table)}
    else:
        key = "length" if path.kind == "line" else "radius"
        fields = {key: getattr(path, key) * c}
    return replace(path, v_max=path.v_max * 2.0 ** k,
                   endpoints=_times(path.endpoints, c), **fields)


def accepted(scaling, path, power):
    """The scaled spec, or the draw assumed away where PathSpec rejects it
    (its range rule, near the largest float)."""
    try:
        return scaling(path, power)
    except ValueError:
        assume(False)


def plan(path, n, xis):
    """(traversal time, backward, profile, oracle profile or None) of the
    path's model relaxed by each of ``xis`` in turn; the oracle runs up
    to n = 201."""
    model = build_model(path)
    for xi in xis:
        model = relax(model, xi)
    grid = path.grid(n)
    report = solve(grid, model, endpoints=path.endpoints)
    oracle = dp_optimum(grid, model, endpoints=path.endpoints).values \
        if n <= 201 else None
    return report.traversal_time, report.backward, report.forward, oracle


@np.errstate(over="ignore")
def normal(q, *arrays):
    """Every nonzero float of the arrays is normal, and so is its image
    times q: a power of two scales a normal float exactly."""
    x = np.abs(np.concatenate([np.ravel(a) for a in arrays if a is not None]))
    x = x[x != 0.0]
    return bool(np.all((np.minimum(x, q * x) >= sys.float_info.min)
                       & (np.maximum(x, q * x) < math.inf)))


def assert_scaled(got, want, q, t_factor):
    """The arrays of ``got`` are q times those of ``want``, bit for bit,
    and its time is t_factor times the time of ``want``."""
    (t, *arrays), (t0, *base) = got, want
    assert t == t_factor * t0
    for x, x0 in zip(arrays, base):
        if x0 is not None:
            assert np.array_equal(x.view(np.int64), (q * x0).view(np.int64))


@given(path=specs(), n=SIZES, a=st.sampled_from((-3, -1, 1, 2, 5)),
       relaxed=RELAXED)
@settings(max_examples=60, deadline=None)
def test_limit_scaling_is_exact(path, n, a, relaxed):
    scaled = accepted(scaled_limits, path, a)
    base = plan(path, n, [u * path.f_fr for u in relaxed])
    assume(normal(4.0 ** a, *base[1:], path.f_fr ** 2))
    got = plan(scaled, n, [u * scaled.f_fr for u in relaxed])
    assert_scaled(got, base, 4.0 ** a, 2.0 ** -a)


@given(path=specs(), n=SIZES, k=st.sampled_from((-1, 1, 2)),
       relaxed=RELAXED)
@settings(max_examples=60, deadline=None)
def test_position_scaling_is_exact(path, n, k, relaxed):
    scaled = accepted(scaled_positions, path, k)
    xis = [u * path.f_fr for u in relaxed]
    base = plan(path, n, xis)
    assume(normal(4.0 ** k, *base[1:], path.f_fr ** 2))
    assert_scaled(plan(scaled, n, xis), base, 4.0 ** k, 2.0 ** k)


def reversed_path(path):
    """The table path driven from its end: s becomes a + b - s and the
    endpoints swap."""
    a, b = path.domain
    return replace(path, table=tuple((a + b - s, kappa)
                                     for s, kappa in reversed(path.table)),
                   endpoints=None if path.endpoints is None
                   else path.endpoints[::-1])


@pytest.mark.parametrize("path", [wave_table_instance(),
                                  *(random_table_instance(k) for k in (0, 1, 4))],
                         ids=["wave_table", "table_0", "table_1", "table_4"])
def test_reversal_gap_is_first_order(path):
    back = reversed_path(path)
    gaps = []
    for n in (1_001, 10_001, 100_001):
        t = solve(path.grid(n), build_model(path), endpoints=path.endpoints)
        r = solve(back.grid(n), build_model(back), endpoints=back.endpoints)
        gaps.append(abs(t.traversal_time - r.traversal_time) / t.traversal_time)
    assert gaps[0] > 0.0  # the reversal is not a symmetry of the grid problem
    assert gaps[0] >= 8.0 * gaps[1] and gaps[1] >= 8.0 * gaps[2], gaps
