import signal
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import strategies as st

from toppkit import (AdmissibilityReport, Discretization, DynamicsModel,
                     PathSpec, build_model, circle_instance, line_instance)
from toppkit.core import FrictionCircle


class TimeLimitExceeded(BaseException):
    """Raised in a test still running at the ini value ``test_time_limit``.
    Not an Exception, so hypothesis reports it at once instead of
    shrinking an example that may hang again."""


def pytest_addoption(parser):
    parser.addini("test_time_limit", "seconds after which a running test fails",
                  default="120")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    """Fail a test that runs past ``test_time_limit`` (a loop whose exit
    broke), so the session goes on to the next test."""
    limit = float(item.config.getini("test_time_limit"))

    def expire(signum, frame):
        raise TimeLimitExceeded(f"test still running after {limit:g} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


# Specs where f_fr^2 (1 + (2 ds kappa)^2) overflows although f_fr^2 does
# not, on coarse grids (the first arc at n = 3 and 11, not at 101). An
# unscaled backward root is inf there, and the step walked down from the
# ceiling one float at a time (2.7e14 floats on the first arc at n = 3).
OVERFLOWING_ROOT = {
    "arc": PathSpec("arc", 1.2e154, 1.3e154, radius=1e150, angle=3.0,
                    endpoints=(0.0, 0.0)),
    "tight_arc": PathSpec("arc", 4.157066642480439e100, 8.42783372521783e152,
                          radius=5.739623577631826e-36,
                          angle=713.3794335319024, endpoints=(None, 0.0)),
    "table": PathSpec("table", 2.00499115952519e83, 4.7676174936281655e153,
                      table=((0.0, 1806673202564373.0),
                             (1.8441716739144724e-13, 3437359248916668.0)),
                      endpoints=(0.0, 0.0)),
}


def magnitudes(lo, hi):
    """A positive number m * 10**e with m in [1, 1.79] and e in [lo, hi]."""
    return st.builds(lambda m, e: m * 10.0 ** e, st.floats(1.0, 1.79),
                     st.integers(lo, hi))


# A positive number between 1e-300 and 1.79e308, near the largest float.
WIDE = magnitudes(-300, 308)
# WIDE, or a span-forming field within a factor 18 of the largest float,
# where 2 * span overflows: the hole a 1e308 line left at n = 2.
LONG = st.one_of(WIDE, st.floats(1e307, 1.79e308))


def failed_check(profile, model, tol=None):
    """A stand-in for check_admissible that rejects every profile, to
    show that a self-check raises when its check fails."""
    return AdmissibilityReport(False, 0, "above_upper_bound", "forced")


@pytest.fixture
def line_path():
    return line_instance()


@pytest.fixture
def circle_path():
    return circle_instance()


@pytest.fixture
def line_model(line_path):
    return build_model(line_path)


@pytest.fixture
def grid3():
    return Discretization(np.array([0.0, 0.5, 1.0]))


@pytest.fixture
def pinched_bounds_model():
    """Constant slope window +-2 with the ceiling pinched to 0 at both ends."""
    def bu(s):
        return float(np.interp(s, [0.0, 0.5, 1.0], [0.0, 100.0, 0.0]))

    return DynamicsModel(
        fplus=lambda s, h: 2.0,
        fminus=lambda s, h: -2.0,
        bu=bu,
        bl=lambda s: 0.0,
        slope_cap=2.0,
    )


def constant_box_model(c, f_lo=-1.0, f_hi=1.0):
    """bu == bl == c; slope window [f_lo, f_hi]."""
    return DynamicsModel(
        fplus=lambda s, h: f_hi,
        fminus=lambda s, h: f_lo,
        bu=lambda s: c,
        bl=lambda s: c,
        slope_cap=max(abs(f_lo), abs(f_hi)),
    )


def plain_model(model):
    """The same scalar bounds as a callable model, so solves and checks
    of it take the generic callable path."""
    return DynamicsModel(fplus=model.fplus, fminus=model.fminus,
                         bu=model.bu, bl=model.bl,
                         slope_cap=model.slope_cap, xi=model.xi)


def _forbidden(*args):
    raise AssertionError("model callable called")


class _BlindCircle(FrictionCircle):
    """A friction circle whose scalar bounds fail the test when called."""

    fplus = fminus = bu = bl = _forbidden


def blind_model(model):
    """The same model with scalar bounds that fail the test when called:
    of a friction circle only the arrays can be read, of a callable
    model only its caps."""
    if isinstance(model, FrictionCircle):
        return _BlindCircle(model.f_fr, model.vmax2, model.kappa, model.xi)
    return replace(model, fplus=_forbidden, fminus=_forbidden,
                   bu=_forbidden, bl=_forbidden)


@np.errstate(over="ignore", invalid="ignore")  # as in the sweeps' arrays
def assert_ceiling_rule(points, model, *backwards):
    """A backward step from the ceiling bu[i+1] returns bu[i] whenever
    bu[i] satisfies it: bu[i] + fminus(bu[i]) ds <= bu[i+1] and
    bu[i] <= bu[i+1] + slope_cap ds. Checked where every sweep given
    stands on bu[i+1]."""
    kappa, ds = model.kappa(points), np.diff(points)
    bu = model.ceiling(kappa)
    c0, c1 = bu[:-1], bu[1:]
    on = (c0 + model.slopes(kappa[:-1], c0)[0] * ds - c1 <= 0.0) \
        & (c0 <= c1 + model.slope_cap * ds)
    for b in backwards:
        on &= b[1:] == c1
    for b in backwards:
        assert np.array_equal(b[:-1][on], c0[on]), \
            np.flatnonzero(on)[b[:-1][on] != c0[on]]
