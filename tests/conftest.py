from dataclasses import replace

import numpy as np
import pytest

from toppkit import (Discretization, DynamicsModel, build_model,
                     circle_instance, line_instance)
from toppkit.core import FrictionCircle


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
