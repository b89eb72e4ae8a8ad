"""Closed-form sweeps against the generic root-finding sweeps and the
oracle, on seeded curvature tables and the bundled curved instances, up
to n = 1e5, unrelaxed and relaxed."""

import numpy as np
import pytest

from toppkit import (agreement_tolerance, build_model, bundled_instances,
                     capped_arc_instance, check_admissible, dp_optimum,
                     random_table_instance, relax, solve, wave_table_instance)

from conftest import plain_model

INSTANCES = {f"table_{k}": random_table_instance(k) for k in range(10)}
INSTANCES["wave_table"] = wave_table_instance()
INSTANCES["capped_arc"] = capped_arc_instance()

# Instances also compared with the generic sweeps at n = 1e5.
LARGE_GENERIC = ("table_0", "wave_table")

# Relaxation levels also compared with the generic sweeps.
RELAXED = (0.05, 1.0)


def assert_agree(fast, generic, model):
    """The generic search is exact, and the closed-form step only ever
    steps down from its root: pointwise the closed form is never above
    the generic sweeps, and at most 1e-11 * max(1, bu_max) below."""
    rel = abs(fast.traversal_time - generic.traversal_time) \
        / generic.traversal_time
    assert rel <= 1e-9, rel
    bu_max = float(np.max(model.ceiling(
        model.kappa(fast.profile.grid.points))))
    for name in ("backward", "forward"):
        gap = getattr(generic, name) - getattr(fast, name)
        assert np.all(gap >= 0.0), (name, float(gap.min()))
        assert float(gap.max()) <= 1e-11 * max(1.0, bu_max), (name, gap.max())


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_closed_form_sweeps(name):
    path = INSTANCES[name]
    model = build_model(path)
    generic = plain_model(model)

    grid = path.grid(100_001)
    fast = solve(grid, model, endpoints=path.endpoints)
    verdict = check_admissible(fast.profile, model)
    assert verdict, verdict.detail
    # Every backward step satisfies its constraint exactly, evaluated as
    # the generic step evaluates it: the guard's doing, not a tolerance's.
    s, b = grid.points, fast.backward
    fminus, _ = model.slopes(model.kappa(s[:-1]), b[:-1])
    assert np.all(b[:-1] + fminus * np.diff(s) - b[1:] <= 0.0)
    if name in LARGE_GENERIC:
        assert_agree(fast, solve(grid, generic, endpoints=path.endpoints),
                     model)

    grid = path.grid(10_001)
    for m in [model] + [relax(model, xi) for xi in RELAXED]:
        fast = solve(grid, m, endpoints=path.endpoints)
        assert check_admissible(fast.profile, m)
        assert_agree(fast, solve(grid, plain_model(m),
                                 endpoints=path.endpoints), m)

    grid = path.grid(1000)
    fast = solve(grid, model, endpoints=path.endpoints)
    oracle = dp_optimum(grid, model, levels=512, endpoints=path.endpoints)
    err = float(np.max(np.abs(oracle.values - fast.forward)))
    assert err <= agreement_tolerance(grid, model, 512)


@pytest.mark.parametrize("n", [3, 21, 201])
def test_coarse_grids(n):
    # Coarse steps often start above the ceiling of the point before
    # (kappa * h_next > f_fr), where the quadratic has no root above
    # h_next and the step is min(bu, h_next).
    paths = [random_table_instance(k) for k in range(32)]
    for path in paths + list(bundled_instances().values()):
        base = build_model(path)
        grid = path.grid(n)
        for model in [base] + [relax(base, xi) for xi in RELAXED]:
            fast = solve(grid, model, endpoints=path.endpoints)
            assert check_admissible(fast.profile, model)
            assert_agree(fast, solve(grid, plain_model(model),
                                     endpoints=path.endpoints), model)
