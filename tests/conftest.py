import numpy as np
import pytest

import mfckill as mk
from mfckill.controls import FeedbackControl


@pytest.fixture(scope="session")
def lq_spec():
    return mk.validate_model(mk.make_model("lq_killing"))


@pytest.fixture(scope="session")
def small_grid():
    return mk.build_grid(-4.0, 4.0, 101, 2.4, 16, 100)


@pytest.fixture(scope="session")
def lq_mfc(lq_spec):
    """Converged control solve shared by the optimality tests."""
    from mfckill.mfc import solve_mfc

    grid = mk.build_grid(-4.0, 4.0, 161, 2.4, 20, 160)
    res = solve_mfc(lq_spec, grid, with_2d=True)
    assert res.diagnostics["converged"]
    return grid, res


def tanh_feedback(grid, spec, scale=0.5):
    gv = np.clip(-scale * np.tanh(grid.x), *spec.control_box)
    return FeedbackControl.from_array(np.tile(gv, (grid.nt + 1, 1)), spec)
