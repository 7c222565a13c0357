from dataclasses import replace

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st

from pillar_qed import SystemParams

hypothesis.settings.register_profile(
    "default", deadline=None, max_examples=100, derandomize=True
)
hypothesis.settings.load_profile("default")

# fitted device constants used throughout (ueV)
DEVICE = dict(g=9.4, kappa_top=1.2, kappa_side=24.7, gamma=5.0, omega_c=1333596.0)


@pytest.fixture
def device_params() -> SystemParams:
    return SystemParams(**DEVICE)


@pytest.fixture
def empty_params(device_params) -> SystemParams:
    """The device's empty cavity: the same parameters with g = 0."""
    return replace(device_params, g=0.0)


def rates():
    return st.floats(min_value=0.0, max_value=50.0, allow_nan=False, allow_infinity=False)


def positive_rates(min_value=0.05):
    return st.floats(min_value=min_value, max_value=50.0, allow_nan=False, allow_infinity=False)


def system_params(omega_min=1e3, omega_max=2e6):
    return st.builds(
        SystemParams,
        g=rates(),
        kappa_top=positive_rates(),
        kappa_side=rates(),
        gamma=rates(),
        omega_c=st.floats(min_value=omega_min, max_value=omega_max),
    )


def grid_around(center: float, half_span: float, n: int) -> np.ndarray:
    return np.linspace(center - half_span, center + half_span, n)


def central_difference(fun, x, steps):
    """Oracle Jacobian of ``fun`` at ``x`` by central differences.

    ``steps`` holds one absolute step per parameter. Each column divides
    by the step actually taken, ``(x + h) - (x - h)`` as rounded, which
    differs from ``2 h`` at energies of order 1e6 ueV.
    """
    x = np.asarray(x, dtype=float)
    columns = []
    for j, h in enumerate(steps):
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        columns.append((np.asarray(fun(xp)) - np.asarray(fun(xm))) / (xp[j] - xm[j]))
    return np.column_stack(columns)


def model_steps(vec):
    """Oracle steps for a vector ordered as ``estimation.PARAM_NAMES``
    (or its first six entries, the arguments of the amplitude).

    Rates and background take a relative step; the two
    energies an absolute one of 1e-5 of the narrowest linewidth, since
    the response varies on that scale (a fixed 1e-2 ueV step is 10% of
    a 0.1 ueV line).
    """
    vec = np.asarray(vec, dtype=float)
    steps = 1e-6 * np.maximum(np.abs(vec), 1.0)
    steps[4:6] = 1e-5 * min(vec[1] + vec[2], vec[3])
    return steps
