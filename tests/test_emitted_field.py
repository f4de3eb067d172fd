"""Emitted-mode tests: amplitudes, photon content, phase-space portraits."""
import math

import numpy as np
import pytest
from hypothesis import given
import hypothesis.strategies as st

import ergoflux as ef

thetas = st.floats(min_value=0.0, max_value=math.pi)


def _q_at(state, alpha):
    """The overlap at one phase-space point, from a 1x1 grid."""
    return float(ef.husimi(state, [alpha.real], [alpha.imag]).q[0, 0])


def test_equator_state_frozen_values():
    st_ = ef.output_state(math.pi / 2.0)
    r = math.sqrt(0.5)
    assert st_.c0 == pytest.approx(r, abs=1e-15)
    assert st_.c1 == pytest.approx(r, abs=1e-15)
    assert ef.coherent_amplitude(st_) == pytest.approx(0.5, abs=1e-15)
    assert ef.mean_photon_number(st_) == pytest.approx(0.5, abs=1e-15)


def test_poles():
    ground = ef.output_state(0.0)
    assert ef.mean_photon_number(ground) == 0.0
    assert _q_at(ground, 0j) == pytest.approx(1.0, abs=1e-15)

    excited = ef.output_state(math.pi)
    assert ef.mean_photon_number(excited) == pytest.approx(1.0, abs=1e-15)
    assert ef.coherent_amplitude(excited) == pytest.approx(0.0, abs=1e-15)
    assert _q_at(excited, 0j) <= 1e-12  # one photon never overlaps vacuum


@given(thetas)
def test_output_state_is_normalized_and_consistent(theta):
    st_ = ef.output_state(theta)
    assert abs(st_.c0) ** 2 + abs(st_.c1) ** 2 == pytest.approx(1.0, abs=1e-12)
    # amplitude matches the initial dipole, photon number the initial energy
    assert ef.coherent_amplitude(st_).real == pytest.approx(0.5 * math.sin(theta), abs=1e-12)
    assert ef.mean_photon_number(st_) == pytest.approx(math.sin(0.5 * theta) ** 2, abs=1e-12)


@given(thetas)
def test_released_work_is_squared_amplitude(theta):
    st_ = ef.output_state(theta)
    spont = ef.scenario_spontaneous(ef.Preparation(p=0.0, theta=theta))
    assert abs(ef.coherent_amplitude(st_)) ** 2 == pytest.approx(spont.work, abs=1e-12)


def test_equator_husimi_peak_at_golden_ratio():
    # on the real axis Q(x) = exp(-x^2) (1 + x)^2 / 2 peaks at x = (sqrt(5)-1)/2
    st_ = ef.output_state(math.pi / 2.0)
    x = np.linspace(0.0, 2.0, 200001)
    q = np.array([_q_at(st_, complex(xi)) for xi in x[:: 1000]])
    x_peak = (math.sqrt(5.0) - 1.0) / 2.0
    grid = ef.husimi(st_, x, np.array([0.0]))
    assert x[np.argmax(grid.q[0])] == pytest.approx(x_peak, abs=1e-4)
    # and the coarse loop agrees with the vectorized grid
    assert np.allclose(q, grid.q[0, ::1000], atol=1e-15)


@given(thetas, st.floats(min_value=-3.0, max_value=3.0), st.floats(min_value=-3.0, max_value=3.0))
def test_husimi_bounded(theta, x, y):
    val = _q_at(ef.output_state(theta), complex(x, y))
    assert 0.0 <= val <= 1.0 + 1e-12


def test_husimi_grid_layout():
    st_ = ef.output_state(2.0)
    re = np.linspace(-1.0, 1.0, 7)
    im = np.linspace(-0.5, 0.5, 5)
    grid = ef.husimi(st_, re, im)
    assert grid.q.shape == (5, 7)
    assert grid.q[3, 2] == pytest.approx(_q_at(st_, complex(re[2], im[3])), abs=1e-15)


def test_validation():
    with pytest.raises(ValueError):
        ef.output_state(-0.1)
    with pytest.raises(ValueError):
        ef.output_state(3.5)
    with pytest.raises(ValueError):
        ef.OutputFieldState(c0=1.0, c1=1.0)
    with pytest.raises(ValueError):
        ef.husimi(ef.output_state(1.0), np.zeros((2, 2)), np.zeros(2))


@pytest.mark.parametrize("name", ["re", "im"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_husimi_rejects_non_finite_points(name, bad):
    axes = {"re": [0.0, 1.0], "im": [0.0]}
    axes[name] = [0.0, bad]
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        ef.husimi(ef.output_state(1.0), axes["re"], axes["im"])


def test_husimi_far_points_vanish_without_overflow():
    # |alpha|^2 overflows at 1e200; the overlap there is exp(-|alpha|^2)|...|^2 = 0
    st_ = ef.output_state(1.0)
    far = np.array([-1e200, -30.0, 0.0, 30.0, 1e200, 1e308])
    grid = ef.husimi(st_, far, far)  # RuntimeWarnings are errors in this suite
    assert np.isfinite(grid.q).all()
    assert (grid.q[:, [0, 4, 5]] == 0.0).all() and (grid.q[[0, 4, 5], :] == 0.0).all()
    assert grid.q[2, 2] == pytest.approx(math.cos(0.5) ** 2, abs=1e-15)
