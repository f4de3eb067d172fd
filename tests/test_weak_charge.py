"""The weak-charge edge (n_bar -> 0) as an oracle.

To first order in the drive, W = s0^2 + int rabi(t) K(t) dt + O(n_bar) with
K(t) = 2 s0 p_e(0) exp(-3 gamma t / 2), s0 = (1/2 - p) sin(theta) and
p_e(0) = 1/2 - (1/2 - p) cos(theta).  At a fixed budget
n_bar = int rabi^2 / (4 gamma), Cauchy-Schwarz makes the best pulse the
exponential with tau = 2 / (3 gamma) and the gain
W - s0^2 = 4 s0 p_e(0) sqrt(n_bar / 3).  Without coherence (s0 = 0) the
sqrt(n_bar) term vanishes and the gain is of order n_bar.
"""
import math

import pytest

import ergoflux as ef
from oracles import pulse_distance

WEAK = (1e-6, 1e-5, 1e-4, 1e-3)


def _s0_pe0(p, theta):
    return (0.5 - p) * math.sin(theta), 0.5 - (0.5 - p) * math.cos(theta)


@pytest.mark.parametrize("p, theta", [(0.0, math.pi / 2), (0.0, 2.0), (0.2, 0.75 * math.pi)])
def test_exponential_gain_matches_first_order_prediction(p, theta):
    s0, pe0 = _s0_pe0(p, theta)
    prep = ef.Preparation(p=p, theta=theta)
    for n_bar in WEAK:
        res = ef.optimize_exponential_tau(prep, n_bar)
        ratio = (res.work - s0 * s0) / (4.0 * s0 * pe0 * math.sqrt(n_bar / 3.0))
        assert not res.at_boundary
        assert abs(ratio - 1.0) <= 2.0 * math.sqrt(n_bar), (n_bar, ratio)


@pytest.mark.parametrize("gamma", [1.0, 2.0])
def test_exponential_time_constant_tends_to_two_thirds_of_a_lifetime(gamma):
    prep = ef.Preparation(p=0.0, theta=math.pi / 2)
    errors = [abs(ef.optimize_exponential_tau(prep, n_bar, gamma=gamma).tau_opt * gamma - 2.0 / 3.0)
              for n_bar in WEAK]
    assert errors[0] <= 1e-3
    assert all(e <= 2.0 * math.sqrt(n) for e, n in zip(errors, WEAK)), errors
    assert errors == sorted(errors)
    # the O(n_bar) correction offsets tau* by about 0.96 sqrt(n_bar)
    assert all(0.9 <= e / math.sqrt(n) <= 1.0 for e, n in zip(errors, WEAK)), errors


def test_shaped_optimum_approaches_the_exponential_as_sqrt_n_bar():
    prep = ef.Preparation(p=0.0, theta=math.pi / 2)
    dists = []
    for n_bar in (1e-2, 1e-3, 1e-4):
        sol = ef.solve_optimal_control(ef.ControlProblem(prep=prep, n_bar=n_bar))
        assert sol.converged, sol.message
        target = ef.ExponentialPulse(n_bar, 2.0 / 3.0)
        d = pulse_distance(sol.pulse, target)
        assert d <= math.sqrt(n_bar), (n_bar, d)
        dists.append(d)
    # each tenfold drop of the charge shrinks the distance by about sqrt(10)
    for far, near in zip(dists, dists[1:]):
        assert far / near >= 0.8 * math.sqrt(10.0), dists


@pytest.mark.parametrize("p, theta", [(0.0, 0.0), (0.0, math.pi), (0.5, 1.0), (0.5, math.pi / 2)])
def test_no_coherence_no_square_root_gain(p, theta):
    s0, _ = _s0_pe0(p, theta)
    prep = ef.Preparation(p=p, theta=theta)
    for n_bar in WEAK:
        res = ef.optimize_exponential_tau(prep, n_bar)
        assert abs(res.work - s0 * s0) <= n_bar, (n_bar, res.work - s0 * s0)
