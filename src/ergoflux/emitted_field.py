"""The field a pure qubit state emits into the channel during free decay.

For a pure preparation (p = 0) the qubit maps its superposition onto the
photon-number content of one exponentially decaying temporal mode: the
ground amplitude becomes the vacuum amplitude, the excited amplitude becomes
the one-photon amplitude.  The mode's coherent amplitude equals the initial
dipole and its mean photon number equals the initial excited population, so
all the work/heat bookkeeping of the decay can be cross-checked directly on
the field state.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class OutputFieldState:
    """Vacuum and one-photon amplitudes of the emitted temporal mode."""

    c0: complex
    c1: complex

    def __post_init__(self):
        norm = abs(self.c0) ** 2 + abs(self.c1) ** 2
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"amplitudes must be normalized, got |c0|^2+|c1|^2 = {norm}")


def output_state(theta: float) -> OutputFieldState:
    """Field state emitted by the pure preparation at Bloch angle ``theta``.

    Only pure preparations map to a pure field state; mixed ones entangle
    with the channel and have no two-amplitude description.
    """
    if not 0.0 <= theta <= math.pi:
        raise ValueError(f"theta must lie in [0, pi], got {theta}")
    return OutputFieldState(
        c0=complex(math.cos(0.5 * theta)),
        c1=complex(math.sin(0.5 * theta)),
    )


def coherent_amplitude(state: OutputFieldState) -> complex:
    """Mean field amplitude <a> of the emitted mode; its square modulus is the work."""
    return state.c0.conjugate() * state.c1


def mean_photon_number(state: OutputFieldState) -> float:
    """Mean photon number; equals the total energy the qubit released."""
    return abs(state.c1) ** 2


@dataclass(frozen=True, eq=False)
class HusimiGrid:
    """Coherent-state overlap sampled on a rectangular phase-space grid.

    ``q[i, j]`` is the overlap at alpha = re[j] + 1j * im[i]; values lie in
    [0, 1] for any physical state.
    """

    re: np.ndarray
    im: np.ndarray
    q: np.ndarray


def husimi(state: OutputFieldState, re, im) -> HusimiGrid:
    """Evaluate the coherent-state overlap on the grid re x im.

    Non-finite coordinates raise `ValueError`.  Where exp(-|alpha|^2)
    underflows, the overlap is 0, even if |alpha|^2 itself overflows.
    """
    re = np.asarray(re, dtype=float)
    im = np.asarray(im, dtype=float)
    if re.ndim != 1 or im.ndim != 1 or len(re) == 0 or len(im) == 0:
        raise ValueError("re and im must be nonempty 1-D arrays")
    for name, axis in (("re", re), ("im", im)):
        if not np.isfinite(axis).all():
            raise ValueError(f"{name} must be finite")
    alpha = re[None, :] + 1j * im[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        amp = state.c0 + state.c1 * np.conj(alpha)
        env = np.exp(-np.abs(alpha) ** 2)
        q = np.where(env > 0.0, env * np.abs(amp) ** 2, 0.0)
    return HusimiGrid(re=re, im=im, q=q)
