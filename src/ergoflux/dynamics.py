"""Bloch dynamics of a resonantly driven qubit emitting into a 1D photonic channel.

Conventions used throughout the package:

* time is measured in units of 1/gamma and rates in units of gamma, so
  ``gamma=1.0`` is the default everywhere; pass another value only to compare
  runs at different absolute scales,
* energies and powers are in units of (hbar * omega0); the transition
  frequency never enters the rotating-frame equations of motion,
* the drive is resonant with a fixed phase, so the rotating-frame dipole
  amplitude s is real: a state is the pair (p_e, s) of floats.

Under a constant drive the dipole has one closed form for every damping,
s(t) = exp(-3 gamma t / 4) * (a C(t) + b S(t)) + c, whose basis C, S is
entire in k = rabi^2 - gamma^2/16 (`analytic_square_trajectory`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

# Largest Bloch-ball violation that is silently clamped; anything bigger is a
# genuine integration failure.
BLOCH_TOL = 1e-9

_INF = float("inf")

# Largest h * max(gamma, rabi) of one RK4 step of a trajectory.
_RK4_BOUND = 0.01


class IntegrationAccuracyError(RuntimeError):
    """A numerical trajectory or quadrature failed its accuracy contract."""


@dataclass(frozen=True)
class Preparation:
    """Initial qubit state: mixing weight ``p`` and Bloch angle ``theta``.

    The state is a mixture of two orthogonal pure states on the great circle
    of the Bloch sphere selected by the drive phase; ``p`` is the weight of
    the lower-energy one (p = 0 pure, p = 1/2 maximally mixed / passive).
    """

    p: float
    theta: float

    def __post_init__(self):
        if not 0.0 <= self.p <= 0.5:
            raise ValueError(f"p must lie in [0, 1/2], got {self.p}")
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError(f"theta must lie in [0, pi], got {self.theta}")


def _violation(p_e: float, s: float) -> float:
    return max(-p_e, p_e - 1.0, s * s - p_e * (1.0 - p_e))


@dataclass(frozen=True)
class QubitState:
    """Excited population and real rotating-frame dipole amplitude."""

    p_e: float
    s_bar: float

    def __post_init__(self):
        object.__setattr__(self, "s_bar", float(self.s_bar))  # TypeError for a non-real dipole
        if _violation(self.p_e, self.s_bar) > BLOCH_TOL:
            raise ValueError(
                f"state outside the Bloch ball: p_e={self.p_e}, s_bar={self.s_bar}"
            )

    @property
    def bloch_violation(self) -> float:
        return _violation(self.p_e, self.s_bar)


def _clamped_samples(p_e, s):
    """Pull states (floats or arrays) back inside the Bloch ball.

    A state outside by more than BLOCH_TOL, or a non-finite one, raises
    `IntegrationAccuracyError`.
    """
    m2 = s * s
    worst = float(np.max(np.maximum(np.maximum(-p_e, p_e - 1.0), m2 - p_e * (1.0 - p_e))))
    if not worst <= BLOCH_TOL:
        raise IntegrationAccuracyError(
            f"Bloch-ball violation {worst:.3e} exceeds tolerance {BLOCH_TOL:.0e}"
        )
    if worst <= 0.0:
        return p_e, s
    p_e = np.clip(p_e, 0.0, 1.0)
    cap = p_e * (1.0 - p_e)
    out = m2 > cap  # implies m2 > 0
    scale = np.where(out, np.sqrt(cap / np.where(out, m2, 1.0)), 1.0)
    return p_e, s * scale


def prepare_initial(prep: Preparation) -> QubitState:
    """Map a preparation onto (p_e, s_bar)."""
    w = 0.5 - prep.p
    p_e = 0.5 - w * math.cos(prep.theta)
    s = w * math.sin(prep.theta)
    return QubitState(p_e=p_e, s_bar=s)


# --------------------------- drive profiles ---------------------------


class DriveProfile:
    """Rabi-frequency waveform of the resonant input field."""

    def rabi(self, t):
        """Rabi frequency at time(s) ``t``; accepts scalars or arrays."""
        raise NotImplementedError

    def support_end(self) -> float:
        """Time after which the waveform is treated as identically zero."""
        raise NotImplementedError

    def photon_rate(self, t, gamma: float = 1.0):
        """Incoming photon flux rabi^2 / (4 gamma).

        At gamma = 0 it is the limit gamma -> 0: inf where the drive is on
        and 0 where it is off.
        """
        r = np.asarray(self.rabi(t), dtype=float)
        out = r * r / (4.0 * gamma) if gamma > 0.0 else np.where(r != 0.0, _INF, 0.0)
        return float(out) if out.ndim == 0 else out

    def charge(self, gamma: float = 1.0) -> float:
        """Total mean photon number carried by the waveform."""
        raise NotImplementedError


@dataclass(frozen=True)
class OffDrive(DriveProfile):
    """No input field."""

    def rabi(self, t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        return float(out) if out.ndim == 0 else out

    def support_end(self) -> float:
        return 0.0

    def charge(self, gamma: float = 1.0) -> float:
        return 0.0


@dataclass(frozen=True)
class SquarePulse(DriveProfile):
    """Constant amplitude on the closed interval [0, duration]."""

    amplitude: float
    duration: float

    def __post_init__(self):
        if not 0.0 <= self.amplitude < math.inf:
            raise ValueError(f"amplitude must be nonnegative and finite, got {self.amplitude}")
        if not 0.0 < self.duration < math.inf:
            raise ValueError(f"duration must be positive and finite, got {self.duration}")

    def rabi(self, t):
        t = np.asarray(t, dtype=float)
        out = np.where((t >= 0.0) & (t <= self.duration), self.amplitude, 0.0)
        return float(out) if out.ndim == 0 else out

    def support_end(self) -> float:
        return self.duration

    def charge(self, gamma: float = 1.0) -> float:
        return self.amplitude**2 * self.duration / (4.0 * gamma)


@dataclass(frozen=True)
class ExponentialPulse(DriveProfile):
    """Exponentially decaying drive carrying ``n_bar`` photons in time constant ``tau``.

    The amplitude is fixed at construction from the decay rate ``gamma`` so
    that the photon budget integrates to exactly ``n_bar``.
    """

    n_bar: float
    tau: float
    gamma: float = 1.0

    def __post_init__(self):
        for name in ("n_bar", "tau", "gamma"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
        if not math.isfinite(self.amplitude):
            raise ValueError(
                f"n_bar {self.n_bar} in tau {self.tau} needs an amplitude past the float range"
            )

    @property
    def amplitude(self) -> float:
        return 2.0 * math.sqrt(2.0 * self.gamma * self.n_bar / self.tau)

    def rabi(self, t):
        t = np.asarray(t, dtype=float)
        out = np.where(t >= 0.0, self.amplitude * np.exp(-np.minimum(t, 700 * self.tau) / self.tau), 0.0)
        return float(out) if out.ndim == 0 else out

    def support_end(self) -> float:
        # amplitude down by 1e-8, residual charge fraction ~1e-16
        return self.tau * math.log(1e8)

    def charge(self, gamma: float = 1.0) -> float:
        return self.n_bar * self.gamma / gamma


@dataclass(frozen=True, eq=False)
class TabulatedPulse(DriveProfile):
    """Piecewise-linear waveform between nodes; zero outside the table."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.times.ndim != 1 or self.times.shape != self.values.shape:
            raise ValueError("times and values must be 1-D arrays of equal length")
        if len(self.times) < 2:
            raise ValueError("need at least two nodes")
        for name in ("times", "values"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite")
        if not np.all(np.diff(self.times) > 0.0):
            raise ValueError("times must be strictly increasing")
        if self.times[0] < 0.0:
            raise ValueError("times must be nonnegative")
        if np.any(self.values < 0.0):
            raise ValueError("values must be nonnegative")

    def rabi(self, t):
        t = np.asarray(t, dtype=float)
        out = np.interp(t, self.times, self.values, left=0.0, right=0.0)
        return float(out) if out.ndim == 0 else out

    def support_end(self) -> float:
        return float(self.times[-1])

    def charge(self, gamma: float = 1.0) -> float:
        # exact integral of the piecewise-quadratic rabi^2
        dt = np.diff(self.times)
        v0 = self.values[:-1]
        v1 = self.values[1:]
        return float(np.sum(dt * (v0 * v0 + v0 * v1 + v1 * v1) / 3.0) / (4.0 * gamma))


# --------------------------- trajectories ---------------------------


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled evolution: grid times, populations, dipoles, and the applied controls."""

    times: np.ndarray
    p_e: np.ndarray
    s_bar: np.ndarray
    drive: DriveProfile
    gamma: float

    def __post_init__(self):
        if self.times[0] != 0.0:
            raise ValueError("trajectory must start at t = 0")
        if len(self.times) > 1 and not np.all(np.diff(self.times) > 0.0):
            raise ValueError("times must be strictly increasing")

    def __len__(self) -> int:
        return len(self.times)

    def state(self, i: int) -> QubitState:
        return QubitState(p_e=float(self.p_e[i]), s_bar=float(self.s_bar[i]))


def _check_span(t_end: float, gamma: float) -> None:
    """Reject a trace length or decay rate that no trajectory builder can sample."""
    if not 0.0 < t_end < _INF:
        raise ValueError(f"t_end must be positive and finite, got {t_end}")
    if not 0.0 <= gamma < _INF:
        raise ValueError(f"gamma must be nonnegative and finite, got {gamma}")


# Steps composed per chunk and per block of the scan.  Both are fixed, so a
# run's arithmetic, and with it every digit of its result, is the same on
# every machine; a block bounds the scan's temporaries to a few MB.
_CHUNK = 16
_BLOCK = 1 << 13

# Rows p and s of the homogeneous columns (e_p, e_s, 1) that `_drive_scan`
# steps, and half the homogeneous coordinate, which carries the drive offset.
_COLUMNS = np.eye(3)[:2, :, None]
_HALF = np.array([[0.0], [0.0], [0.5]])


def _rhs(p, s, rabi, gamma, half=0.5):
    """Bloch right-hand side (dp/dt, ds/dt) of the real channel, elementwise.

    ``half`` is the offset in rabi * (p - 1/2): 0.5 for states, `_HALF` for
    map columns, 0 for the linear part alone.
    """
    return -gamma * p - rabi * s, rabi * (p - half) - 0.5 * gamma * s


def _scan_block(maps, x0):
    """States after each step of x_{k+1} = M_k x_k + v_k for one block of maps.

    Prefix composition inside chunks of `_CHUNK` steps, vectorised over the
    chunks; a scalar loop carries the state from chunk to chunk, and one
    vectorised pass fills in the states inside every chunk.
    """
    nb = maps.shape[-1]
    nc = -(-nb // _CHUNK)
    a = np.zeros((2, 3, nc * _CHUNK))  # states past the last step are dropped
    a[..., :nb] = maps
    a = a.reshape(2, 3, nc, _CHUNK).transpose(3, 0, 1, 2).copy()  # (step in chunk, row, column, chunk)
    for j in range(1, _CHUNK):
        q, prev = a[j], a[j - 1]
        step = q[:, :1] * prev[0] + q[:, 1:2] * prev[1]
        step[:, 2] += q[:, 2]
        a[j] = step
    p, s = x0
    ep, es = [], []
    for m00, m01, v0, m10, m11, v1 in a[-1].reshape(6, nc).T.tolist():
        ep.append(p)
        es.append(s)
        p, s = m00 * p + m01 * s + v0, m10 * p + m11 * s + v1
    x = a[:, :, 0] * np.array(ep) + a[:, :, 1] * np.array(es) + a[:, :, 2]
    return x.transpose(1, 2, 0).reshape(2, -1)[:, :nb]


def _affine_scan(maps, n: int, x0, reverse: bool = False) -> np.ndarray:
    """All states x_0..x_n of x_{k+1} = M_k x_k + v_k as a (2, n + 1) array.

    ``maps(lo, hi)`` returns the (2, 3, hi - lo) maps of steps lo..hi-1
    (see `_drive_scan`); they are requested and scanned in blocks of `_BLOCK`
    steps.  With ``reverse`` the transposed recurrence y_k = M_k^T y_{k+1} + v_k
    runs from y_n = ``x0`` down to y_0: the adjoint of the forward scan.  A
    non-finite state raises `IntegrationAccuracyError`.
    """
    out = np.empty((2, n + 1))
    x = [float(x0[0]), float(x0[1])]
    blocks = range(0, n, _BLOCK)
    out[:, n if reverse else 0] = x
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in reversed(blocks) if reverse else blocks:
            hi = min(lo + _BLOCK, n)
            if reverse:
                m = maps(lo, hi)[..., ::-1]
                m = np.concatenate((m[:, :2].swapaxes(0, 1), m[:, 2:]), axis=1)  # M^T, same offsets
                states = _scan_block(m, x)
                out[:, lo:hi] = states[:, ::-1]
            else:
                states = _scan_block(maps(lo, hi), x)
                out[:, lo + 1 : hi + 1] = states
            x = states[:, -1].tolist()
    if not np.isfinite(out).all():
        raise IntegrationAccuracyError(
            "integration produced a non-finite state; shrink the step or the drive"
        )
    return out


def _drive_scan(on, om, h, gamma, x0, restarts=(), kept=None) -> np.ndarray:
    """Node states (2, n + 1) of n RK4 steps from the state ``x0``, by `_affine_scan`.

    Step k runs from node k over ``h`` (a float, or one length per step)
    under the drive ``on[k]`` at its start, ``om[k]`` at its middle and
    ``on[k + 1]`` at its end, and ``gamma`` is the decay rate.  The Bloch
    equations are affine in x = (p_e, s), so one RK4 step is too: stepping
    the homogeneous columns e_p, e_s and 1 gives its (2, 3) map, whose row i
    holds (M_i0, M_i1, v_i).  The step at each index in ``restarts`` is a
    restart map instead (M = 0, offset ``x0``), which puts the state back at
    ``x0``.  ``kept``, a (2, 3, n) array, receives the maps of all steps.
    """
    restarts = np.asarray(restarts, dtype=np.intp)
    restart = np.array([[0.0, 0.0, x0[0]], [0.0, 0.0, x0[1]]])[..., None] if restarts.size else None
    p, s = _COLUMNS

    def maps(lo, hi):
        hk = h if np.ndim(h) == 0 else h[lo:hi]
        k1p, k1s = _rhs(p, s, on[lo:hi], gamma, _HALF)
        k2p, k2s = _rhs(p + 0.5 * hk * k1p, s + 0.5 * hk * k1s, om[lo:hi], gamma, _HALF)
        k3p, k3s = _rhs(p + 0.5 * hk * k2p, s + 0.5 * hk * k2s, om[lo:hi], gamma, _HALF)
        k4p, k4s = _rhs(p + hk * k3p, s + hk * k3s, on[lo + 1 : hi + 1], gamma, _HALF)
        m = np.stack((
            p + hk / 6.0 * (k1p + 2.0 * (k2p + k3p) + k4p),
            s + hk / 6.0 * (k1s + 2.0 * (k2s + k3s) + k4s),
        ))
        if restart is not None:
            m[..., restarts[(restarts >= lo) & (restarts < hi)] - lo] = restart
        if kept is not None:
            kept[..., lo:hi] = m
        return m

    return _affine_scan(maps, len(on) - 1, x0)


def evolve_numeric(
    state0: QubitState,
    drive: DriveProfile,
    t_end: float,
    dt: float,
    gamma: float = 1.0,
) -> Trajectory:
    """Integrate the Bloch equations with a fixed-step RK4 scheme.

    Each step must resolve the fastest scale around it: dt * max(gamma,
    rabi at the step's start, middle and end) <= 0.01.  The RK4 steps are
    affine maps of the state, composed by `_affine_scan`.  The stored states
    are clamped back into the Bloch ball after integration, so the clamp
    never feeds back into the next step; any of them outside by more than
    BLOCH_TOL raises `IntegrationAccuracyError`.  The fixed grid and scan
    layout make runs bit-reproducible.
    """
    _check_span(t_end, gamma)
    if not 0.0 < dt < _INF:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    n = max(1, math.ceil(t_end / dt * (1.0 - 1e-12)))
    return _integrate(state0, drive, np.linspace(0.0, t_end, n + 1), t_end / n, gamma)


def _check_steps(times, h, om_g, om_m, gamma: float) -> None:
    """Raise `ValueError` at the first step with h * max(gamma, its drive samples) above `_RK4_BOUND`."""
    local = np.maximum(om_g[:-1], om_g[1:])
    np.maximum(local, om_m, out=local)
    np.maximum(local, gamma, out=local)
    local *= h
    worst = int(np.argmax(local))
    if local[worst] > _RK4_BOUND * (1.0 + 1e-9):
        step = float(np.broadcast_to(h, local.shape)[worst])
        raise ValueError(
            f"dt={step:.3e} too coarse for the fastest scale at t={times[worst]:.3e}; "
            f"need dt <= {_RK4_BOUND * step / local[worst]:.3e}"
        )


def _integrate(state0: QubitState, drive: DriveProfile, times, h, gamma: float) -> Trajectory:
    """`evolve_numeric` on a given grid: one RK4 step of length ``h`` from each of ``times[:-1]``.

    ``h`` is a float for a uniform grid or an array with one length per
    step; ``times[k] + h[k]`` is ``times[k + 1]`` up to rounding.
    """
    om_g = np.asarray(drive.rabi(times), dtype=float)
    om_m = np.asarray(drive.rabi(times[:-1] + 0.5 * h), dtype=float)
    _check_steps(times, h, om_g, om_m, gamma)

    p, s = _drive_scan(om_g, om_m, h, gamma, (state0.p_e, state0.s_bar))
    n = len(times) - 1
    for lo in range(0, n + 1, _BLOCK):
        block = slice(lo, lo + _BLOCK)
        p[block], s[block] = _clamped_samples(p[block], s[block])
    return Trajectory(times=times, p_e=p, s_bar=s, drive=drive, gamma=gamma)


# --------------------------- constant-drive closed form ---------------------------


def _one(x):
    return 0.0 * x + 1.0


def _identity(x):
    return x


def _atanh_inside(x):
    return np.arctanh(np.where(np.abs(x) < 1.0, x, np.nan))


class _Basis(NamedTuple):
    q: object
    decay: object
    cf: Callable
    sf: Callable
    arc: Callable
    period: object

    def at(self, t):
        """The damped basis exp(-alpha t) C(t) and exp(-alpha t) S(t)."""
        qt = self.q * t
        env = np.exp(-self.decay * t)
        return env * self.cf(qt), env * self.sf(qt) / self.q

    def take(self, cells):
        """The basis of the cells ``cells`` of an array basis."""
        return self._replace(q=self.q[cells], decay=self.decay[cells], period=self.period[cells])


def _transient_basis(k, alpha) -> _Basis:
    """Basis of the constant-drive dipole transient; the only test of the sign of ``k``.

    ``k = rabi^2 - gamma^2/16`` and ``alpha = 3 gamma / 4``.  C and S solve
    C'' = -k C with C(0) = 1, C'(0) = 0 and S = int C: cos and sin / sqrt(k)
    for k > 0, cosh and sinh / sqrt(-k) for k < 0, and 1 and t at k = 0.
    Both are entire in k, so nothing divides by a vanishing frequency.  The
    damped basis is exp(-alpha t) C(t) = exp(-decay t) cf(q t) and
    exp(-alpha t) S(t) = exp(-decay t) sf(q t) / q; for k < 0, cf and sf are
    cosh and sinh scaled by exp(-q t), so long drives neither overflow nor
    cancel.  ``arc(q r) / q`` is the root of S(t) / C(t) = r on the branch
    through t = 0 (NaN where there is none), and the roots repeat every
    ``period`` (infinite unless k > 0).  ``k`` is a float or an array of one
    sign; `_basis_groups` splits arrays of cells into such groups.
    """
    one = _one(k)
    sign = np.ravel(k)[0]
    if sign > 0.0:
        q = np.sqrt(k)
        return _Basis(q, alpha * one, np.cos, np.sin, np.arctan, math.pi / q)
    if sign < 0.0:
        q = np.sqrt(-k)

        def cf(x):
            return 0.5 * (1.0 + np.exp(-2.0 * x))

        def sf(x):
            return -0.5 * np.expm1(-2.0 * x)

        return _Basis(q, alpha - q, cf, sf, _atanh_inside, _INF * one)
    return _Basis(one, alpha * one, _one, _identity, _identity, _INF * one)


@dataclass(frozen=True)
class AnalyticCoefficients:
    """Coefficients of the dipole under a constant drive, in one form for every damping.

    s(t) = exp(-3 gamma t / 4) * (a * C(t) + b * S(t)) + c, with C and S the
    basis of `_transient_basis` for ``k = rabi^2 - gamma^2/16``: ``c`` is the
    settled dipole, ``a`` the initial transient and ``b`` its initial slope.
    The slope is s'(t) = exp(-3 gamma t / 4) * (pc * C(t) + ps * S(t)).
    Fields are floats, or arrays with one entry per cell.
    """

    a: float
    b: float
    c: float
    k: float
    pc: float
    ps: float

    def take(self, cells) -> AnalyticCoefficients:
        """The coefficients of the cells ``cells`` of array coefficients."""
        return AnalyticCoefficients(
            *(v[cells] for v in (self.a, self.b, self.c, self.k, self.pc, self.ps))
        )


def _coefficients(p, theta, rabi, gamma, xp=np) -> AnalyticCoefficients:
    """`square_pulse_coefficients` without the checks; arrays take ``xp=numpy``."""
    w = 0.5 - p
    sin_t = xp.sin(theta)
    cos_t = xp.cos(theta)
    alpha = 0.75 * gamma
    c = -gamma * rabi / (2.0 * rabi * rabi + gamma * gamma)
    a = w * sin_t - c
    # s'(0) from the equation of motion, plus the decay of the envelope
    b = w * (0.25 * gamma * sin_t - rabi * cos_t) - alpha * c
    k = rabi * rabi - gamma * gamma / 16.0
    return AnalyticCoefficients(a=a, b=b, c=c, k=k, pc=b - alpha * a, ps=-(alpha * b + k * a))


def _drive_state(ec, es, rabi, gamma, co: AnalyticCoefficients):
    """The state (p_e, s) of a constant drive from its damped basis values ``ec``, ``es``.

    ``ec``, ``es`` are `_Basis.at` of the drive's time (1 and 0 at its
    start); the population follows from the dipole's equation of motion,
    p_e = 1/2 + (s' + gamma s / 2) / rabi.  Floats, or arrays per cell.
    """
    s = co.a * ec + co.b * es + co.c
    return 0.5 + (co.pc * ec + co.ps * es + 0.5 * gamma * s) / rabi, s


def _basis_groups(co: AnalyticCoefficients, alpha: float):
    """Split array coefficients by the sign of k: yields (cells, their coefficients, their basis)."""
    sign = np.sign(co.k)
    for s in np.unique(sign):
        cells = np.flatnonzero(sign == s)
        part = co.take(cells)
        yield cells, part, _transient_basis(part.k, alpha)


def square_pulse_coefficients(prep: Preparation, rabi: float, gamma: float) -> AnalyticCoefficients:
    """Solve for the constant-drive dipole coefficients from the initial state."""
    if not 0.0 <= gamma < _INF:
        raise ValueError(f"gamma must be nonnegative and finite, got {gamma}")
    if not 0.0 < rabi < _INF:
        raise ValueError(f"rabi must be positive and finite, got {rabi}")
    return _coefficients(prep.p, prep.theta, rabi, gamma, math)


def _square_states(prep: Preparation, rabi: float, gamma: float, t):
    """Closed-form states (p_e, s) at the times ``t`` of a constant drive from t = 0."""
    co = square_pulse_coefficients(prep, rabi, gamma)
    return _drive_state(*_transient_basis(co.k, 0.75 * gamma).at(t), rabi, gamma, co)


def analytic_square_trajectory(
    prep: Preparation,
    rabi: float,
    gamma: float,
    t_end: float,
    num: int,
) -> Trajectory:
    """Constant-drive trajectory sampled from the closed form (no integration error)."""
    _check_span(t_end, gamma)
    if num < 1:
        raise ValueError("num must be at least 1")
    times = np.linspace(0.0, t_end, num)
    p, s = _square_states(prep, rabi, gamma, times)
    return Trajectory(
        times=times, p_e=p, s_bar=s, drive=SquarePulse(amplitude=rabi, duration=t_end), gamma=gamma
    )
