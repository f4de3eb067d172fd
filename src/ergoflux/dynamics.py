"""Bloch dynamics of a resonantly driven qubit emitting into a 1D photonic channel.

Conventions used throughout the package:

* time is measured in units of 1/gamma and rates in units of gamma, so
  ``gamma=1.0`` is the default everywhere; pass another value only to compare
  runs at different absolute scales,
* energies and powers are in units of (hbar * omega0); the transition
  frequency never enters the rotating-frame equations of motion,
* the drive is resonant with a fixed phase, which keeps the dipole amplitude
  real for any state produced by `prepare_initial`.

Under a constant drive the dipole has one closed form for every damping,
s(t) = exp(-3 gamma t / 4) * (a C(t) + b S(t)) + c, whose basis C, S is
entire in k = rabi^2 - gamma^2/16 (`SquarePulseSolution`).

`Units` converts between nondimensional quantities and laboratory values at
the I/O boundary.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from scipy import constants

# Largest Bloch-ball violation that is silently clamped; anything bigger is a
# genuine integration failure.
BLOCH_TOL = 1e-9

_INF = float("inf")


class IntegrationAccuracyError(RuntimeError):
    """A numerical trajectory or quadrature failed its accuracy contract."""


@dataclass(frozen=True)
class Units:
    """Physical scales: decay rate ``gamma`` (1/s) and transition frequency ``omega0`` (rad/s)."""

    gamma: float
    omega0: float

    def __post_init__(self):
        if not (self.gamma > 0.0 and self.omega0 > 0.0):
            raise ValueError("gamma and omega0 must both be positive")

    def time_seconds(self, t: float) -> float:
        return t / self.gamma

    def time_dimensionless(self, seconds: float) -> float:
        return seconds * self.gamma

    def rate_per_second(self, r: float) -> float:
        return r * self.gamma

    def energy_joules(self, e: float) -> float:
        return e * constants.hbar * self.omega0

    def power_watts(self, p: float) -> float:
        return p * constants.hbar * self.omega0 * self.gamma


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


def _violation(p_e: float, s_re: float, s_im: float) -> float:
    return max(-p_e, p_e - 1.0, s_re * s_re + s_im * s_im - p_e * (1.0 - p_e))


@dataclass(frozen=True)
class QubitState:
    """Excited population and rotating-frame dipole amplitude.

    The dipole is stored as a complex number; every state generated from a
    `Preparation` keeps it exactly real (the drive phase convention).
    """

    p_e: float
    s_bar: complex

    def __post_init__(self):
        if _violation(self.p_e, self.s_bar.real, self.s_bar.imag) > BLOCH_TOL:
            raise ValueError(
                f"state outside the Bloch ball: p_e={self.p_e}, s_bar={self.s_bar}"
            )

    @property
    def bloch_violation(self) -> float:
        return _violation(self.p_e, self.s_bar.real, self.s_bar.imag)


def _clamped_state(p_e: float, s_re: float, s_im: float) -> tuple[float, float, float]:
    """Pull a state back inside the Bloch ball, failing loudly past BLOCH_TOL."""
    viol = _violation(p_e, s_re, s_im)
    if viol > BLOCH_TOL:
        raise IntegrationAccuracyError(
            f"Bloch-ball violation {viol:.3e} exceeds tolerance {BLOCH_TOL:.0e}"
        )
    if viol <= 0.0:
        return p_e, s_re, s_im
    p_e = min(max(p_e, 0.0), 1.0)
    cap = p_e * (1.0 - p_e)
    m2 = s_re * s_re + s_im * s_im
    if m2 > cap:
        scale = math.sqrt(cap / m2) if m2 > 0.0 else 0.0
        s_re *= scale
        s_im *= scale
    return p_e, s_re, s_im


def prepare_initial(prep: Preparation) -> QubitState:
    """Map a preparation onto (p_e, s_bar); the dipole comes out real."""
    w = 0.5 - prep.p
    p_e = 0.5 - w * math.cos(prep.theta)
    s = w * math.sin(prep.theta)
    return QubitState(p_e=p_e, s_bar=complex(s, 0.0))


def bloch_rhs(state: QubitState, rabi: float, gamma: float) -> tuple[float, complex]:
    """Time derivative (dp_e/dt, ds_bar/dt) under drive ``rabi`` and decay ``gamma``."""
    dp = -gamma * state.p_e - rabi * state.s_bar.real
    ds = -0.5 * gamma * state.s_bar + rabi * (state.p_e - 0.5)
    return dp, ds


def free_decay(state: QubitState, gamma: float, dt: float) -> QubitState:
    """Exact undriven evolution over ``dt``: population decays at gamma, dipole at gamma/2."""
    if dt < 0.0:
        raise ValueError("dt must be nonnegative")
    return QubitState(
        p_e=state.p_e * math.exp(-gamma * dt),
        s_bar=state.s_bar * math.exp(-0.5 * gamma * dt),
    )


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
        """Incoming photon flux rabi^2 / (4 gamma)."""
        r = np.asarray(self.rabi(t), dtype=float)
        out = r * r / (4.0 * gamma)
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
        if self.amplitude < 0.0:
            raise ValueError("amplitude must be nonnegative")
        if self.duration <= 0.0:
            raise ValueError("duration must be positive")

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
        if self.n_bar <= 0.0:
            raise ValueError("n_bar must be positive")
        if self.tau <= 0.0:
            raise ValueError("tau must be positive")
        if self.gamma <= 0.0:
            raise ValueError("gamma must be positive")

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


@dataclass(frozen=True)
class CouplingSchedule:
    """Qubit-channel coupling: full strength up to ``gamma_off_time``, zero after.

    ``None`` means the coupling is never switched off.  The boundary instant
    itself counts as "on" so that integrals over the coupled window include
    their endpoint.
    """

    gamma_off_time: float | None = None

    def __post_init__(self):
        if self.gamma_off_time is not None and self.gamma_off_time <= 0.0:
            raise ValueError("gamma_off_time must be positive")

    def is_on(self, t: float) -> bool:
        return self.gamma_off_time is None or t <= self.gamma_off_time

    def on_mask(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if self.gamma_off_time is None:
            return np.ones_like(t, dtype=bool)
        return t <= self.gamma_off_time


ALWAYS_ON = CouplingSchedule()


# --------------------------- trajectories ---------------------------


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled evolution: grid times, populations, dipoles, and the applied controls."""

    times: np.ndarray
    p_e: np.ndarray
    s_bar: np.ndarray
    drive: DriveProfile
    coupling: CouplingSchedule
    gamma: float

    def __post_init__(self):
        if self.times[0] != 0.0:
            raise ValueError("trajectory must start at t = 0")
        if len(self.times) > 1 and not np.all(np.diff(self.times) > 0.0):
            raise ValueError("times must be strictly increasing")

    def __len__(self) -> int:
        return len(self.times)

    def state(self, i: int) -> QubitState:
        return QubitState(p_e=float(self.p_e[i]), s_bar=complex(self.s_bar[i]))


def evolve_numeric(
    state0: QubitState,
    drive: DriveProfile,
    t_end: float,
    dt: float,
    coupling: CouplingSchedule = ALWAYS_ON,
    gamma: float = 1.0,
) -> Trajectory:
    """Integrate the Bloch equations with a fixed-step RK4 scheme.

    The step must resolve the fastest scale: dt <= 0.01 * min(1/gamma,
    1/max(rabi)).  Each stored state is clamped back into the Bloch ball;
    drifting out by more than BLOCH_TOL raises `IntegrationAccuracyError`.
    The fixed grid makes runs bit-reproducible.
    """
    if t_end <= 0.0:
        raise ValueError("t_end must be positive")
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if gamma < 0.0:
        raise ValueError("gamma must be nonnegative")

    n = max(1, math.ceil(t_end / dt * (1.0 - 1e-12)))
    h = t_end / n
    times = np.linspace(0.0, t_end, n + 1)
    mids = times[:-1] + 0.5 * h

    on_g = coupling.on_mask(times)
    on_m = coupling.on_mask(mids)
    om_g = np.where(on_g, drive.rabi(times), 0.0)
    om_m = np.where(on_m, drive.rabi(mids), 0.0)
    ga_g = np.where(on_g, gamma, 0.0)
    ga_m = np.where(on_m, gamma, 0.0)

    om_max = float(max(om_g.max(initial=0.0), om_m.max(initial=0.0)))
    limit = 0.01 * min(
        1.0 / gamma if gamma > 0.0 else _INF,
        1.0 / om_max if om_max > 0.0 else _INF,
    )
    if h > limit * (1.0 + 1e-9):
        raise ValueError(
            f"dt={h:.3e} too coarse for the fastest scale; need dt <= {limit:.3e}"
        )

    p_out = np.empty(n + 1)
    sr_out = np.empty(n + 1)
    si_out = np.empty(n + 1)
    p = state0.p_e
    sr = state0.s_bar.real
    si = state0.s_bar.imag
    p_out[0] = p
    sr_out[0] = sr
    si_out[0] = si

    og = om_g.tolist()
    om = om_m.tolist()
    gg = ga_g.tolist()
    gm = ga_m.tolist()
    half = 0.5 * h
    sixth = h / 6.0

    for k in range(n):
        oa = og[k]
        ob = om[k]
        oc = og[k + 1]
        ga = gg[k]
        gb = gm[k]
        gc = gg[k + 1]

        k1p = -ga * p - oa * sr
        k1r = oa * (p - 0.5) - 0.5 * ga * sr
        k1i = -0.5 * ga * si

        p1 = p + half * k1p
        r1 = sr + half * k1r
        i1 = si + half * k1i
        k2p = -gb * p1 - ob * r1
        k2r = ob * (p1 - 0.5) - 0.5 * gb * r1
        k2i = -0.5 * gb * i1

        p2 = p + half * k2p
        r2 = sr + half * k2r
        i2 = si + half * k2i
        k3p = -gb * p2 - ob * r2
        k3r = ob * (p2 - 0.5) - 0.5 * gb * r2
        k3i = -0.5 * gb * i2

        p3 = p + h * k3p
        r3 = sr + h * k3r
        i3 = si + h * k3i
        k4p = -gc * p3 - oc * r3
        k4r = oc * (p3 - 0.5) - 0.5 * gc * r3
        k4i = -0.5 * gc * i3

        p += sixth * (k1p + 2.0 * (k2p + k3p) + k4p)
        sr += sixth * (k1r + 2.0 * (k2r + k3r) + k4r)
        si += sixth * (k1i + 2.0 * (k2i + k3i) + k4i)
        p, sr, si = _clamped_state(p, sr, si)
        p_out[k + 1] = p
        sr_out[k + 1] = sr
        si_out[k + 1] = si

    return Trajectory(
        times=times,
        p_e=p_out,
        s_bar=sr_out + 1j * si_out,
        drive=drive,
        coupling=coupling,
        gamma=gamma,
    )


# --------------------------- constant-drive closed form ---------------------------


def _one(x):
    return 0.0 * x + 1.0


def _identity(x):
    return x


def _atanh_inside(x):
    return math.atanh(x) if abs(x) < 1.0 else math.nan


class _Basis(NamedTuple):
    q: float
    decay: float
    cf: Callable
    sf: Callable
    arc: Callable
    period: float


def _transient_basis(k: float, alpha: float, xp=np) -> _Basis:
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
    ``period`` (infinite unless k > 0).  ``xp`` is ``math`` for scalar
    callers and ``numpy`` for arrays.
    """
    if k > 0.0:
        q = math.sqrt(k)
        return _Basis(q, alpha, xp.cos, xp.sin, math.atan, math.pi / q)
    if k < 0.0:
        q = math.sqrt(-k)

        def cf(x):
            return 0.5 * (1.0 + xp.exp(-2.0 * x))

        def sf(x):
            return -0.5 * xp.expm1(-2.0 * x)

        return _Basis(q, alpha - q, cf, sf, _atanh_inside, _INF)
    return _Basis(1.0, alpha, _one, _identity, _identity, _INF)


@dataclass(frozen=True)
class AnalyticCoefficients:
    """Coefficients of the dipole under a constant drive, in one form for every damping.

    s(t) = exp(-3 gamma t / 4) * (a * C(t) + b * S(t)) + c, with C and S the
    basis of `_transient_basis` for ``k = rabi^2 - gamma^2/16``: ``c`` is the
    settled dipole, ``a`` the initial transient and ``b`` its initial slope.
    """

    a: float
    b: float
    c: float
    k: float


def square_pulse_coefficients(prep: Preparation, rabi: float, gamma: float) -> AnalyticCoefficients:
    """Solve for the constant-drive dipole coefficients from the initial state."""
    if rabi <= 0.0:
        raise ValueError("rabi must be positive")
    if gamma < 0.0:
        raise ValueError("gamma must be nonnegative")

    w = 0.5 - prep.p
    sin_t = math.sin(prep.theta)
    cos_t = math.cos(prep.theta)
    c = -gamma * rabi / (2.0 * rabi * rabi + gamma * gamma)
    a = w * sin_t - c
    # s'(0) from the equation of motion, plus the decay of the envelope
    b = w * (0.25 * gamma * sin_t - rabi * cos_t) - 0.75 * gamma * c
    return AnalyticCoefficients(a=a, b=b, c=c, k=rabi * rabi - gamma * gamma / 16.0)


class SquarePulseSolution:
    """Closed-form dipole and population under a constant resonant drive."""

    def __init__(self, prep: Preparation, rabi: float, gamma: float):
        self.prep = prep
        self.rabi = rabi
        self.gamma = gamma
        self.coefficients = co = square_pulse_coefficients(prep, rabi, gamma)
        self.alpha = al = 0.75 * gamma
        self._basis = _transient_basis(co.k, al)
        # the slope is exp(-alpha t) * (pc * C + ps * S)
        self.pc = co.b - al * co.a
        self.ps = -(al * co.b + co.k * co.a)

    def coherence(self, t):
        """Dipole amplitude s(t); accepts scalars or arrays."""
        t = np.asarray(t, dtype=float)
        co = self.coefficients
        q, decay, cf, sf, _, _ = self._basis
        out = np.exp(-decay * t) * (co.a * cf(q * t) + co.b / q * sf(q * t)) + co.c
        return float(out) if out.ndim == 0 else out

    def coherence_rate(self, t):
        """Time derivative of the dipole amplitude."""
        t = np.asarray(t, dtype=float)
        q, decay, cf, sf, _, _ = self._basis
        out = np.exp(-decay * t) * (self.pc * cf(q * t) + self.ps / q * sf(q * t))
        return float(out) if out.ndim == 0 else out

    def excited_population(self, t):
        """Population recovered from the dipole equation of motion."""
        s = self.coherence(t)
        ds = self.coherence_rate(t)
        return 0.5 + (ds + 0.5 * self.gamma * s) / self.rabi

    def state(self, t: float) -> QubitState:
        p, sr, si = _clamped_state(
            float(self.excited_population(t)), float(self.coherence(t)), 0.0
        )
        return QubitState(p_e=p, s_bar=complex(sr, si))


def evolve_square_analytic(prep: Preparation, rabi: float, gamma: float, t: float) -> QubitState:
    """State at time ``t`` under a constant drive switched on at t = 0."""
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    return SquarePulseSolution(prep, rabi, gamma).state(t)


# --------------------------- exact trajectory builders ---------------------------


def analytic_square_trajectory(
    prep: Preparation,
    rabi: float,
    gamma: float,
    t_end: float,
    num: int,
    coupling: CouplingSchedule = ALWAYS_ON,
) -> Trajectory:
    """Constant-drive trajectory sampled from the closed form (no integration error)."""
    if num < 1:
        raise ValueError("num must be at least 1")
    sol = SquarePulseSolution(prep, rabi, gamma)
    times = np.linspace(0.0, t_end, num) if num > 1 else np.array([0.0])
    s = np.atleast_1d(sol.coherence(times))
    p = np.atleast_1d(sol.excited_population(times))
    return Trajectory(
        times=times,
        p_e=p,
        s_bar=s.astype(complex),
        drive=SquarePulse(amplitude=rabi, duration=max(t_end, np.finfo(float).tiny)),
        coupling=coupling,
        gamma=gamma,
    )


def free_decay_trajectory(state0: QubitState, gamma: float, t_end: float, num: int) -> Trajectory:
    """Undriven decay sampled exactly on a uniform grid."""
    if num < 2:
        raise ValueError("num must be at least 2")
    times = np.linspace(0.0, t_end, num)
    p = state0.p_e * np.exp(-gamma * times)
    s = state0.s_bar * np.exp(-0.5 * gamma * times)
    return Trajectory(
        times=times,
        p_e=p,
        s_bar=s,
        drive=OffDrive(),
        coupling=ALWAYS_ON,
        gamma=gamma,
    )
