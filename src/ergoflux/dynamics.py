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

# Reduced Planck constant in J*s; exact in the SI since 2019.
HBAR = 6.62607015e-34 / (2 * math.pi)

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
        return e * HBAR * self.omega0

    def power_watts(self, p: float) -> float:
        return p * HBAR * self.omega0 * self.gamma


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


def _clamped_samples(p_e, s_re, s_im):
    """`_clamped_state` for arrays of stored samples; a non-finite one is a failure."""
    m2 = s_re * s_re + s_im * s_im
    worst = float(np.max(np.maximum(np.maximum(-p_e, p_e - 1.0), m2 - p_e * (1.0 - p_e))))
    if not worst <= BLOCH_TOL:
        raise IntegrationAccuracyError(
            f"Bloch-ball violation {worst:.3e} exceeds tolerance {BLOCH_TOL:.0e}"
        )
    if worst <= 0.0:
        return p_e, s_re, s_im
    p_e = np.clip(p_e, 0.0, 1.0)
    cap = p_e * (1.0 - p_e)
    out = m2 > cap  # implies m2 > 0
    scale = np.where(out, np.sqrt(cap / np.where(out, m2, 1.0)), 1.0)
    return p_e, s_re * scale, s_im * scale


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


# Steps composed per chunk and per block of the scan.  Both are fixed, so a
# run's arithmetic, and with it every digit of its result, is the same on
# every machine; a block bounds the scan's temporaries to a few MB.
_CHUNK = 16
_BLOCK = 1 << 13

# Rows p and s of the homogeneous columns (e_p, e_s, 1) that `_rk4_maps`
# steps, and half the homogeneous coordinate, which carries the drive offset.
_COLUMNS = np.eye(3)[:2, :, None]
_HALF = np.array([[0.0], [0.0], [0.5]])


def _rhs(p, s, rabi, gamma, half=0.5):
    """Bloch right-hand side (dp/dt, ds/dt) of the real channel, elementwise.

    ``half`` is the offset in rabi * (p - 1/2): 0.5 for states, `_HALF` for
    map columns, 0 for the linear part alone.
    """
    return -gamma * p - rabi * s, rabi * (p - half) - 0.5 * gamma * s


def _rk4_maps(oa, ob, oc, ga, gb, gc, h):
    """Affine maps x -> M x + v of RK4 steps, one per element of the samples.

    The Bloch equations are affine in x = (p_e, s), so one RK4 step is too.
    ``oa``/``ob``/``oc`` and ``ga``/``gb``/``gc`` are the drive and decay at
    step start, middle and end.  Stepping the homogeneous columns e_p, e_s
    and 1 gives the (2, 3, n) array whose row i holds (M_i0, M_i1, v_i).
    """
    p, s = _COLUMNS
    k1p, k1s = _rhs(p, s, oa, ga, _HALF)
    k2p, k2s = _rhs(p + 0.5 * h * k1p, s + 0.5 * h * k1s, ob, gb, _HALF)
    k3p, k3s = _rhs(p + 0.5 * h * k2p, s + 0.5 * h * k2s, ob, gb, _HALF)
    k4p, k4s = _rhs(p + h * k3p, s + h * k3s, oc, gc, _HALF)
    return np.stack((
        p + h / 6.0 * (k1p + 2.0 * (k2p + k3p) + k4p),
        s + h / 6.0 * (k1s + 2.0 * (k2s + k3s) + k4s),
    ))


def _decay_factors(ga, gb, gc, h):
    """RK4 factor of one step of ds/dt = -(gamma/2) s, the uncoupled imaginary dipole."""
    k1 = -0.5 * ga
    k2 = -0.5 * gb * (1.0 + 0.5 * h * k1)
    k3 = -0.5 * gb * (1.0 + 0.5 * h * k2)
    k4 = -0.5 * gc * (1.0 + h * k3)
    return 1.0 + h / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)


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
    (see `_rk4_maps`); they are requested and scanned in blocks of `_BLOCK`
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
    1/max(rabi)).  The RK4 steps are affine maps of the state, composed by
    `_affine_scan`; the uncoupled imaginary part of the dipole is the
    initial one times the running product of its per-step RK4 factor.  The
    stored states are clamped back into the Bloch ball after integration,
    so the clamp never feeds back into the next step; any of them outside
    by more than BLOCH_TOL raises `IntegrationAccuracyError`.  The fixed
    grid and scan layout make runs bit-reproducible.
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
    del mids

    om_max = float(max(om_g.max(initial=0.0), om_m.max(initial=0.0)))
    limit = 0.01 * min(
        1.0 / gamma if gamma > 0.0 else _INF,
        1.0 / om_max if om_max > 0.0 else _INF,
    )
    if h > limit * (1.0 + 1e-9):
        raise ValueError(
            f"dt={h:.3e} too coarse for the fastest scale; need dt <= {limit:.3e}"
        )

    s_bar = np.empty(n + 1, dtype=complex)
    sr, si = s_bar.real, s_bar.imag
    si[0] = state0.s_bar.imag

    def maps(lo, hi):
        ga, gb, gc = gamma * on_g[lo:hi], gamma * on_m[lo:hi], gamma * on_g[lo + 1 : hi + 1]
        si[lo + 1 : hi + 1] = _decay_factors(ga, gb, gc, h)
        return _rk4_maps(om_g[lo:hi], om_m[lo:hi], om_g[lo + 1 : hi + 1], ga, gb, gc, h)

    p, sr[:] = _affine_scan(maps, n, (state0.p_e, state0.s_bar.real))
    np.cumprod(si, out=si)
    for lo in range(0, n + 1, _BLOCK):
        block = slice(lo, lo + _BLOCK)
        p[block], sr[block], si[block] = _clamped_samples(p[block], sr[block], si[block])
    return Trajectory(
        times=times,
        p_e=p,
        s_bar=s_bar,
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
    return np.arctanh(np.where(np.abs(x) < 1.0, x, np.nan))


class _Basis(NamedTuple):
    q: object
    decay: object
    cf: Callable
    sf: Callable
    arc: Callable
    period: object
    exp: Callable

    def at(self, t):
        """The damped basis exp(-alpha t) C(t) and exp(-alpha t) S(t)."""
        qt = self.q * t
        env = self.exp(-self.decay * t)
        return env * self.cf(qt), env * self.sf(qt) / self.q

    def take(self, cells):
        """The basis of the cells ``cells`` of an array basis."""
        return self._replace(q=self.q[cells], decay=self.decay[cells], period=self.period[cells])


def _transient_basis(k, alpha, xp=np) -> _Basis:
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
    ``period`` (infinite unless k > 0).  ``xp`` is ``math`` for a scalar
    ``k`` and ``numpy`` for an array of one sign; `_basis_groups` splits
    arrays of cells into such groups.
    """
    one = _one(k)
    sign = np.ravel(k)[0]
    if sign > 0.0:
        q = xp.sqrt(k)
        return _Basis(q, alpha * one, xp.cos, xp.sin, np.arctan, math.pi / q, xp.exp)
    if sign < 0.0:
        q = xp.sqrt(-k)

        def cf(x):
            return 0.5 * (1.0 + xp.exp(-2.0 * x))

        def sf(x):
            return -0.5 * xp.expm1(-2.0 * x)

        return _Basis(q, alpha - q, cf, sf, _atanh_inside, _INF * one, xp.exp)
    return _Basis(one, alpha * one, _one, _identity, _identity, _INF * one, xp.exp)


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


class SquarePulseSolution:
    """Closed-form dipole and population under a constant resonant drive."""

    def __init__(self, prep: Preparation, rabi: float, gamma: float):
        self.prep = prep
        self.rabi = rabi
        self.gamma = gamma
        self.coefficients = co = square_pulse_coefficients(prep, rabi, gamma)
        self.alpha = 0.75 * gamma
        self._basis = _transient_basis(co.k, self.alpha)

    def coherence(self, t):
        """Dipole amplitude s(t); accepts scalars or arrays."""
        co = self.coefficients
        ec, es = self._basis.at(np.asarray(t, dtype=float))
        out = co.a * ec + co.b * es + co.c
        return float(out) if out.ndim == 0 else out

    def coherence_rate(self, t):
        """Time derivative of the dipole amplitude."""
        co = self.coefficients
        ec, es = self._basis.at(np.asarray(t, dtype=float))
        out = co.pc * ec + co.ps * es
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
