"""Work-extraction protocols for the driven qubit battery.

Three drive schedules are covered:

* `scenario_continuous` (case i): constant drive set by the photon rate,
  stopped at the work-maximizing time with the coupling switched off there,
* `scenario_spontaneous` (case ii): no drive at all; work comes from the
  coherent part of the decaying dipole's emission,
* `scenario_pulsed` (case iii): a square wave packet of fixed photon content
  and duration, followed by free decay with the coupling left on.

Each returns a `ScenarioResult`; `sweep` maps any of them over a parameter
grid as batched numpy array code in one process.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import (
    IntegrationAccuracyError,
    Preparation,
    _basis_groups,
    _check_params,
    _coefficients,
    prepare_initial,
)
from .energetics import (
    _drive_work,
    _ergotropy,
    _yield,
    ergotropy,
    extraction_yield,
)

# work may exceed ergotropy only by numerical noise
_BOUND_TOL = 1e-6

SCENARIO_ALIASES = {"i": "continuous", "ii": "spontaneous", "iii": "pulsed"}
SCENARIO_NAMES = tuple(SCENARIO_ALIASES.values())


@dataclass(frozen=True, eq=False)
class ScenarioResult:
    """Outcome of one extraction run.

    ``eta`` is NaN for passive preparations (zero ergotropy, yield
    undefined); ``tau_opt`` is None where no stopping time is involved.
    """

    prep: Preparation
    work: float
    eta: float
    tau_opt: float | None = None
    n_interacted: float | None = None

    def __post_init__(self):
        if not self.work <= ergotropy(self.prep) + _BOUND_TOL:
            raise IntegrationAccuracyError(
                f"work {self.work} is not within the ergotropy "
                f"{ergotropy(self.prep)} of the preparation"
            )


# --------------------------- stopping-time search ---------------------------

# cells are searched in blocks of _BLOCK_CELLS, and their candidate brackets
# (one per positive maximum, see `_layout`) in windows of _BLOCK_BRACKETS, so
# temporaries stay bounded however many extrema a cell has
_BLOCK_CELLS = 1 << 13
_BLOCK_BRACKETS = 1 << 14
# refinement steps (root-function evaluations) per bracket; a bracket still
# open after them fails its cell
_MAX_STEPS = 64
# a bracket narrower than _XTOL + _RTOL * t holds its root (brentq's defaults)
_XTOL, _RTOL = 1e-14, 8.9e-16
# a bracket whose work bound lies below a cell's floor by more than
# _PRUNE_TOL * max(1, floor) is not refined.  The terms of W and of the bound
# are of order 1 + gamma * t, below 100 at photon rates above 1e-40 gamma, so
# each carries a rounding error of a few 1e-14 at most; the margin keeps every
# pruned bracket's computed work strictly below the computed best, so pruning
# changes no result
_PRUNE_TOL = 1e-12
# slack, in units of the exponent alpha * t, on the reach of the positive
# maxima; far above the rounding of the exponent (a few 1e-15), so no maximum
# whose computed dipole is positive lies past the reach
_REACH_TOL = 1e-12
# `_tail_cut` runs on cells with more candidates than this; on fewer it
# costs about as much as it saves
_CUT_MIN = 8


def _newton(dipole, lo, hi, flo, fhi, cell):
    """Refine brackets with f(lo) > 0 > f(hi) by safeguarded Newton ("rtsafe",
    Press et al., Numerical Recipes, sec. 9.4).

    ``dipole(x, cell)`` returns f and f' from one evaluation.  The first x
    is the bracket's secant point.  Each step evaluates x, replaces the end
    whose sign f(x) shares, and moves to the Newton point when it lies in
    the bracket and is less than half the step before last, else to the
    midpoint.  A bracket ends when f(x) is 0 (or NaN), when it is at most
    _XTOL + _RTOL * hi wide (root: its midpoint), or when the next step is
    at most half that (root: where the step lands).  Converged brackets
    leave the active set after every step.  Returns the roots, NaN for
    brackets still open after `_MAX_STEPS` steps.
    """
    root = np.full(lo.size, np.nan)
    idx = np.arange(lo.size)
    x = np.clip((lo * fhi - hi * flo) / (fhi - flo), lo, hi)
    step = step_old = hi - lo
    for _ in range(_MAX_STEPS):
        if not idx.size:
            break
        f, df = dipole(x, cell)
        up, down = f > 0.0, f < 0.0
        lo, hi = np.where(up, x, lo), np.where(down, x, hi)
        tol = _XTOL + _RTOL * hi
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = x - f / df
        inside = (lo <= newton) & (newton <= hi) & (np.abs(2.0 * f) <= np.abs(step_old * df))
        nxt = np.where(inside, newton, 0.5 * (lo + hi))
        step_old, step = step, np.abs(nxt - x)
        narrow = hi - lo <= tol
        done = ~(up | down) | narrow | (step <= 0.5 * tol)
        root[idx[done]] = np.where(up | down, np.where(narrow, 0.5 * (lo + hi), nxt), x)[done]
        keep = ~done
        idx, lo, hi, x, step, step_old, cell = (v[keep] for v in (idx, lo, hi, nxt, step, step_old, cell))
    return root


def _layout(gamma, co, basis):
    """Where the search of cells that share the sign of k looks for brackets.

    The dipole is monotone between its extrema, settles to c < 0, and can
    fall through zero only before its first extremum or after a positive
    maximum.  For k <= 0 it has at most one extremum, so a cell has at most
    one bracket, between two of its knots 0, ``first`` and an envelope
    horizon, which may lie past 20/gamma.  For k > 0 the extrema sit at
    t_j = first + j * period, where the damped basis is its value at
    ``first`` times (-rho)^j with rho = exp(-alpha * period), so the dipole
    there is c + A (-rho)^j with A the transient at ``first``.  A maximum has A (-1)^j > 0 (a minimum lies
    below c), and only the maxima before the reach log(|A| / |c|) / (alpha *
    period) can be positive; each opens a bracket that ends at the next
    extremum, or at t_max = 20/gamma, long after the transient has died out.

    Returns (size, ok, brackets) per cell: ``size`` candidate brackets, none
    for a cell with ``ok`` false.  ``brackets(cell, i)`` gives the ends
    (lo, hi) of candidate i of each ``cell`` and the damped basis there
    (ec, es at lo, then at hi), for k > 0 from one exp per candidate.  A
    candidate is a bracket when the dipole falls from s(lo) > 0 to s(hi) < 0.
    For k > 0 every candidate i >= 1 starts at a maximum, one period before
    its next extremum and two after the maximum of candidate i - 1.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        # the slope exp(-alpha t) * (pc C + ps S) vanishes where S / C = -pc / ps
        r = np.where(co.ps != 0.0, -co.pc / co.ps, np.copysign(np.inf, -co.pc))
        first = basis.arc(basis.q * r) / basis.q
        first = np.where(first > 1e-15, first, first + basis.period)
    s0 = co.a + co.c  # the damped basis is (1, 0) at t = 0

    if not np.isfinite(basis.period[0]):
        # k <= 0, so sqrt(-k) < gamma / 4: exp(-gamma t / 4) bounds |C| by 1
        # and |S| by 2 / gamma, and the transient stays below
        # amp * exp(-gamma t / 2).  Crossings die once that envelope drops
        # below |c|; the 1 / gamma pad puts the end knot inside that region.
        # The logs are taken apart, so a subnormal |c| does not overflow.
        amp = np.abs(co.a) + np.abs(co.b) / (0.5 * gamma)
        with np.errstate(divide="ignore"):
            settle = 2.0 / gamma * (np.log(amp) - np.log(np.abs(co.c))) + 1.0 / gamma
        horizon = np.where(amp <= np.abs(co.c), 0.0, settle)
        mid = np.where(first < horizon, first, horizon)  # first is NaN without an extremum
        (ec1, es1), (ec2, es2) = basis.at(mid), basis.at(horizon)
        s1, s2 = co.a * ec1 + co.b * es1 + co.c, co.a * ec2 + co.b * es2 + co.c
        down = (s0 > 0.0) & (s1 < 0.0)  # the crossing lies in [0, mid], else in [mid, horizon]
        ends = (
            np.where(down, 0.0, mid), np.where(down, mid, horizon),
            np.where(down, 1.0, ec1), np.where(down, 0.0, es1),
            np.where(down, ec1, ec2), np.where(down, es1, es2),
        )
        size = (down | (s1 > 0.0) & (s2 < 0.0)).astype(np.intp)
        return size, np.ones(size.size, dtype=bool), lambda cell, i: tuple(v[cell] for v in ends)

    t_max = 20.0 / gamma
    t1 = np.minimum(first, t_max)
    ec1, es1 = basis.at(t1)
    transient = co.a * ec1 + co.b * es1
    before = (s0 > 0.0) & (transient + co.c < 0.0)  # a crossing in [0, first]
    log_rho = -basis.decay * basis.period
    with np.errstate(divide="ignore", invalid="ignore"):
        reach = np.ceil((np.log(np.abs(transient)) - np.log(np.abs(co.c)) + _REACH_TOL) / -log_rho)
    extrema = np.where(first < t_max, np.maximum(np.ceil((t_max - first) / basis.period), 1.0), 0.0)
    count = np.maximum(np.fmin(reach, extrema), 0.0)
    # more than 2^52 extrema to search lie within a few ulps of each other,
    # so such a cell cannot be searched in double precision
    ok = count <= 2.0**52
    odd = (transient <= 0.0).astype(np.intp)  # the parity of the maxima
    size = np.where(ok, before + np.maximum(np.ceil(0.5 * (count - odd)), 0.0), 0.0).astype(np.intp)
    # candidate i is maximum j = 2 i + skip, after the bracket before the
    # first extremum (j < 0) where the cell has one
    skip = odd - 2 * before.astype(np.intp)
    sign = 1.0 - 2.0 * odd
    ec_max, es_max, rho = sign * ec1, sign * es1, np.exp(log_rho)

    def brackets(cell, i):
        j = 2 * i + skip[cell]
        t0, step = first[cell], basis.period[cell]
        lo, hi = t0 + j * step, t0 + (j + 1) * step
        up = np.exp(np.maximum(j, 0) * log_rho[cell])  # j < 0 is replaced below
        ec, es = ec_max[cell], es_max[cell]
        down = -rho[cell] * up
        ec, es, ec_hi, es_hi = up * ec, up * es, down * ec, down * es
        b = np.flatnonzero(j < 0)
        c = cell[b]
        lo[b], hi[b], ec[b], es[b], ec_hi[b], es_hi[b] = 0.0, t1[c], 1.0, 0.0, ec1[c], es1[c]
        # no root past t_max: a bracket reaching it ends there
        b = np.flatnonzero(hi > t_max)
        hi[b] = t_max
        ec_hi[b], es_hi[b] = basis.take(cell[b]).at(hi[b])
        return lo, hi, ec, es, ec_hi, es_hi

    return size, ok, brackets


def _work_bound(w_lo, lo, hi, s_lo, rabi, gamma):
    """An upper bound on the work at the root r of a bracket [lo, hi] of the dipole.

    The dipole falls from s(lo) = ``s_lo`` > 0 to r, and W' = s (rabi + gamma s)
    grows with s > 0, so W(lo) < W(r) <= W(lo) + (hi - lo) s(lo) (rabi + gamma s(lo)).
    """
    return w_lo + (hi - lo) * s_lo * (rabi + gamma * s_lo)


def _tail_cut(size, brackets, rabi, gamma: float, co, basis):
    """How many leading candidates of `_layout` can hold each cell's best work.

    At candidate 1 + n the damped basis is v = rho^(2n) times its value at
    candidate 1, at t = t_1 + 2 n period.  The state there is affine in v,
    so the dipole is s = c + S v and `_drive_work` is W(t, v) = W0 + K_t t +
    K_1 v + K_2 v^2, with K_t = c (rabi + gamma c) < 0 the settled work rate;
    W0, K_1 and K_2 follow from W(0, v) at v = 0 and +-1.  A bracket is at
    most one period long, so its bound (`_work_bound`) is at most E(n) = W0 + K_t (t + period) + L_1+ v + L_2+ v^2, where
    L_1 = K_1 + period S (rabi + 2 gamma c), L_2 = K_2 + period gamma S^2
    and x+ = max(x, 0); E falls strictly as n grows.  The floor
    F = max(0, W(t_1, 1)) lies below the cell's best: W(lo) < W(root) on a
    bracket, and if candidate 1 holds none no later maximum is positive.  A
    bisection finds the first n where E(n) lies below F by more than
    4 _PRUNE_TOL max(1, F); the candidates from there on would be pruned,
    and cannot raise the floor, since W(lo) <= bound.  Every candidate is
    kept for k <= 0 (no train of maxima), in cells with at most `_CUT_MIN`
    candidates, and where the envelope or the floor is not finite.
    """
    cut = np.flatnonzero(size > _CUT_MIN)
    if not (cut.size and np.isfinite(basis.period[0])):
        return size
    part, r, period = co.take(cut), rabi[cut], basis.period[cut]
    t1, _, ec, es, _, _ = brackets(cut, np.ones(cut.size, dtype=np.intp))

    def work(v):
        """W(0, v): with tau = 0, `_drive_work` leaves out the term K_t t."""
        return _drive_work(0.0, r, gamma, part, None, at=(v * ec, v * es))[0]

    w0, w_up, w_down = work(0.0), work(1.0), work(-1.0)
    rate, transient = part.c * (r + gamma * part.c), part.a * ec + part.b * es
    l1 = np.maximum(0.5 * (w_up - w_down) + period * transient * (r + 2.0 * gamma * part.c), 0.0)
    l2 = np.maximum(0.5 * (w_up + w_down) - w0 + period * gamma * transient * transient, 0.0)
    floor = np.maximum(w_up + rate * t1, 0.0)
    # a NaN envelope or floor keeps every candidate
    finite = np.isfinite(w0 + l1 + l2 + floor)
    least = np.where(finite, floor - 4.0 * _PRUNE_TOL * np.maximum(floor, 1.0), -np.inf)
    log_v = -2.0 * basis.decay[cut] * period

    def envelope(n):
        v = np.exp(n * log_v)
        return w0 + rate * (t1 + (2 * n + 1) * period) + (l1 + l2 * v) * v

    # the first n in [0, size - 1) with E(n) below `least`, else size - 1
    lo, hi = np.zeros(cut.size, dtype=np.intp), size[cut] - 1
    for _ in range(int(hi.max()).bit_length()):
        mid = (lo + hi) // 2
        below = envelope(mid) < least
        lo, hi = np.where(below, lo, np.minimum(mid + 1, hi)), np.where(below, mid, hi)
    size = size.copy()
    size[cut] = 1 + lo
    return size


def _search_group(rabi, gamma, co, basis):
    """The search of `optimal_square_work` on cells that share the sign of k.

    Of the candidates of `_layout`, only the leading ones `_tail_cut`
    keeps are laid out.  Returns (tau, work, ok) per cell.
    """
    m = rabi.size
    size, ok, brackets = _layout(gamma, co, basis)
    size = _tail_cut(size, brackets, rabi, gamma, co, basis)

    ends = np.cumsum(size)
    starts = ends - size
    tau, work = np.zeros(m), np.zeros(m)

    # the root function needs the dipole and its slope alone, not the whole
    # state `dynamics._drive_state` forms
    def dipole(t, cell):
        ec, es = basis.take(cell).at(t)
        return co.a[cell] * ec + co.b[cell] * es + co.c[cell], co.pc[cell] * ec + co.ps[cell] * es

    def search_window(lo, hi):
        """Search the candidates lo..hi-1, carrying tau, work and ok of their cells."""
        g = np.arange(lo, hi)
        # the window holds a run of cells; each contributes its candidates within it
        run = np.arange(np.searchsorted(ends, lo, side="right"), np.searchsorted(ends, hi - 1, side="right") + 1)
        cell = np.repeat(run, np.minimum(ends[run], hi) - np.maximum(starts[run], lo))
        t_lo, t_hi, ec, es, ec_hi, es_hi = brackets(cell, g - starts[cell])
        part, r = co.take(cell), rabi[cell]
        s_lo, s_hi = part.a * ec + part.b * es + part.c, part.a * ec_hi + part.b * es_hi + part.c
        w_lo = _drive_work(t_lo, r, gamma, part, None, at=(ec, es))[0]

        # W' = s (rabi + gamma s) and rabi + gamma s > 0, so only downward
        # crossings of the dipole are interior maxima of the work.  The floor
        # (tau = 0, earlier windows, every W(lo)) lies below the cell's best,
        # so a bracket bounded below it cannot hold the first maximum; a NaN
        # bound keeps its bracket
        down = (s_lo > 0.0) & (s_hi < 0.0)
        bound = _work_bound(w_lo, t_lo, t_hi, s_lo, r, gamma)
        floor = work.copy()
        np.fmax.at(floor, cell, np.where(down, w_lo, -np.inf))
        keep = np.flatnonzero(down & ~(bound < floor[cell] - _PRUNE_TOL * np.maximum(floor[cell], 1.0)))
        cell = cell[keep]

        roots = _newton(dipole, t_lo[keep], t_hi[keep], s_lo[keep], s_hi[keep], cell)
        w = _drive_work(roots, r[keep], gamma, part.take(keep), basis.take(cell))[0]
        # a bracket still open (NaN root) or NaN work fails its cell
        ok[cell[~np.isfinite(w)]] = False

        # the first strict maximum over tau = 0 (W = 0) and the crossings in
        # time order, carried from window to window
        best = work.copy()
        np.fmax.at(best, cell, w)
        hit = np.flatnonzero((w > work[cell]) & (w == best[cell]))
        winners, first_hit = np.unique(cell[hit], return_index=True)
        tau[winners], work[winners] = roots[hit[first_hit]], w[hit[first_hit]]

    total = int(ends[-1]) if m else 0
    for lo in range(0, total, _BLOCK_BRACKETS):
        search_window(lo, min(lo + _BLOCK_BRACKETS, total))
    return tau, work, ok


def optimal_square_work(p, theta, rabi, gamma: float = 1.0):
    """Best stopping time and work of a constant drive with coupling cut at stop.

    ``p``, ``theta`` (as in `Preparation`) and the Rabi frequency ``rabi``
    broadcast against each other, one cell per entry; ``gamma`` > 0 is
    shared.  Candidates are tau = 0 and the downward zero crossings of the
    dipole on (0, 20/gamma]; an overdamped drive is searched up to its
    envelope horizon (`_layout`).
    Their brackets are laid out in closed form (`_layout`): from 0 to the
    first extremum, and from each positive maximum to the next extremum.
    The dipole at the extrema of an oscillating drive falls geometrically
    towards its settled value, so its positive maxima follow from one
    evaluation per cell and one exp per maximum.  The brackets are refined
    by `_newton`, a safeguarded Newton iteration on the closed-form dipole
    and slope; the dipole settles to a strictly negative value, so the work
    decreases at late times.  A bracket [lo, hi] is
    refined only if its bound W(lo) + (hi - lo) s(lo) (rabi + gamma s(lo))
    on the work at its root reaches the cell's floor, the best of 0, the
    work of earlier windows and every W(lo), less `_PRUNE_TOL`.  The bounds
    of an oscillating drive's whole tail of maxima lie under a closed-form
    envelope falling with time (`_tail_cut`), so a cell with more than
    `_CUT_MIN` candidates lays out only those before the envelope drops
    below its floor.  The result is the one refining every bracket
    gives.  Returns arrays (tau, work) of
    the broadcast shape.  A cell holds NaN when p or theta is out of range,
    rabi is not positive with a finite square, a bracket did not converge,
    or the cell has more than 2^52 extrema to search.
    """
    _check_params("positive", gamma=gamma)
    p, theta, rabi = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (p, theta, rabi)))
    shape = p.shape
    p, theta, rabi = p.ravel(), theta.ravel(), rabi.ravel()
    tau, work = np.full(p.size, np.nan), np.full(p.size, np.nan)
    with np.errstate(over="ignore", invalid="ignore"):
        valid = (0.0 <= p) & (p <= 0.5) & (0.0 <= theta) & (theta <= math.pi) & (rabi > 0.0)
        run = np.flatnonzero(valid & np.isfinite(rabi * rabi))
    for i in range(0, run.size, _BLOCK_CELLS):
        block = run[i:i + _BLOCK_CELLS]
        co = _coefficients(p[block], theta[block], rabi[block], gamma)
        for cells, part, basis in _basis_groups(co, 0.75 * gamma):
            g = block[cells]
            t, w, ok = _search_group(rabi[g], gamma, part, basis)
            tau[g], work[g] = np.where(ok, t, np.nan), np.where(ok, w, np.nan)
    return tau.reshape(shape), work.reshape(shape)


# --------------------------- the three protocols ---------------------------


def _pulsed_work(p, theta, n_bar, tau, gamma: float):
    """Case (iii) work for 1-D arrays of valid cells: the drive's work plus the
    exact tail s(tau)^2 of the free decay; ``n_bar = 0`` is the spontaneous case."""
    s0 = (0.5 - p) * np.sin(theta)
    work = s0 * s0
    on = np.flatnonzero(n_bar > 0.0)
    with np.errstate(over="ignore", invalid="ignore"):  # a drive past the float range gives NaN
        rabi = 2.0 * np.sqrt(gamma * n_bar[on] / tau[on])
        co = _coefficients(p[on], theta[on], rabi, gamma)
        for cells, part, basis in _basis_groups(co, 0.75 * gamma):
            w, s = _drive_work(tau[on[cells]], rabi[cells], gamma, part, basis)
            work[on[cells]] = w + s * s
    return work


def scenario_continuous(
    prep: Preparation,
    photon_rate_ratio: float,
    gamma: float = 1.0,
) -> ScenarioResult:
    """Case (i): constant drive at photon rate ``photon_rate_ratio * gamma``.

    The Rabi frequency is 2*sqrt(gamma * photon_rate); the drive runs until
    the work-maximizing stopping time, where the coupling is switched off so
    no decay tail reaches the channel.  The stopping time comes from
    `optimal_square_work`.  ``n_interacted`` counts the photons that arrived
    during the interaction.
    """
    _check_params("positive", photon_rate_ratio=photon_rate_ratio, gamma=gamma)
    rabi = 2.0 * gamma * math.sqrt(photon_rate_ratio)
    tau, work = (float(v) for v in optimal_square_work(prep.p, prep.theta, rabi, gamma))
    if math.isnan(work):
        raise IntegrationAccuracyError(
            f"stopping-time search failed for {prep} at photon_rate_ratio {photon_rate_ratio}, "
            f"gamma {gamma}: a bracket did not converge or the drive is too strong to search"
        )
    return ScenarioResult(
        prep=prep,
        work=work,
        eta=extraction_yield(work, prep),
        tau_opt=tau,
        n_interacted=photon_rate_ratio * gamma * tau,
    )


def scenario_spontaneous(prep: Preparation) -> ScenarioResult:
    """Case (ii): no drive; the full decay deposits s(0)^2 of work into the channel."""
    work = prepare_initial(prep).s_bar ** 2
    return ScenarioResult(
        prep=prep,
        work=work,
        eta=extraction_yield(work, prep),
        tau_opt=None,
        n_interacted=0.0,
    )


def scenario_pulsed(
    prep: Preparation,
    n_bar: float,
    tau: float,
    gamma: float = 1.0,
) -> ScenarioResult:
    """Case (iii): square wave packet of charge ``n_bar`` and duration ``tau``.

    The coupling stays on throughout, so the free-decay tail after the pulse
    also counts.  ``n_bar = 0`` reduces exactly to the spontaneous protocol.
    """
    _check_params("nonnegative", n_bar=n_bar)
    _check_params("positive", tau=tau, gamma=gamma)
    if n_bar == 0.0:
        return scenario_spontaneous(prep)

    cell = [np.array([v]) for v in (prep.p, prep.theta, n_bar, tau)]
    work = float(_pulsed_work(*cell, gamma)[0])
    if not math.isfinite(work):
        raise IntegrationAccuracyError(
            f"pulsed work is not finite at n_bar {n_bar}, tau {tau}, gamma {gamma}: the Rabi frequency "
            f"2*sqrt(gamma*n_bar/tau) = {2.0 * math.sqrt(gamma * n_bar / tau):.6g} is not finite or too strong"
        )
    return ScenarioResult(
        prep=prep,
        work=work,
        eta=extraction_yield(work, prep),
        tau_opt=tau,
        n_interacted=n_bar,
    )


# --------------------------- parameter sweeps ---------------------------


@dataclass(frozen=True)
class SweepAxis:
    """One swept parameter: name plus the grid of values."""

    name: str
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.ndim != 1 or len(self.values) < 2:
            raise ValueError("values must be a 1-D array with at least 2 entries")


# scenario parameters addressable by sweeps and fixed values; a CLI sweep's
# first column is the earlier of its two axes in this order
_AXIS_NAMES = ("theta", "p", "ndot", "nbar", "tau")
# parameters without a default, per scenario
_REQUIRED = {
    "continuous": ("theta", "ndot"),
    "spontaneous": ("theta",),
    "pulsed": ("theta", "nbar", "tau"),
}


@dataclass(frozen=True, eq=False)
class SweepGrid:
    """Cartesian sweep specification for one scenario.

    ``fixed`` supplies every parameter of `_REQUIRED` not covered by the two
    axes, and p if not 0.
    """

    scenario: str
    axis1: SweepAxis
    axis2: SweepAxis
    fixed: dict = field(default_factory=dict)
    gamma: float = 1.0

    def __post_init__(self):
        name = SCENARIO_ALIASES.get(self.scenario, self.scenario)
        object.__setattr__(self, "scenario", name)
        if name not in SCENARIO_NAMES:
            raise ValueError(f"unknown scenario {self.scenario!r}; pick from {SCENARIO_NAMES}")
        for ax in (self.axis1, self.axis2):
            if ax.name not in _AXIS_NAMES:
                raise ValueError(f"unknown axis {ax.name!r}; pick from {sorted(_AXIS_NAMES)}")
        if self.axis1.name == self.axis2.name:
            raise ValueError("the two axes must differ")
        for key in self.fixed:
            if key not in _AXIS_NAMES:
                raise ValueError(f"unknown fixed parameter {key!r}")
        _check_params("positive", gamma=self.gamma)
        given = {self.axis1.name, self.axis2.name, *self.fixed}
        missing = [key for key in _REQUIRED[name] if key not in given]
        if missing:
            raise ValueError(f"the {name} sweep needs a value for {', '.join(missing)}")


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Work, yield, and stopping time over the grid; ``flag`` marks failed cells."""

    grid: SweepGrid
    work: np.ndarray
    eta: np.ndarray
    tau_opt: np.ndarray
    flag: np.ndarray


def sweep(grid: SweepGrid) -> SweepResult:
    """Evaluate a scenario over the grid as arrays; failed cells are flagged, not fatal.

    A cell is flagged, with NaN results, when a parameter is out of range or
    not finite, its stopping-time search fails, or its work is not finite or
    exceeds the ergotropy.  Repeated runs are identical.
    """
    shape = (len(grid.axis1.values), len(grid.axis2.values))
    given = {"p": 0.0, **grid.fixed, grid.axis1.name: grid.axis1.values[:, None]}
    given[grid.axis2.name] = grid.axis2.values
    theta, p, ndot, nbar, tau = (
        np.broadcast_to(np.asarray(given.get(name, np.nan), dtype=float), shape).ravel()
        for name in _AXIS_NAMES
    )
    gamma = grid.gamma
    ok = (0.0 <= p) & (p <= 0.5) & (0.0 <= theta) & (theta <= math.pi)  # as `Preparation`
    work, tau_opt = np.full(p.size, np.nan), np.full(p.size, np.nan)
    if grid.scenario == "continuous":
        with np.errstate(invalid="ignore"):  # a negative rate gives a NaN drive, left unsearched
            tau_opt, work = optimal_square_work(p, theta, 2.0 * gamma * np.sqrt(ndot), gamma)
    else:
        if grid.scenario == "spontaneous":
            nbar = np.zeros(p.size)
        else:
            ok &= np.isfinite(nbar) & (nbar >= 0.0) & np.isfinite(tau) & (tau > 0.0)
            tau_opt = np.where(nbar > 0.0, tau, np.nan)
        c = np.flatnonzero(ok)
        work[c] = _pulsed_work(p[c], theta[c], nbar[c], tau[c], gamma)

    # a non-finite theta gives a NaN ergotropy, and its cell is flagged
    with np.errstate(invalid="ignore"):
        w_max = _ergotropy(p, theta)
    eta = _yield(work, w_max)
    ok &= np.isfinite(work) & (work <= w_max + _BOUND_TOL)
    work[~ok] = eta[~ok] = tau_opt[~ok] = np.nan
    return SweepResult(
        grid=grid,
        work=work.reshape(shape),
        eta=eta.reshape(shape),
        tau_opt=tau_opt.reshape(shape),
        flag=~ok.reshape(shape),
    )
