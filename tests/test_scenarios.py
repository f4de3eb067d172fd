"""Extraction-protocol tests: continuous drive, spontaneous decay, wave packet."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import ergoflux as ef
from ergoflux import energetics, scenarios
from ergoflux.scenarios import SCENARIO_ALIASES
from oracles import evolve_square_analytic, free_decay_trajectory

preparations = st.builds(
    ef.Preparation,
    p=st.floats(min_value=0.0, max_value=0.5),
    theta=st.floats(min_value=0.0, max_value=math.pi),
)

active_preparations = st.builds(
    ef.Preparation,
    p=st.floats(min_value=0.0, max_value=0.45),
    theta=st.floats(min_value=0.05, max_value=math.pi),
)

rate_ratios = st.floats(min_value=1e-3, max_value=1e4)


def _square_trace(prep, rabi, tau):
    """The first-law-checked trace of a constant drive over [0, tau], from the closed form.

    It ends with the drive, so it books the free decay after tau as its tail.
    """
    num = math.ceil(tau / ef.suggested_grid_step(rabi, 1.0, tau)) + 1
    traj = ef.analytic_square_trajectory(prep, rabi, 1.0, tau, max(num, 2))
    return ef.accumulate(traj)


def _decay_trace(state):
    """The first-law-checked trace of the free decay from ``state``, with its exact tail."""
    return ef.accumulate(free_decay_trajectory(state, 1.0, t_end=40.0, num=16001))


# ----------------------------------------------------------- continuous drive


def test_continuous_pi_pulse_limit():
    # huge photon rate: the optimal stop is a pi-pulse and the work approaches
    # the ergotropy with a known first-order damping correction 3*pi*g/(4*O)
    prep = ef.Preparation(p=0.0, theta=math.pi)
    res = ef.scenario_continuous(prep, photon_rate_ratio=1e4)
    rabi = 2.0 * math.sqrt(1e4)
    assert res.tau_opt * rabi == pytest.approx(math.pi, rel=5e-3)
    assert res.work == pytest.approx(1.0 - 0.75 * math.pi / rabi, abs=1e-4)
    assert res.n_interacted == pytest.approx(1e4 * res.tau_opt)


def test_continuous_matches_brute_force_scan():
    cases = [
        (0.25, 0.0, 2.0),
        (4.0, 0.2, 1.2),
        (0.02, 0.0, math.pi / 2),
        (0.5, 0.3, math.pi),  # the first interior maximum sits between two dipole extrema
    ]
    for ratio, p, theta in cases:
        prep = ef.Preparation(p=p, theta=theta)
        res = ef.scenario_continuous(prep, ratio)
        rabi = 2.0 * math.sqrt(ratio)
        # the closed form W(tau) on the whole grid at once
        taus = np.linspace(0.0, 20.0, 400001)
        brute = float(ef.square_drive_work(prep, rabi, 1.0, taus[1:]).max())
        brute = max(brute, 0.0)
        assert res.work == pytest.approx(brute, abs=1e-8)


def test_weak_drive_stops_past_20_over_gamma():
    # an overdamped drive's dipole can cross zero long after 20/gamma: at ratio
    # 1e-12 the best stop is near 24/gamma, where W is close to the spontaneous s0^2
    prep = ef.Preparation(p=0.1, theta=2.0)
    res = ef.scenario_continuous(prep, 1e-12)
    taus = np.linspace(0.0, 60.0, 600001)[1:]
    brute = ef.square_drive_work(prep, 2.0 * math.sqrt(1e-12), 1.0, taus)
    assert brute.max() - 1e-15 <= res.work <= brute.max() + 1e-9
    assert abs(res.tau_opt - taus[brute.argmax()]) < 0.05
    # W approaches the undriven limit as the rate vanishes, from above by about 0.65 sqrt(ratio)
    spontaneous = ef.scenario_spontaneous(prep).work
    for ratio in (1e-10, 1e-12, 1e-16, 1e-20, 1e-30):
        gap = ef.scenario_continuous(prep, ratio).work - spontaneous
        assert -1e-15 <= gap <= math.sqrt(ratio) + 1e-15


# (ratio, p, theta, W, tau_opt) from optimal_square_work(..., polish=False) at
# commit 80a7bac, whose search ran brentq cell by cell; ratio 1/64 has k = 0
ORACLE = [
    (0.015625, 0.0, 1.5707963267948966, 0.3119979923526618, 2.502910842985105),
    (0.015625, 0.25, 3.141592653589793, 0.001439412744127133, 0.8084817258660966),
    (0.015625, 0.0, 0.001, 2.4999997906669804e-07, 0.00399600532468155),
    (0.001, 0.0, 1.5707963267948966, 0.26932274716965426, 4.535660311940808),
    (0.001, 0.25, 3.141592653589793, 9.256233146727253e-05, 0.8107727510698407),
    (0.005, 0.0, 0.001, 2.499999789912662e-07, 0.007058597194671709),
    (0.01, 0.5, 1.5707963267948966, 0.0, 0.0),
    (0.1, 0.0, 3.141592653589793, 0.04614132633228813, 1.3196662976345837),
    (0.5, 0.25, 1.5707963267948966, 0.15727283257765717, 0.6806595479977369),
    (1.0, 0.0, 0.001, 2.4999997917474673e-07, 0.0004999375104042972),
    (4.0, 0.25, 3.141592653589793, 0.1724503690595019, 0.5213308725329503),
    (10.0, 0.0, 1.5707963267948966, 0.47434770927562775, 0.23100876692977365),
    (100.0, 0.5, 3.141592653589793, 0.0, 0.0),
    (1000.0, 0.0, 3.141592653589793, 0.963123269428939, 0.049164139776532716),
    (10000.0, 0.0, 3.141592653589793, 0.9882559931064281, 0.015657682215954486),
    (10000.0, 0.25, 1.5707963267948966, 0.2486073553972737, 0.007810565534130072),
    (3.0, 0.0, 0.0, 0.0, 0.0),
]


def test_stop_search_matches_the_scalar_oracle():
    ratio, p, theta, work, tau = (np.array(col) for col in zip(*ORACLE))
    assert {np.sign(4.0 * r - 1.0 / 16.0) for r in ratio} == {-1.0, 0.0, 1.0}
    rabi = 2.0 * np.sqrt(ratio)
    t_b, w_b = ef.optimal_square_work(p, theta, rabi, 1.0)
    np.testing.assert_allclose(w_b, work, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(t_b, tau, rtol=0.0, atol=1e-9)
    for r, pi, th, w, t in ORACLE:
        t_1, w_1 = ef.optimal_square_work(pi, th, 2.0 * math.sqrt(r), 1.0)
        assert t_1.shape == w_1.shape == ()
        assert abs(w_1 - w) <= 1e-12 and abs(t_1 - t) <= 1e-9
        grid = ef.SweepGrid(
            scenario="continuous",
            axis1=ef.SweepAxis(name="ndot", values=np.array([r, 2.0 * r])),
            axis2=ef.SweepAxis(name="theta", values=np.array([th, 0.5 * th])),
            fixed={"p": pi},
        )
        out = ef.sweep(grid)
        assert not out.flag[0, 0]
        assert abs(out.work[0, 0] - w) <= 1e-12 and abs(out.tau_opt[0, 0] - t) <= 1e-9


def test_stop_search_windows_do_not_cut_brackets(monkeypatch):
    # brackets are laid out in windows; tiny windows must give the same answers
    ratio, p, theta = (np.array(col) for col in list(zip(*ORACLE))[:3])
    rabi = 2.0 * np.sqrt(np.concatenate([ratio, [300.0, 0.3]]))
    p, theta = np.append(p, [0.1, 0.2]), np.append(theta, [2.5, 1.0])
    whole = ef.optimal_square_work(p, theta, rabi, 1.0)
    for brackets, cells in [(1, 1), (2, 3), (7, 1 << 13), (64, 5)]:
        monkeypatch.setattr(scenarios, "_BLOCK_BRACKETS", brackets)
        monkeypatch.setattr(scenarios, "_BLOCK_CELLS", cells)
        windowed = ef.optimal_square_work(p, theta, rabi, 1.0)
        assert all(np.array_equal(a, b) for a, b in zip(windowed, whole)), (brackets, cells)


def test_stop_search_reaches_very_strong_drives():
    # about 2.2e6 extrema before the horizon, searched window by window; the
    # optimum is the pi-pulse with its first-order damping correction
    rabi = 2.0 * math.sqrt(3e10)
    tau, work = ef.optimal_square_work(0.0, math.pi, rabi, 1.0)
    assert tau * rabi == pytest.approx(math.pi, rel=1e-5)
    assert work == pytest.approx(1.0 - 0.75 * math.pi / rabi, abs=1e-9)


def test_stop_search_marks_cells_it_cannot_search():
    p = np.array([0.0, 0.6, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    theta = np.array([4.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    rabi = np.array([1.0, 1.0, 0.0, -1.0, math.nan, math.inf, 1e200, 1e16])
    tau, work = ef.optimal_square_work(p, theta, rabi, 1.0)
    assert np.isnan(tau).all() and np.isnan(work).all()
    with pytest.raises(ValueError, match="gamma"):
        ef.optimal_square_work(0.0, 1.0, 1.0, math.nan)


# ------------------------------------------------- pruned stopping-time search


def _knots(gamma, t_max, co, basis):
    """The knot layout the search used before it laid out its brackets in closed form.

    The knots of a cell are 0, the dipole extrema first + j * period for
    j < count, then the horizon; s is monotone between consecutive knots.
    Returns (first, period, horizon, size, ok) per cell: ``size`` knots, none
    for a cell with a zero horizon or with ``ok`` false.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        # For every k, exp(-gamma t / 4) bounds |C| by 1 and |S| by 1 / w with
        # w = max(sqrt|k|, gamma / 2) (sqrt|k| < gamma / 4 when k < 0), so the
        # transient stays below (|a| + |b| / w) * exp(-gamma t / 2).  The settled
        # value c is strictly negative, so crossings die once that envelope
        # drops below |c|; the 1 / gamma pad puts the end knot inside that region.
        horizon = t_max
        if gamma > 0.0:
            amp = np.abs(co.a) + np.abs(co.b) / np.maximum(np.sqrt(np.abs(co.k)), 0.5 * gamma)
            settle = 2.0 / gamma * np.log(amp / np.abs(co.c)) + 1.0 / gamma
            horizon = np.where(amp <= np.abs(co.c), 0.0, np.minimum(t_max, settle))
        # the slope exp(-alpha t) * (pc C + ps S) vanishes where S / C = -pc / ps
        r = np.where(co.ps != 0.0, -co.pc / co.ps, np.copysign(np.inf, -co.pc))
        first = basis.arc(basis.q * r) / basis.q
        first = np.where(first > 1e-15, first, first + basis.period)
        count = np.where(first < horizon, np.maximum(np.ceil((horizon - first) / basis.period), 1.0), 0.0)
    ok = count <= 2.0**52
    period = np.where(np.isfinite(basis.period), basis.period, 0.0)
    size = np.where(ok & (horizon > 0.0), count + 2.0, 0.0).astype(np.intp)
    return first, period, horizon, size, ok


# brackets are laid out and refined in chunks, so a cell with a million
# extrema stays within a few tens of MB
_CHUNK = 1 << 18


def _in_chunks(fn, *arrays):
    """``fn`` on consecutive slices of at most _CHUNK entries of ``arrays``; its outputs concatenated."""
    parts = [fn(*(v[i:i + _CHUNK] for v in arrays)) for i in range(0, max(arrays[0].size, 1), _CHUNK)]
    return tuple(np.concatenate(v) for v in zip(*parts))


def _knot_brackets(gamma, t_max, co, basis):
    """Every bracket between consecutive knots of `_knots` where s falls through zero.

    Returns the bracket cells, ends and the damped basis at both ends, and ok.
    """
    first, period, horizon, size, ok = _knots(gamma, t_max, co, basis)
    cell = np.repeat(np.arange(size.size), size)
    j = np.arange(cell.size) - np.repeat(np.cumsum(size) - size, size)
    t = np.where(j == size[cell] - 1, horizon[cell], first[cell] + (j - 1) * period[cell])
    t[j == 0] = 0.0
    ec, es = _in_chunks(lambda x, c: basis.take(c).at(x), t, cell)
    f = co.a[cell] * ec + co.b[cell] * es + co.c[cell]
    b = np.flatnonzero((cell[1:] == cell[:-1]) & (f[:-1] > 0.0) & (f[1:] < 0.0))
    return cell[b], t[b], t[b + 1], ec[b], es[b], ec[b + 1], es[b + 1], ok


def _search_brackets(gamma, t_max, co, basis):
    """Every candidate bracket of `scenarios._layout`, as the search lays them out."""
    size, ok, brackets = scenarios._layout(gamma, t_max, co, basis)
    cell = np.repeat(np.arange(size.size), size)
    i = np.arange(cell.size) - np.repeat(np.cumsum(size) - size, size)
    return (cell, *_in_chunks(brackets, cell, i), ok)


def _every_bracket(p, theta, rabi, gamma, layout=_search_brackets):
    """Every bracket of the stopping-time search, refined; arrays over all brackets.

    ``layout`` is `_search_brackets` (the search's own brackets) or
    `_knot_brackets`.  Returns the bracket cells, ends, s(lo), W(lo), roots
    and W(root), the rank of each bracket among its cell's candidates, and
    per cell whether its search can be trusted.  Cells must be valid.
    """
    from ergoflux.dynamics import _basis_groups, _coefficients
    from ergoflux.energetics import _drive_work

    p, theta, rabi = (np.ravel(v).astype(float) for v in np.broadcast_arrays(p, theta, rabi))
    out, ok = {}, np.ones(p.size, dtype=bool)
    for cells, part, basis in _basis_groups(_coefficients(p, theta, rabi, gamma), 0.75 * gamma):
        t_max = scenarios._search_horizon(rabi[cells], gamma)
        c, lo, hi, ec, es, ec_hi, es_hi, ok_part = layout(gamma, t_max, part, basis)
        index = np.arange(c.size) - np.searchsorted(c, c)  # the layouts list a cell's candidates in order
        f_lo = part.a[c] * ec + part.b[c] * es + part.c[c]
        f_hi = part.a[c] * ec_hi + part.b[c] * es_hi + part.c[c]
        b = np.flatnonzero((f_lo > 0.0) & (f_hi < 0.0))
        c, index, lo, hi, ec, es, f_lo, f_hi = (v[b] for v in (c, index, lo, hi, ec, es, f_lo, f_hi))

        def dipole(x, c):
            ec, es = basis.take(c).at(x)
            return part.a[c] * ec + part.b[c] * es + part.c[c], part.pc[c] * ec + part.ps[c] * es

        roots = _in_chunks(lambda *v: (scenarios._newton(dipole, *v),), lo, hi, f_lo, f_hi, c)[0]
        r, co, bc = rabi[cells][c], part.take(c), basis.take(c)
        new = {
            "cell": cells[c], "index": index, "lo": lo, "hi": hi, "s_lo": f_lo, "rabi": r, "root": roots,
            "w_lo": _drive_work(lo, r, gamma, co, None, at=(ec, es))[0],
            "w": _drive_work(roots, r, gamma, co, bc)[0],
        }
        for key, v in new.items():
            out[key] = np.concatenate([out.get(key, []), v])
        ok_part[c[np.isnan(roots)]] = False
        ok[cells] = ok_part
    out["cell"], out["index"] = out["cell"].astype(np.intp), out["index"].astype(np.intp)
    return out, ok


def _refine_every_bracket(p, theta, rabi, gamma, layout=_search_brackets):
    """`optimal_square_work` by the rule before pruning: refine every bracket,
    then take the first strict maximum over tau = 0 and the roots in time order."""
    br, ok = _every_bracket(p, theta, rabi, gamma, layout)
    cell, root, w = br["cell"], br["root"], br["w"]
    ok[cell[~np.isfinite(w)]] = False
    best = np.zeros(ok.size)
    np.fmax.at(best, cell, w)
    # the brackets of a cell are in time order, so the first hit is the first strict maximum
    hit = np.flatnonzero((w > 0.0) & (w == best[cell]))
    winners, first_hit = np.unique(cell[hit], return_index=True)
    tau = np.zeros(ok.size)
    tau[winners] = root[hit[first_hit]]
    return np.where(ok, tau, np.nan), np.where(ok, best, np.nan)


def _random_cells(seed, n, log_ratio):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 0.5, n), rng.uniform(0.0, math.pi, n), 2.0 * np.sqrt(10.0 ** rng.uniform(*log_ratio, n))


_CRITICAL = 0.25 * (1.0 + np.array([-1e-9, -1e-12, 0.0, 1e-12, 1e-9]))

_SEARCH_CASES = {
    # both damping regimes: k < 0 below ratio 1/64, k > 0 above
    "random": (*_random_cells(1, 3000, (-3.0, 4.0)), 1.0),
    "undamped": (*_random_cells(2, 500, (-2.0, 3.0)), 0.0),
    # rabi = gamma / 4, where the damping changes kind, and a hair to either side
    "critical": (*_random_cells(3, 5, (0.0, 0.0))[:2], _CRITICAL, 1.0),
    "passive": (np.array([0.5, 0.5, 0.0, 0.2]), np.array([2.0, 0.3, 0.0, 0.0]), np.array([0.1, 200.0, 3.0, 20.0]), 1.0),
    "strong": (*_random_cells(4, 60, (3.9, 4.1)), 1.0),
    "other gamma": (*_random_cells(5, 300, (-1.0, 3.0)), 2.5),
    # photon rates of 1e5 to 1e6 gamma, where `scenarios._tail_cut` drops most candidates
    "strong charge": (*_random_cells(11, 40, (5.6, 6.6)), 1.0),
    "strong charge, gamma 0.3": (*_random_cells(12, 40, (4.6, 5.6)), 0.3),
}


@pytest.mark.parametrize("name", list(_SEARCH_CASES))
def test_pruned_search_is_bit_identical_to_refining_every_bracket(name):
    p, theta, rabi, gamma = _SEARCH_CASES[name]
    got = ef.optimal_square_work(p, theta, rabi, gamma)
    want = _refine_every_bracket(p, theta, rabi, gamma)
    assert all(np.array_equal(a, b, equal_nan=True) for a, b in zip(got, want))
    assert not np.isnan(got[1]).any()


def test_pruned_search_is_bit_identical_across_bracket_windows(monkeypatch):
    # strong cells span many bracket windows, so brackets are pruned against
    # the work carried from earlier windows
    p, theta, rabi = (np.concatenate(v) for v in zip(_random_cells(6, 8, (3.9, 4.1)), _random_cells(7, 8, (-2, 2))))
    want = _refine_every_bracket(p, theta, rabi, 1.0)
    for brackets, cells in [(1, 1), (2, 3), (7, 1 << 13), (64, 5)]:
        monkeypatch.setattr(scenarios, "_BLOCK_BRACKETS", brackets)
        monkeypatch.setattr(scenarios, "_BLOCK_CELLS", cells)
        got = ef.optimal_square_work(p, theta, rabi, 1.0)
        assert all(np.array_equal(a, b) for a, b in zip(got, want)), (brackets, cells)


def _bound_scan_cells(resolution=50):
    """The cells (p, theta, rabi) of `ergotropy_bound_scan` at gamma = 1."""
    eps, p, theta = np.meshgrid(
        np.geomspace(0.05, 50.0, resolution), np.linspace(0.0, 0.5, resolution),
        np.linspace(0.0, math.pi, resolution), indexing="ij",
    )
    return p, theta, 1.0 / eps


def _case_i_map():
    """The cells (p, theta, rabi) of the 61 x 61 case-i map at gamma = 1."""
    theta, ndot = np.meshgrid(np.linspace(0.0, math.pi, 61), np.logspace(-2, 4, 61), indexing="ij")
    return 0.0, theta, 2.0 * np.sqrt(ndot)


_MATCH_CASES = {
    **_SEARCH_CASES,
    "oracle": (*(np.array(col) for col in list(zip(*ORACLE))[1:3]), 2.0 * np.sqrt([row[0] for row in ORACLE]), 1.0),
    "bound scan": (*_bound_scan_cells(), 1.0),
    # about 10^6 positive maxima, searched window by window
    "ratio 3e10": (0.0, math.pi, 2.0 * math.sqrt(3e10), 1.0),
}


@pytest.mark.parametrize("name", list(_MATCH_CASES))
def test_search_matches_the_knot_layout(name):
    # the knot layout brackets the dipole between every pair of extrema up to
    # an envelope horizon; the closed-form layout must find the same roots.
    # Only the rounding of the bracket-end values differs, so the roots agree
    # within the convergence tolerance of each and the work to rounding
    p, theta, rabi, gamma = _MATCH_CASES[name]
    p, theta, rabi = (np.ravel(v) for v in np.broadcast_arrays(p, theta, rabi))
    tau, work = ef.optimal_square_work(p, theta, rabi, gamma)
    want_tau, want_work = _refine_every_bracket(p, theta, rabi, gamma, layout=_knot_brackets)
    assert np.array_equal(np.isnan(work), np.isnan(want_work))
    ok = ~np.isnan(work)
    assert ok.any()
    assert np.abs(work - want_work)[ok].max() <= 1e-15
    # undamped, both layouts look over one Rabi period, which holds no two equal maxima
    tol = 2.0 * (scenarios._XTOL + scenarios._RTOL * want_tau)
    assert (np.abs(tau - want_tau) <= tol)[ok].all()


def test_undamped_search_reports_the_earliest_optimal_stop(monkeypatch):
    # at gamma = 0, W(tau) repeats every Rabi period, so the search looks over
    # one period; a window of four periods finds the same work, but rounding
    # lets it report some stops whole periods late
    rng = np.random.default_rng(0)
    p, theta = rng.uniform(0.0, 0.5, 4000), rng.uniform(0.0, math.pi, 4000)
    rabi = np.exp(rng.uniform(math.log(0.05), math.log(50.0), 4000))
    period = 2.0 * math.pi / rabi
    tau, work = ef.optimal_square_work(p, theta, rabi, 0.0)
    assert not np.isnan(work).any()
    assert (tau <= period).all()
    monkeypatch.setattr(scenarios, "_search_horizon", lambda rabi, gamma: 8.0 * math.pi / rabi)
    wide_tau, wide_work = ef.optimal_square_work(p, theta, rabi, 0.0)
    assert np.abs(work - wide_work).max() <= 4.4e-16
    assert (wide_tau > period).any()


@pytest.mark.parametrize("name", ["bound scan", "case-i map"])
def test_search_lays_out_exactly_the_knot_brackets(monkeypatch, name):
    # per cell `scenarios._layout` gives as many candidates as the knot layout
    # has brackets, and the search takes one exp per candidate it lays out
    # on top of two per cell and one per bisection step of the tail cut
    from ergoflux import dynamics

    cells = _bound_scan_cells() if name == "bound scan" else _case_i_map()
    p, theta, rabi = (np.ravel(v) for v in np.broadcast_arrays(*cells))
    want = np.bincount(_every_bracket(p, theta, rabi, 1.0, layout=_knot_brackets)[0]["cell"], minlength=rabi.size)

    sizes, counts = [], {"exp": 0, "at": 0, "steps": 0, "refined": 0, "laid out": 0}

    class CountingNumpy:
        def __getattr__(self, attr):
            return getattr(np, attr)

        def exp(self, x):
            counts["exp"] += np.size(x)
            return np.exp(x)

    def layout(*args):
        size, ok, brackets = scenarios_layout(*args)
        sizes.append(size)

        def laid_out(cell, i):
            counts["laid out"] += cell.size
            return brackets(cell, i)

        return size, ok, laid_out

    def at(self, t):
        counts["at"] += np.size(t)
        return basis_at(self, t)

    def newton(dipole, lo, *rest):
        def counted(x, c):
            counts["steps"] += x.size
            return dipole(x, c)

        counts["refined"] += lo.size
        return scenarios_newton(counted, lo, *rest)

    scenarios_layout, basis_at, scenarios_newton = scenarios._layout, dynamics._Basis.at, scenarios._newton
    monkeypatch.setattr(scenarios, "_layout", layout)
    monkeypatch.setattr(dynamics._Basis, "at", at)
    monkeypatch.setattr(scenarios, "_newton", newton)
    monkeypatch.setattr(scenarios, "np", CountingNumpy())
    monkeypatch.setattr(scenarios, "_BLOCK_CELLS", rabi.size)  # one block: the groups below
    ef.optimal_square_work(p, theta, rabi, 1.0)
    monkeypatch.undo()

    laid = np.zeros(rabi.size, dtype=np.intp)
    groups = dynamics._basis_groups(dynamics._coefficients(p, theta, rabi, 1.0), 0.75)
    for (cells, _, _), size in zip(groups, sizes, strict=True):
        laid[cells] = size
    assert np.array_equal(laid, want)
    if name == "bound scan":
        assert want.sum() == 218163
    # `scenarios._tail_cut` keeps a prefix of each cell's candidates, and
    # lays out candidate 1 of each cell it runs on to find it
    cut = int((want > scenarios._CUT_MIN).sum())
    assert counts["laid out"] == {"bound scan": 195415, "case-i map": 26193}[name]
    # the exps and basis evaluations of the layout and of the cut's bisection:
    # all of them but the refinement's steps and its work at each root
    exps = counts["exp"] + counts["at"] - counts["steps"] - counts["refined"]
    assert exps <= counts["laid out"] + 2 * rabi.size + cut * int(want.max()).bit_length()


@given(active_preparations, st.floats(min_value=1e-3, max_value=3e4), st.sampled_from([0.0, 0.5, 1.0, 3.0]))
@settings(max_examples=60)
def test_work_bound_holds_on_every_bracket(prep, ratio, gamma):
    # W(lo) < W(root) <= W(lo) + (hi - lo) s(lo) (rabi + gamma s(lo)), up to
    # rounding well inside the pruning margin
    br, _ = _every_bracket(prep.p, prep.theta, 2.0 * math.sqrt(ratio), gamma)
    bound = scenarios._work_bound(br["w_lo"], br["lo"], br["hi"], br["s_lo"], br["rabi"], gamma)
    slack = 0.25 * scenarios._PRUNE_TOL
    assert (br["w"] <= bound + slack).all()
    assert (br["w"] >= br["w_lo"] - slack).all()


def test_a_nan_bound_prunes_nothing(monkeypatch):
    # a NaN state gives NaN work at every W(lo) and every root; the brackets
    # must still be refined, so the cells fail instead of reading 0
    monkeypatch.setattr(energetics, "_drive_state", lambda ec, es, co: (np.nan * co.c, np.nan * co.c))
    tau, work = ef.optimal_square_work(0.0, np.array([1.0, 2.5]), np.array([3.0, 30.0]), 1.0)
    assert np.isnan(tau).all() and np.isnan(work).all()


def _tail_cut_sizes(p, theta, rabi, gamma):
    """Per cell, the candidates `scenarios._layout` gives and how many of them the search keeps."""
    from ergoflux.dynamics import _basis_groups, _coefficients

    full, kept = np.zeros(p.size, dtype=np.intp), np.zeros(p.size, dtype=np.intp)
    for cells, part, basis in _basis_groups(_coefficients(p, theta, rabi, gamma), 0.75 * gamma):
        r = rabi[cells]
        size, _, brackets = scenarios._layout(gamma, scenarios._search_horizon(r, gamma), part, basis)
        full[cells] = size
        kept[cells] = scenarios._tail_cut(size, brackets, r, gamma, part, basis)
    return full, kept


@pytest.mark.parametrize("name", [*_SEARCH_CASES, "case-i map"])
def test_tail_cut_keeps_every_bracket_that_can_reach_the_best(name):
    # a bracket whose work bound reaches the cell's best, less the pruning
    # margin, could hold the best, so it must lie in the prefix the search keeps
    p, theta, rabi, gamma = _SEARCH_CASES[name] if name in _SEARCH_CASES else (*_case_i_map(), 1.0)
    p, theta, rabi = (np.ravel(v).astype(float) for v in np.broadcast_arrays(p, theta, rabi))
    br, _ = _every_bracket(p, theta, rabi, gamma)
    best = ef.optimal_square_work(p, theta, rabi, gamma)[1][br["cell"]]
    bound = scenarios._work_bound(br["w_lo"], br["lo"], br["hi"], br["s_lo"], br["rabi"], gamma)
    full, kept = _tail_cut_sizes(p, theta, rabi, gamma)
    assert (kept <= full).all()
    reach = bound >= best - scenarios._PRUNE_TOL * np.maximum(best, 1.0)
    assert (br["index"] < kept[br["cell"]])[reach].all()
    if name.startswith("strong charge") or name == "case-i map":
        assert kept.sum() < 0.3 * full.sum()


def test_most_brackets_are_pruned_on_the_case_i_map(monkeypatch):
    theta, ndot = np.meshgrid(np.linspace(0.0, math.pi, 61), np.logspace(-2, 4, 61), indexing="ij")
    total = _every_bracket(0.0, theta, 2.0 * np.sqrt(ndot), 1.0)[0]["root"].size
    refined = []

    def counting(dipole, lo, *rest):
        refined.append(lo.size)
        return newton(dipole, lo, *rest)

    newton = scenarios._newton
    monkeypatch.setattr(scenarios, "_newton", counting)
    ef.optimal_square_work(0.0, theta, 2.0 * np.sqrt(ndot), 1.0)
    assert total > 1e5
    assert sum(refined) < total / 3


_ORACLE_CASES = {
    "random": (*_random_cells(10, 200, (-3.0, 4.0)), 1.0),
    **{name: _SEARCH_CASES[name] for name in ("undamped", "critical", "other gamma")},
    # near p = 1/2 the dipole starts near zero and crosses it at a shallow slope
    "near tangent": (
        0.5 - 10.0 ** np.random.default_rng(8).uniform(-9.0, -1.0, 400), *_random_cells(8, 400, (-2.0, 3.0))[1:], 1.0
    ),
}


@pytest.mark.parametrize("name", list(_ORACLE_CASES))
def test_refined_roots_match_brentq(name):
    # every bracket's root against scipy's brentq on the scalar closed form,
    # converged as far as double precision allows.  A rounding of s, of a few
    # eps * (|a C| + |b S| + |c|), moves a root by that over |s'|; on shallow
    # crossings this band exceeds the tolerance, and two double-precision
    # roots, brentq's too, agree only within it
    from scipy.optimize import brentq

    from ergoflux.dynamics import _transient_basis

    eps = np.finfo(float).eps
    p, theta, rabi, gamma = _ORACLE_CASES[name]
    br, ok = _every_bracket(p, theta, rabi, gamma)
    assert ok.all() and br["root"].size >= 5
    bands = []
    for c, lo, hi, root, r in zip(br["cell"], br["lo"], br["hi"], br["root"], br["rabi"]):
        prep = ef.Preparation(p=float(p[c]), theta=float(theta[c]))

        def dipole(t):
            return evolve_square_analytic(prep, r, gamma, t).s_bar

        want = brentq(dipole, lo, hi, xtol=1e-300, rtol=4.0 * eps)
        tol = scenarios._XTOL + scenarios._RTOL * want
        co = ef.square_pulse_coefficients(prep, r, gamma)
        ec, es = _transient_basis(co.k, 0.75 * gamma).at(want)
        band = eps * (abs(co.a * ec) + abs(co.b * es) + abs(co.c)) / abs(co.pc * ec + co.ps * es)
        bands.append(band / tol)
        assert abs(root - want) <= tol + 2.0 * band, (name, c, root, want)
    # the near-tangent draw does reach crossings shallower than the tolerance
    assert name != "near tangent" or max(bands) > 1.0


def test_newton_falls_back_to_bisection():
    # a useless slope leaves bisection alone; its roots still meet the tolerance
    a = np.linspace(0.01, 0.99, 50)

    def cubic(x, c):
        return a[c] - x**3, np.where(slope, -3.0 * x * x, np.nan)

    for slope in (True, False):
        lo, hi, cell = np.zeros(a.size), np.ones(a.size), np.arange(a.size)
        root = scenarios._newton(cubic, lo, hi, a, a - 1.0, cell)
        assert np.all(np.abs(root - np.cbrt(a)) <= scenarios._XTOL + scenarios._RTOL * np.cbrt(a)), slope


def test_step_cap_fails_exactly_the_cells_it_cuts(monkeypatch):
    # one step per bracket: a cell fails when one of its refined brackets
    # needed a second evaluation, and is unchanged otherwise
    p, theta, rabi = _random_cells(9, 40, (-2.0, 3.0))
    p[:4], theta[:4] = 0.5, 0.0  # passive: nothing to refine
    calls = []

    def recording(dipole, lo, *rest):
        def counted(x, c):
            calls.append(x.size)
            return dipole(x, c)

        return newton(counted, lo, *rest)

    newton, max_steps = scenarios._newton, scenarios._MAX_STEPS
    monkeypatch.setattr(scenarios, "_newton", recording)
    cuts = []
    for cell in zip(p, theta, rabi):
        calls.clear()
        want = ef.optimal_square_work(*cell, 1.0)
        cuts.append(len(calls) > 1)
        monkeypatch.setattr(scenarios, "_MAX_STEPS", 1)
        got = ef.optimal_square_work(*cell, 1.0)
        monkeypatch.setattr(scenarios, "_MAX_STEPS", max_steps)
        if cuts[-1]:
            assert np.isnan(got).all(), cell
        else:
            assert got == want, cell
    assert 4 <= cuts.count(False) < len(cuts)


def test_refinement_steps_per_bracket_on_the_bound_scan(monkeypatch):
    # counts of brackets refined and root-function evaluations repeat exactly
    def count():
        brackets, steps = [], []

        def counting(dipole, lo, *rest):
            def counted(x, c):
                steps.append(x.size)
                return dipole(x, c)

            brackets.append(lo.size)
            return newton(counted, lo, *rest)

        monkeypatch.setattr(scenarios, "_newton", counting)
        ef.ergotropy_bound_scan(50)
        monkeypatch.setattr(scenarios, "_newton", newton)
        return sum(brackets), sum(steps)

    newton = scenarios._newton
    brackets, steps = count()
    assert count() == (brackets, steps)
    assert brackets > 1e5
    assert steps / brackets < 6.0


def test_continuous_is_continuous_across_critical_damping():
    # ratio 1/64 puts the drive at gamma = 4 rabi, where the damping changes kind
    rng = np.random.default_rng(64)
    preps = [
        ef.Preparation(p=float(rng.uniform(0.0, 0.5)), theta=float(rng.uniform(0.0, math.pi)))
        for _ in range(25)
    ]
    deltas = [sign * 10.0**e for e in range(-16, -5) for sign in (1.0, -1.0)]
    for prep in preps:
        ref = ef.scenario_continuous(prep, 1.0 / 64.0)
        for delta in deltas:
            res = ef.scenario_continuous(prep, (1.0 + delta) / 64.0)
            assert res.work <= ef.ergotropy(prep)
            assert abs(res.work - ref.work) <= abs(delta) + 1e-12
            assert abs(res.tau_opt - ref.tau_opt) <= abs(delta) + 1e-10


@given(active_preparations, rate_ratios)
@settings(max_examples=60)
def test_continuous_stop_certificate(prep, ratio):
    # the optimal stop sits on a dipole zero (or at tau=0 for passive states)
    res = ef.scenario_continuous(prep, ratio)
    if res.tau_opt > 0.0:
        rabi = 2.0 * math.sqrt(ratio)
        state = evolve_square_analytic(prep, rabi, 1.0, res.tau_opt)
        assert abs(state.s_bar) <= 1e-6


@given(preparations, rate_ratios)
@settings(max_examples=60)
def test_continuous_work_bounded_by_ergotropy(prep, ratio):
    res = ef.scenario_continuous(prep, ratio)
    assert res.work >= 0.0
    assert res.work <= ef.ergotropy(prep) + 1e-9


def test_continuous_passive_states_extract_nothing():
    for prep in (ef.Preparation(p=0.5, theta=2.0), ef.Preparation(p=0.0, theta=0.0)):
        res = ef.scenario_continuous(prep, 3.0)
        assert res.work == 0.0
        assert res.tau_opt == 0.0
        assert math.isnan(res.eta)


def test_continuous_trace_reproduces_reported_work():
    prep = ef.Preparation(p=0.0, theta=2.4)
    res = ef.scenario_continuous(prep, 1.5)
    # the coupling is cut at the stop, so the reported work is the work of
    # the trace stopped at tau_opt, without the tail that trace books
    trace = _square_trace(prep, 2.0 * math.sqrt(1.5), res.tau_opt)
    assert trace.work[-1] == pytest.approx(res.work, abs=1e-6)
    # the stop is a zero of the dipole: the tail holds heat only
    assert trace.work_tail == pytest.approx(0.0, abs=1e-12)
    assert trace.heat_tail == pytest.approx(trace.energy[-1], abs=1e-12)


def test_continuous_yield_increases_with_rate():
    prep = ef.Preparation(p=0.0, theta=math.pi / 2)
    etas = [ef.scenario_continuous(prep, r).eta for r in (0.01, 1.0, 100.0, 1e4)]
    assert all(b > a for a, b in zip(etas, etas[1:]))
    assert etas[-1] > 0.98


# --------------------------------------------------------- spontaneous decay


@given(preparations)
def test_spontaneous_work_is_squared_coherence(prep):
    res = ef.scenario_spontaneous(prep)
    expect = (0.5 - prep.p) ** 2 * math.sin(prep.theta) ** 2
    assert res.work == pytest.approx(expect, abs=1e-12)


def test_spontaneous_yield_closed_form():
    for th in (0.3, 1.0, math.pi / 2, 2.5, math.pi):
        res = ef.scenario_spontaneous(ef.Preparation(p=0.0, theta=th))
        assert res.eta == pytest.approx(math.cos(th / 2.0) ** 2, abs=1e-12)


def test_spontaneous_trace_matches_closed_form():
    prep = ef.Preparation(p=0.25, theta=2.0)
    res = ef.scenario_spontaneous(prep)
    state0 = ef.prepare_initial(prep)
    trace = _decay_trace(state0)
    assert trace.total_work == pytest.approx(res.work, abs=1e-6)
    assert trace.total_heat + trace.total_work == pytest.approx(state0.p_e, abs=1e-6)


# ------------------------------------------------------------- pulsed charge


def test_pulsed_without_charge_is_spontaneous():
    prep = ef.Preparation(p=0.1, theta=2.2)
    a = ef.scenario_pulsed(prep, n_bar=0.0, tau=1.0)
    b = ef.scenario_spontaneous(prep)
    assert a.work == pytest.approx(b.work, abs=1e-12)


def test_pulsed_work_formula():
    # driven window [0, tau] then free decay: W = W_drive(tau) + s(tau)^2
    prep = ef.Preparation(p=0.0, theta=2.0)
    n_bar, tau = 1.64, 1.0
    rabi = 2.0 * math.sqrt(n_bar / tau)
    res = ef.scenario_pulsed(prep, n_bar, tau)
    s_end = evolve_square_analytic(prep, rabi, 1.0, tau).s_bar
    expect = ef.square_drive_work(prep, rabi, 1.0, tau) + s_end**2
    assert res.work == pytest.approx(expect, abs=1e-12)
    assert res.n_interacted == pytest.approx(n_bar)
    assert res.tau_opt == tau


def test_pulsed_long_weak_drive_stays_finite():
    prep = ef.Preparation(p=0.0, theta=2.0)
    res = ef.scenario_pulsed(prep, n_bar=1e-3, tau=5000.0)
    assert math.isfinite(res.work)
    assert 0.0 < res.work <= ef.ergotropy(prep)


def test_pulsed_ground_state_absorbs_energy():
    res = ef.scenario_pulsed(ef.Preparation(p=0.0, theta=0.0), n_bar=10.0, tau=1.0)
    assert res.work < 0.0


def test_pulsed_trace_splices_the_pulse_edge():
    prep = ef.Preparation(p=0.0, theta=2.356)
    res = ef.scenario_pulsed(prep, n_bar=1.64, tau=1.0)
    rabi = 2.0 * math.sqrt(1.64)
    pulse = _square_trace(prep, rabi, 1.0)
    decay = _decay_trace(evolve_square_analytic(prep, rabi, 1.0, 1.0))
    # the decay picks up the pulse's end state at the edge
    assert decay.energy[0] == pytest.approx(pulse.energy[-1], abs=1e-12)
    assert pulse.work[-1] + decay.total_work == pytest.approx(res.work, abs=1e-6)
    # the trace ends with the drive, so it books the decay as its exact tail
    assert pulse.total_work == pytest.approx(res.work, abs=1e-6)


@given(
    st.floats(min_value=1e-3, max_value=100.0),
    st.floats(min_value=0.05, max_value=5.0),
    active_preparations,
)
@settings(max_examples=40)
def test_pulsed_work_bounded_by_ergotropy(n_bar, tau, prep):
    res = ef.scenario_pulsed(prep, n_bar, tau)
    assert res.work <= ef.ergotropy(prep) + 1e-9


def test_scenario_result_rejects_bound_violation():
    prep = ef.Preparation(p=0.0, theta=math.pi / 2)
    # a breach can only come from the numerics, so it is not a validation error
    with pytest.raises(ef.IntegrationAccuracyError):
        ef.ScenarioResult(prep=prep, work=0.9, eta=1.8)
    with pytest.raises(ef.IntegrationAccuracyError):  # n_bar / tau overflows the drive
        ef.scenario_pulsed(prep, n_bar=1e300, tau=1e-300)


# -------------------------------------------------------------------- sweeps


def test_aliases_cover_roman_numerals():
    assert SCENARIO_ALIASES == {"i": "continuous", "ii": "spontaneous", "iii": "pulsed"}


def _small_grid():
    return ef.SweepGrid(
        scenario="pulsed",
        axis1=ef.SweepAxis(name="theta", values=np.linspace(0.0, math.pi, 5)),
        axis2=ef.SweepAxis(name="nbar", values=np.logspace(-1, 1, 4)),
        fixed={"tau": 1.0},
    )


def test_sweep_shapes_and_values():
    grid = _small_grid()
    out = ef.sweep(grid)
    assert out.work.shape == (5, 4)
    assert not out.flag.any()
    # spot-check one cell against the scalar API
    res = ef.scenario_pulsed(ef.Preparation(p=0.0, theta=grid.axis1.values[2]), grid.axis2.values[1], 1.0)
    assert out.work[2, 1] == pytest.approx(res.work, abs=1e-12)
    # eta is nan on the passive theta=0 row
    assert np.isnan(out.eta[0, :]).all()


def test_sweep_accepts_roman_alias_and_fixed_p():
    grid = ef.SweepGrid(
        scenario="ii",
        axis1=ef.SweepAxis(name="theta", values=np.linspace(0.1, 3.0, 4)),
        axis2=ef.SweepAxis(name="p", values=np.array([0.0, 0.25])),
    )
    out = ef.sweep(grid)
    expect = (0.5 - 0.25) ** 2 * math.sin(grid.axis1.values[1]) ** 2
    assert out.work[1, 1] == pytest.approx(expect, abs=1e-12)


def test_sweep_flags_failing_cells():
    grid = ef.SweepGrid(
        scenario="pulsed",
        axis1=ef.SweepAxis(name="tau", values=np.array([0.0, 1.0])),
        axis2=ef.SweepAxis(name="nbar", values=np.array([0.5, 1.0])),
        fixed={"theta": 2.0},
    )
    out = ef.sweep(grid)
    assert out.flag[0, :].all()  # tau = 0 cannot carry a finite charge
    assert np.isnan(out.work[0, :]).all()
    assert not out.flag[1, :].any()


def test_non_finite_parameters_are_rejected():
    prep = ef.Preparation(p=0.0, theta=2.0)
    for value in (math.nan, math.inf):
        with pytest.raises(ValueError, match="photon_rate_ratio"):
            ef.scenario_continuous(prep, value)
        with pytest.raises(ValueError, match="gamma"):
            ef.scenario_continuous(prep, 1.0, gamma=value)
        with pytest.raises(ValueError, match="n_bar"):
            ef.scenario_pulsed(prep, n_bar=value, tau=1.0)
        with pytest.raises(ValueError, match="tau"):
            ef.scenario_pulsed(prep, n_bar=1.0, tau=value)
        with pytest.raises(ValueError, match="gamma"):
            ef.scenario_pulsed(prep, n_bar=1.0, tau=1.0, gamma=value)


def test_sweep_flags_non_finite_and_unsearchable_cells():
    theta = ef.SweepAxis(name="theta", values=np.array([0.5, 3.0]))
    for case, axis, fixed in [
        ("pulsed", ef.SweepAxis(name="nbar", values=np.array([0.1, math.inf])), {"tau": math.nan}),
        ("pulsed", ef.SweepAxis(name="tau", values=np.array([math.nan, math.inf])), {"nbar": 1.0}),
        ("continuous", ef.SweepAxis(name="ndot", values=np.array([math.nan, math.inf])), {}),
        # drives with more extrema than double precision resolves, or past the float range
        ("continuous", ef.SweepAxis(name="ndot", values=np.array([1e30, 1e300])), {}),
        ("pulsed", ef.SweepAxis(name="nbar", values=np.array([1e300, 1e308])), {"tau": 1e-300}),
    ]:
        out = ef.sweep(ef.SweepGrid(scenario=case, axis1=theta, axis2=axis, fixed=fixed))
        assert out.flag.all(), (case, fixed)
        assert np.isnan(out.work).all() and np.isnan(out.eta).all() and np.isnan(out.tau_opt).all()


def test_search_cap_flags_cells_and_raises(monkeypatch):
    monkeypatch.setattr(scenarios, "_MAX_STEPS", 1)
    grid = ef.SweepGrid(
        scenario="continuous",
        axis1=ef.SweepAxis(name="p", values=np.array([0.5, 0.0])),
        axis2=ef.SweepAxis(name="ndot", values=np.array([0.5, 4.0])),
        fixed={"theta": 2.0},
    )
    out = ef.sweep(grid)
    assert not out.flag[0].any() and (out.work[0] == 0.0).all()  # passive: no crossing to refine
    assert out.flag[1].all() and np.isnan(out.work[1]).all()
    assert np.isnan(ef.optimal_square_work(0.0, 2.0, 2.0)[1])
    with pytest.raises(ef.IntegrationAccuracyError):
        ef.scenario_continuous(ef.Preparation(p=0.0, theta=2.0), 1.0)
    with pytest.raises(ef.IntegrationAccuracyError):
        ef.ergotropy_bound_scan(resolution=20)


def test_batched_searches_keep_memory_bounded():
    grid = ef.SweepGrid(
        scenario="continuous",
        axis1=ef.SweepAxis(name="theta", values=np.linspace(0.0, math.pi, 61)),
        axis2=ef.SweepAxis(name="ndot", values=np.logspace(-2, 4, 61)),
    )
    runs = (
        lambda: ef.sweep(grid),
        lambda: ef.ergotropy_bound_scan(50),
        # about 10^6 positive maxima in one cell
        lambda: ef.optimal_square_work(0.0, math.pi, 2.0 * math.sqrt(3e10), 1.0),
    )
    for run in runs:
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32e6, peak


def test_sweep_grid_validation():
    with pytest.raises(ValueError):
        ef.SweepAxis(name="theta", values=np.array([1.0]))  # too short
    with pytest.raises(TypeError, match="values"):  # no values at all
        ef.SweepAxis(name="theta")
    with pytest.raises(ValueError):
        ef.SweepGrid(
            scenario="continuous",
            axis1=ef.SweepAxis(name="bogus", values=np.linspace(0, 1, 3)),
            axis2=ef.SweepAxis(name="theta", values=np.linspace(0, 1, 3)),
        )
    with pytest.raises(ValueError):
        ef.SweepGrid(
            scenario="nope",
            axis1=ef.SweepAxis(name="theta", values=np.linspace(0, 1, 3)),
            axis2=ef.SweepAxis(name="p", values=np.linspace(0, 0.5, 3)),
        )
    with pytest.raises(ValueError):  # same name on both axes
        ef.SweepGrid(
            scenario="spontaneous",
            axis1=ef.SweepAxis(name="theta", values=np.linspace(0, 1, 3)),
            axis2=ef.SweepAxis(name="theta", values=np.linspace(0, 1, 3)),
        )
    # a required parameter left unset, on neither axis nor fixed
    for scenario, names, fixed in [
        ("continuous", ("theta", "p"), {}),  # no ndot
        ("continuous", ("ndot", "p"), {}),  # no theta
        ("spontaneous", ("p", "tau"), {}),  # no theta
        ("pulsed", ("theta", "nbar"), {}),  # no tau
        ("pulsed", ("theta", "p"), {"tau": 1.0}),  # no nbar
    ]:
        axes = [ef.SweepAxis(name=n, values=np.linspace(0.1, 0.4, 3)) for n in names]
        with pytest.raises(ValueError):
            ef.SweepGrid(scenario=scenario, axis1=axes[0], axis2=axes[1], fixed=fixed)
