#!/usr/bin/env python3
"""Generate the CSV data behind the main figures.

Writes one file per panel into --outdir (default ./data):

  continuous_map.csv     optimal work vs (photon rate, theta), pure states
  continuous_cuts.csv    W_opt and yield vs photon rate at theta = pi/2, pi
  spontaneous_theta.csv  spontaneous work / energy / ergotropy vs theta
  husimi_theta*.csv      phase-space portraits of the emitted field
  pulsed_map.csv         pulsed work vs (charge, theta) at tau = 1/gamma
  pulsed_cuts.csv        pulsed work vs theta at charges 0.01, 1.64, 100
  pulse_shapes.csv       optimal vs exponential pulse profiles

Everything is nondimensional: energies in hbar*omega0, times in 1/gamma.
"""
import argparse
import math
import os

import numpy as np

import ergoflux as ef

CHARGES = (0.01, 1.64, 100.0)


def _save(path, header, columns):
    arr = np.column_stack(columns)
    lines = [header]
    for row in arr:
        lines.append(",".join(f"{v:.12g}" for v in row))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {path} ({arr.shape[0]} rows)")


def _sweep_map(scenario, axis1, axis2, **fixed):
    """Sweep a scenario over two named axes; returns both axes per row and the result."""
    grid = ef.SweepGrid(
        scenario=scenario,
        axis1=ef.SweepAxis(name=axis1[0], values=axis1[1]),
        axis2=ef.SweepAxis(name=axis2[0], values=axis2[1]),
        fixed=fixed,
    )
    res = ef.sweep(grid)
    if res.flag.any():
        raise RuntimeError(f"{scenario} map: {int(res.flag.sum())} cells failed")
    v1, v2 = np.meshgrid(axis1[1], axis2[1], indexing="ij")
    return v1.ravel(), v2.ravel(), res


def continuous_map(outdir, n_rate=61, n_theta=61):
    rates = np.logspace(-2, 4, n_rate)
    thetas = np.linspace(0.0, math.pi, n_theta)
    r, th, res = _sweep_map("continuous", ("ndot", rates), ("theta", thetas))
    _save(
        os.path.join(outdir, "continuous_map.csv"),
        "ndot,theta,work,yield,tau_opt",
        [r, th, res.work.ravel(), res.eta.ravel(), res.tau_opt.ravel()],
    )


def continuous_cuts(outdir, n_rate=121):
    rates = np.logspace(-2, 4, n_rate)
    cols = [rates]
    header = ["ndot"]
    for th, label in ((math.pi / 2.0, "half"), (math.pi, "pi")):
        work = np.empty_like(rates)
        eta = np.empty_like(rates)
        for i, r in enumerate(rates):
            res = ef.scenario_continuous(ef.Preparation(p=0.0, theta=th), float(r))
            work[i] = res.work
            eta[i] = res.eta
        cols += [work, eta]
        header += [f"work_{label}", f"yield_{label}"]
    _save(os.path.join(outdir, "continuous_cuts.csv"), ",".join(header), cols)


def spontaneous_theta(outdir, n_theta=201):
    thetas = np.linspace(0.0, math.pi, n_theta)
    cols = [thetas]
    header = ["theta"]
    for p in (0.0, 0.25, 0.5):
        work = np.empty_like(thetas)
        energy = np.empty_like(thetas)
        ergo = np.empty_like(thetas)
        for i, th in enumerate(thetas):
            prep = ef.Preparation(p=p, theta=float(th))
            work[i] = ef.scenario_spontaneous(prep).work
            energy[i] = ef.prepare_initial(prep).p_e
            ergo[i] = ef.ergotropy(prep)
        cols += [work, energy, ergo]
        tag = f"{p:g}".replace(".", "_")
        header += [f"work_p{tag}", f"energy_p{tag}", f"ergotropy_p{tag}"]
    _save(os.path.join(outdir, "spontaneous_theta.csv"), ",".join(header), cols)


def husimi_panels(outdir, n=101):
    axis = np.linspace(-2.5, 2.5, n)
    for th, tag in ((math.pi / 4, "quarter"), (math.pi / 2, "half"), (math.pi, "pi")):
        grid = ef.husimi(ef.output_state(th), axis, axis)
        path = os.path.join(outdir, f"husimi_theta_{tag}.csv")
        lines = [",".join(["q"] + [f"{x:.12g}" for x in grid.re])]
        for i, y in enumerate(grid.im):
            lines.append(",".join([f"{y:.12g}"] + [f"{v:.12g}" for v in grid.q[i]]))
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("\n".join(lines) + "\n")
        print(f"wrote {path} ({n}x{n})")


def pulsed_map(outdir, n_charge=61, n_theta=61, tau=1.0):
    charges = np.logspace(-3, 3, n_charge)
    thetas = np.linspace(0.0, math.pi, n_theta)
    nb, th, res = _sweep_map("pulsed", ("nbar", charges), ("theta", thetas), tau=tau)
    _save(
        os.path.join(outdir, "pulsed_map.csv"),
        "nbar,theta,work,yield",
        [nb, th, res.work.ravel(), res.eta.ravel()],
    )


def pulsed_cuts(outdir, n_theta=201, tau=1.0):
    thetas = np.linspace(0.0, math.pi, n_theta)
    cols = [thetas]
    header = ["theta"]
    for nb in CHARGES:
        work = np.empty_like(thetas)
        for i, th in enumerate(thetas):
            work[i] = ef.scenario_pulsed(ef.Preparation(p=0.0, theta=float(th)), nb, tau).work
        cols.append(work)
        header.append(f"work_nbar{nb:g}".replace(".", "_"))
    _save(os.path.join(outdir, "pulsed_cuts.csv"), ",".join(header), cols)


def pulse_shapes(outdir):
    """Shaped pulse vs best exponential for the two benchmark settings."""
    cases = [
        ("a", ef.Preparation(p=0.0, theta=math.pi / 2.0), 0.1),
        ("b", ef.Preparation(p=0.0, theta=3.0 * math.pi / 4.0), 1.64),
    ]
    cols = []
    header = []
    for tag, prep, n_bar in cases:
        exp = ef.optimize_exponential_tau(prep, n_bar)
        problem = ef.ControlProblem(prep=prep, n_bar=n_bar)
        opt = ef.solve_optimal_control(problem)
        t = opt.times
        if not cols:
            cols.append(t)
            header.append("time")
        cols.append(opt.controls)
        cols.append(exp.pulse.rabi(t))
        header += [f"rabi_opt_{tag}", f"rabi_exp_{tag}"]
        print(
            f"case {tag}: shaped W={opt.work:.6f}, exponential W={exp.work:.6f}, "
            f"tau_opt={exp.tau_opt:.4f}"
        )
    _save(os.path.join(outdir, "pulse_shapes.csv"), ",".join(header), cols)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="data")
    ap.add_argument("--fast", action="store_true", help="coarser grids for a quick look")
    ap.add_argument(
        "--only",
        choices=["continuous", "spontaneous", "husimi", "pulsed", "pulses"],
        help="generate a single panel family",
    )
    args = ap.parse_args()
    os.makedirs(args.outdir, exist_ok=True)
    k = 4 if args.fast else 1

    if args.only in (None, "continuous"):
        continuous_map(args.outdir, n_rate=61 // k + 1, n_theta=61 // k + 1)
        continuous_cuts(args.outdir, n_rate=121 // k + 1)
    if args.only in (None, "spontaneous"):
        spontaneous_theta(args.outdir, n_theta=201 // k + 1)
    if args.only in (None, "husimi"):
        husimi_panels(args.outdir, n=101 // k + 1)
    if args.only in (None, "pulsed"):
        pulsed_map(args.outdir, n_charge=61 // k + 1, n_theta=61 // k + 1)
        pulsed_cuts(args.outdir, n_theta=201 // k + 1)
    if args.only in (None, "pulses"):
        pulse_shapes(args.outdir)


if __name__ == "__main__":
    main()
