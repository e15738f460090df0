"""The benchmark's workloads: generated inputs, set-up, one unit of work, gates.

A unit is the closed-loop piece of work a run repeats until its time is up:
one CLI ``stability`` sweep (sweep-1d), one perturbed trajectory
(evolve-2d), or one analysis pass (analysis-2d).  All units of a run have
the same inputs, so their counts must repeat exactly.

The seed reaches the program only through generated inputs: the INI
configuration written to the run's work directory, and values drawn from
``SeedSequence(seed)`` (perturbation directions; the phase and lattice
shift of the analysed ground state, which leave its spectrum unchanged).

Importing this module imports numpy, so set thread counts first.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import shutil
from dataclasses import dataclass, field

import numpy as np

from fermicrystal import cli, config, density, stability

# Dynamics gates, as in the acceptance criteria 4 and 7; never loosened.
ENERGY_RTOL = 1e-8
CHARGE_TOL = 1e-10
DISTANCE_FACTOR = 10.0
CONTROL_TOL = 1e-9

# analysis-2d values computed by the code at the commit that added this
# benchmark, at phase 0 and shift 0.  Phase and shift leave the spectrum
# unchanged, so every seed, and every later commit, must reproduce them to
# REFERENCE_RTOL; kernel dimensions and sizes must match exactly.
REFERENCE_RTOL = 1e-9
ANALYSIS_REFERENCE = {
    "matrix_size": 2692,
    "kernel_dim_full": 2,
    "kernel_dim_constrained": 0,
    "degeneracy_dim_2d": 0,
    "lambda_min_constrained": 0.021259754861973623,
    "lambda_max_full": 98.71634717049919,
    "wiener_points_3d": 7,
    "wiener_min_eigenvalues_3d": [
        0.022854046480720442, 0.022854046480720605, 0.059122570619190636,
        0.02285404648072069, 0.059122570619190365, 0.059122570619190455,
        0.6008205881639774,
    ],
}

PI2 = math.pi ** 2

# Each workload's INI files; geometry is part of the workload, not the seed.
CONFIGS = {
    "sweep-1d": {"sweep.ini": {
        "model": {"dimension": 1, "cells_per_axis": 2, "grid_per_axis": 16,
                  "kind": "box", "profile_exponent": 1},
        "basis": {"ksq_budget": 8 * PI2},
        # A trajectory takes 5, 6 or 7 fixed-point iterations in every step,
        # as its seeded direction decides.  With few directions the seed
        # would decide whether the median step is a 5- or a 6-iteration
        # one; 32 short trajectories average that mix out.
        "stability": {"deltas": "0.001, 0.01", "n_perturbations": 32,
                      "duration": 0.1, "dt": 2e-3,
                      "method": "implicit_midpoint", "include_controls": "true"},
    }},
    "evolve-2d": {"evolve.ini": {
        "model": {"dimension": 2, "cells_per_axis": 2, "grid_per_axis": 12,
                  "kind": "perturbed_box", "profile_exponent": 2,
                  "amplitude": 0.5, "decay": 2.0},
        "basis": {"ksq_budget": 11 * PI2},
        "stability": {"deltas": "0.01", "n_perturbations": 1, "duration": 0.1,
                      "dt": 2e-3, "method": "implicit_midpoint",
                      "include_controls": "false"},
    }},
    "analysis-2d": {
        "analysis.ini": {
            "model": {"dimension": 2, "cells_per_axis": 2, "grid_per_axis": 12,
                      "kind": "perturbed_box", "profile_exponent": 2,
                      "amplitude": 0.5, "decay": 2.0},
            "basis": {"ksq_budget": 10 * PI2},
        },
        "wiener3d.ini": {
            "model": {"dimension": 3, "cells_per_axis": 2, "grid_per_axis": 8,
                      "kind": "perturbed_box", "profile_exponent": 2,
                      "amplitude": 0.5, "decay": 2.0},
        },
    },
}


def write_inputs(name: str, workdir: str) -> dict:
    """Write the workload's INI files; returns {file name: path}."""
    paths = {}
    for filename, sections in CONFIGS[name].items():
        lines = []
        for section, values in sections.items():
            lines.append(f"[{section}]")
            lines.extend(f"{key} = {value!r}" if isinstance(value, float)
                         else f"{key} = {value}" for key, value in values.items())
        path = os.path.join(workdir, filename)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        paths[filename] = path
    return paths


@dataclass
class Prepared:
    """What set-up leaves for the units."""

    name: str
    seed: int
    workdir: str
    inputs: dict
    cfg: object
    gs: object
    extra: dict = field(default_factory=dict)


@dataclass
class Outcome:
    attempted: int
    failed: int
    counts: dict = field(default_factory=dict)


def setup(name: str, workdir: str, seed: int) -> Prepared:
    """Load the config, enumerate the basis, build the ground state and table."""
    inputs = write_inputs(name, workdir)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    if name == "analysis-2d":
        cfg = config.load_config(inputs["analysis.ini"])
        model = config.build_model(cfg)
        basis = config.build_basis(cfg, model.spec)
        alpha = float(rng.uniform(0.0, 2.0 * np.pi))
        shift = rng.uniform(0.0, cfg.model.cells_per_axis, cfg.model.dimension)
        gs = stability.build_ground_state(basis, model, r=shift, alpha=alpha,
                                          mass=cfg.dynamics.mass)
        cfg3 = config.load_config(inputs["wiener3d.ini"])
        extra = {"sigma_3d": config.build_model(cfg3)}
    else:
        cfg = config.load_config(next(iter(inputs.values())))
        gs = config.build_ground(cfg)
        extra = {}
        if name == "evolve-2d":
            extra["direction"] = stability.sample_tangent_perturbation(gs, rng)
    gs.basis.substitutions()
    return Prepared(name, seed, workdir, inputs, cfg, gs, extra)


# --- units: the timed work -------------------------------------------------

def unit_sweep(prep: Prepared, clock, index: int):
    out = os.path.join(prep.workdir, f"sweep-{index}")
    code = cli.main(["--config", prep.inputs["sweep.ini"], "--out", out,
                     "--seed", str(prep.seed), "stability"])
    return code, out


def unit_evolve(prep: Prepared, clock, index: int):
    s = prep.cfg.stability
    return stability.run_trajectory(
        prep.gs, prep.extra["direction"], s.deltas[0], s.duration, s.dt,
        s.method, s.fp_tol, label="perturbation-0")


def unit_analysis(prep: Prepared, clock, index: int):
    clock.new_series()
    form = stability.hessian_assemble(prep.gs)
    clock.stamp()
    full = stability.hessian_spectrum(form, "full")
    clock.stamp()
    constrained = stability.hessian_spectrum(form, "constrained")
    clock.stamp()
    report_2d = density.wiener_report(prep.gs.sigma)
    clock.stamp()
    report_3d = density.wiener_report(prep.extra["sigma_3d"])
    clock.stamp()
    return form, full, constrained, report_2d, report_3d


# --- gates: run after each unit, outside its timing -------------------------

def _trajectory_ok(label, delta, sup, energy_drift, energy0, charge_drift):
    bound = CONTROL_TOL if not label.startswith("perturbation") \
        else DISTANCE_FACTOR * delta
    return (energy_drift <= ENERGY_RTOL * abs(energy0)
            and charge_drift <= CHARGE_TOL and sup <= bound)


def check_sweep(prep: Prepared, result) -> Outcome:
    code, out = result
    s = prep.cfg.stability
    expected = len(s.deltas) * s.n_perturbations \
        + (1 + prep.gs.spec.dimension) * s.include_controls
    try:
        if code != 0:
            return Outcome(expected, expected)
        manifest_path = os.path.join(out, "run_manifest.json")
        with open(manifest_path, "rb") as handle:
            manifest = json.loads(handle.read())
        written = os.path.getsize(manifest_path)
        intact = True
        for entry in manifest["outputs"]:
            with open(os.path.join(out, entry["path"]), "rb") as handle:
                data = handle.read()
            written += len(data)
            intact &= (hashlib.sha256(data).hexdigest() == entry["sha256"]
                       and len(data) == entry["bytes"])
        with open(os.path.join(out, "stability_report.json"), "rb") as handle:
            report = json.loads(handle.read())
        energy0 = {}
        with open(os.path.join(out, "trajectories.csv"), newline="") as handle:
            for row in csv.DictReader(handle):
                energy0.setdefault((row["label"], float(row["delta"])),
                                   float(row["E"]))
        sups = [v for _, v in sorted(
            (float(k), v) for k, v in report["sup_distance_per_delta"].items())]
        monotone = all(a <= b for a, b in zip(sups, sups[1:]))
        rows = report["trajectories"]
        if not (intact and monotone) or len(rows) != expected:
            failed = expected
        else:
            failed = sum(not _trajectory_ok(
                r["label"], r["delta"], r["sup_distance"], r["max_energy_drift"],
                energy0[(r["label"], r["delta"])], r["max_charge_drift"])
                for r in rows)
        return Outcome(expected, failed, {"cli.bytes_written": written})
    except (OSError, KeyError, ValueError):  # missing or malformed artifacts
        return Outcome(expected, expected)
    finally:
        shutil.rmtree(out, ignore_errors=True)


def check_evolve(prep: Prepared, record) -> Outcome:
    ok = _trajectory_ok(record.label, record.delta, record.sup_distance,
                        record.max_energy_drift(), record.energy[0],
                        record.max_charge_drift())
    return Outcome(1, int(not ok))


def _close(value, reference) -> bool:
    return abs(value - reference) <= REFERENCE_RTOL * abs(reference)


def check_analysis(prep: Prepared, result) -> Outcome:
    form, full, constrained, report_2d, report_3d = result
    ref = ANALYSIS_REFERENCE
    degeneracy = report_2d.degeneracy_dim
    d = prep.gs.spec.dimension
    mins_3d = [float(p.eigenvalues[0]) for p in report_3d.points]
    gates = [
        form.matrix.shape[0] == ref["matrix_size"],
        full.kernel_dim == d + degeneracy == ref["kernel_dim_full"]
        and _close(float(full.eigenvalues[-1]), ref["lambda_max_full"]),
        constrained.kernel_dim == degeneracy == ref["kernel_dim_constrained"]
        and constrained.lambda_min > 0.0
        and _close(constrained.lambda_min, ref["lambda_min_constrained"]),
        report_2d.wiener_holds and degeneracy == ref["degeneracy_dim_2d"],
        report_3d.wiener_holds
        and len(mins_3d) == ref["wiener_points_3d"]
        and all(map(_close, mins_3d, ref["wiener_min_eigenvalues_3d"])),
    ]
    return Outcome(len(gates), gates.count(False))


UNITS = {
    "sweep-1d": (unit_sweep, check_sweep),
    "evolve-2d": (unit_evolve, check_evolve),
    "analysis-2d": (unit_analysis, check_analysis),
}
