"""Command line interface: density checks, ground states, spectra, dynamics.

Commands
  density       jellium and flatness diagnostics for the configured density
  ground-state  build the ground state and report its invariants
  hessian       assemble the second variation and report its spectrum
  evolve        integrate the configured ground state over time
  stability     batch of perturbed trajectories with distance tracking

All artifacts land in the --out directory: JSON reports, CSV time series
(17 significant digits, LF line endings), and a run manifest with SHA-256
checksums of every file written.  Writes are atomic (temp file + rename),
and fixed seeds give byte-identical outputs.

Exit codes: 0 success, 1 configuration error, 2 invalid input data,
3 model refusal or inadmissible state, 4 enumeration capacity exceeded,
5 integrator failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile

import numpy as np

from . import __version__
from .config import RunConfig, build_ground, build_model, load_config
from .density import jellium_check, uniform_ion_check, wiener_report
from .dynamics import assemble_rho, energy, evolve
from .errors import (
    AdmissibilityError,
    CapacityError,
    ConfigError,
    DimensionMismatchError,
    FermicrystalError,
    FrequencyDomainError,
    IntegratorError,
    InvalidDensityError,
    ModelRefusalError,
)
from .fermions import check_adr
from .stability import hessian_assemble, hessian_spectrum, stability_experiment

_EXIT_CODES = (
    (ConfigError, 1),
    ((InvalidDensityError, FrequencyDomainError, DimensionMismatchError), 2),
    ((ModelRefusalError, AdmissibilityError), 3),
    (CapacityError, 4),
    (IntegratorError, 5),
)


def _atomic_write(path: str, data: bytes) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp_path, path)
    except BaseException:
        os.unlink(tmp_path)
        raise


class ArtifactWriter:
    """Collects output files and finishes with a checksummed manifest."""

    def __init__(self, directory: str, command: str, cfg: RunConfig, seed: int):
        self.directory = directory
        self.command = command
        self.cfg = cfg
        self.seed = seed
        self.outputs = []
        try:
            os.makedirs(directory, exist_ok=True)
        except OSError as caught:  # a file at the path or above it
            raise ConfigError(
                f"cannot create output directory {directory}: {caught.strerror}") from None

    def write_json(self, name: str, payload: dict) -> str:
        data = (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()
        return self._store(name, data)

    def write_csv(self, name: str, header, rows) -> str:
        # one row template, from the first row's cell kinds: "%.17g" % cell
        # is format(cell, ".17g"), a single % per row instead of one per cell
        rows = list(rows)
        lines = []
        if rows:
            template = ",".join("%s" if isinstance(cell, str) else "%.17g"
                                for cell in rows[0])
            lines = [template % tuple(row) for row in rows]
        return self.write_lines(name, header, lines)

    def write_lines(self, name: str, header, lines: list) -> str:
        """A CSV of rows already formatted as ``write_csv`` formats them."""
        data = ("\n".join([",".join(header)] + lines) + "\n").encode()
        return self._store(name, data)

    def _store(self, name: str, data: bytes) -> str:
        path = os.path.join(self.directory, name)
        _atomic_write(path, data)
        self.outputs.append({
            "path": name,
            "bytes": len(data),
            "sha256": hashlib.sha256(data).hexdigest(),
        })
        return path

    def finish(self) -> str:
        manifest = {
            "command": self.command,
            "config": self.cfg.to_dict(),
            "seed": self.seed,
            "outputs": sorted(self.outputs, key=lambda o: o["path"]),
            "versions": {
                "fermicrystal": __version__,
                "numpy": np.__version__,
                "python": "%d.%d.%d" % sys.version_info[:3],
            },
        }
        data = (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode()
        path = os.path.join(self.directory, "run_manifest.json")
        _atomic_write(path, data)
        return path


TRAJECTORY_HEADER = ("label", "delta", "t", "distance", "E", "Q")


def _strided(length: int, stride: int):
    indices = list(range(0, length, stride))
    if indices and indices[-1] != length - 1:
        indices.append(length - 1)
    return indices


def _trajectory_lines(records, stride: int) -> list:
    """The rows of ``trajectories.csv``, each the line that ``write_csv``
    makes of (label, delta, t, distance, E, Q) at every ``stride``-th step.

    The records of a sweep share one t grid, and every row of a record
    starts with its label and delta, so each grid and each prefix is
    formatted once.
    """
    grids = {}  # t as bytes -> (picks, formatted t cells)
    lines = []
    for record in records:
        key = record.t.tobytes()
        grid = grids.get(key)
        if grid is None:
            picks = _strided(len(record.t), stride)
            grid = grids[key] = (picks, ["%.17g" % t for t in record.t[picks].tolist()])
        picks, t_cells = grid
        prefix = "%s,%.17g," % (record.label, record.delta)
        lines.extend("%s%s,%.17g,%.17g,%.17g" % (prefix, t, distance, e, q)
                     for t, distance, e, q in zip(t_cells, record.distance[picks].tolist(),
                                                  record.energy[picks].tolist(),
                                                  record.charge[picks].tolist()))
    return lines


def cmd_density(cfg: RunConfig, writer: ArtifactWriter) -> int:
    model = build_model(cfg)
    verdict = jellium_check(model)
    uniform_residual = uniform_ion_check(model)
    report = wiener_report(model)
    payload = {
        "kind": model.kind,
        "charge": model.Z,
        "coupling": model.e,
        "jellium_passes": bool(verdict.passes),
        "jellium_worst_h": verdict.worst_h,  # a tuple of ints, or None
        "jellium_worst_value": verdict.worst_value,
        "jellium_tolerance": verdict.tolerance,
        "uniform_lattice_residual": uniform_residual,
        "wiener_holds": bool(report.wiener_holds),
        "degeneracy_dim": report.degeneracy_dim,
        "kernel_tolerance": report.kernel_tolerance,
        "tail_bound": report.tail_bound,
        "truncation_radius": report.truncation_radius,
        "points": [
            {
                "h": list(map(int, point.h)),
                "kernel_dim": point.kernel_dim,
                "min_eigenvalue": float(point.eigenvalues[0]),
            }
            for point in report.points
        ],
    }
    writer.write_json("density_report.json", payload)
    return 0


def cmd_ground_state(cfg: RunConfig, writer: ArtifactWriter) -> int:
    gs = build_ground(cfg)
    state = gs.state()
    rho = assemble_rho(state, gs.sigma)
    payload = {
        "omega0": gs.omega0,
        "charge": gs.psi0.charge(),
        "energy": energy(state, gs.sigma),
        "n_minimal_sets": len(gs.minimal_sets),
        "minimal_sets_pairwise_admissible": bool(check_adr(gs.minimal_sets)),
        "basis_size": gs.basis.size,
        "n_electrons": gs.basis.n_electrons,
        "max_rho_coefficient": float(np.abs(rho.values).max()),
    }
    writer.write_json("ground_state.json", payload)
    return 0


def _spectral_summary(gs) -> tuple:
    """The form at the ground state, its full spectrum, and the report keys
    that the ``hessian`` and ``stability`` commands share."""
    form = hessian_assemble(gs)
    full = hessian_spectrum(form, "full")
    constrained = hessian_spectrum(form, "constrained")
    report = wiener_report(gs.sigma)
    return form, full, {
        "omega0": gs.omega0,
        "kernel_dim_full": full.kernel_dim,
        "kernel_dim_constrained": constrained.kernel_dim,
        "lambda_min_constrained": constrained.lambda_min,
        "wiener_holds": bool(report.wiener_holds),
        "degeneracy_dim": report.degeneracy_dim,
    }


def cmd_hessian(cfg: RunConfig, writer: ArtifactWriter) -> int:
    form, full, summary = _spectral_summary(build_ground(cfg))
    payload = {
        **summary,
        "matrix_size": form.size,
        "lambda_min_full": full.lambda_min,
        "kernel_tolerance": full.tolerance,
        "eigenvalues_head": [float(v) for v in full.eigenvalues[:12]],
        # the blocks the spectra diagonalise, one per Bloch sector
        "sector_sizes": sorted(len(sector.block) for sector in form.sectors),
    }
    writer.write_json("hessian_report.json", payload)
    return 0


def cmd_evolve(cfg: RunConfig, writer: ArtifactWriter) -> int:
    gs = build_ground(cfg)
    dyn = cfg.dynamics
    _, log = evolve(gs.state(), gs.sigma, dyn.dt, dyn.duration,
                    method=dyn.method, fp_tol=dyn.fp_tol,
                    max_iterations=dyn.max_iterations)
    rows = []
    for i in _strided(len(log.t), cfg.output.stride):
        rows.append((log.t[i], log.energy[i], log.charge[i],
                     log.energy[i] - log.energy[0],
                     log.charge[i] - log.charge[0]))
    writer.write_csv("trajectory.csv",
                     ("t", "E", "Q", "energy_drift", "charge_drift"), rows)
    # solver statistics over the steps; the t = 0 entry is not a step
    iterations, residuals = log.iterations[1:], log.residual[1:]
    taken = iterations.size > 0
    payload = {
        "method": dyn.method,
        "dt": dyn.dt,
        "duration": dyn.duration,
        "steps": len(log.t) - 1,
        "max_energy_drift": log.max_energy_drift(),
        "max_charge_drift": log.max_charge_drift(),
        "final_energy": log.energy[-1],
        "fp_iterations_min": int(iterations.min()) if taken else 0,
        "fp_iterations_mean": float(iterations.mean()) if taken else 0.0,
        "fp_iterations_max": int(iterations.max()) if taken else 0,
        "max_residual": float(residuals.max()) if taken else 0.0,
    }
    writer.write_json("evolve_report.json", payload)
    return 0


def cmd_stability(cfg: RunConfig, writer: ArtifactWriter, seed: int,
                  workers: int) -> int:
    s = cfg.stability
    gs = build_ground(cfg)
    result = stability_experiment(
        gs, s.deltas, n_perturbations=s.n_perturbations,
        duration=s.duration, dt=s.dt, seed=seed, method=s.method,
        fp_tol=s.fp_tol, include_controls=s.include_controls, workers=workers,
        max_iterations=cfg.dynamics.max_iterations)
    summary_rows = [{
        "label": record.label,
        "delta": record.delta,
        "sup_distance": record.sup_distance,
        "final_distance": record.final_distance,
        "max_energy_drift": record.max_energy_drift(),
        "max_charge_drift": record.max_charge_drift(),
    } for record in result.records]
    writer.write_lines(
        "trajectories.csv", TRAJECTORY_HEADER,
        _trajectory_lines(result.records, cfg.output.stride))

    _, _, summary = _spectral_summary(gs)
    payload = {
        **summary,
        "energy": energy(gs.state(), gs.sigma),
        "seed": seed,
        "n_perturbations": s.n_perturbations,
        "deltas": list(s.deltas),
        "sup_distance_per_delta": {
            format(k, ".17g"): v
            for k, v in sorted(result.sup_distance_per_delta().items())
        },
        "trajectories": summary_rows,
    }
    writer.write_json("stability_report.json", payload)
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fermicrystal",
        description="Finite-crystal Schroedinger-Poisson laboratory",
    )
    parser.add_argument("--config", help="INI configuration file")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=0, help="RNG seed")
    parser.add_argument("--workers", type=int, default=1,
                        help="process count for stability sweeps")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("density", "density diagnostics: jellium, uniformity, flatness"),
        ("ground-state", "construct the ground state and check invariants"),
        ("hessian", "spectrum of the second variation at the ground state"),
        ("evolve", "integrate the ground state over time"),
        ("stability", "perturbation sweep with distance tracking"),
    ):
        sub.add_parser(name, help=text)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        if args.workers < 1:
            raise ConfigError(f"--workers must be at least 1, got {args.workers}")
        if args.seed < 0:
            raise ConfigError(f"--seed must be nonnegative, got {args.seed}")
        cfg = load_config(args.config)
        writer = ArtifactWriter(args.out, args.command, cfg, args.seed)
        if args.command == "density":
            code = cmd_density(cfg, writer)
        elif args.command == "ground-state":
            code = cmd_ground_state(cfg, writer)
        elif args.command == "hessian":
            code = cmd_hessian(cfg, writer)
        elif args.command == "evolve":
            code = cmd_evolve(cfg, writer)
        else:
            code = cmd_stability(cfg, writer, args.seed, args.workers)
        writer.finish()
        return code
    except FermicrystalError as caught:
        print(f"error: {caught}", file=sys.stderr)
        for exc_types, code in _EXIT_CODES:
            if isinstance(caught, exc_types):
                return code
        return 1


if __name__ == "__main__":
    sys.exit(main())
