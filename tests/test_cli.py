import csv
import hashlib
import json

import numpy as np
import pytest

from fermicrystal import (
    ConfigError,
    InvalidDensityError,
    TorusSpec,
    box_density,
    evolve,
    perturbed_box_density,
)
from fermicrystal.cli import (
    TRAJECTORY_HEADER,
    ArtifactWriter,
    _strided,
    _trajectory_lines,
    main,
)
from fermicrystal.config import (
    RunConfig,
    build_basis,
    build_ground,
    build_model,
    build_spec,
    load_config,
    validate_config,
)
from fermicrystal.stability import TrajectoryRecord, stability_experiment

BASE_INI = """
[model]
dimension = 1
cells_per_axis = 2
grid_per_axis = 16
kind = box
profile_exponent = 1

[basis]
ksq_budget = {budget}

[dynamics]
dt = 1e-3
duration = 0.05

[stability]
deltas = 1e-3, 1e-2
n_perturbations = 2
duration = 0.05
dt = 1e-3
"""


def write_ini(tmp_path, budget="78.9568352087149", extra=""):
    path = tmp_path / "run.ini"
    path.write_text(BASE_INI.format(budget=budget) + extra)
    return str(path)


# --- configuration ---


def test_load_config_defaults():
    cfg = load_config(None, environ={})
    assert cfg.model.dimension == 1
    assert cfg.model.kind == "box"
    assert cfg.stability.deltas == (0.02, 0.05, 0.1)
    validate_config(cfg)


def test_load_config_ini(tmp_path):
    path = write_ini(tmp_path)
    cfg = load_config(path, environ={})
    assert cfg.basis.ksq_budget == pytest.approx(8.0 * np.pi**2, rel=1e-12)
    assert cfg.dynamics.duration == 0.05
    assert cfg.stability.deltas == (1e-3, 1e-2)
    assert cfg.stability.n_perturbations == 2


def test_environment_override(tmp_path):
    path = write_ini(tmp_path)
    cfg = load_config(path, environ={"FERMICRYSTAL_MODEL_DIMENSION": "2",
                                     "FERMICRYSTAL_MODEL_GRID_PER_AXIS": "8",
                                     "FERMICRYSTAL_STABILITY_INCLUDE_CONTROLS": "off"})
    assert cfg.model.dimension == 2
    assert cfg.model.grid_per_axis == 8
    assert cfg.stability.include_controls is False


def test_unknown_section_rejected(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[widgets]\nsize = 3\n")
    with pytest.raises(ConfigError):
        load_config(str(path), environ={})


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[model]\ndimensions = 1\n")
    with pytest.raises(ConfigError):
        load_config(str(path), environ={})


def test_unparseable_value_rejected(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[model]\ndimension = banana\n")
    with pytest.raises(ConfigError):
        load_config(str(path), environ={})


def test_missing_file_rejected():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/run.ini", environ={})


@pytest.mark.parametrize("patch", [
    ("model", "dimension", 4),
    ("model", "grid_per_axis", 15),  # not a multiple of cells
    ("model", "kind", "plasma"),
    ("model", "charge", -1.0),
    ("dynamics", "method", "verlet"),
    ("stability", "deltas", ()),
    ("stability", "deltas", (-0.1,)),
    ("output", "stride", 0),
    # nan and inf compare false against every bound, so each float field
    # needs its own finiteness check
    ("model", "cutoff_radius", float("inf")),
    ("model", "amplitude", float("nan")),
    ("model", "decay", float("inf")),
    ("model", "charge", float("inf")),
    ("model", "coupling", float("nan")),
    ("basis", "ksq_budget", float("nan")),
    ("dynamics", "dt", float("nan")),
    ("dynamics", "duration", float("inf")),
    ("dynamics", "fp_tol", float("nan")),
    ("dynamics", "mass", float("nan")),
    ("stability", "dt", float("inf")),
    ("stability", "duration", float("nan")),
    ("stability", "fp_tol", float("inf")),
    ("stability", "deltas", (1e-3, float("nan"))),
    # the stage-solve controls of both sections: a nonpositive tolerance or
    # no iteration at all can only end as "did not converge"
    ("stability", "fp_tol", -1e-13),
    ("stability", "fp_tol", 0.0),
    ("dynamics", "max_iterations", 0),
    ("dynamics", "max_iterations", -3),
])
def test_validate_config_failures(patch):
    section, key, value = patch
    cfg = load_config(None, environ={})
    setattr(getattr(cfg, section), key, value)
    with pytest.raises(ConfigError):
        validate_config(cfg)


def test_validate_config_torus_rules():
    # the torus rules are TorusSpec's: one cell still needs two grid points
    cfg = load_config(None, environ={})
    cfg.model.cells_per_axis = 1
    cfg.model.grid_per_axis = 1
    with pytest.raises(ConfigError, match="grid_per_axis"):
        validate_config(cfg)
    # and so is the cutoff rule
    cfg = load_config(None, environ={})
    cfg.model.cutoff_radius = -5.0
    with pytest.raises(ConfigError, match=r"\[model\] cutoff_radius must be finite"):
        validate_config(cfg)


def test_perturbed_box_validation():
    cfg = load_config(None, environ={})
    cfg.model.kind = "perturbed_box"
    cfg.model.profile_exponent = 1  # must be even and >= 2
    with pytest.raises(ConfigError):
        validate_config(cfg)
    cfg.model.profile_exponent = 2
    cfg.model.amplitude = 0.0
    with pytest.raises(ConfigError):
        validate_config(cfg)
    cfg.model.amplitude = 0.5
    validate_config(cfg)
    for decay in (-3.0, 0.25):  # the bump's tail bound needs 4 decay > 1
        cfg.model.decay = decay
        with pytest.raises(ConfigError, match="decay"):
            validate_config(cfg)


@pytest.mark.parametrize("model, build", [
    ({"kind": "box", "profile_exponent": 0}, lambda spec: box_density(spec, 0)),
    ({"kind": "perturbed_box", "profile_exponent": 3},
     lambda spec: perturbed_box_density(spec, k=3)),
    ({"kind": "perturbed_box", "profile_exponent": 2, "amplitude": 0.0},
     lambda spec: perturbed_box_density(spec, amplitude=0.0)),
    ({"kind": "perturbed_box", "profile_exponent": 2, "decay": 0.25},
     lambda spec: perturbed_box_density(spec, decay=0.25)),
    ({"kind": "box", "profile_exponent": 1, "charge": -2.0},
     lambda spec: box_density(spec, 1, Z=-2.0)),
    ({"kind": "box", "profile_exponent": 1, "dimension": 2, "grid_per_axis": 12,
      "charge": 1e160}, lambda spec: box_density(spec, 1, Z=1e160)),
], ids=["box-order", "perturbed-even", "amplitude", "decay", "charge", "peak"])
def test_density_rules_shared_with_config(model, build):
    # the configuration refuses a density with the text its constructor gives
    cfg = load_config(None, environ={})
    for key, value in model.items():
        setattr(cfg.model, key, value)
    with pytest.raises(ConfigError) as refused:
        validate_config(cfg)
    with pytest.raises(InvalidDensityError) as built:
        build(build_spec(cfg))
    assert str(refused.value) == f"[model] {built.value}"


def test_round_trip_dict():
    cfg = load_config(None, environ={})
    cfg.model.dimension = 2
    cfg.stability.deltas = (0.5,)
    back = RunConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert back.to_dict() == cfg.to_dict()


def test_builders(tmp_path):
    cfg = load_config(write_ini(tmp_path), environ={})
    spec = build_spec(cfg)
    assert spec.dimension == 1 and spec.cells_per_axis == 2
    model = build_model(cfg)
    assert model.kind == "box"
    basis = build_basis(cfg, spec)
    assert basis.size == 10
    gs = build_ground(cfg)
    assert gs.omega0 == pytest.approx(np.pi**2 / 2.0)


def test_default_budget_covers_ground_shell():
    cfg = load_config(None, environ={})
    assert cfg.basis.ksq_budget == 0.0
    basis = build_basis(cfg, build_spec(cfg))
    gs = build_ground(cfg)
    assert all(occ in basis for occ in gs.minimal_sets)


# --- command-line entry points ---


def run_cli(tmp_path, *args):
    out = tmp_path / "out"
    code = main(["--out", str(out), *args])
    return code, out


def test_cmd_density(tmp_path):
    code, out = run_cli(tmp_path, "--config", write_ini(tmp_path), "density")
    assert code == 0
    report = json.loads((out / "density_report.json").read_text())
    assert report["jellium_passes"] is True
    assert report["uniform_lattice_residual"] <= 1e-12
    assert report["wiener_holds"] is True
    assert report["degeneracy_dim"] == 0
    assert all(point["kernel_dim"] == 0 for point in report["points"])


def test_cmd_density_without_jellium_points(tmp_path, monkeypatch):
    # a cutoff below 2 pi retains no nonzero reciprocal vector to scan
    monkeypatch.setenv("FERMICRYSTAL_MODEL_CUTOFF_RADIUS", "0.5")
    code, out = run_cli(tmp_path, "--config", write_ini(tmp_path), "density")
    assert code == 0
    report = json.loads((out / "density_report.json").read_text())
    assert report["jellium_passes"] is True
    assert report["jellium_worst_h"] is None


@pytest.mark.parametrize("command", ["density", "hessian", "stability"])
def test_cmd_one_cell(tmp_path, command):
    # N = 1 has no dual-cell point: an empty Wiener scan, not a traceback
    ini = tmp_path / "run.ini"
    ini.write_text(BASE_INI.format(budget="40").replace(
        "cells_per_axis = 2\ngrid_per_axis = 16", "cells_per_axis = 1\ngrid_per_axis = 8"))
    code, out = run_cli(tmp_path, "--config", str(ini), command)
    assert code == 0
    report = json.loads(next(out.glob("*_report.json")).read_text())
    assert report["wiener_holds"] is True


def test_cmd_ground_state(tmp_path):
    code, out = run_cli(tmp_path, "--config", write_ini(tmp_path), "ground-state")
    assert code == 0
    report = json.loads((out / "ground_state.json").read_text())
    assert report["omega0"] == pytest.approx(np.pi**2 / 2.0)
    assert report["energy"] == pytest.approx(np.pi**2 / 2.0, rel=1e-12)
    assert report["n_minimal_sets"] == 2
    assert report["minimal_sets_pairwise_admissible"] is False
    assert report["basis_size"] == 10
    assert report["max_rho_coefficient"] <= 1e-13


def test_cmd_hessian(tmp_path):
    code, out = run_cli(tmp_path, "--config", write_ini(tmp_path), "hessian")
    assert code == 0
    report = json.loads((out / "hessian_report.json").read_text())
    assert report["kernel_dim_full"] == 1
    assert report["kernel_dim_constrained"] == 0
    assert report["lambda_min_constrained"] == pytest.approx(0.9434, rel=1e-3)
    assert report["wiener_holds"] is True
    assert report["eigenvalues_head"][0] == pytest.approx(0.0, abs=1e-9)
    assert report["sector_sizes"] == [7, 7]  # d = 1, N = 2: h = 0 and h = 1


def test_cmd_hessian_d3(tmp_path):
    # 2 omega0 + 2 pi^2 + 1e-9 (omega0 = 4 pi^2), the margin keeping the
    # sets on that shell: B = 4364, so the packed form is 8776 square but
    # couples only 324 coordinates
    ini = tmp_path / "run.ini"
    ini.write_text(
        "[model]\ndimension = 3\ncells_per_axis = 2\ngrid_per_axis = 8\n"
        "kind = perturbed_box\nprofile_exponent = 2\n"
        "[basis]\nksq_budget = 98.69604401189359\n"
    )
    code, out = run_cli(tmp_path, "--config", str(ini), "hessian")
    assert code == 0
    report = json.loads((out / "hessian_report.json").read_text())
    assert report["matrix_size"] == 8776  # 2 B + 2 m d
    assert report["kernel_dim_constrained"] == 0
    assert report["wiener_holds"] is True


def test_cmd_evolve(tmp_path):
    code, out = run_cli(tmp_path, "--config", write_ini(tmp_path), "evolve")
    assert code == 0
    report = json.loads((out / "evolve_report.json").read_text())
    assert report["max_energy_drift"] <= 1e-10
    assert report["max_charge_drift"] <= 1e-12
    with open(out / "trajectory.csv", newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["t", "E", "Q", "energy_drift", "charge_drift"]
    assert len(rows) == 52  # header + 51 sampled states
    assert float(rows[1][0]) == 0.0
    assert float(rows[-1][0]) == pytest.approx(0.05)


@pytest.mark.parametrize("duration", [None, "0"])
def test_evolve_report_solver_statistics(tmp_path, monkeypatch, duration):
    # the report's solver statistics are those of the evolve log over steps
    # 1..n; a zero duration takes no step and reports zeros
    if duration is not None:
        monkeypatch.setenv("FERMICRYSTAL_DYNAMICS_DURATION", duration)
    ini = write_ini(tmp_path)
    code, out = run_cli(tmp_path, "--config", ini, "evolve")
    assert code == 0
    report = json.loads((out / "evolve_report.json").read_text())
    cfg = load_config(ini)
    gs, dyn = build_ground(cfg), cfg.dynamics
    _, log = evolve(gs.state(), gs.sigma, dyn.dt, dyn.duration,
                    method=dyn.method, fp_tol=dyn.fp_tol,
                    max_iterations=dyn.max_iterations)
    keys = ("fp_iterations_min", "fp_iterations_mean", "fp_iterations_max",
            "max_residual")
    if duration is None:
        assert report["steps"] == len(log.t) - 1 == 50
        iterations, residuals = log.iterations[1:], log.residual[1:]
        expected = (int(iterations.min()), float(iterations.mean()),
                    int(iterations.max()), float(residuals.max()))
        assert 1 <= expected[0] <= expected[2] <= dyn.max_iterations
    else:
        assert report["steps"] == 0
        expected = (0, 0.0, 0, 0.0)
    assert tuple(report[key] for key in keys) == expected


def test_write_csv_matches_per_cell_format(tmp_path):
    # one row template gives the bytes of formatting every cell on its own
    header = ("label", "a", "b", "c", "d")
    rows = [
        ("zero", 0.1, np.float64(1.0 / 3.0), 7, float("nan")),
        ("perturbation-0", -0.0, np.float64(1e-300), -12, 2.0**60),
        ("translation-1", 1e-300, np.float64(-0.0), 0, float("inf")),
        ("", 123456789.125, np.float64(np.nan), 2**70, -1e300),
    ]
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            cell if isinstance(cell, str) else format(cell, ".17g")
            for cell in row
        ))
    expected = ("\n".join(lines) + "\n").encode()
    writer = ArtifactWriter(str(tmp_path), "evolve", load_config(None, environ={}), 0)
    path = writer.write_csv("table.csv", header, iter(rows))
    with open(path, "rb") as handle:
        assert handle.read() == expected
    empty = writer.write_csv("empty.csv", header, [])
    with open(empty, "rb") as handle:
        assert handle.read() == b"label,a,b,c,d\n"


def write_csv_rows(records, stride):
    # the rows cmd_stability once handed to write_csv, cell by cell
    rows = []
    for record in records:
        picks = _strided(len(record.t), stride)
        columns = (record.t[picks].tolist(), record.distance[picks].tolist(),
                   record.energy[picks].tolist(), record.charge[picks].tolist())
        rows.extend((record.label, record.delta) + cells for cells in zip(*columns))
    return rows


@pytest.mark.parametrize("stride", [1, 3, 50])
def test_trajectory_lines_match_write_csv(tmp_path, stride):
    # formatting each t grid and (label, delta) prefix once gives the bytes
    # of write_csv on the full rows, across records with different grids
    cfg = load_config(write_ini(tmp_path), environ={})
    gs = build_ground(cfg)
    records = stability_experiment(gs, [1e-3, 1e-2], n_perturbations=2,
                                   duration=0.01, dt=1e-3).records
    rng = np.random.default_rng(0)
    for label, t in (("odd-grid", np.linspace(0.0, 0.7, 8)),
                     ("signed-zero", np.array([-0.0, 1e-300, 1.0 / 3.0])),
                     ("perturbation-9", np.linspace(0.0, 0.7, 8))):
        records.append(TrajectoryRecord(label, -0.0 if "zero" in label else 2.0**-30,
                                        t, rng.standard_normal(len(t)),
                                        rng.standard_normal(len(t)) * 1e300,
                                        np.full(len(t), np.nan)))
    writer = ArtifactWriter(str(tmp_path / "out"), "stability",
                            load_config(None, environ={}), 0)
    fast = writer.write_lines("fast.csv", TRAJECTORY_HEADER,
                              _trajectory_lines(records, stride))
    oracle = writer.write_csv("oracle.csv", TRAJECTORY_HEADER,
                              write_csv_rows(records, stride))
    with open(fast, "rb") as a, open(oracle, "rb") as b:
        assert a.read() == b.read()
    empty = writer.write_lines("empty.csv", TRAJECTORY_HEADER,
                               _trajectory_lines([], stride))
    with open(empty, "rb") as handle:
        assert handle.read() == b"label,delta,t,distance,E,Q\n"


def test_cmd_stability_and_manifest(tmp_path):
    code, out = run_cli(tmp_path, "--config", write_ini(tmp_path),
                        "--seed", "5", "stability")
    assert code == 0
    report = json.loads((out / "stability_report.json").read_text())
    assert report["seed"] == 5
    assert report["wiener_holds"] is True
    assert report["kernel_dim_full"] == 1
    assert report["lambda_min_constrained"] > 0.9
    sup = report["sup_distance_per_delta"]
    assert set(sup) == {"0.001", "0.01"}
    assert sup["0.001"] <= 1e-2
    labels = [t["label"] for t in report["trajectories"]]
    assert "zero" in labels and "translation-0" in labels

    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["command"] == "stability"
    assert manifest["seed"] == 5
    for entry in manifest["outputs"]:
        blob = (out / entry["path"]).read_bytes()
        assert hashlib.sha256(blob).hexdigest() == entry["sha256"]
        assert len(blob) == entry["bytes"]


def test_stability_deterministic_bytes(tmp_path):
    ini = write_ini(tmp_path)
    _, out1 = run_cli(tmp_path / "a", "--config", ini, "--seed", "7", "stability")
    _, out2 = run_cli(tmp_path / "b", "--config", ini, "--seed", "7", "stability")
    for name in ("stability_report.json", "trajectories.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_stability_workers_bytes(tmp_path):
    # directions run in worker processes give the same bytes as in-process
    ini = write_ini(tmp_path)
    _, out1 = run_cli(tmp_path / "a", "--config", ini, "--seed", "3",
                      "--workers", "1", "stability")
    _, out2 = run_cli(tmp_path / "b", "--config", ini, "--seed", "3",
                      "--workers", "2", "stability")
    for name in ("stability_report.json", "trajectories.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_exit_code_workers(tmp_path, capsys, workers):
    code, _ = run_cli(tmp_path, "--config", write_ini(tmp_path),
                      "--workers", workers, "stability")
    assert code == 1
    err = capsys.readouterr().err
    assert "--workers" in err and len(err.strip().splitlines()) == 1


def test_exit_code_negative_seed(tmp_path, capsys):
    code, _ = run_cli(tmp_path, "--config", write_ini(tmp_path),
                      "--seed", "-1", "stability")
    assert code == 1
    err = capsys.readouterr().err
    assert "--seed" in err and len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


def test_exit_code_torus_rules(tmp_path, capsys):
    path = tmp_path / "one_cell.ini"
    path.write_text(BASE_INI.format(budget=0)
                    .replace("cells_per_axis = 2", "cells_per_axis = 1")
                    .replace("grid_per_axis = 16", "grid_per_axis = 1"))
    code, _ = run_cli(tmp_path, "--config", str(path), "density")
    assert code == 1
    err = capsys.readouterr().err
    assert "grid_per_axis" in err and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("decay", ["-3", "0.25"])
def test_exit_code_decay_bound(tmp_path, capsys, decay):
    # the analysis-2d geometry: decay = -3 ran to exit 0 with a kernel
    # tolerance of 4.5e45, decay = 0.25 divided by zero in the tail bound
    path = tmp_path / "decay.ini"
    path.write_text(
        "[model]\ndimension = 2\ncells_per_axis = 2\ngrid_per_axis = 12\n"
        "kind = perturbed_box\nprofile_exponent = 2\namplitude = 0.5\n"
        f"decay = {decay}\n")
    code, _ = run_cli(tmp_path, "--config", str(path), "density")
    assert code == 1
    err = capsys.readouterr().err
    assert "decay" in err and len(err.strip().splitlines()) == 1
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("model", [
    "kind = box\nprofile_exponent = 1\ncharge = 1e160\n",
    "kind = perturbed_box\nprofile_exponent = 2\namplitude = 1e160\n",
], ids=["box-charge", "perturbed-amplitude"])
def test_exit_code_overflowing_peak(tmp_path, capsys, model):
    # both overflowed squaring a Python float in the tail bound, with a
    # traceback
    path = tmp_path / "peak.ini"
    path.write_text(
        "[model]\ndimension = 2\ncells_per_axis = 2\ngrid_per_axis = 12\n" + model)
    code, _ = run_cli(tmp_path, "--config", str(path), "density")
    assert code == 1
    err = capsys.readouterr().err
    assert "peak" in err and len(err.strip().splitlines()) == 1
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("key, raw, command", [
    ("STABILITY_FP_TOL", "-1e-13", "stability"),
    ("DYNAMICS_MAX_ITERATIONS", "0", "evolve"),
])
def test_exit_code_stage_controls(tmp_path, monkeypatch, capsys, key, raw,
                                  command):
    # refused as configuration (exit 1), not run until "did not converge"
    monkeypatch.setenv(f"FERMICRYSTAL_{key}", raw)
    code, _ = run_cli(tmp_path, "--config", write_ini(tmp_path), command)
    assert code == 1
    assert key.split("_", 1)[1].lower() in capsys.readouterr().err


@pytest.mark.parametrize("below", [False, True])
def test_exit_code_out_is_a_file(tmp_path, capsys, below):
    # --out naming an existing file, or a path below one, is a config error
    blocker = tmp_path / "taken"
    blocker.write_text("")
    out = blocker / "out" if below else blocker
    assert main(["--out", str(out), "density"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot create output directory ")
    assert str(out) in err and err.count("\n") == 1


def test_exit_code_config_error(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text("[widgets]\nsize = 3\n")
    assert main(["--config", str(path), "density"]) == 1
    assert "widgets" in capsys.readouterr().err


@pytest.mark.parametrize("key, raw", [
    ("DYNAMICS_DT", "nan"),
    ("DYNAMICS_DURATION", "inf"),
    ("BASIS_KSQ_BUDGET", "nan"),
])
def test_exit_code_non_finite_config(tmp_path, monkeypatch, capsys, key, raw):
    monkeypatch.setenv(f"FERMICRYSTAL_{key}", raw)
    assert main(["--out", str(tmp_path / "o"), "evolve"]) == 1
    assert "finite" in capsys.readouterr().err


def test_exit_code_bad_density_file(tmp_path, capsys):
    blob = tmp_path / "sigma.txt"
    blob.write_text("not a density\n")
    ini = tmp_path / "file.ini"
    ini.write_text(f"[model]\nkind = file\ndensity_file = {blob}\n")
    code = main(["--config", str(ini), "--out", str(tmp_path / "o"), "density"])
    assert code == 2
    assert capsys.readouterr().err


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_exit_code_non_finite_density_sample(tmp_path, capsys, bad):
    # a non-finite sample went through the transform with RuntimeWarnings and
    # ended as "sigma must be real"
    samples = ["0.5"] * 16
    samples[9] = bad
    blob = tmp_path / "sigma.txt"
    blob.write_text("1 2 16 1.0 1.0 " + " ".join(samples) + "\n")
    ini = tmp_path / "file.ini"
    ini.write_text(f"[model]\nkind = file\ndensity_file = {blob}\n")
    code = main(["--config", str(ini), "--out", str(tmp_path / "o"), "density"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert "1 of 16 density samples are not finite" in err and "(9,)" in err
    assert str(blob) in err


def test_exit_code_density_file_charge_mismatch(tmp_path, capsys):
    # sixteen 0.25 samples on a length-2 torus carry e Z = 0.5, not the
    # header's 1: the model's refusal names the file too
    blob = tmp_path / "sigma.txt"
    blob.write_text("1 2 16 1.0 1.0 " + " ".join(["0.25"] * 16) + "\n")
    ini = tmp_path / "file.ini"
    ini.write_text(f"[model]\nkind = file\ndensity_file = {blob}\n")
    code = main(["--config", str(ini), "--out", str(tmp_path / "o"), "density"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.strip().splitlines()) == 1
    assert "does not match e Z" in err and str(blob) in err


def test_exit_code_density_file_invalid_torus(tmp_path, capsys):
    # n_g = 16 is no multiple of N = 3: refused as invalid input data, with
    # one line that names the file
    blob = tmp_path / "sigma.txt"
    blob.write_text("1 3 16 1.0 1.0 " + " ".join(["0.1"] * 16) + "\n")
    ini = tmp_path / "file.ini"
    ini.write_text(f"[model]\nkind = file\ndensity_file = {blob}\n")
    code = main(["--config", str(ini), "--out", str(tmp_path / "o"), "density"])
    assert code == 2
    err = capsys.readouterr().err
    assert str(blob) in err
    assert len(err.strip().splitlines()) == 1


def _gaussian_density_file(tmp_path):
    # a gaussian profile is a valid density file (d N n_g = 1 2 16) but not
    # crystal compatible
    from fermicrystal import TorusSpec

    spec = TorusSpec(1, 2, 16)
    x = spec.grid_axes()
    samples = np.exp(-8.0 * (x - 1.0) ** 2)
    samples *= 1.0 / (samples.sum() * spec.grid_spacing)
    blob = tmp_path / "gauss.txt"
    blob.write_text(
        f"1 2 {spec.grid_per_axis} 1.0 1.0\n"
        + " ".join(format(v, ".17g") for v in samples) + "\n"
    )
    return blob


def test_exit_code_model_refusal(tmp_path, capsys):
    # ground-state construction refuses a density without the crystal property
    blob = _gaussian_density_file(tmp_path)
    ini = tmp_path / "file.ini"
    ini.write_text(f"[model]\nkind = file\ndensity_file = {blob}\n")
    code = main(["--config", str(ini), "--out", str(tmp_path / "o"),
                 "ground-state"])
    assert code == 3
    assert "crystal" in capsys.readouterr().err


@pytest.mark.parametrize("setting, named", [
    ("dimension = 2", ("(1, 2, 16)", "(2, 2, 16)")),
    ("cells_per_axis = 4", ("(1, 2, 16)", "(1, 4, 16)")),
    ("grid_per_axis = 32", ("(1, 2, 16)", "(1, 2, 32)")),
    ("cutoff_radius = 20.0", ("20.0", "0")),
], ids=["dimension", "cells", "grid", "cutoff"])
def test_exit_code_density_file_geometry(tmp_path, capsys, setting, named):
    # the file fixes (d, N, n_g) and the default cutoff; a config asking for
    # another geometry is refused instead of being recorded but not run
    blob = _gaussian_density_file(tmp_path)
    ini = tmp_path / "file.ini"
    ini.write_text(f"[model]\nkind = file\ndensity_file = {blob}\n{setting}\n")
    code = main(["--config", str(ini), "--out", str(tmp_path / "o"),
                 "ground-state"])
    assert code == 1
    err = capsys.readouterr().err
    assert all(value in err for value in named)


@pytest.mark.parametrize("setting, named", [
    ("charge = 2.5", ("(1.0, 1.0)", "(2.5, 1.0)")),
    ("coupling = 3.0", ("(1.0, 1.0)", "(1.0, 3.0)")),
], ids=["charge", "coupling"])
def test_exit_code_density_file_charge(tmp_path, capsys, setting, named):
    # the file's header fixes Z and e; a config asking for other values is
    # refused instead of being recorded in the manifest but not run
    blob = _gaussian_density_file(tmp_path)
    ini = tmp_path / "file.ini"
    ini.write_text(f"[model]\nkind = file\ndensity_file = {blob}\n{setting}\n")
    code = main(["--config", str(ini), "--out", str(tmp_path / "o"),
                 "ground-state"])
    assert code == 1
    err = capsys.readouterr().err
    assert all(value in err for value in named)


def test_exit_code_missing_density_file(tmp_path, capsys):
    absent = tmp_path / "absent.txt"
    ini = tmp_path / "file.ini"
    ini.write_text(f"[model]\nkind = file\ndensity_file = {absent}\n")
    code = main(["--config", str(ini), "--out", str(tmp_path / "o"),
                 "ground-state"])
    assert code == 1
    err = capsys.readouterr().err
    assert str(absent) in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("delta", ["1e300", "1e155"])
def test_exit_code_delta_beyond_half_period(tmp_path, capsys, delta):
    # 1e300 once overflowed the charge of S + delta Y (exit 3); 1e155 ran to
    # exit 0 with a translation control drifting by 0.08.  No ion may move
    # half a period (N / 2 = 1 here), so both are configuration errors
    path = tmp_path / "run.ini"
    write_ini(tmp_path)
    path.write_text(path.read_text().replace("1e-3, 1e-2", f"1e-3, {delta}"))
    code, out = run_cli(tmp_path, "--config", str(path), "stability")
    assert code == 1
    err = capsys.readouterr().err
    assert "N / 2 = 1" in err and len(err.strip().splitlines()) == 1
    assert err.startswith("error:") and "Traceback" not in err
    assert not (out / "stability_report.json").exists()


@pytest.mark.parametrize("cells, delta, accepted", [
    (2, 0.999, True),
    (2, 1.0, False),  # half the period of N = 2
    (3, 1.49, True),
    (3, 1.5, False),
    (2, 1e155, False),
])
def test_validate_config_bounds_deltas_by_half_period(cells, delta, accepted):
    # |Y|_V = 1 moves no ion more than delta, and the orbit distance wraps
    # at half a lattice period
    cfg = load_config(None, environ={})
    cfg.model.cells_per_axis = cells
    cfg.model.grid_per_axis = 8 * cells
    cfg.stability.deltas = (1e-3, delta)
    if accepted:
        validate_config(cfg)
    else:
        with pytest.raises(ConfigError, match=r"\[stability\] deltas .* N / 2"):
            validate_config(cfg)


def test_exit_code_capacity(tmp_path, capsys):
    ini = tmp_path / "cap.ini"
    ini.write_text("[basis]\ncapacity = 1\n")
    code = main(["--config", str(ini), "--out", str(tmp_path / "o"),
                 "ground-state"])
    assert code == 4
    capsys.readouterr()


def test_exit_code_integrator(tmp_path, capsys):
    # a perturbed state at dt = 2.5: the midpoint stage iteration diverges
    ini = tmp_path / "diverge.ini"
    ini.write_text(
        "[basis]\nksq_budget = 78.9568352087149\n"
        "[stability]\ndt = 2.5\nduration = 5.0\ndeltas = 0.01\n"
        "n_perturbations = 1\ninclude_controls = false\n"
    )
    with np.errstate(all="ignore"):
        code = main(["--config", str(ini), "--out", str(tmp_path / "o"),
                     "stability"])
    assert code == 5
    capsys.readouterr()


@pytest.mark.parametrize("raw, expected", [("1", 5), ("50", 0)])
def test_stability_honours_max_iterations(tmp_path, monkeypatch, capsys, raw,
                                          expected):
    # [dynamics] max_iterations bounds the stage solve of stability runs as
    # well: the perturbed steps need 2 iterations, so a bound of 1 exits 5
    ini = tmp_path / "one.ini"
    ini.write_text(
        "[basis]\nksq_budget = 78.9568352087149\n"
        "[stability]\ndt = 1e-3\nduration = 0.01\ndeltas = 0.01\n"
        "n_perturbations = 1\ninclude_controls = false\n"
    )
    monkeypatch.setenv("FERMICRYSTAL_DYNAMICS_MAX_ITERATIONS", raw)
    code = main(["--config", str(ini), "--out", str(tmp_path / "o"),
                 "stability"])
    assert code == expected
    capsys.readouterr()


def test_ground_state_evolve_large_step(tmp_path):
    # at the ground state the coupling vanishes, so the kinetic-exact stage
    # solve converges at any dt and the step conserves charge and energy
    ini = tmp_path / "large.ini"
    ini.write_text(
        "[basis]\nksq_budget = 78.9568352087149\n"
        "[dynamics]\ndt = 1.0\nduration = 5.0\nmax_iterations = 8\n"
    )
    out = tmp_path / "o"
    assert main(["--config", str(ini), "--out", str(out), "evolve"]) == 0
    report = json.loads((out / "evolve_report.json").read_text())
    assert report["steps"] == 5
    assert report["max_charge_drift"] <= 1e-10
    assert report["max_energy_drift"] <= 1e-8 * abs(report["final_energy"])


def test_output_stride(tmp_path):
    ini = tmp_path / "stride.ini"
    ini.write_text(
        "[basis]\nksq_budget = 78.9568352087149\n"
        "[dynamics]\ndt = 1e-3\nduration = 0.05\n"
        "[output]\nstride = 10\n"
    )
    code, out = (main(["--config", str(ini), "--out", str(tmp_path / "o"),
                       "evolve"]), tmp_path / "o")
    assert code == 0
    with open(out / "trajectory.csv", newline="") as handle:
        rows = list(csv.reader(handle))
    # 51 states strided by 10 keeps 0, 10, 20, 30, 40, 50
    assert len(rows) == 7
    assert float(rows[-1][0]) == pytest.approx(0.05)
