"""fermicrystal benchmark: three closed-loop workloads, timed end to end or traced.

    python3 perfbench/run.py --workload sweep-1d --seed 0 --seconds 50 --trace 0

Workloads (one caller; each call waits for the previous one).  BENCHMARK.json
gates sweep-1d and analysis-2d; evolve-2d runs on request only, because its
step-time tail did not repeat within the 0.25 bound on a shared 2-core
machine whose speed drifts by tens of percent over minutes.
  sweep-1d     the CLI ``stability`` command in-process: d=1, N=2, n_g=16,
               budget 8 pi^2 (B=10), 32 seeded directions x delta {1e-3, 1e-2}
               plus zero and translation controls, dt=2e-3, T=0.1.  Bound by
               per-call overhead in the integrator.
  evolve-2d    ``stability.run_trajectory`` from a seeded perturbed ground
               state: d=2, N=2, n_g=12, budget 11 pi^2 (B=2002), delta 1e-2,
               dt=2e-3, 50 steps.  Bound by the sparse substitution passes.
  analysis-2d  ``hessian_assemble``, ``hessian_spectrum`` full and constrained,
               ``wiener_report`` at d=2 (n_g=12, budget 10 pi^2, B=1338,
               perturbed_box k=2), then ``wiener_report`` at d=3, n_g=8.
               Builds the table once and scatters it densely; LAPACK-bound.

Each run repeats the workload's unit of work (a sweep, a trajectory, an
analysis pass) until ``--seconds`` would be exceeded, checks every unit's
outputs, and prints as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The line before it is a JSON
report with the environment, ``failed_frac`` and sample counts.

``--trace 0`` reports the end-to-end metrics:
  setup_s      median over fresh processes of import, config, basis, ground
               state and substitution table (probe.py)
  solve_s      median wall time of one unit, set-up already paid
  steps_per_s  steps of one unit per second of its wall time (median)
  step_ms_p50, step_ms_p95
               percentiles of the interval between consecutive per-step
               observer callbacks within a unit, median over units (a slow
               spell on the shared machine then moves one unit, not the run)
  peak_rss_mb  peak resident memory of this process through set-up and
               its first unit
A step is one integrator step; on analysis-2d it is one analysis call.

``--trace 1`` alternates plain and traced units and reports per-layer
metrics of the traced ones, per unit (medians of times; counts must repeat
exactly across units), with the set-up layers taken from one traced
set-up.  ``self_s`` is span time minus child-span time, ``us_per_call`` is
span time per call.  ``trace.overhead`` is traced over plain unit time and
``trace.coverage`` the share of a traced unit inside named spans.  Spans are
written once, at the end, to ``.bench_out/trace-<workload>-seed<seed>.npz``.

OpenBLAS and OpenMP are pinned to one thread before numpy is imported.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
import uuid
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
# numpy reads the thread counts when it is first imported
os.environ.update(THREAD_PINS)

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("sweep-1d", "evolve-2d", "analysis-2d")
SETUP_PROBES = 5

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "steps_per_s": "1/s",
    "step_ms_p50": "ms",
    "step_ms_p95": "ms",
    "peak_rss_mb": "MB",
}

# Per-layer metric prefix -> span name, for layers reported by calls and self time.
CALL_LAYERS = {
    "dynamics.rhs": "dynamics._rhs_raw",
    "torus.lattice_points": "torus.lattice_points",
    "torus.green_apply": "torus.green_apply",
    "fermions.transition_density": "fermions.transition_density",
    "fermions.apply_one_body_potential": "fermions.apply_one_body_potential",
    "dynamics.energy": "dynamics.energy",
    "torus.coulomb_energy": "torus.coulomb_energy",
    "stability.distance_to_manifold": "stability.distance_to_manifold",
}
PER_CALL = ("dynamics.rhs", "fermions.transition_density",
            "fermions.apply_one_body_potential")
WRITER_SPANS = ("cli.ArtifactWriter.write_json", "cli.ArtifactWriter.write_csv",
                "cli.ArtifactWriter.finish")
SETUP_SPANS = {
    "fermions.enumerate_basis.s": "fermions.enumerate_basis",
    "fermions.substitutions.build_s": "fermions.SubstitutionTable",
    "stability.build_ground_state.s": "stability.build_ground_state",
    "config.load_config.s": "config.load_config",
}

PER_LAYER = {}
for _prefix in CALL_LAYERS:
    PER_LAYER[f"{_prefix}.calls"] = "count"
    PER_LAYER[f"{_prefix}.self_s"] = "s"
    if _prefix in PER_CALL:
        PER_LAYER[f"{_prefix}.us_per_call"] = "us"
PER_LAYER.update({
    "dynamics.fp_iterations.mean": "iter/step",
    "dynamics.fp_iterations.max": "iter",
    "dynamics.rhs_per_step": "calls/step",
    "dynamics.steps": "count",
    "dynamics.evolve.self_s": "s",
    **{name: "s" for name in SETUP_SPANS},
    "fermions.substitutions.entries": "count",
    "fermions.basis_size": "count",
    "stability.hessian_assemble.s": "s",
    "stability.hessian_spectrum.full_s": "s",
    "stability.hessian_spectrum.constrained_s": "s",
    "stability.hessian.matrix_size": "count",
    "density.wiener_report.s": "s",
    "density.wiener_report.points": "count",
    "cli.write_s": "s",
    "cli.bytes_written": "B",
    "trace.overhead": "ratio",
    "trace.coverage": "ratio",
})
# Units of measured durations and their ratios; every other metric is a
# count that must repeat exactly between units of the same run.
VARYING_UNITS = ("s", "us", "ratio")


@dataclass
class UnitRecord:
    traced: bool
    wall: float
    intervals: np.ndarray
    attempted: int
    failed: int
    layers: dict
    peak_rss_mb: float  # of this process so far


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        **{key: os.environ.get(key) for key in THREAD_PINS},
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(),
        "git_sha": _git_sha(),
    }


def probe_setup(workload: str, seed: int, workdir: str) -> float:
    """Seconds of one set-up in a fresh process."""
    done = subprocess.run(
        [sys.executable, str(BENCH / "probe.py"), workload, str(seed), workdir],
        capture_output=True, text=True, timeout=120, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
    return float(done.stdout.split()[-1])


def layer_values(unit: dict, wall: float, counts: dict) -> dict:
    """Per-layer metrics of one traced unit."""
    def calls(span):
        return unit["totals"].get(span, (0, 0.0, 0.0))[0]

    def inclusive(span):
        return unit["totals"].get(span, (0, 0.0, 0.0))[1]

    def self_time(span):
        return unit["totals"].get(span, (0, 0.0, 0.0))[2]

    values = {}
    for prefix, span in CALL_LAYERS.items():
        values[f"{prefix}.calls"] = calls(span)
        values[f"{prefix}.self_s"] = self_time(span)
        if prefix in PER_CALL:
            values[f"{prefix}.us_per_call"] = (
                1e6 * inclusive(span) / calls(span) if calls(span) else 0.0)
    iterations = unit["iterations"]
    steps = len(iterations)
    values.update({
        "dynamics.steps": steps,
        "dynamics.fp_iterations.mean": sum(iterations) / steps if steps else 0.0,
        "dynamics.fp_iterations.max": max(iterations, default=0),
        "dynamics.rhs_per_step":
            calls("dynamics._rhs_raw") / steps if steps else 0.0,
        "dynamics.evolve.self_s": self_time("dynamics.evolve"),
        "stability.hessian_assemble.s": inclusive("stability.hessian_assemble"),
        "stability.hessian_spectrum.full_s":
            inclusive("stability.hessian_spectrum[full]"),
        "stability.hessian_spectrum.constrained_s":
            inclusive("stability.hessian_spectrum[constrained]"),
        "stability.hessian.matrix_size":
            unit["counts"]["stability.hessian.matrix_size"],
        "density.wiener_report.s": inclusive("density.wiener_report"),
        "density.wiener_report.points": unit["counts"]["density.wiener_report.points"],
        "cli.write_s": sum(inclusive(span) for span in WRITER_SPANS),
        "cli.bytes_written": counts.get("cli.bytes_written", 0),
        "trace.coverage": unit["root_s"] / wall,
    })
    return values


def run_units(workloads, prep, seconds, trace, tracer, clock, probe):
    """Repeat the unit until the next one would overrun ``seconds``.

    With tracing, units alternate plain and traced, at least one of each.
    Set-up probes (if ``probe`` is given) run between units, so that their
    samples spread over the run like the units' do.  Returns the unit
    records and the set-up times.
    """
    unit, check = workloads.UNITS[prep.name]
    records = []
    setup_times = []
    start = perf_counter()
    for index in itertools.count():
        traced = trace and index % 2 == 1
        if traced:
            tracer.begin_unit()
        with tracer.installed() if traced else clock.installed():
            began = perf_counter()
            try:
                result = unit(prep, clock, index)
            except Exception:  # a raising operation is a failed one
                traceback.print_exc()
                result = None
            wall = perf_counter() - began
        intervals = clock.take()
        outcome = (check(prep, result) if result is not None
                   else workloads.Outcome(1, 1))
        layers = layer_values(tracer.unit, wall, outcome.counts) if traced else {}
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        records.append(UnitRecord(traced, wall, intervals, outcome.attempted,
                                  outcome.failed, layers, peak))
        if probe is not None and len(setup_times) < SETUP_PROBES:
            setup_times.append(probe())
        enough = len(records) >= (2 if trace else 1)
        recent = max(r.wall for r in records[-2:])
        if enough and perf_counter() - start + recent > seconds:
            break
    while probe is not None and len(setup_times) < SETUP_PROBES:
        setup_times.append(probe())
    return records, setup_times


def repeats(rows: list) -> bool:
    return all(row == rows[0] for row in rows)


def end_to_end(records, setup_times) -> dict:
    def step_ms(q):  # a unit that raised before its first step counts as 0
        return 1e3 * statistics.median(
            float(np.percentile(r.intervals, q)) if r.intervals.size else 0.0
            for r in records)

    return {
        "setup_s": statistics.median(setup_times),
        "solve_s": statistics.median(r.wall for r in records),
        "steps_per_s": statistics.median(r.intervals.size / r.wall for r in records),
        "step_ms_p50": step_ms(50),
        "step_ms_p95": step_ms(95),
        # Through set-up and the first unit: later units reuse memory the
        # allocator kept, so the peak would depend on how many units ran.
        "peak_rss_mb": records[0].peak_rss_mb,
    }


def per_layer(records, setup_unit, prep) -> tuple[dict, bool]:
    traced = [r.layers for r in records if r.traced]
    values = {}
    counts_repeat = True
    for name in traced[0]:
        samples = [layers[name] for layers in traced]
        if PER_LAYER[name] in VARYING_UNITS:
            values[name] = statistics.median(samples)
        else:
            counts_repeat &= repeats(samples)
            values[name] = samples[0]
    for name, span in SETUP_SPANS.items():
        values[name] = setup_unit["totals"].get(span, (0, 0.0, 0.0))[1]
    values["fermions.substitutions.entries"] = int(prep.gs.basis.substitutions().src.size)
    values["fermions.basis_size"] = prep.gs.basis.size
    values["trace.overhead"] = (
        statistics.median(r.wall for r in records if r.traced)
        / statistics.median(r.wall for r in records if not r.traced))
    return values, counts_repeat


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    source = ROOT / "src"
    if not (source / "fermicrystal" / "__init__.py").is_file():
        print(f"error: no fermicrystal sources under {source}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(source))
    import fermicrystal
    import workloads
    from tracing import StepClock, Tracer

    if Path(fermicrystal.__file__).resolve().parent != source / "fermicrystal":
        print(f"error: imported fermicrystal from {fermicrystal.__file__}",
              file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        probe = None
        if not args.trace:
            probe_dir = os.path.join(workdir, "probe")
            os.mkdir(probe_dir)
            probe = functools.partial(probe_setup, args.workload, args.seed,
                                      probe_dir)
        tracer = Tracer(uuid.uuid4().hex)
        clock = StepClock()
        with tracer.installed() if args.trace else clock.installed():
            prep = workloads.setup(args.workload, workdir, args.seed)
        setup_unit = tracer.unit
        records, setup_times = run_units(workloads, prep, args.seconds,
                                         args.trace, tracer, clock, probe)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r.attempted for r in records)
    failed = sum(r.failed for r in records)
    plain = [r for r in records if not r.traced]
    counts_repeat = repeats([r.intervals.size for r in plain])
    if args.trace:
        values, layers_counts_repeat = per_layer(records, setup_unit, prep)
        counts_repeat &= layers_counts_repeat
        units = PER_LAYER
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.npz"
        tracer.save(trace_path)
    else:
        values = end_to_end(plain, setup_times)
        units = END_TO_END
        trace_path = None
    if not counts_repeat:
        print("error: counts differ between units with the same inputs",
              file=sys.stderr)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "environment": environment(),
        "failed_frac": {"value": failed / attempted, "unit": "1"},
        "units": {"plain": len(plain), "traced": len(records) - len(plain)},
        "step_samples": int(sum(r.intervals.size for r in plain)),
        "setup_samples": len(setup_times),
        "trace_file": str(trace_path.relative_to(ROOT)) if trace_path else None,
    }
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0 and counts_repeat,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
