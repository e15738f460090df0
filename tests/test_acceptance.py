"""Acceptance suite: eight numbered end-to-end claims about the model.

Each test prints exactly one ``criterion N: PASS/FAIL`` verdict line with
the measured quantities, bypassing pytest's capture so the verdicts show
up in any log.  Tolerances are pinned here and nowhere else; a criterion
that cannot be met by the implemented discretization fails red with its
measured value rather than being weakened (see README).
"""

import time

import numpy as np
import pytest

from fermicrystal import (
    CIVector,
    TorusSpec,
    assemble_rho,
    box_density,
    build_ground_state,
    dft_forward,
    dft_inverse,
    distance_to_manifold,
    energy,
    enumerate_basis,
    evolve,
    forces,
    ground_occupations,
    hessian_assemble,
    hessian_spectrum,
    jellium_check,
    one_body_density,
    pack_tangent,
    perturbed_box_density,
    perturbed_state,
    quadratic_form,
    sample_tangent_perturbation,
    stability_experiment,
    wiener_report,
)
from fermicrystal.dynamics import CrystalState, IonState
from fermicrystal.stability import _displaced_state


def verdict(capsys, number, ok, detail):
    # leading newline: pytest progress dots leave the cursor mid-line
    with capsys.disabled():
        print(f"\ncriterion {number}: {'PASS' if ok else 'FAIL'} - {detail}",
              flush=True)
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_jellium_property(capsys):
    # closed-form box profiles vanish on the reciprocal crystal lattice up
    # to 1e-10 eZ within |xi| <= 16 pi, and the grid transform of the
    # band-limited profile reproduces the closed form to 1e-8 eZ, in
    # under a second
    start = time.perf_counter()
    worst_lattice = 0.0
    worst_dft = 0.0
    for dimension, n_g in ((1, 16), (2, 8)):
        spec = TorusSpec(dimension, 2, n_g)
        for k in (1, 2, 3):
            model = box_density(spec, k)
            check = jellium_check(model, tol=1e-10, radius=16.0 * np.pi)
            worst_lattice = max(worst_lattice, check.worst_value)
            samples = dft_inverse(model.field).real
            back = dft_forward(samples, spec)
            worst_dft = max(
                worst_dft, float(np.abs(back.values - model.field.values).max())
            )
    elapsed = time.perf_counter() - start
    ok = worst_lattice <= 1e-10 and worst_dft <= 1e-8 and elapsed <= 1.0
    verdict(
        capsys, 1, ok,
        f"lattice residual {worst_lattice:.2e} (<=1e-10 eZ), "
        f"grid transform error {worst_dft:.2e} (<=1e-8 eZ), "
        f"{elapsed:.2f}s (<=1s)",
    )


def test_criterion_2_flat_dispersion_dichotomy(capsys):
    # d = 3, one ion per cell: the plain box profile has a flat ion space
    # (singular matrix at the axis points), the perturbed profile is
    # uniformly positive above 1e-4, inside ten seconds
    start = time.perf_counter()
    spec = TorusSpec(3, 2, 8)
    flat = wiener_report(box_density(spec, 1))
    axis_max = max(
        flat.point(h).eigenvalues[0]
        for h in ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    )
    solid = wiener_report(perturbed_box_density(spec, k=2, amplitude=0.5,
                                                decay=2.0))
    solid_min = min(p.eigenvalues[0] for p in solid.points)
    elapsed = time.perf_counter() - start
    ok = (
        flat.wiener_holds is False
        and axis_max <= 1e-10
        and solid.wiener_holds is True
        and solid_min > 1e-4
        and elapsed <= 10.0
    )
    verdict(
        capsys, 2, ok,
        f"box: holds={flat.wiener_holds}, axis min eig {axis_max:.2e} "
        f"(<=1e-10); perturbed: holds={solid.wiener_holds}, "
        f"min eig {solid_min:.2e} (>1e-4); {elapsed:.2f}s (<=10s)",
    )


def test_criterion_3_ground_state_identities(capsys):
    # three geometries: ground energy omega0 Z to 1e-12, total charge
    # density identically zero to 1e-10, electron density uniform -eZ to
    # 1e-10; an equal mixture of minimal sets sharing all but one orbital
    # deviates from uniform by more than 1e-2 eZ
    geometries = [
        (TorusSpec(1, 2, 16), 8.0 * np.pi**2),
        (TorusSpec(1, 3, 12), None),
        (TorusSpec(2, 2, 8), 3.0 * np.pi**2 + 1e-9),
    ]
    worst_energy = worst_rho = worst_uniform = 0.0
    least_deviation = np.inf
    for spec, budget in geometries:
        sets, omega0 = ground_occupations(spec)
        if budget is None:
            budget = 2.0 * omega0 + 1e-9
        basis = enumerate_basis(spec, budget)
        sigma = box_density(spec, 1)
        gs = build_ground_state(basis, sigma)
        e_total = energy(gs.state(), sigma)
        worst_energy = max(
            worst_energy, abs(e_total - omega0 * gs.Z) / (omega0 * gs.Z)
        )
        rho = assemble_rho(gs.state(), sigma)
        worst_rho = max(worst_rho, float(np.abs(rho.values).max()))
        electron = dft_inverse(one_body_density(gs.psi0, sigma.e))
        worst_uniform = max(
            worst_uniform, float(np.abs(electron + sigma.e * sigma.Z).max())
        )
        pairs = [
            (a, b)
            for i, a in enumerate(sets)
            for b in sets[i + 1:]
            if sum(h not in b for h in a) == 1
        ]
        for a, b in pairs[:1]:
            psi = CIVector.from_occupations(basis, {a: 1.0, b: 1.0})
            psi.values *= np.sqrt(gs.Z / psi.charge())
            grid = dft_inverse(one_body_density(psi, sigma.e)).real
            least_deviation = min(
                least_deviation, float(np.abs(grid - grid.mean()).max())
            )
    ok = (
        worst_energy <= 1e-12
        and worst_rho <= 1e-10
        and worst_uniform <= 1e-10
        and least_deviation > 1e-2
    )
    verdict(
        capsys, 3, ok,
        f"energy residual {worst_energy:.2e} (<=1e-12 rel), "
        f"|rho| {worst_rho:.2e} (<=1e-10), electron uniformity "
        f"{worst_uniform:.2e} (<=1e-10), mixture deviation "
        f"{least_deviation:.2e} (>1e-2 eZ)",
    )


def test_criterion_4_conservation_and_integrator_agreement(capsys):
    # d = 1, N = 2, basis cutoff 20 pi^2, dt = 1e-3: the midpoint scheme
    # holds energy to 1e-8 (relative) and charge to 1e-10 over T = 10,
    # and matches rk4 at T = 1 to 1e-6 in state norm, within five minutes.
    # The drift bounds hold with orders of magnitude to spare; the rk4
    # agreement does not: the midpoint phase error (omega dt)^3/12 per
    # step accumulates to ~4e-5 at these parameters, so that clause
    # fails red (see README).
    start = time.perf_counter()
    spec = TorusSpec(1, 2, 16)
    basis = enumerate_basis(spec, 20.0 * np.pi**2)
    sigma = box_density(spec, 1)
    gs = build_ground_state(basis, sigma)
    direction = sample_tangent_perturbation(gs, np.random.default_rng(42))
    initial = perturbed_state(gs, direction, 0.01)

    _, log = evolve(initial, sigma, dt=1e-3, duration=10.0,
                    method="implicit_midpoint")
    energy_rel = log.max_energy_drift() / abs(log.energy[0])
    charge_drift = log.max_charge_drift()

    mid, _ = evolve(initial, sigma, dt=1e-3, duration=1.0,
                    method="implicit_midpoint")
    rk4, _ = evolve(initial, sigma, dt=1e-3, duration=1.0, method="rk4")
    gap = float(
        np.linalg.norm(mid.psi.values - rk4.psi.values)
        + np.linalg.norm(mid.ions.q - rk4.ions.q)
        + np.linalg.norm(mid.ions.p - rk4.ions.p)
    )
    elapsed = time.perf_counter() - start
    ok = (
        energy_rel <= 1e-8
        and charge_drift <= 1e-10
        and gap <= 1e-6
        and elapsed <= 300.0
    )
    verdict(
        capsys, 4, ok,
        f"midpoint T=10: rel energy drift {energy_rel:.2e} (<=1e-8), "
        f"charge drift {charge_drift:.2e} (<=1e-10); rk4 gap at T=1 "
        f"{gap:.2e} (<=1e-6); {elapsed:.0f}s (<=300s)",
    )


def test_criterion_5_derivative_checks(capsys):
    # forces match centered differences of the energy to 1e-6 relative at
    # a generic state; the assembled second variation matches polarized
    # second differences to 1e-5 on 20 directions at a shifted, rotated
    # ground state
    spec = TorusSpec(1, 2, 16)
    basis = enumerate_basis(spec, 8.0 * np.pi**2)
    sigma = box_density(spec, 1)
    rng = np.random.default_rng(123)
    values = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
    values /= np.linalg.norm(values)
    state = CrystalState(
        CIVector(basis, values),
        IonState(0.3 * rng.standard_normal((2, 1)),
                 0.3 * rng.standard_normal((2, 1)), 1.0),
    )
    f = forces(state, sigma)
    h = 1e-5
    worst_force = 0.0
    for site in range(2):
        def at(eps, site=site):
            q = state.ions.q.copy()
            q[site, 0] += eps
            return energy(
                CrystalState(state.psi, IonState(q, state.ions.p, 1.0)), sigma
            )

        fd = -(at(h) - at(-h)) / (2.0 * h)
        worst_force = max(
            worst_force, abs(f[site, 0] - fd) / max(abs(fd), 1.0)
        )

    gs = build_ground_state(basis, sigma, r=[0.37], alpha=1.1)
    form = hessian_assemble(gs)
    h = 1e-4
    e0 = energy(gs.state(), sigma)

    def second_difference(y):
        plus = energy(_displaced_state(gs, y, h), sigma)
        minus = energy(_displaced_state(gs, y, -h), sigma)
        return (plus + minus - 2.0 * e0) / h**2

    def draw():
        phi = CIVector(
            basis, rng.standard_normal(basis.size)
            + 1j * rng.standard_normal(basis.size)
        )
        from fermicrystal.stability import TangentVector

        return TangentVector(phi, rng.standard_normal((2, 1)),
                             rng.standard_normal((2, 1)))

    def combine(y, w, sign):
        from fermicrystal.stability import TangentVector

        return TangentVector(
            CIVector(basis, y.phi.values + sign * w.phi.values),
            y.kappa + sign * w.kappa,
            y.pi + sign * w.pi,
        )

    worst_hessian = 0.0
    for _ in range(10):  # 10 diagonal directions
        y = draw()
        exact = 2.0 * quadratic_form(gs, y)
        fd = second_difference(y)
        worst_hessian = max(
            worst_hessian, abs(fd - exact) / max(abs(exact), 1.0)
        )
    for _ in range(10):  # 10 polarized direction pairs
        y, w = draw(), draw()
        exact = float(pack_tangent(y) @ form.matrix @ pack_tangent(w))
        fd = (second_difference(combine(y, w, 1.0))
              - second_difference(combine(y, w, -1.0))) / 4.0
        worst_hessian = max(
            worst_hessian, abs(fd - exact) / max(abs(exact), 1.0)
        )
    ok = worst_force <= 1e-6 and worst_hessian <= 1e-5
    verdict(
        capsys, 5, ok,
        f"force FD residual {worst_force:.2e} (<=1e-6), second variation "
        f"FD residual {worst_hessian:.2e} (<=1e-5, 20 directions)",
    )


def test_criterion_6_kernel_catalog(capsys):
    # positive dispersion: the full kernel is exactly the d translations
    # and the constrained spectrum is positive; flat dispersion: the full
    # kernel gains the flat ion space; both stable under a 10x kernel
    # tolerance change
    spec1 = TorusSpec(1, 2, 16)
    basis1 = enumerate_basis(spec1, 8.0 * np.pi**2)
    spec2 = TorusSpec(2, 2, 8)
    basis2 = enumerate_basis(spec2, 3.0 * np.pi**2 + 1e-9)

    cases = []  # (label, form, expected_full, expected_constrained, dim_v)
    sigma = box_density(spec1, 1)
    report = wiener_report(sigma)
    gs = build_ground_state(basis1, sigma)
    cases.append(("d=1 box", hessian_assemble(gs), 1 + report.degeneracy_dim,
                  0, report.degeneracy_dim))

    sigma = box_density(spec2, 1)
    report = wiener_report(sigma)
    gs = build_ground_state(basis2, sigma)
    cases.append(("d=2 box", hessian_assemble(gs), 2 + report.degeneracy_dim,
                  report.degeneracy_dim, report.degeneracy_dim))

    sigma = perturbed_box_density(spec2, k=2, amplitude=0.5, decay=2.0)
    report = wiener_report(sigma)
    gs = build_ground_state(basis2, sigma)
    cases.append(("d=2 perturbed", hessian_assemble(gs),
                  2 + report.degeneracy_dim, report.degeneracy_dim,
                  report.degeneracy_dim))

    ok = True
    parts = []
    for label, form, expect_full, expect_constrained, dim_v in cases:
        dims = []
        for rtol in (1e-10, 1e-9, 1e-8):
            full = hessian_spectrum(form, "full", kernel_rtol=rtol)
            constrained = hessian_spectrum(form, "constrained",
                                           kernel_rtol=rtol)
            dims.append((full.kernel_dim, constrained.kernel_dim))
        stable = len(set(dims)) == 1
        full_dim, constrained_dim = dims[1]
        constrained_min = hessian_spectrum(form, "constrained").lambda_min
        positive = constrained_dim > 0 or constrained_min > 0.0
        ok = ok and stable and full_dim == expect_full \
            and constrained_dim == expect_constrained and positive
        parts.append(
            f"{label}: kernel {full_dim}/{constrained_dim} "
            f"(expect {expect_full}/{expect_constrained}, flat dim {dim_v}, "
            f"10x stable {stable})"
        )
    verdict(capsys, 6, ok, "; ".join(parts))


def test_criterion_7_orbital_stability_sweep(capsys):
    # d = 1, N = 2: eight seeded tangent perturbations at delta = 1e-3 and
    # 1e-2, T = 10; every trajectory keeps its distance to the ground
    # manifold below 10 delta, the sup is nondecreasing in delta, and the
    # zero and translation controls stay below 1e-9, inside 30 minutes
    start = time.perf_counter()
    spec = TorusSpec(1, 2, 16)
    basis = enumerate_basis(spec, 8.0 * np.pi**2)
    sigma = box_density(spec, 1)
    gs = build_ground_state(basis, sigma)
    deltas = (1e-3, 1e-2)
    result = stability_experiment(
        gs, deltas, n_perturbations=8, duration=10.0, dt=2e-3, seed=0,
    )
    sup = result.sup_distance_per_delta()
    control_sup = max(
        record.sup_distance
        for record in result.records
        if not record.label.startswith("perturbation")
    )
    elapsed = time.perf_counter() - start
    bounded = all(sup[delta] <= 10.0 * delta for delta in deltas)
    monotone = sup[deltas[0]] <= sup[deltas[1]]
    ok = bounded and monotone and control_sup <= 1e-9 and elapsed <= 1800.0
    verdict(
        capsys, 7, ok,
        f"sup distance {sup[deltas[0]]:.2e} @ delta 1e-3, "
        f"{sup[deltas[1]]:.2e} @ delta 1e-2 (<=10 delta, nondecreasing "
        f"{monotone}), controls {control_sup:.2e} (<=1e-9), "
        f"{elapsed:.0f}s (<=1800s)",
    )


def test_criterion_8_energy_lower_bound(capsys):
    # 100 states within distance 0.1 of the ground manifold: every energy
    # is at least omega0 Z, and equality to 1e-8 occurs only next to the
    # manifold itself
    spec = TorusSpec(1, 2, 16)
    basis = enumerate_basis(spec, 8.0 * np.pi**2)
    sigma = box_density(spec, 1)
    gs = build_ground_state(basis, sigma)
    floor = gs.omega0 * gs.Z
    rng = np.random.default_rng(2026)

    samples = []
    for _ in range(99):
        direction = sample_tangent_perturbation(gs, rng)
        delta = float(np.exp(rng.uniform(np.log(1e-3), np.log(0.09))))
        samples.append(perturbed_state(gs, direction, delta))
    on_manifold = build_ground_state(basis, sigma, r=[1.3], alpha=0.77)
    samples.append(on_manifold.state())

    min_excess = np.inf
    max_distance = 0.0
    equality_far = 0
    for state in samples:
        distance = distance_to_manifold(state, gs).distance
        excess = energy(state, sigma) - floor
        min_excess = min(min_excess, excess)
        max_distance = max(max_distance, distance)
        if excess <= 1e-8 * max(1.0, floor) and distance > 1e-3:
            equality_far += 1
    ok = (
        max_distance <= 0.1
        and min_excess >= -1e-12 * max(1.0, floor)
        and equality_far == 0
    )
    verdict(
        capsys, 8, ok,
        f"100 samples, max distance {max_distance:.3f} (<=0.1), minimum "
        f"energy excess {min_excess:.2e} (>=0), near-equality away from "
        f"the manifold: {equality_far} states (expect 0)",
    )
