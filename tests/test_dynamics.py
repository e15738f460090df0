import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermicrystal import dynamics
from fermicrystal import (
    CIVector,
    CrystalState,
    FourierScalarField,
    IntegratorError,
    IonState,
    TorusSpec,
    apply_one_body_potential,
    assemble_rho,
    box_density,
    build_ground_state,
    ci_inner,
    coulomb_energy,
    dft_inverse,
    energy,
    enumerate_basis,
    evolve,
    forces,
    frequency_table,
    ground_occupations,
    lattice_points,
    one_body_density,
    perturbed_state,
    rhs,
    sample_tangent_perturbation,
)


def ground_state(basis, mass=1.0):
    sets, _ = ground_occupations(basis.spec)
    psi = CIVector.from_occupations(basis, {sets[0]: 1.0})
    return CrystalState(psi, IonState.resting(basis.spec, mass))


def random_state(basis, seed, mass=1.0, scale=0.3):
    rng = np.random.default_rng(seed)
    b = basis.size
    values = rng.standard_normal(b) + 1j * rng.standard_normal(b)
    values /= np.linalg.norm(values)
    shape = (basis.spec.n_ions, basis.spec.dimension)
    ions = IonState(scale * rng.standard_normal(shape),
                    scale * rng.standard_normal(shape), mass)
    return CrystalState(CIVector(basis, values), ions)


def test_rho_vanishes_at_rest(basis1d, sigma1d):
    state = ground_state(basis1d)
    rho = assemble_rho(state, sigma1d)
    assert np.abs(rho.values).max() <= 1e-14


def test_rho_displaced_ion_grid_oracle(spec1d, basis1d, sigma1d):
    # displace one ion by a whole grid cell: the ion part of rho must be
    # the rolled version of the resting profile with the other ion fixed
    n_g = spec1d.grid_per_axis
    per_cell = n_g // spec1d.cells_per_axis
    shift_cells = 3.0 / per_cell  # 3 grid points in lattice units
    sets, _ = ground_occupations(spec1d)
    psi = CIVector.from_occupations(basis1d, {sets[0]: 1.0})
    q = np.zeros((2, 1))
    q[1, 0] = shift_cells
    state = CrystalState(psi, IonState(q, np.zeros((2, 1)), 1.0))
    rho = assemble_rho(state, sigma1d)
    grid = dft_inverse(rho).real

    # oracle: synthesize one ion profile at the origin, then roll it to the
    # two ion positions (integer grid offsets keep the roll exact)
    single = dft_inverse(sigma1d.field).real
    ion_part = np.roll(single, 0) + np.roll(single, per_cell + 3)
    uniform = -np.full(n_g, 2.0 / spec1d.volume)  # -e nbar / |T| from electrons
    np.testing.assert_allclose(grid, ion_part + uniform, atol=1e-10)


def test_energy_ground(basis1d, sigma1d, gs1d):
    # E(ground) = omega0 Z with the normalization Q = Z (here Z = 1)
    state = ground_state(basis1d)
    assert energy(state, sigma1d) == pytest.approx(
        gs1d.omega0 * gs1d.Z, rel=1e-12
    )


def test_energy_kinetic_momentum_split(basis1d, sigma1d, gs1d):
    mass = 1.7
    state = ground_state(basis1d, mass=mass)
    state.ions.p[:] = np.array([[0.3], [-0.4]])
    extra = (0.09 + 0.16) / (2.0 * mass)
    assert energy(state, sigma1d) == pytest.approx(
        gs1d.omega0 * gs1d.Z + extra, rel=1e-12
    )


def test_energy_includes_coulomb(basis1d, sigma1d):
    state = random_state(basis1d, seed=3)
    rho = assemble_rho(state, sigma1d)
    kinetic = (basis1d.kinetic * np.abs(state.psi.values) ** 2).sum()
    momentum = (state.ions.p**2).sum() / (2.0 * state.ions.mass)
    total = kinetic + momentum + coulomb_energy(rho)
    assert energy(state, sigma1d) == pytest.approx(total, rel=1e-12)


def test_forces_match_finite_differences(basis1d, sigma1d):
    state = random_state(basis1d, seed=4)
    f = forces(state, sigma1d)
    h = 1e-5
    for site in range(2):
        for axis in range(1):
            def shifted(eps):
                q = state.ions.q.copy()
                q[site, axis] += eps
                moved = CrystalState(
                    state.psi, IonState(q, state.ions.p, state.ions.mass)
                )
                return energy(moved, sigma1d)

            fd = -(shifted(h) - shifted(-h)) / (2.0 * h)
            assert f[site, axis] == pytest.approx(fd, rel=1e-6, abs=1e-10)


def test_rhs_at_ground(basis1d, sigma1d, gs1d):
    state = ground_state(basis1d)
    deriv = rhs(state, sigma1d)
    # psi_dot = -i H psi = -i omega0 psi at the stationary density
    np.testing.assert_allclose(
        deriv.psi_dot.values, -1j * gs1d.omega0 * state.psi.values, atol=1e-12
    )
    np.testing.assert_allclose(deriv.q_dot, 0.0, atol=1e-14)
    np.testing.assert_allclose(deriv.p_dot, 0.0, atol=1e-12)


def test_rhs_energy_consistency(basis1d, sigma1d):
    # d/dt E = 2 Re <H psi, psi_dot> + sum q_dot (-F) + p_dot p / M = 0
    # checked as: FD of energy along the flow direction vanishes
    state = random_state(basis1d, seed=5)
    deriv = rhs(state, sigma1d)
    h = 1e-6

    def displaced(eps):
        psi = CIVector(basis1d, state.psi.values + eps * deriv.psi_dot.values)
        ions = IonState(
            state.ions.q + eps * deriv.q_dot,
            state.ions.p + eps * deriv.p_dot,
            state.ions.mass,
        )
        return energy(CrystalState(psi, ions), sigma1d)

    rate = (displaced(h) - displaced(-h)) / (2.0 * h)
    assert abs(rate) <= 1e-7 * abs(energy(state, sigma1d))


def test_charge_rate_is_zero(basis1d, sigma1d):
    state = random_state(basis1d, seed=6)
    deriv = rhs(state, sigma1d)
    rate = 2.0 * ci_inner(deriv.psi_dot, state.psi).real
    assert abs(rate) <= 1e-12


@pytest.mark.parametrize("method", ["implicit_midpoint", "rk4", "splitting"])
def test_ground_state_is_stationary(basis1d, sigma1d, gs1d, method):
    state = ground_state(basis1d)
    final, log = evolve(state, sigma1d, dt=1e-3, duration=0.1, method=method)
    # up to the global phase exp(-i omega0 t) the state is unchanged;
    # midpoint carries the (omega dt)^3 / 12 phase error per step
    phase = np.exp(-1j * gs1d.omega0 * 0.1)
    tol = {"implicit_midpoint": 3e-6, "rk4": 1e-11, "splitting": 1e-13}[method]
    np.testing.assert_allclose(final.psi.values, phase * state.psi.values,
                               atol=tol)
    np.testing.assert_allclose(final.ions.q, 0.0, atol=tol)
    np.testing.assert_allclose(final.ions.p, 0.0, atol=tol)
    assert log.max_energy_drift() <= 1e-12
    assert log.max_charge_drift() <= 1e-13


@pytest.mark.parametrize("method", ["implicit_midpoint", "rk4", "splitting"])
def test_conservation_generic_state(basis1d, sigma1d, method):
    state = random_state(basis1d, seed=7)
    e0, q0 = energy(state, sigma1d), state.charge()
    final, log = evolve(state, sigma1d, dt=1e-3, duration=0.5, method=method)
    # midpoint and splitting preserve the quadratic charge to round-off;
    # rk4 has an O(dt^5) secular charge drift
    charge_tol = 1e-7 if method == "rk4" else 1e-12
    assert log.max_charge_drift() <= charge_tol
    if method == "implicit_midpoint":
        assert log.max_energy_drift() <= 2e-7 * abs(e0)
    # sanity: log starts at the initial values
    assert log.energy[0] == pytest.approx(e0)
    assert log.charge[0] == pytest.approx(q0)


def test_midpoint_second_order(basis1d, sigma1d):
    # halving dt shrinks the error of a T = 0.2 solve by about 4
    state = random_state(basis1d, seed=8)
    reference, _ = evolve(state, sigma1d, dt=1.25e-4, duration=0.2, method="rk4")

    def err(dt):
        final, _ = evolve(state, sigma1d, dt=dt, duration=0.2,
                          method="implicit_midpoint", fp_tol=1e-15)
        return np.linalg.norm(final.psi.values - reference.psi.values)

    e1, e2 = err(4e-3), err(2e-3)
    assert e1 / e2 == pytest.approx(4.0, rel=0.15)


def test_midpoint_time_reversible(basis1d, sigma1d):
    state = random_state(basis1d, seed=9)
    forward, _ = evolve(state, sigma1d, dt=1e-3, duration=0.1,
                        method="implicit_midpoint", fp_tol=1e-15)
    back, _ = evolve(forward, sigma1d, dt=-1e-3, duration=-0.1,
                     method="implicit_midpoint", fp_tol=1e-15)
    np.testing.assert_allclose(back.psi.values, state.psi.values, atol=1e-11)
    n = state.spec.cells_per_axis
    wrap = np.mod(back.ions.q - state.ions.q + n / 2.0, n) - n / 2.0
    np.testing.assert_allclose(wrap, 0.0, atol=1e-11)
    np.testing.assert_allclose(back.ions.p, state.ions.p, atol=1e-11)


def test_gauge_covariance(basis1d, sigma1d):
    # e^{i a} psi evolves to e^{i a} times the evolution of psi
    state = random_state(basis1d, seed=10)
    rotated = CrystalState(
        CIVector(basis1d, np.exp(1.3j) * state.psi.values),
        IonState(state.ions.q.copy(), state.ions.p.copy(), state.ions.mass),
    )
    plain, _ = evolve(state, sigma1d, dt=1e-3, duration=0.05)
    spun, _ = evolve(rotated, sigma1d, dt=1e-3, duration=0.05)
    np.testing.assert_allclose(spun.psi.values, np.exp(1.3j) * plain.psi.values,
                               atol=1e-12)
    np.testing.assert_allclose(spun.ions.q, plain.ions.q, atol=1e-13)


def test_fixed_point_divergence_raises(basis1d, sigma1d):
    state = random_state(basis1d, seed=11)
    with np.errstate(all="ignore"), pytest.raises(IntegratorError):
        evolve(state, sigma1d, dt=1.0, duration=5.0, method="implicit_midpoint",
               max_iterations=8)


def test_observer_and_log_shape(basis1d, sigma1d):
    state = ground_state(basis1d)
    seen = []
    final, log = evolve(state, sigma1d, dt=1e-2, duration=0.1,
                        observer=lambda t, s: seen.append(t))
    assert len(seen) == 11  # initial state plus one call per step
    assert seen[0] == 0.0
    assert seen[-1] == pytest.approx(0.1)
    assert log.t.shape == (11,)
    assert log.energy.shape == (11,)
    assert log.t[0] == 0.0 and log.t[-1] == pytest.approx(0.1)


@pytest.mark.parametrize("method", ["implicit_midpoint", "rk4", "splitting"])
def test_evolve_builds_lattice_once(basis1d, sigma1d, monkeypatch, method):
    # the flow's fixed arrays are built once per call, not once per step
    state = random_state(basis1d, seed=12)
    calls = []
    original = dynamics.lattice_points

    def counting(spec):
        calls.append(spec)
        return original(spec)

    monkeypatch.setattr(dynamics, "lattice_points", counting)
    evolve(state, sigma1d, dt=1e-3, duration=0.02, method=method)
    assert len(calls) <= 1


def test_midpoint_pinned_numbers():
    # criterion 4's initial state over 200 steps: the iteration counts and
    # the final energy and charge of the implementation as first pinned, so
    # a rewrite of the step cannot change the fixed-point solve unnoticed
    spec = TorusSpec(1, 2, 16)
    basis = enumerate_basis(spec, 20.0 * np.pi**2)
    sigma = box_density(spec, 1)
    gs = build_ground_state(basis, sigma)
    direction = sample_tangent_perturbation(gs, np.random.default_rng(42))
    initial = perturbed_state(gs, direction, 0.01)
    _, log = evolve(initial, sigma, dt=1e-3, duration=0.2,
                    method="implicit_midpoint")
    assert log.iterations.tolist() == [0] + [2] * 200
    assert log.energy[-1] == pytest.approx(4.934846492800253, rel=1e-12)
    assert log.charge[-1] == pytest.approx(1.0000000000000004, rel=1e-12)


@pytest.mark.parametrize("dt", [1e-3, -1e-3, 4e-3])
def test_midpoint_step_solves_full_stage(basis1d, sigma1d, dt):
    # the kinetic-exact stage solve changes the iteration, not the scheme:
    # one step satisfies X1 = X0 + dt F((X0 + X1) / 2) for the full flow
    state = random_state(basis1d, seed=13)
    c0, q0, p0 = state.psi.values, state.ions.q, state.ions.p
    final, _ = evolve(state, sigma1d, dt=dt, duration=dt)
    n = basis1d.spec.cells_per_axis
    c1, p1 = final.psi.values, final.ions.p
    q1 = q0 + ((final.ions.q - q0 + n / 2.0) % n - n / 2.0)
    plan = dynamics._FlowPlan(basis1d, sigma1d)
    cd, qd, pd = dynamics._full_rhs(plan, (c0 + c1) / 2, (q0 + q1) / 2,
                                    (p0 + p1) / 2, state.ions.mass)
    assert np.abs(c1 - c0 - dt * cd).max() <= 1e-12
    assert np.abs(q1 - q0 - dt * qd).max() <= 1e-12
    assert np.abs(p1 - p0 - dt * pd).max() <= 1e-12


def transition_oracle(sub, c, d):
    # one row, entry by entry: the pass before the gather was shared
    out = np.zeros(sub.n_freq, dtype=complex)
    np.add.at(out, sub.delta, c[sub.src] * np.conj(d[sub.dst]) * sub.sign)
    out[sub.zero] += sub.n_electrons * np.vdot(d, c)
    return out


def potential_oracle(sub, c, phi, volume):
    # the reference divides Phi_hat by |T| entry by entry; the pass takes
    # Phi_hat / |T|, and on a volume that is a power of two the bits agree
    out = np.zeros(c.size, dtype=complex)
    np.add.at(out, sub.dst, c[sub.src] * sub.sign * phi[sub.neg_delta] / volume)
    return out + sub.n_electrons * phi[sub.zero] / volume * c


@pytest.mark.parametrize("dim", [1, 2])
def test_shared_gather_keeps_bits(basis1d, basis2d, dim):
    # both passes give the same bits with and without the shared gather,
    # for one row and for stacks of several row counts (the scatter's
    # offset bins are cached per count), and match the per-row oracle
    basis = basis1d if dim == 1 else basis2d
    sub, volume = basis.substitutions(), basis.spec.volume
    rng = np.random.default_rng(dim)
    for shape in ((basis.size,), (3, basis.size), (2, basis.size), (3, basis.size)):
        c, d = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                for _ in range(2))
        phi = (rng.standard_normal(shape[:-1] + (sub.n_freq,))
               + 1j * rng.standard_normal(shape[:-1] + (sub.n_freq,)))
        gathered = sub.gather(c)
        transition = sub.transition_values(c, d, gathered)
        potential = sub.potential_values(c, phi / volume, gathered)
        assert np.array_equal(transition, sub.transition_values(c, d))
        assert np.array_equal(potential, sub.potential_values(c, phi / volume))
        for row in np.ndindex(shape[:-1]):
            assert np.array_equal(transition[row], transition_oracle(sub, c[row], d[row]))
            assert np.array_equal(potential[row],
                                  potential_oracle(sub, c[row], phi[row], volume))


def test_potential_divides_once_on_n3():
    # |T| = 3 is not a power of two, so dividing Phi_hat once instead of
    # per entry moves the bits, at rounding level only
    spec = TorusSpec(1, 3, 12)
    _, omega0 = ground_occupations(spec)
    basis = enumerate_basis(spec, 2.0 * omega0 + 12.0 * (2.0 * np.pi / 3.0) ** 2)
    sub = basis.substitutions()
    rng = np.random.default_rng(3)
    c = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
    phi = rng.standard_normal(sub.n_freq) + 1j * rng.standard_normal(sub.n_freq)
    got = apply_one_body_potential(CIVector(basis, c), FourierScalarField(spec, phi)).values
    want = potential_oracle(sub, c, phi, spec.volume)
    assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


@pytest.mark.parametrize("dim", [1, 2])
def test_coupling_rhs_plus_kinetic_is_full_flow(basis1d, sigma1d, basis2d,
                                                sigma2d_perturbed, dim):
    # _rhs_raw returns G = i e (Phi tensor psi); G - i K c is the full
    # c_dot = -i (K c - e Phi tensor psi), up to rounding of its largest entry
    basis, sigma = (basis1d, sigma1d) if dim == 1 else (basis2d, sigma2d_perturbed)
    plan = dynamics._FlowPlan(basis, sigma)
    states = [random_state(basis, seed) for seed in (21, 22, 23)]
    c = np.stack([s.psi.values for s in states])
    q = np.stack([s.ions.q for s in states])
    p = np.stack([s.ions.p for s in states])
    g, q_dot, p_dot = dynamics._rhs_raw(plan, c, q, p, 1.0)
    _, rho = plan.density(c, q)
    coupling = plan.substitutions.potential_values(c, rho * plan.pairing_weight)
    c_dot = -1j * (plan.kinetic * c - plan.e * coupling)
    full = dynamics._full_rhs(plan, c, q, p, 1.0)
    for got in (g - 1j * plan.kinetic * c, full[0]):
        assert np.abs(got - c_dot).max() <= 1e-15 * np.abs(c_dot).max()
    assert np.array_equal(full[1], q_dot) and np.array_equal(full[2], p_dot)
    for row, state in enumerate(states):
        single = rhs(state, sigma)
        np.testing.assert_array_equal(single.psi_dot.values, full[0][row])
        np.testing.assert_array_equal(single.p_dot, p_dot[row])


def test_midpoint_stage_iterations_bounded():
    # criterion 4's state: with the kinetic term inverted exactly the
    # stage iteration contracts at the rate of the coupling alone
    spec = TorusSpec(1, 2, 16)
    basis = enumerate_basis(spec, 20.0 * np.pi**2)
    sigma = box_density(spec, 1)
    gs = build_ground_state(basis, sigma)
    direction = sample_tangent_perturbation(gs, np.random.default_rng(42))
    initial = perturbed_state(gs, direction, 0.01)
    _, log = evolve(initial, sigma, dt=1e-3, duration=0.05)
    assert log.iterations[1:].max() <= 3


def test_displacements_wrapped(basis1d, sigma1d):
    # a fast free ion crosses the period; the stored q stays in [0, N)
    state = ground_state(basis1d)
    state.ions.p[:] = 40.0
    final, _ = evolve(state, sigma1d, dt=1e-2, duration=0.1, method="splitting")
    assert np.all(final.ions.q >= 0.0) and np.all(final.ions.q < 2.0)


def test_canonicalized_wraps():
    spec = TorusSpec(1, 2, 16)
    basis = enumerate_basis(spec, 8.0 * np.pi**2)
    sets, _ = ground_occupations(spec)
    psi = CIVector.from_occupations(basis, {sets[0]: 1.0})
    ions = IonState(np.array([[2.5], [-0.25]]), np.zeros((2, 1)), 1.0)
    state = CrystalState(psi, ions).canonicalized()
    np.testing.assert_allclose(state.ions.q, [[0.5], [1.75]])


def test_lattice_points_order(spec2d):
    pts = lattice_points(spec2d)
    assert pts.shape == (4, 2)
    np.testing.assert_allclose(pts, [[0, 0], [0, 1], [1, 0], [1, 1]])


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_energy_gauge_invariant_property(seed):
    spec = TorusSpec(1, 2, 16)
    basis = enumerate_basis(spec, 8.0 * np.pi**2)
    sigma = box_density(spec, 1)
    rng = np.random.default_rng(seed)
    b = basis.size
    values = rng.standard_normal(b) + 1j * rng.standard_normal(b)
    ions = IonState(0.3 * rng.standard_normal((2, 1)),
                    0.3 * rng.standard_normal((2, 1)), 1.0)
    theta = rng.uniform(0.0, 2.0 * np.pi)
    plain = CrystalState(CIVector(basis, values), ions)
    spun = CrystalState(CIVector(basis, np.exp(1j * theta) * values), ions)
    assert energy(plain, sigma) == pytest.approx(energy(spun, sigma), rel=1e-12)


# --- batched evolution ---


def batch_states(gs):
    # the ground state (1 iteration per step) and perturbations whose steps
    # take 3 to 5 iterations, so rows freeze at different sweeps
    rng = np.random.default_rng
    return [gs.state()] + [
        perturbed_state(gs, sample_tangent_perturbation(gs, rng(seed)), delta)
        for seed, delta in [(1, 1e-3), (2, 1e-2), (3, 0.1), (4, 0.3)]
    ]


@pytest.mark.parametrize("method", ["implicit_midpoint", "splitting", "rk4"])
def test_batch_rows_match_single_runs(gs1d, sigma1d, method):
    states = batch_states(gs1d)
    finals, log = evolve(states, sigma1d, dt=2e-2, duration=0.2, method=method)
    assert log.energy.shape == log.charge.shape == (11, len(states))
    for row, state in enumerate(states):
        final, single = evolve(state, sigma1d, dt=2e-2, duration=0.2,
                               method=method)
        np.testing.assert_array_equal(finals[row].psi.values, final.psi.values)
        np.testing.assert_array_equal(finals[row].ions.q, final.ions.q)
        np.testing.assert_array_equal(finals[row].ions.p, final.ions.p)
        np.testing.assert_array_equal(log.energy[:, row], single.energy)
        np.testing.assert_array_equal(log.charge[:, row], single.charge)


def test_batch_prefix_matches_smaller_batch(gs1d, sigma1d):
    states = batch_states(gs1d)
    _, small = evolve(states[:3], sigma1d, dt=2e-2, duration=0.1)
    _, large = evolve(states, sigma1d, dt=2e-2, duration=0.1)
    np.testing.assert_array_equal(large.energy[:, :3], small.energy)
    np.testing.assert_array_equal(large.charge[:, :3], small.charge)


def test_batch_divergent_row_named(gs1d, sigma1d):
    # at dt = 2.5 the ground state converges and a perturbed state diverges
    diverging = batch_states(gs1d)[2]
    with np.errstate(all="ignore"):
        with pytest.raises(IntegratorError) as single:
            evolve(diverging, sigma1d, dt=2.5, duration=5.0)
        with pytest.raises(IntegratorError) as batched:
            evolve([gs1d.state(), gs1d.state(), diverging], sigma1d, dt=2.5,
                   duration=5.0)
    assert batched.value.row == 2 and single.value.row == 0
    assert batched.value.step == single.value.step
    assert batched.value.residual == single.value.residual
    assert "row 2" in str(batched.value)


def test_batch_observer_and_iterations_contract(gs1d, sigma1d):
    # perfbench/tracing.py relies on this: StepClock counts one step per
    # observer(t, state) call, and the tracer's evolve hook reads
    # log.iterations[1:] as one integer count per step
    states = batch_states(gs1d)
    rows, steps = len(states), 10
    seen = []
    _, log = evolve(states, sigma1d, dt=2e-2, duration=0.2,
                    observer=lambda t, s: seen.append((t, s)))
    assert len(seen) == rows * (steps + 1)
    assert log.iterations.shape == (steps + 1,)
    assert log.iterations.dtype.kind == "i"
    counts = []
    for row, state in enumerate(states):
        single_seen = []
        _, single = evolve(state, sigma1d, dt=2e-2, duration=0.2,
                           observer=lambda t, s: single_seen.append((t, s)))
        counts.append(single.iterations)
        for k, (t, s) in enumerate(single_seen):
            t_batch, s_batch = seen[k * rows + row]
            assert t_batch == t
            np.testing.assert_array_equal(s_batch.psi.values, s.psi.values)
            np.testing.assert_array_equal(s_batch.ions.q, s.ions.q)
            np.testing.assert_array_equal(s_batch.ions.p, s.ions.p)
    np.testing.assert_array_equal(log.iterations, np.max(counts, axis=0))
    assert len({int(c[1]) for c in counts}) > 1  # rows stop at different sweeps


def test_batch_observer_sees_stacked_rows(gs1d, sigma1d):
    # one call per record, before the row observers, with the stacked
    # arrays of the row states they see; the hook leaves the run unchanged
    states = batch_states(gs1d)
    rows, steps = len(states), 10
    shape = (rows, gs1d.spec.n_ions, gs1d.spec.dimension)
    events, stacked = [], []

    def batch_observer(t, c, q, p):
        assert c.shape == (rows, gs1d.basis.size) and q.shape == p.shape == shape
        events.append("batch")
        stacked.append((t, c.copy(), q.copy(), p.copy()))

    def observer(t, state):
        events.append("row")
        seen.append((t, state))

    seen = []
    _, log = evolve(states, sigma1d, dt=2e-2, duration=0.2, observer=observer,
                    batch_observer=batch_observer)
    assert events == (["batch"] + ["row"] * rows) * (steps + 1)
    for k, (t, c, q, p) in enumerate(stacked):
        assert t == log.t[k]
        for row in range(rows):
            t_row, state = seen[k * rows + row]
            assert t_row == t
            np.testing.assert_array_equal(c[row], state.psi.values)
            np.testing.assert_array_equal(q[row], state.ions.q)
            np.testing.assert_array_equal(p[row], state.ions.p)
    _, plain = evolve(states, sigma1d, dt=2e-2, duration=0.2)
    np.testing.assert_array_equal(log.energy, plain.energy)
    np.testing.assert_array_equal(log.iterations, plain.iterations)
    # a single state is a batch of one
    single = []
    evolve(states[2], sigma1d, dt=2e-2, duration=0.2,
           batch_observer=lambda t, c, q, p: single.append((c.shape, q.shape)))
    assert single == [((1, gs1d.basis.size), (1,) + shape[1:])] * (steps + 1)


# --- row states and ion phases ---


def assert_validated_state(state, basis, mass):
    # the fields a row state carries are those the checking constructors give
    checked = CrystalState(CIVector(basis, state.psi.values),
                           IonState(state.ions.q, state.ions.p, state.ions.mass))
    assert type(state) is CrystalState
    assert type(state.psi) is CIVector and type(state.ions) is IonState
    assert state.psi.basis is basis and state.ions.mass == mass
    for got, want in ((state.psi.values, checked.psi.values),
                      (state.ions.q, checked.ions.q),
                      (state.ions.p, checked.ions.p)):
        assert got.dtype == want.dtype and got.shape == want.shape
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("batch", [True, False])
def test_row_states_are_validated_states(gs1d, sigma1d, batch):
    states = batch_states(gs1d) if batch else gs1d.state()
    seen = []
    finals, _ = evolve(states, sigma1d, dt=2e-2, duration=0.1,
                       observer=lambda t, s: seen.append(s))
    rows = len(states) if batch else 1
    assert len(seen) == rows * 6
    for state in seen + (finals if batch else [finals]):
        assert_validated_state(state, gs1d.basis, gs1d.mass)
    # the last record's row states are the final states
    for got, want in zip(seen[-rows:], finals if batch else [finals]):
        np.testing.assert_array_equal(got.psi.values, want.psi.values)
        np.testing.assert_array_equal(got.ions.q, want.ions.q)
        np.testing.assert_array_equal(got.ions.p, want.ions.p)


def test_row_states_own_their_arrays(gs1d, sigma1d):
    # each observed row is a copy: writing into row 0's arrays changes no
    # other row, no later record and not the run
    states = batch_states(gs1d)
    clean_seen = []
    clean_finals, clean_log = evolve(
        states, sigma1d, dt=2e-2, duration=0.1,
        observer=lambda t, s: clean_seen.append(s))
    seen = []

    def vandal(t, state):
        seen.append(state)
        if len(seen) % len(states) == 1:  # row 0 of each record
            state.psi.values[:] = 0.0
            state.ions.q += 0.5
            state.ions.p[:] = 7.0

    finals, log = evolve(states, sigma1d, dt=2e-2, duration=0.1, observer=vandal)
    for k, (got, want) in enumerate(zip(seen, clean_seen)):
        if k % len(states) == 0:
            assert not got.psi.values.any() and (got.ions.p == 7.0).all()
            continue
        np.testing.assert_array_equal(got.psi.values, want.psi.values)
        np.testing.assert_array_equal(got.ions.q, want.ions.q)
        np.testing.assert_array_equal(got.ions.p, want.ions.p)
    for got, want in zip(finals, clean_finals):
        np.testing.assert_array_equal(got.psi.values, want.psi.values)
        np.testing.assert_array_equal(got.ions.q, want.ions.q)
        np.testing.assert_array_equal(got.ions.p, want.ions.p)
    np.testing.assert_array_equal(log.energy, clean_log.energy)
    np.testing.assert_array_equal(log.charge, clean_log.charge)
    np.testing.assert_array_equal(log.iterations, clean_log.iterations)


@pytest.mark.parametrize("d, n, n_g, budget", [
    (1, 2, 16, 8.0), (1, 3, 18, 8.0),
    (2, 2, 8, 3.0), (2, 3, 12, 4.0), (2, 4, 16, 11.0),
    (3, 2, 6, 3.0), (3, 3, 6, 4.0), (3, 2, 8, 8.0),
])
def test_ion_phases_match_full_exp(d, n, n_g, budget):
    # cos + i sin of the real angle, mirrored past xi = 0, is the exp of the
    # full complex table, bit for bit, with the ions first
    spec = TorusSpec(d, n, n_g)
    basis = enumerate_basis(spec, budget * np.pi**2 + 1e-9)
    plan = dynamics._FlowPlan(basis, box_density(spec, 1))
    rng = np.random.default_rng(d * 10 + n)
    shape = (spec.n_ions, d)
    for q in (np.zeros(shape), rng.uniform(-1.0, n + 1.0, shape),
              rng.uniform(0.0, n, (4,) + shape), rng.uniform(0.0, n, (50,) + shape)):
        full = np.exp(plan.ixi @ (plan.sites + q).swapaxes(-1, -2))
        expected = full.swapaxes(-1, -2)
        got = plan.ion_phases(q)
        assert got.shape == expected.shape and got.dtype == expected.dtype
        assert np.array_equal(got, expected)
