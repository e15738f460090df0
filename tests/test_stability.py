import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermicrystal import (
    AdmissibilityError,
    CIVector,
    CrystalState,
    IonState,
    ModelRefusalError,
    TorusSpec,
    box_density,
    build_ground_state,
    charge_constraint_gradient,
    ci_inner,
    distance_to_manifold,
    energy,
    enumerate_basis,
    evolve,
    first_variation_residual,
    frequency_table,
    grid_density,
    ground_occupations,
    hessian_assemble,
    hessian_spectrum,
    linearized_density,
    pack_tangent,
    perturbed_box_density,
    perturbed_state,
    quadratic_form,
    run_trajectory,
    sample_tangent_perturbation,
    stability_experiment,
    tangent_space_vectors,
    translation_perturbation,
    unpack_tangent,
)
from fermicrystal import stability
from fermicrystal.stability import HessianForm, TangentVector, _displaced_state


def random_tangent(gs, seed, with_ions=True):
    rng = np.random.default_rng(seed)
    b = gs.basis.size
    phi = CIVector(gs.basis, rng.standard_normal(b) + 1j * rng.standard_normal(b))
    shape = (gs.spec.n_ions, gs.spec.dimension)
    kappa = rng.standard_normal(shape) if with_ions else np.zeros(shape)
    pi = rng.standard_normal(shape) if with_ions else np.zeros(shape)
    return TangentVector(phi, kappa, pi)


# --- construction gates ---


def test_build_rejects_non_crystal_density(spec1d, basis1d):
    x = spec1d.grid_axes()
    samples = np.exp(-8.0 * (x - 1.0) ** 2)
    samples *= 1.0 / (samples.sum() * spec1d.grid_spacing)
    sigma = grid_density(spec1d, samples, Z=1.0, e=1.0)
    with pytest.raises(ModelRefusalError):
        build_ground_state(basis1d, sigma)


def test_build_rejects_adr_violating_mixture(spec1d, basis1d, sigma1d):
    sets = [((-1,), (0,)), ((0,), (1,))]  # differ in exactly one orbital
    with pytest.raises(AdmissibilityError):
        build_ground_state(basis1d, sigma1d, choice={sets[0]: 1.0, sets[1]: 1.0})


def test_build_rejects_off_eigenspace_mixture(basis1d, sigma1d):
    with pytest.raises(AdmissibilityError):
        build_ground_state(basis1d, sigma1d, choice={((-1,), (1,)): 1.0})


def test_build_rejects_small_basis(spec1d, sigma1d):
    tiny = enumerate_basis(spec1d, np.pi**2 / 2.0)  # misses the minimal sets
    with pytest.raises(AdmissibilityError):
        build_ground_state(tiny, sigma1d)


def test_build_normalizes_charge(basis1d, sigma1d):
    gs = build_ground_state(basis1d, sigma1d, choice=1)
    assert gs.psi0.charge() == pytest.approx(gs.Z, rel=1e-14)
    assert gs.omega0 == pytest.approx(np.pi**2 / 2.0)
    assert energy(gs.state(), sigma1d) == pytest.approx(gs.omega0 * gs.Z,
                                                        rel=1e-12)


def test_no_admissible_pair_mixture_in_small_geometries(basis2d, sigma2d_box):
    # every pair of minimal sets here shares all but one orbital, so no
    # two-set mixture passes the gate; a one-set "mixture" does
    gs = build_ground_state(basis2d, sigma2d_box)
    for other in gs.minimal_sets[1:]:
        with pytest.raises(AdmissibilityError):
            build_ground_state(
                basis2d, sigma2d_box,
                choice={gs.minimal_sets[0]: 1.0, other: 1.0},
            )
    single = build_ground_state(
        basis2d, sigma2d_box, choice={gs.minimal_sets[2]: 0.7}
    )
    assert single.psi0.charge() == pytest.approx(single.Z, rel=1e-14)


# --- tangent algebra ---


def test_pack_unpack_round_trip(gs1d):
    y = random_tangent(gs1d, seed=1)
    vector = pack_tangent(y)
    back = unpack_tangent(gs1d.basis, vector)
    np.testing.assert_allclose(back.phi.values, y.phi.values, atol=1e-15)
    np.testing.assert_allclose(back.kappa, y.kappa, atol=1e-15)
    np.testing.assert_allclose(back.pi, y.pi, atol=1e-15)
    assert vector.shape == (2 * gs1d.basis.size + 4,)
    assert vector.dtype == float


def test_tangent_space_contains_gauge_and_translations(gs1d):
    rows = tangent_space_vectors(gs1d)
    assert rows.shape[0] == 1 + gs1d.spec.dimension
    gauge = unpack_tangent(gs1d.basis, rows[0])
    np.testing.assert_allclose(gauge.phi.values, 1j * gs1d.psi_alpha().values,
                               atol=1e-14)
    shift = unpack_tangent(gs1d.basis, rows[1])
    assert np.abs(shift.phi.values).max() == 0.0
    np.testing.assert_allclose(shift.kappa, 1.0)
    np.testing.assert_allclose(shift.pi, 0.0)


def test_charge_gradient_is_radial(gs1d):
    g = unpack_tangent(gs1d.basis, charge_constraint_gradient(gs1d))
    np.testing.assert_allclose(g.phi.values, gs1d.psi_alpha().values, atol=1e-14)
    assert np.abs(g.kappa).max() == 0.0 and np.abs(g.pi).max() == 0.0


# --- linearized density and quadratic form ---


def test_linearized_density_matches_fd(gs1d, basis2d, sigma2d_perturbed):
    from fermicrystal import assemble_rho

    # d = 2 off the origin pins the site/axis order of the ion columns
    gs2d = build_ground_state(basis2d, sigma2d_perturbed, r=(0.3, 0.1), alpha=0.7)
    h = 1e-6
    for gs in (gs1d, gs2d):
        y = random_tangent(gs, seed=2)
        lin = linearized_density(gs, y).total
        plus = assemble_rho(_displaced_state(gs, y, h), gs.sigma)
        minus = assemble_rho(_displaced_state(gs, y, -h), gs.sigma)
        fd = (plus.values - minus.values) / (2.0 * h)
        np.testing.assert_allclose(lin.values, fd, atol=1e-8)


def test_quadratic_form_matches_matrix(gs1d):
    form = hessian_assemble(gs1d)
    for seed in range(4):
        y = random_tangent(gs1d, seed=seed)
        vector = pack_tangent(y)
        direct = quadratic_form(gs1d, y)
        # the stored matrix is D^2 E, the form is its half
        via_matrix = 0.5 * float(vector @ form.matrix @ vector)
        assert direct == pytest.approx(via_matrix, rel=1e-12, abs=1e-12)


def test_quadratic_form_matches_energy_second_difference(gs1d):
    # E(S + hY) + E(S - hY) - 2 E(S) = h^2 Q(Y) + O(h^4)
    y = random_tangent(gs1d, seed=5)
    h = 1e-4
    e0 = energy(gs1d.state(), gs1d.sigma)
    plus = energy(_displaced_state(gs1d, y, h), gs1d.sigma)
    minus = energy(_displaced_state(gs1d, y, -h), gs1d.sigma)
    second = (plus + minus - 2.0 * e0) / h**2
    assert 2.0 * quadratic_form(gs1d, y) == pytest.approx(second, rel=1e-5)


def test_first_variation(gs1d):
    # zero along constraint-tangential directions, 2 omega0 Z radially
    y = sample_tangent_perturbation(gs1d, np.random.default_rng(6))
    assert first_variation_residual(gs1d, y) <= 1e-9
    for axis in range(gs1d.spec.dimension):
        assert first_variation_residual(
            gs1d, translation_perturbation(gs1d, axis)
        ) <= 1e-9
    radial = TangentVector(
        gs1d.psi_alpha(),
        np.zeros((2, 1)),
        np.zeros((2, 1)),
    )
    assert first_variation_residual(gs1d, radial) == pytest.approx(
        2.0 * gs1d.omega0 * gs1d.Z, rel=1e-6
    )


# --- spectra ---


def test_hessian_spectrum_d1(gs1d):
    form = hessian_assemble(gs1d)
    full = hessian_spectrum(form, subspace="full")
    assert full.kernel_dim == 1  # translations only; gauge is not flat
    constrained = hessian_spectrum(form, subspace="constrained")
    assert constrained.kernel_dim == 0
    assert constrained.lambda_min > 0.0
    assert constrained.lambda_min == pytest.approx(0.9434, rel=1e-3)


def test_hessian_spectrum_d2_dichotomy(basis2d, sigma2d_box, sigma2d_perturbed):
    flat = build_ground_state(basis2d, sigma2d_box)
    form = hessian_assemble(flat)
    full = hessian_spectrum(form, subspace="full")
    assert full.kernel_dim == 2 + 2  # translations plus the flat ion space
    constrained = hessian_spectrum(form, subspace="constrained")
    assert constrained.kernel_dim == 2

    solid = build_ground_state(basis2d, sigma2d_perturbed)
    form = hessian_assemble(solid)
    full = hessian_spectrum(form, subspace="full")
    assert full.kernel_dim == 2
    constrained = hessian_spectrum(form, subspace="constrained")
    assert constrained.kernel_dim == 0
    assert constrained.lambda_min > 1e-4


def removed_directions(gs):
    """The removed directions built densely, one packed TangentVector each
    (gauge, d translations, radial): the reference for ``_removed_support``,
    whose rows the package writes out."""
    zeros = np.zeros((gs.spec.n_ions, gs.spec.dimension))
    psi = gs.psi_alpha()
    rows = [TangentVector(CIVector(gs.basis, 1j * psi.values), zeros, zeros)]
    for axis in range(gs.spec.dimension):
        kappa = zeros.copy()
        kappa[:, axis] = 1.0
        rows.append(TangentVector(CIVector.zeros(gs.basis), kappa, zeros))
    rows.append(TangentVector(psi, zeros, zeros))
    return np.stack([pack_tangent(y) for y in rows])


@pytest.mark.parametrize("case", ["gs1d", "perturbed2d", "mixture", "gs3d"])
def test_removed_support_is_removed_directions(case, request, gs1d, basis2d,
                                               sigma2d_perturbed):
    # the constrained spectrum reads the removed directions on their
    # supports: the same entries, and zeros everywhere else
    gs = {
        "gs1d": lambda: gs1d,
        "perturbed2d": lambda: build_ground_state(basis2d, sigma2d_perturbed,
                                                  r=(0.3, 0.1), alpha=0.7),
        "mixture": lambda: mixture_ground_states()[1],
        "gs3d": lambda: request.getfixturevalue("gs3d"),
    }[case]()
    support, rows = stability._removed_support(gs)
    full = removed_directions(gs)
    assert np.all(np.diff(support) > 0)
    np.testing.assert_array_equal(rows, full[:, support])
    assert not np.delete(full, support, axis=1).any()
    # and the packed rows the package reads are those dense ones
    np.testing.assert_array_equal(stability._removed_directions(gs), full)
    np.testing.assert_array_equal(tangent_space_vectors(gs), full[:-1])
    np.testing.assert_array_equal(charge_constraint_gradient(gs), full[-1])


def dense_spectrum(form, subspace, kernel_rtol=1e-9):
    """Reference: diagonalise the whole matrix, or its projection onto the
    full-size SVD complement of the removed directions."""
    matrix = form.matrix
    if subspace == "constrained":
        spanned = removed_directions(form.gs)
        _, singular, vh = np.linalg.svd(spanned, full_matrices=True)
        rank = int((singular > 1e-12 * singular[0]).sum())
        complement = vh[rank:]
        matrix = complement @ matrix @ complement.T
    eigenvalues = np.linalg.eigvalsh(matrix)
    tolerance = kernel_rtol * np.abs(eigenvalues).max()
    return eigenvalues, int((np.abs(eigenvalues) <= tolerance).sum())


def random_form(gs, seed, decoupled=(), zero_diagonal=()):
    """The form of a dense random symmetric matrix on the packed coordinates
    of gs, with the off-diagonal entries of the ``decoupled`` rows and
    columns zeroed."""
    rng = np.random.default_rng(seed)
    n = pack_tangent(TangentVector.zeros(gs.basis)).size
    a = rng.standard_normal((n, n))
    matrix = a + a.T
    for i in decoupled:
        diagonal = matrix[i, i]
        matrix[i, :] = 0.0
        matrix[:, i] = 0.0
        matrix[i, i] = diagonal
    for i in zero_diagonal:
        matrix[i, i] = 0.0
    coupled = np.setdiff1d(np.arange(n), decoupled)
    return HessianForm(gs, np.diagonal(matrix).copy(), coupled,
                       matrix[np.ix_(coupled, coupled)])


@pytest.mark.parametrize("case", [
    "gs1d", "flat2d", "perturbed2d", "perturbed3d", "dense", "dense_decoupled",
])
def test_split_spectrum_matches_dense(case, request, gs1d, basis2d, sigma2d_box,
                                      sigma2d_perturbed):
    if case == "flat2d":
        form = hessian_assemble(build_ground_state(basis2d, sigma2d_box))
    elif case == "perturbed2d":
        form = hessian_assemble(build_ground_state(basis2d, sigma2d_perturbed))
    elif case == "perturbed3d":
        form = hessian_assemble(request.getfixturevalue("gs3d"))
    elif case == "dense":
        form = random_form(gs1d, seed=13)
    elif case == "dense_decoupled":
        # decouple two coordinates the removed directions touch and two they
        # do not, one of those with a zero diagonal: an exact kernel vector
        support = np.flatnonzero((removed_directions(gs1d) != 0).any(axis=0))
        outside = np.setdiff1d(np.arange(2 * gs1d.basis.size), support)
        decoupled = [support[0], support[-1], outside[1], outside[4]]
        form = random_form(gs1d, seed=14, decoupled=decoupled,
                           zero_diagonal=[outside[4]])
    else:
        form = hessian_assemble(gs1d)
    for subspace in ("full", "constrained"):
        split = hessian_spectrum(form, subspace)
        eigenvalues, kernel_dim = dense_spectrum(form, subspace)
        scale = np.abs(eigenvalues).max()
        assert split.eigenvalues.shape == eigenvalues.shape
        np.testing.assert_allclose(split.eigenvalues, eigenvalues, rtol=0,
                                   atol=1e-12 * scale)
        assert split.kernel_dim == kernel_dim
        # a kernel eigenvalue's sign is rounding noise; only compare it outside
        if abs(eigenvalues.min()) > split.tolerance:
            assert np.sign(split.lambda_min) == np.sign(eigenvalues.min())
    if case == "dense_decoupled":
        assert hessian_spectrum(form, "full").kernel_dim == 1


def full_product_form(gs):
    """Reference: the Coulomb block as the product over every column of S."""
    block = gs.spec.n_ions * gs.spec.dimension
    columns, narrow = stability._response_map(gs)
    response = np.zeros((len(narrow), 2 * gs.basis.size + 2 * block), dtype=complex)
    response[:, columns] = narrow
    response *= np.sqrt(frequency_table(gs.spec).pairing_weight)[:, None]
    stacked = np.concatenate([response.real, response.imag])
    matrix = stacked.T @ stacked
    matrix[np.diag_indices(matrix.shape[0])] += np.concatenate([
        2.0 * gs.basis.kinetic, 2.0 * gs.basis.kinetic,
        np.zeros(block), np.full(block, 1.0 / gs.mass),
    ])
    return matrix, stacked.any(axis=0)


def mixture_ground_states():
    """The single-set ground state of d = 2, N = 4 and a mixture of two of its
    minimal sets that differ in two orbitals: the determinants one
    substitution from either set are live."""
    spec = TorusSpec(2, 4, 16)
    sets, omega0 = ground_occupations(spec)
    first = sets[0]
    other = next(s for s in sets if len(set(first) - set(s)) >= 2)
    basis = enumerate_basis(spec, 2.0 * omega0 + 1e-9)
    sigma = box_density(spec, 1)
    return (build_ground_state(basis, sigma),
            build_ground_state(basis, sigma, choice={first: 1.0, other: 1.0}))


def test_hessian_assemble_matches_full_product(gs1d, basis2d, sigma2d_box,
                                               sigma2d_perturbed, gs3d):
    single, mixture = mixture_ground_states()
    _, single_live = full_product_form(single)
    cases = [
        gs1d,
        build_ground_state(basis2d, sigma2d_box),
        build_ground_state(basis2d, sigma2d_perturbed, r=(0.3, 0.1), alpha=0.7),
        mixture,
        gs3d,
    ]
    for gs in cases:
        reference, live = full_product_form(gs)
        form = hessian_assemble(gs)
        matrix = form.matrix
        assert matrix.shape == reference.shape
        off_diagonal = reference - np.diag(np.diagonal(reference))
        assert np.array_equal(form.coupled, np.flatnonzero(off_diagonal.any(axis=1)))
        assert np.array_equal(matrix, matrix.T)
        assert np.array_equal(matrix != 0, reference != 0)
        # OpenBLAS picks its kernels by the column count, so the narrower
        # product may round an entry differently (the 1-d case is exact)
        np.testing.assert_allclose(matrix, reference, rtol=0.0,
                                   atol=1e-14 * np.abs(reference).max())
        if gs.spec.dimension >= 2:
            assert live.sum() < live.size  # the live-column product is used
    _, mixture_live = full_product_form(mixture)
    assert mixture_live.sum() > single_live.sum()


def rescanned_form(form):
    """Reference: the form rebuilt from its dense matrix, a row being coupled
    when it has a nonzero off-diagonal entry, cut into the same sectors."""
    matrix = form.matrix
    diagonal = np.diagonal(matrix).copy()
    coupled = np.flatnonzero(np.count_nonzero(matrix, axis=1) > (diagonal != 0))
    block = matrix[np.ix_(coupled, coupled)]
    sectors = stability._sectors(block, form.rotation,
                                 [sector.index for sector in form.sectors])
    return HessianForm(form.gs, diagonal, coupled, block, sectors, form.rotation)


def test_spectrum_matches_rescan(gs1d, basis2d, sigma2d_box, sigma2d_perturbed,
                                gs3d):
    # the assembled coupled index gives the bits of the rescanned spectrum
    cases = [
        gs1d,
        build_ground_state(basis2d, sigma2d_box),
        build_ground_state(basis2d, sigma2d_perturbed, r=(0.3, 0.1), alpha=0.7),
        mixture_ground_states()[1],
        gs3d,
    ]
    for gs in cases:
        form = hessian_assemble(gs)
        rescanned = rescanned_form(form)
        assert np.array_equal(rescanned.coupled, form.coupled)
        for subspace in ("full", "constrained"):
            spectrum = hessian_spectrum(form, subspace)
            reference = hessian_spectrum(rescanned, subspace)
            assert np.array_equal(spectrum.eigenvalues, reference.eigenvalues)
            assert spectrum.kernel_dim == reference.kernel_dim
            assert spectrum.lambda_min == reference.eigenvalues.min()


def whole_block_spectrum(form, subspace, kernel_rtol=1e-9):
    """Reference: one eigvalsh on the whole coupled block.  The constrained
    block is the projection, on the complement of the removed directions,
    of the coupled block widened by every coordinate they touch."""
    index = form.coupled
    if subspace == "constrained":
        spanned = removed_directions(form.gs)
        widened = spanned.any(axis=0)
        widened[index] = True
        index = np.flatnonzero(widened)
        _, singular, vh = np.linalg.svd(spanned[:, index], full_matrices=True)
        complement = vh[int((singular > 1e-12 * singular[0]).sum()):]
        square = np.diag(form.diagonal[index])
        inner = np.searchsorted(index, form.coupled)
        square[np.ix_(inner, inner)] = form.block
        block = complement @ square @ complement.T
    else:
        block = form.block
    eigenvalues = np.sort(np.concatenate([
        np.delete(form.diagonal, index), np.linalg.eigvalsh(block)
    ]))
    tolerance = kernel_rtol * max(float(np.abs(eigenvalues).max(initial=0.0)), 1e-300)
    return eigenvalues, int((np.abs(eigenvalues) <= tolerance).sum())


def n3_ground_state():
    """d = 2, N = 3: the pairs {h, -h} with h != -h take a cosine and a sine
    wave per axis (B = 65; the sectors are 26 to 32 coordinates)."""
    spec = TorusSpec(2, 3, 12)
    _, omega0 = ground_occupations(spec)
    basis = enumerate_basis(spec, 2.0 * omega0 + 3.0 * (2.0 * np.pi / 3.0) ** 2 + 1e-9)
    return build_ground_state(basis, perturbed_box_density(spec), r=(0.2, 0.4))


SECTOR_CASES = ["gs1d", "flat2d", "perturbed2d", "mixture4", "gs3d", "n3"]


def sector_case(case, request, basis2d, sigma2d_box, sigma2d_perturbed):
    if case == "flat2d":
        return build_ground_state(basis2d, sigma2d_box)
    if case == "perturbed2d":
        return build_ground_state(basis2d, sigma2d_perturbed, r=(0.3, 0.1), alpha=0.7)
    if case == "mixture4":
        return mixture_ground_states()[1]
    if case == "n3":
        return n3_ground_state()
    return request.getfixturevalue(case)


@pytest.mark.parametrize("case", SECTOR_CASES)
def test_bloch_sectors_match_whole_block(case, request, basis2d, sigma2d_box,
                                         sigma2d_perturbed):
    form = hessian_assemble(sector_case(case, request, basis2d, sigma2d_box,
                                        sigma2d_perturbed))
    assert len(form.sectors) > 1
    for subspace in ("full", "constrained"):
        split = hessian_spectrum(form, subspace)
        eigenvalues, kernel_dim = whole_block_spectrum(form, subspace)
        assert split.eigenvalues.shape == eigenvalues.shape
        np.testing.assert_allclose(split.eigenvalues, eigenvalues, rtol=0,
                                   atol=1e-13 * np.abs(eigenvalues).max())
        assert split.kernel_dim == kernel_dim


@pytest.mark.parametrize("case", SECTOR_CASES)
def test_bloch_sectors_drop_only_rounding(case, request, basis2d, sigma2d_box,
                                          sigma2d_perturbed):
    # in the Bloch frame the entries between two sectors are rounding
    form = hessian_assemble(sector_case(case, request, basis2d, sigma2d_box,
                                        sigma2d_perturbed))
    n, rotation = form.coupled.size, form.rotation
    np.testing.assert_allclose(rotation @ rotation.T, np.eye(len(rotation)),
                               rtol=0, atol=1e-15)
    frame = np.eye(n)
    frame[n - len(rotation):, n - len(rotation):] = rotation
    rotated = frame @ form.block @ frame.T
    owner = np.full(n, -1)
    for label, sector in enumerate(form.sectors):
        assert (owner[sector.index] == -1).all()
        owner[sector.index] = label
        np.testing.assert_allclose(sector.block, rotated[np.ix_(sector.index, sector.index)],
                                   rtol=0, atol=1e-14 * np.abs(form.block).max())
    assert (owner >= 0).all()
    dropped = rotated[owner[:, None] != owner[None, :]]
    assert np.abs(dropped).max() <= 1e-14 * np.abs(form.block).max()


def test_mixture_merges_bloch_pairs():
    # a mixture's coordinates one substitution from both sets span two pairs
    # {h, -h}, which then share a sector
    single, mixture = mixture_ground_states()
    assert len(hessian_assemble(mixture).sectors) < len(hessian_assemble(single).sectors)


def test_hessian_benchmark_reference():
    # the analysis benchmark's form at r = 0, alpha = 0, with the values its
    # correctness gate pins
    spec = TorusSpec(2, 2, 12)
    sigma = perturbed_box_density(spec, k=2, amplitude=0.5, decay=2.0)
    gs = build_ground_state(enumerate_basis(spec, 10 * np.pi**2), sigma)
    form = hessian_assemble(gs)
    full = hessian_spectrum(form, "full")
    constrained = hessian_spectrum(form, "constrained")
    assert "matrix" not in vars(form)  # neither spectrum built the dense matrix
    assert sorted(len(sector.block) for sector in form.sectors) == [36, 38, 44, 50]
    assert form.size == 2692
    assert form.matrix.shape == (2692, 2692)
    assert full.kernel_dim == 2
    assert constrained.kernel_dim == 0
    np.testing.assert_allclose(constrained.lambda_min, 0.021259754861973623,
                               rtol=1e-9, atol=0.0)
    np.testing.assert_allclose(full.eigenvalues[-1], 98.71634717049919,
                               rtol=1e-9, atol=0.0)


def test_kernel_dims_stable_under_tolerance(basis2d, sigma2d_box):
    gs = build_ground_state(basis2d, sigma2d_box)
    form = hessian_assemble(gs)
    for rtol in (1e-10, 1e-9, 1e-8):
        assert hessian_spectrum(form, subspace="full", kernel_rtol=rtol).kernel_dim == 4


def test_hessian_gauge_row_is_zero(gs1d):
    # the gauge direction carries curvature of the unconstrained energy,
    # D^2 E[i psi0] = 2 omega0 Z > 0, so the full kernel excludes it
    y = TangentVector(
        CIVector(gs1d.basis, 1j * gs1d.psi_alpha().values),
        np.zeros((2, 1)),
        np.zeros((2, 1)),
    )
    assert quadratic_form(gs1d, y) == pytest.approx(
        gs1d.omega0 * gs1d.Z, rel=1e-12
    )


@pytest.mark.parametrize("case", ["gs1d", "gs3d"])
def test_translation_perturbation_is_unit_translation(case, request):
    gs = request.getfixturevalue(case)
    for axis in range(gs.spec.dimension):
        y = translation_perturbation(gs, axis)
        expected = np.zeros((gs.spec.n_ions, gs.spec.dimension))
        expected[:, axis] = 1.0 / np.linalg.norm(np.ones(gs.spec.n_ions))
        np.testing.assert_array_equal(y.kappa, expected)
        assert not y.phi.values.any() and not y.pi.any()
        assert y.v_norm() == pytest.approx(1.0, rel=1e-15)


def test_hessian_translation_row_is_zero(gs1d):
    for axis in range(gs1d.spec.dimension):
        y = translation_perturbation(gs1d, axis)
        assert abs(quadratic_form(gs1d, y)) <= 1e-12


def test_hessian_momentum_block(gs1d):
    mass = gs1d.mass
    y = TangentVector(
        CIVector.zeros(gs1d.basis),
        np.zeros((2, 1)),
        np.array([[1.0], [0.0]]),
    )
    assert quadratic_form(gs1d, y) == pytest.approx(0.5 / mass, rel=1e-12)


# --- distance ---


def test_distance_zero_on_manifold(basis1d, sigma1d):
    gs = build_ground_state(basis1d, sigma1d)
    # rotate, shift, and wrap: still on the manifold
    shifted = build_ground_state(basis1d, sigma1d, r=[0.7], alpha=1.3)
    result = distance_to_manifold(shifted.state(), gs)
    assert result.distance <= 1e-12
    assert result.alpha == pytest.approx(1.3)
    assert result.r[0] == pytest.approx(0.7)


def test_distance_shift_near_period(basis1d, sigma1d):
    # a uniform shift just below the period is on the manifold
    gs = build_ground_state(basis1d, sigma1d)
    state = CrystalState(
        gs.psi0.copy(),
        IonState(np.full((2, 1), 1.95), np.zeros((2, 1)), 1.0),
    )
    result = distance_to_manifold(state, gs)
    assert result.distance <= 1e-12
    assert result.r[0] == pytest.approx(1.95)


def test_distance_wrap_straddles_zero(basis1d, sigma1d):
    # displacements 1.99 and 0.01 straddle the period: the naive mean 1.0 is
    # the worst shift, the wrapped minimizer is r = 0 with residues +-0.01
    gs = build_ground_state(basis1d, sigma1d)
    state = CrystalState(
        gs.psi0.copy(),
        IonState(np.array([[1.99], [0.01]]), np.zeros((2, 1)), 1.0),
    )
    result = distance_to_manifold(state, gs)
    assert result.ion_part == pytest.approx(np.hypot(0.01, 0.01), rel=1e-9)
    assert min(result.r[0], 2.0 - result.r[0]) <= 1e-12


def test_distance_decomposition(gs1d):
    y = random_tangent(gs1d, seed=7)
    state = perturbed_state(gs1d, y, 0.05)
    result = distance_to_manifold(state, gs1d)
    assert result.distance == pytest.approx(
        result.psi_part + result.ion_part + result.momentum_part
    )
    assert result.distance > 0.0
    assert result.momentum_part == pytest.approx(
        0.05 * np.linalg.norm(y.pi), rel=1e-12
    )


def test_distance_scales_linearly(gs1d):
    y = sample_tangent_perturbation(gs1d, np.random.default_rng(8))
    d1 = distance_to_manifold(perturbed_state(gs1d, y, 1e-3), gs1d).distance
    d2 = distance_to_manifold(perturbed_state(gs1d, y, 2e-3), gs1d).distance
    assert d2 / d1 == pytest.approx(2.0, rel=1e-2)
    assert d1 == pytest.approx(1e-3, rel=0.1)


def _ground_state_n3(dimension):
    # N = 3 cells per axis on the basis of the minimal sets
    spec = TorusSpec(dimension, 3, 6)
    _, omega0 = ground_occupations(spec)
    basis = enumerate_basis(spec, 2.0 * omega0 + 1e-9)
    return build_ground_state(basis, box_density(spec, 1))


def _grid_ion_part(q, n, refine=False):
    # brute force per axis: f(r) = sum wrap(q - r)^2 on 30,001 shifts over
    # [0, N]; refined on 30,001 shifts across the two cells around the best
    total = 0.0
    for column in q.T:
        def f(r):
            x = column - r[:, None]
            return ((x - n * np.rint(x / n)) ** 2).sum(axis=1)
        grid = np.linspace(0.0, n, 30001)
        values = f(grid)
        if refine:
            best, step = grid[np.argmin(values)], grid[1] - grid[0]
            values = f(np.linspace(best - step, best + step, 30001))
        total += values.min()
    return np.sqrt(total)


def test_distance_shift_exact_n3():
    # the minimum is the vertex r = mean(q) = 1.21667 (ion part 1.22412); the
    # neighbouring arc's vertex r = 2.21667 gives 1.23226
    gs = _ground_state_n3(1)
    q = np.array([[1.65], [0.22], [1.78]])
    state = CrystalState(gs.psi0.copy(), IonState(q, np.zeros_like(q), 1.0))
    result = distance_to_manifold(state, gs)
    assert abs(result.ion_part - _grid_ion_part(q, 3, refine=True)) <= 1e-9
    assert result.ion_part == pytest.approx(1.2241187306, abs=1e-9)
    assert result.r[0] == pytest.approx(3.65 / 3.0, abs=1e-12)


@pytest.mark.parametrize("dimension", [1, 2])
def test_distance_never_above_grid_minimum(dimension):
    # far from the manifold, uniform ion displacements: the closed-form shift
    # is never beaten by a brute-force grid
    gs = _ground_state_n3(dimension)
    rng = np.random.default_rng(2017 + dimension)
    for _ in range(200):
        q = rng.uniform(0.0, 3.0, (gs.spec.n_ions, dimension))
        state = CrystalState(gs.psi0.copy(), IonState(q, np.zeros_like(q), 1.0))
        result = distance_to_manifold(state, gs)
        assert result.distance <= _grid_ion_part(q, 3) + 1e-12


@pytest.mark.parametrize("cells", [2, 3])
def test_batched_distance_matches_single_rows_d2(cells, basis2d, sigma2d_box):
    # 4 or 9 ions per axis: every reduction over the ion axis gives each row
    # of a batch the bits of its own single-row call
    gs = (build_ground_state(basis2d, sigma2d_box) if cells == 2
          else _ground_state_n3(2))
    rng = np.random.default_rng(cells)
    rows, shape = 40, (gs.spec.n_ions, 2)
    c = gs.psi0.values + 0.1 * (rng.standard_normal((rows, gs.basis.size))
                                + 1j * rng.standard_normal((rows, gs.basis.size)))
    near = gs.r + 0.01 * rng.standard_normal((rows // 2,) + shape)
    far = rng.uniform(0.0, cells, (rows - rows // 2,) + shape)
    q = np.concatenate([near, far])
    p = rng.standard_normal((rows,) + shape)
    batch = stability._distance(c, q, p, gs)
    for row in range(rows):
        single = stability._distance(c[row:row + 1], q[row:row + 1],
                                     p[row:row + 1], gs)
        for part, value in zip(batch, single):
            assert np.array_equal(part[row:row + 1], value)


# --- perturbations ---


def test_perturbed_state_charge(gs1d):
    y = random_tangent(gs1d, seed=9)
    state = perturbed_state(gs1d, y, 0.2)
    assert state.charge() == pytest.approx(gs1d.Z, rel=1e-14)


@pytest.mark.parametrize("delta", [1e200, 1e300])
def test_perturbed_state_refuses_overflowing_charge(gs1d, delta):
    # |C + delta phi|^2 overflowed, and the rescaling set psi to zero
    y = sample_tangent_perturbation(gs1d, np.random.default_rng(3))
    with pytest.raises(AdmissibilityError, match="charge"):
        perturbed_state(gs1d, y, delta)


def test_run_refuses_non_finite_energy(gs1d):
    # momenta alone keep the charge at Z, but sum p^2 / 2M overflows
    y = TangentVector(CIVector.zeros(gs1d.basis), np.zeros((2, 1)),
                      np.array([[1.0], [-1.0]]))
    assert perturbed_state(gs1d, y, 1e300).charge() == pytest.approx(gs1d.Z)
    with pytest.raises(AdmissibilityError, match="energy"):
        run_trajectory(gs1d, y, 1e300, duration=0.01, dt=1e-3)


def test_sampled_perturbation_properties(gs1d):
    rng = np.random.default_rng(10)
    y = sample_tangent_perturbation(gs1d, rng)
    assert y.v_norm() == pytest.approx(1.0, rel=1e-12)
    vector = pack_tangent(y)
    for row in tangent_space_vectors(gs1d):
        assert abs(vector @ row) <= 1e-12 * np.linalg.norm(row)
    g = charge_constraint_gradient(gs1d)
    assert abs(vector @ g) <= 1e-12 * np.linalg.norm(g)


def test_sampled_perturbation_deterministic(gs1d):
    a = sample_tangent_perturbation(gs1d, np.random.default_rng(11))
    b = sample_tangent_perturbation(gs1d, np.random.default_rng(11))
    np.testing.assert_array_equal(a.phi.values, b.phi.values)
    np.testing.assert_array_equal(a.kappa, b.kappa)
    np.testing.assert_array_equal(a.pi, b.pi)


def test_sampling_with_shared_removed_rows(gs1d):
    # a sweep builds the removed directions once; each direction keeps its bits
    removed = stability._removed_directions(gs1d)
    for seed in (0, 1, 2):
        a = sample_tangent_perturbation(gs1d, np.random.default_rng(seed))
        b = stability._sample_tangent(gs1d, np.random.default_rng(seed), removed)
        np.testing.assert_array_equal(a.phi.values, b.phi.values)
        np.testing.assert_array_equal(a.kappa, b.kappa)
        np.testing.assert_array_equal(a.pi, b.pi)


# --- trajectories ---


def test_run_rows_distances_match_single_states(gs1d):
    # the batched distance of each record, taken on the stacked arrays,
    # is distance_to_manifold of every row state, bit for bit
    rng = np.random.default_rng
    rows = [("zero", None, 0.0),
            ("translation-0", translation_perturbation(gs1d, 0), 1e-2)]
    rows += [(f"perturbation-{seed}", sample_tangent_perturbation(gs1d, rng(seed)), delta)
             for seed in (1, 2) for delta in (1e-3, 1e-1)]
    records = stability._run_rows(gs1d, rows, duration=0.02, dt=1e-3,
                                  method="implicit_midpoint", fp_tol=1e-13,
                                  max_iterations=50)
    initial = [gs1d.state() if y is None else perturbed_state(gs1d, y, delta)
               for _, y, delta in rows]
    seen = []
    evolve(initial, gs1d.sigma, 1e-3, 0.02,
           observer=lambda t, s: seen.append(distance_to_manifold(s, gs1d).distance))
    expected = np.array(seen).reshape(-1, len(rows))
    assert [r.label for r in records] == [label for label, _, _ in rows]
    for row, record in enumerate(records):
        np.testing.assert_array_equal(record.distance, expected[:, row])


def test_control_trajectory_stays_put(gs1d):
    record = run_trajectory(gs1d, None, 0.0, duration=0.1, dt=1e-3,
                            label="zero")
    assert record.sup_distance <= 1e-9
    assert record.max_energy_drift() <= 1e-10
    assert record.max_charge_drift() <= 1e-12


def test_translation_control_stays_on_manifold(gs1d):
    y = translation_perturbation(gs1d, axis=0)
    record = run_trajectory(gs1d, y, 0.1, duration=0.1, dt=1e-3)
    # a rigid shift of ions plus zero momentum is another point of S
    assert record.sup_distance <= 1e-9


def test_perturbed_trajectory_bounded(gs1d):
    y = sample_tangent_perturbation(gs1d, np.random.default_rng(12))
    delta = 1e-2
    record = run_trajectory(gs1d, y, delta, duration=0.5, dt=1e-3)
    assert record.distance[0] == pytest.approx(delta, rel=0.1)
    assert record.sup_distance <= 10.0 * delta
    assert record.max_charge_drift() <= 1e-12


def test_cutoff_convergence_d1(spec1d, sigma1d, gs1d):
    # one perturbation of the 8 pi^2 basis, embedded into the 16 pi^2 and
    # 48 pi^2 bases (B = 22 and 68), gives the same distance at T = 2
    y = sample_tangent_perturbation(gs1d, np.random.default_rng(5))
    sizes, finals = [], []
    for budget in (16.0, 48.0):
        basis = enumerate_basis(spec1d, budget * np.pi**2)
        phi = np.zeros(basis.size, dtype=complex)
        phi[[basis.index[occ] for occ in gs1d.basis.sets]] = y.phi.values
        embedded = TangentVector(CIVector(basis, phi), y.kappa, y.pi)
        record = run_trajectory(build_ground_state(basis, sigma1d), embedded, 1e-2,
                                duration=2.0, dt=2e-3)
        sizes.append(basis.size)
        finals.append(record.final_distance)
    assert sizes == [22, 68]
    assert abs(finals[0] - finals[1]) <= 1e-8


def test_cutoff_convergence_d2():
    # one perturbation of the 7 pi^2 basis on the d = 2 perturbed box, run
    # there and embedded into the 9 pi^2 basis (B = 277 and 918), gives the
    # same distance at T = 0.4
    spec = TorusSpec(2, 2, 12)
    sigma = perturbed_box_density(spec, k=2, amplitude=0.5, decay=2.0)
    gs = build_ground_state(enumerate_basis(spec, 7.0 * np.pi**2), sigma)
    y = sample_tangent_perturbation(gs, np.random.default_rng(5))
    sizes, finals = [], []
    for budget in (7.0, 9.0):
        basis = enumerate_basis(spec, budget * np.pi**2)
        phi = np.zeros(basis.size, dtype=complex)
        phi[[basis.index[occ] for occ in gs.basis.sets]] = y.phi.values
        embedded = TangentVector(CIVector(basis, phi), y.kappa, y.pi)
        record = run_trajectory(build_ground_state(basis, sigma), embedded, 1e-2,
                                duration=0.4, dt=4e-3)
        sizes.append(basis.size)
        finals.append(record.final_distance)
    assert sizes == [277, 918]
    assert abs(finals[0] - finals[1]) <= 1e-8


def test_stability_experiment_structure(gs1d):
    result = stability_experiment(
        gs1d, deltas=[1e-3, 1e-2], n_perturbations=2, duration=0.1, dt=1e-3,
        seed=3,
    )
    labels = [r.label for r in result.records]
    assert labels[0] == "zero"
    assert labels[1] == "translation-0"
    assert sum(label.startswith("perturbation-") for label in labels) == 4
    sup = result.sup_distance_per_delta()
    assert set(sup) == {1e-3, 1e-2}
    assert sup[1e-3] <= 10.0 * 1e-3 and sup[1e-2] <= 10.0 * 1e-2
    # same seed reproduces the trajectories exactly
    again = stability_experiment(
        gs1d, deltas=[1e-3, 1e-2], n_perturbations=2, duration=0.1, dt=1e-3,
        seed=3,
    )
    for a, b in zip(result.records, again.records):
        np.testing.assert_array_equal(a.distance, b.distance)


def test_stability_experiment_matches_single_runs(gs1d):
    # the sweep steps all its rows as one batch; each record keeps the bits
    # of its own run_trajectory from the same initial state
    deltas = [1e-3, 1e-2]
    result = stability_experiment(gs1d, deltas=deltas, n_perturbations=3,
                                  duration=0.05, dt=1e-3, seed=4)
    directions = [
        sample_tangent_perturbation(gs1d, np.random.default_rng(stream))
        for stream in np.random.SeedSequence(4).spawn(3)
    ]
    expected = [("zero", None, 0.0),
                ("translation-0", translation_perturbation(gs1d, 0), 1e-2)]
    expected += [(f"perturbation-{index}", y, delta)
                 for index, y in enumerate(directions) for delta in deltas]
    assert [(r.label, r.delta) for r in result.records] == [
        (label, delta) for label, _, delta in expected]
    for record, (label, y, delta) in zip(result.records, expected):
        single = run_trajectory(gs1d, y, delta, duration=0.05, dt=1e-3)
        np.testing.assert_array_equal(record.t, single.t)
        np.testing.assert_array_equal(record.distance, single.distance)
        np.testing.assert_array_equal(record.energy, single.energy)
        np.testing.assert_array_equal(record.charge, single.charge)


def test_stability_experiment_pool_clamped(gs1d, monkeypatch):
    # a pool of one process per direction at most; a stand-in executor
    # records the size asked for and maps in this process
    sizes = []

    class SerialPool:
        def __init__(self, max_workers, mp_context):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(stability, "ProcessPoolExecutor", SerialPool)
    kwargs = dict(deltas=[1e-3, 1e-2], n_perturbations=2, duration=0.01,
                  dt=1e-3, seed=3)
    pooled = stability_experiment(gs1d, workers=64, **kwargs)
    serial = stability_experiment(gs1d, **kwargs)
    assert sizes == [2]
    assert [r.label for r in pooled.records] == [r.label for r in serial.records]
    for a, b in zip(pooled.records, serial.records):
        assert a.delta == b.delta
        np.testing.assert_array_equal(a.distance, b.distance)
        np.testing.assert_array_equal(a.energy, b.energy)



def test_import_defers_pool_modules():
    # only a sweep with workers above 1 needs a pool, so a fresh import of
    # the package and its CLI loads neither pool module
    import os
    import subprocess
    import sys

    import fermicrystal

    code = ("import sys, fermicrystal.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(fermicrystal.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_quadratic_form_symmetric_property(seed):
    # Q(Y + W) - Q(Y) - Q(W) is a symmetric pairing: matches matrix bilinearity
    spec = TorusSpec(1, 2, 16)
    basis = enumerate_basis(spec, 8.0 * np.pi**2)
    sigma = box_density(spec, 1)
    gs = build_ground_state(basis, sigma)
    rng = np.random.default_rng(seed)
    b = basis.size

    def draw():
        phi = CIVector(basis, rng.standard_normal(b) + 1j * rng.standard_normal(b))
        return TangentVector(phi, rng.standard_normal((2, 1)),
                             rng.standard_normal((2, 1)))

    y, w = draw(), draw()
    total = TangentVector(
        CIVector(basis, y.phi.values + w.phi.values),
        y.kappa + w.kappa,
        y.pi + w.pi,
    )
    cross = quadratic_form(gs, total) - quadratic_form(gs, y) - quadratic_form(gs, w)
    form = hessian_assemble(gs)
    via = float(pack_tangent(y) @ form.matrix @ pack_tangent(w))
    assert cross == pytest.approx(via, rel=1e-9, abs=1e-9)
