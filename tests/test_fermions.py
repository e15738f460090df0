import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermicrystal import (
    CapacityError,
    CIVector,
    FourierScalarField,
    SubstitutionTable,
    TorusSpec,
    apply_kinetic,
    apply_one_body_potential,
    check_adr,
    ci_inner,
    dft_inverse,
    enumerate_basis,
    frequency_table,
    ground_occupations,
    h1_norm,
    occupation_kinetic,
    one_body_density,
    orbital_kinetic,
    transition_density,
)


def test_orbital_kinetic(spec1d):
    assert orbital_kinetic(spec1d, (1,)) == pytest.approx(np.pi**2 / 2)
    assert orbital_kinetic(spec1d, (0,)) == 0.0
    assert occupation_kinetic(spec1d, ((-1,), (0,), (1,))) == pytest.approx(np.pi**2)


def test_ground_occupations_d1_n2(spec1d):
    sets, omega0 = ground_occupations(spec1d)
    assert omega0 == pytest.approx(np.pi**2 / 2)
    assert sorted(sets) == [((-1,), (0,)), ((0,), (1,))]


def test_ground_occupations_d1_n3():
    spec = TorusSpec(1, 3, 12)
    sets, omega0 = ground_occupations(spec)
    assert omega0 == pytest.approx((2.0 * np.pi / 3.0) ** 2)
    assert sets == [((-1,), (0,), (1,))]


def test_ground_occupations_d2_n2(spec2d):
    sets, omega0 = ground_occupations(spec2d)
    assert omega0 == pytest.approx(3.0 * np.pi**2 / 2.0)
    assert len(sets) == 4
    shell = [(-1, 0), (0, -1), (0, 1), (1, 0)]
    for occ in sets:
        assert (0, 0) in occ
        others = [h for h in occ if h != (0, 0)]
        assert all(h in shell for h in others) and len(others) == 3


def test_ground_occupations_brute_force(spec2d):
    # oracle: minimize total |k|^2 over all 4-subsets of a generous orbital pool
    pool = [(a, b) for a in range(-2, 3) for b in range(-2, 3)]
    energies = {h: occupation_kinetic(spec2d, (h,)) for h in pool}
    best, best_sets = None, []
    for combo in itertools.combinations(sorted(pool), spec2d.n_ions):
        e = sum(energies[h] for h in combo)
        if best is None or e < best - 1e-12:
            best, best_sets = e, [combo]
        elif abs(e - best) <= 1e-12:
            best_sets.append(combo)
    sets, omega0 = ground_occupations(spec2d)
    assert omega0 == pytest.approx(best)
    assert sorted(sets) == sorted(best_sets)


def test_check_adr():
    assert check_adr([((-1,), (0,)), ((1,), (2,))])  # disjoint pairs
    assert not check_adr([((-1,), (0,)), ((0,), (1,))])  # differ in one orbital
    assert check_adr([((0,), (1,))])  # single set trivially admissible
    assert check_adr([])
    assert check_adr([((0,), (1,)), ((1,), (0,))])  # one set, written twice
    assert not check_adr([((0,),), ((1,),)])  # N = 1: any two sets are one apart
    assert not check_adr([((2,), (0,)), ((0,), (1,))])  # unsorted, one apart


def _adr_pairwise(occupations) -> bool:
    # reference rule over all pairs: distinct sets differ in >= 2 orbitals
    family = [frozenset(occ) for occ in occupations]
    return all(a == b or len(a - b) >= 2
               for a, b in itertools.combinations(family, 2))


@st.composite
def _families(draw):
    # same-size sets of distinct 1-d orbitals, unsorted, with repeated sets
    size = draw(st.integers(1, 3))
    orbital = st.integers(-3, 3).map(lambda h: (h,))
    occupation = st.lists(orbital, min_size=size, max_size=size, unique=True)
    family = draw(st.lists(occupation.map(tuple), max_size=6))
    repeats = draw(st.lists(st.sampled_from(family), max_size=2)) if family else []
    return family + repeats


@settings(max_examples=200, deadline=None)
@given(_families())
def test_check_adr_matches_pairwise_rule(family):
    assert check_adr(family) == _adr_pairwise(family)



def test_enumerate_basis_contents(spec1d):
    basis = enumerate_basis(spec1d, 2.0 * np.pi**2 + 1e-9)
    # budget bounds sum |xi|^2 = pi^2 (a^2 + b^2): pairs with a^2 + b^2 <= 2
    assert basis.sets == [((-1,), (0,)), ((-1,), (1,)), ((0,), (1,))]
    assert basis.size == 3
    assert basis.n_electrons == 2
    # brute-force count at a larger budget
    big = enumerate_basis(spec1d, 8.0 * np.pi**2)
    pool = [(h,) for h in range(-7, 8)]
    count = sum(
        1
        for combo in itertools.combinations(pool, 2)
        if occupation_kinetic(spec1d, combo) * 2.0 <= 8.0 * np.pi**2 + 1e-12
    )
    assert big.size == count


def test_enumerate_basis_sorted_and_indexed(basis1d):
    assert basis1d.sets == sorted(basis1d.sets)
    for i, occ in enumerate(basis1d.sets):
        assert basis1d.index[occ] == i
        assert occ in basis1d
    _assert_kinetic_matches_sets(basis1d)


def _assert_kinetic_matches_sets(basis):
    # the per-set sums over occupation_kinetic, bit for bit
    kinetic = np.array([occupation_kinetic(basis.spec, occ) for occ in basis.sets])
    assert np.array_equal(basis.kinetic, kinetic)
    assert np.array_equal(basis.ksq_total, 2.0 * kinetic)
    assert basis.orbitals.shape == (basis.size, basis.n_electrons, basis.spec.dimension)
    assert basis.orbitals.tolist() == [list(map(list, occ)) for occ in basis.sets]


def _scanned_table(basis):
    # the table as a scan over every pool orbital in every slot of every
    # determinant, kept as the reference for the build from shared holes
    table = frequency_table(basis.spec)
    index = {tuple(row): i for i, row in enumerate(table.h.tolist())}
    pool = sorted({orbital for occ in basis.sets for orbital in occ})
    src, dst, sign, delta, neg_delta = [], [], [], [], []
    for i, occupation in enumerate(basis.sets):
        occupied = set(occupation)
        for a, k in enumerate(occupation):
            for k_new in pool:
                if k_new in occupied:
                    continue
                step = tuple(x - y for x, y in zip(k_new, k))
                if step not in index:
                    continue
                target = tuple(sorted(occupied - {k} | {k_new}))
                j = basis.index.get(target)
                if j is None:
                    continue
                b = target.index(k_new)
                src.append(i)
                dst.append(j)
                sign.append(-1.0 if (a - b) % 2 else 1.0)
                delta.append(index[step])
                neg_delta.append(index[tuple(-s for s in step)])
    return {
        "src": np.array(src, dtype=np.intp), "dst": np.array(dst, dtype=np.intp),
        "sign": np.array(sign), "delta": np.array(delta, dtype=np.intp),
        "neg_delta": np.array(neg_delta, dtype=np.intp),
    }


@pytest.mark.parametrize("geometry, budget, size", [
    ((1, 2, 16), 0.0, 0),
    ((1, 2, 16), 8.0, 10),
    ((2, 2, 12), 8.0, 558),
    ((2, 2, 12), 11.0, 2002),
    # d = 3, 8 slots; the grid's |h_j| <= 2 clip drops some steps
    ((3, 2, 6), 9.0, 416),
], ids=["empty", "B10", "B558", "B2002", "d3-B416"])
def test_substitution_table_matches_scan(geometry, budget, size):
    basis = enumerate_basis(TorusSpec(*geometry), budget * np.pi**2)
    assert basis.size == size
    _assert_kinetic_matches_sets(basis)
    table = SubstitutionTable(basis)
    for name, expected in _scanned_table(basis).items():
        array = getattr(table, name)
        assert array.dtype == expected.dtype, name
        assert np.array_equal(array, expected), name


def test_enumerate_basis_capacity(spec1d):
    with pytest.raises(CapacityError):
        enumerate_basis(spec1d, 8.0 * np.pi**2, capacity=3)


def test_substitution_table_signs(spec1d):
    basis = enumerate_basis(spec1d, 8.0 * np.pi**2)
    sub = basis.substitutions()
    table = frequency_table(spec1d)
    for src, dst, sign, delta in zip(sub.src[:200], sub.dst[:200], sub.sign[:200],
                                     sub.delta[:200]):
        source, target = basis.sets[src], basis.sets[dst]
        removed = [h for h in source if h not in target]
        added = [h for h in target if h not in source]
        assert len(removed) == 1 and len(added) == 1
        # delta indexes xi(added) - xi(removed)
        expect_h = np.array(added[0]) - np.array(removed[0])
        assert tuple(table.h[delta]) == tuple(expect_h)
        a = source.index(removed[0])
        b = target.index(added[0])
        assert sign == (-1 if (a - b) % 2 else 1)


def grid_orbital(spec, h):
    # plane-wave orbital exp(i k x) / sqrt |T| sampled on the grid
    axes = np.meshgrid(*([spec.grid_axes()] * spec.dimension), indexing="ij")
    phase = sum(spec.xi(np.array(h))[a] * axes[a] for a in range(spec.dimension))
    return np.exp(1j * phase) / np.sqrt(spec.volume)


def determinant_density_grid(spec, sets, coefficients):
    """Brute-force electron density of sum_K C_K D_K on the real-space grid.

    rho(x) = sum_{K K'} C_K conj(C_K') <a_K'(x)^ a_K(x)> expanded through
    the one-orbital overlap structure of determinants; here computed from
    the N-particle wavefunction on a product grid, which is affordable for
    two electrons in d = 1.
    """
    n_g = spec.grid_per_axis
    x = spec.grid_axes()
    psi = np.zeros((n_g, n_g), dtype=complex)
    for occ, coeff in zip(sets, coefficients):
        a = np.exp(1j * spec.xi(np.array(occ[0]))[0] * x) / np.sqrt(spec.volume)
        b = np.exp(1j * spec.xi(np.array(occ[1]))[0] * x) / np.sqrt(spec.volume)
        slater = (np.outer(a, b) - np.outer(b, a)) / np.sqrt(2.0)
        psi += coeff * slater
    # one-body density: 2 int |psi(x, y)|^2 dy
    return 2.0 * (np.abs(psi) ** 2).sum(axis=1) * spec.grid_spacing


def test_one_body_density_brute_force(spec1d):
    # the spectral transition machinery against an explicit 2-electron grid
    basis = enumerate_basis(spec1d, 8.0 * np.pi**2)
    rng = np.random.default_rng(8)
    values = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
    psi = CIVector(basis, values)
    rho = one_body_density(psi, e=1.0)
    grid = -dft_inverse(rho).real  # electron density carries charge -e
    oracle = determinant_density_grid(spec1d, basis.sets, values)
    np.testing.assert_allclose(grid, oracle, atol=1e-10)


def test_single_determinant_density_uniform(spec1d, basis1d):
    sets, _ = ground_occupations(spec1d)
    psi = CIVector.from_occupations(basis1d, {sets[0]: 1.0})
    rho = one_body_density(psi, e=1.0)
    table = frequency_table(spec1d)
    assert rho.values[table.zero] == pytest.approx(-2.0)  # -e nbar Q
    off = np.delete(rho.values, table.zero)
    assert np.abs(off).max() == 0.0


def test_adr_violating_mixture_density(spec1d, basis1d):
    # equal superposition of the two minimal sets differing in one orbital:
    # the density picks up a cosine of amplitude eZ/2
    sets, _ = ground_occupations(spec1d)
    amp = 1.0 / np.sqrt(2.0)
    psi = CIVector.from_occupations(basis1d, {sets[0]: amp, sets[1]: amp})
    rho = one_body_density(psi, e=1.0)
    grid = dft_inverse(rho).real
    deviation = np.abs(grid - grid.mean()).max()
    assert deviation == pytest.approx(0.5, rel=1e-10)


def test_transition_density_conjugation(basis1d):
    # P_{psi chi}(xi) = conj(P_{chi psi}(-xi))
    rng = np.random.default_rng(9)
    b = basis1d.size
    psi = CIVector(basis1d, rng.standard_normal(b) + 1j * rng.standard_normal(b))
    chi = CIVector(basis1d, rng.standard_normal(b) + 1j * rng.standard_normal(b))
    p_ab = transition_density(psi, chi)
    p_ba = transition_density(chi, psi)
    table = frequency_table(basis1d.spec)
    np.testing.assert_allclose(p_ab.values, np.conj(p_ba.values[table.conj]),
                               atol=1e-12)


def test_transition_density_zero_mode(basis1d):
    rng = np.random.default_rng(10)
    b = basis1d.size
    psi = CIVector(basis1d, rng.standard_normal(b) + 1j * rng.standard_normal(b))
    chi = CIVector(basis1d, rng.standard_normal(b) + 1j * rng.standard_normal(b))
    p = transition_density(psi, chi)
    table = frequency_table(basis1d.spec)
    assert p.values[table.zero] == pytest.approx(
        basis1d.n_electrons * ci_inner(psi, chi), abs=1e-12
    )


def one_body_matrix_oracle(basis, phi):
    """Dense matrix of the multiplication operator on single-particle basis.

    For a one-electron basis the determinant machinery must reduce to plain
    grid quadrature of phi(x) e_k(x) conj(e_k'(x)).
    """
    spec = basis.spec
    phi_grid = dft_inverse(phi)
    weights = spec.grid_spacing**spec.dimension
    orbitals = [grid_orbital(spec, occ[0]) for occ in basis.sets]
    matrix = np.zeros((basis.size, basis.size), dtype=complex)
    for i, oi in enumerate(orbitals):
        for j, oj in enumerate(orbitals):
            matrix[i, j] = (np.conj(oi) * phi_grid * oj).sum() * weights
    return matrix


def test_apply_potential_single_electron_oracle():
    # nbar = N^d, so N = 1 gives a genuine one-electron problem where the
    # determinant machinery must reduce to plain grid quadrature
    spec = TorusSpec(1, 1, 16)
    basis = enumerate_basis(spec, (4.0 * spec.xi(np.array([1]))[0]) ** 2)
    assert basis.n_electrons == 1
    table = frequency_table(spec)
    rng = np.random.default_rng(11)
    values = rng.standard_normal(table.size) + 1j * rng.standard_normal(table.size)
    values = values + np.conj(values[table.conj])  # real potential
    values[table.zero] = 0.7 * spec.volume
    phi = FourierScalarField(spec, values)
    matrix = one_body_matrix_oracle(basis, phi)
    psi_values = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
    psi = CIVector(basis, psi_values)
    result = apply_one_body_potential(psi, phi)
    np.testing.assert_allclose(result.values, matrix @ psi_values, atol=1e-10)


def test_apply_potential_hermitian(basis1d):
    # real phi gives a hermitian operator: <phi psi, chi> = <psi, phi chi>
    spec = basis1d.spec
    table = frequency_table(spec)
    rng = np.random.default_rng(12)
    values = rng.standard_normal(table.size) + 1j * rng.standard_normal(table.size)
    values = values + np.conj(values[table.conj])
    phi = FourierScalarField(spec, values)
    b = basis1d.size
    psi = CIVector(basis1d, rng.standard_normal(b) + 1j * rng.standard_normal(b))
    chi = CIVector(basis1d, rng.standard_normal(b) + 1j * rng.standard_normal(b))
    left = ci_inner(apply_one_body_potential(psi, phi), chi)
    right = ci_inner(psi, apply_one_body_potential(chi, phi))
    assert left == pytest.approx(right, rel=1e-12)


def test_apply_potential_pairs_with_transition_density(basis1d):
    # <phi psi, chi> = |T|^{-1} sum_xi phi(xi) conj(P_{chi psi}(xi)) up to
    # conjugation layout; this ties the two spectral code paths together
    spec = basis1d.spec
    table = frequency_table(spec)
    rng = np.random.default_rng(13)
    values = rng.standard_normal(table.size) + 1j * rng.standard_normal(table.size)
    phi = FourierScalarField(spec, values)
    b = basis1d.size
    psi = CIVector(basis1d, rng.standard_normal(b) + 1j * rng.standard_normal(b))
    chi = CIVector(basis1d, rng.standard_normal(b) + 1j * rng.standard_normal(b))
    left = ci_inner(apply_one_body_potential(psi, phi), chi)
    p = transition_density(psi, chi)
    right = (phi.values * p.values[table.conj]).sum() / spec.volume
    assert left == pytest.approx(right, rel=1e-12)


def test_apply_kinetic_on_eigenstate(spec1d, basis1d):
    sets, omega0 = ground_occupations(spec1d)
    psi = CIVector.from_occupations(basis1d, {sets[0]: 1.0})
    out = apply_kinetic(psi)
    np.testing.assert_allclose(out.values, omega0 * psi.values, atol=1e-14)


def test_h1_norm_weights(basis1d):
    psi = CIVector.zeros(basis1d)
    psi.values[basis1d.index[basis1d.sets[0]]] = 1.0
    expected = np.sqrt(1.0 + basis1d.ksq_total[0])
    assert h1_norm(psi) == pytest.approx(expected)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_density_is_real_property(seed):
    # one-body densities of arbitrary CI vectors are real functions
    spec = TorusSpec(1, 2, 16)
    basis = enumerate_basis(spec, 8.0 * np.pi**2)
    rng = np.random.default_rng(seed)
    b = basis.size
    psi = CIVector(basis, rng.standard_normal(b) + 1j * rng.standard_normal(b))
    rho = one_body_density(psi, e=1.0)
    table = frequency_table(spec)
    np.testing.assert_allclose(rho.values, np.conj(rho.values[table.conj]),
                               atol=1e-10)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_density_charge_property(seed):
    # the zero mode always carries -e nbar ||psi||^2
    spec = TorusSpec(1, 3, 12)
    basis = enumerate_basis(spec, 6.0 * np.pi**2)
    rng = np.random.default_rng(seed)
    b = basis.size
    psi = CIVector(basis, rng.standard_normal(b) + 1j * rng.standard_normal(b))
    rho = one_body_density(psi, e=1.0)
    table = frequency_table(spec)
    assert rho.values[table.zero] == pytest.approx(-3.0 * psi.charge())
