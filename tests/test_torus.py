import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermicrystal import (
    DimensionMismatchError,
    FourierScalarField,
    NeutralityError,
    TorusSpec,
    coulomb_energy,
    dft_forward,
    dft_inverse,
    frequency_table,
    green_apply,
    lattice_points,
)
from fermicrystal.torus import bloch_waves, integer_box

TWO_PI = 2.0 * np.pi


def random_field(spec, rng):
    table = frequency_table(spec)
    values = rng.standard_normal(table.size) + 1j * rng.standard_normal(table.size)
    return FourierScalarField(spec, values)


def test_spec_validation():
    with pytest.raises(ValueError):
        TorusSpec(4, 2, 16)
    with pytest.raises(ValueError):
        TorusSpec(1, 3, 16)  # grid not a multiple of N
    spec = TorusSpec(2, 2, 12)
    assert spec.volume == 4.0
    assert spec.n_ions == 4
    assert spec.cutoff_radius == pytest.approx(TWO_PI * 12 / 4)


@pytest.mark.parametrize("cutoff", [-5.0, float("nan"), float("inf")])
def test_spec_refuses_bad_cutoff(cutoff):
    # a negative cutoff became the default, nan and inf failed later in the
    # frequency table
    with pytest.raises(ValueError, match="cutoff_radius must be finite and nonnegative"):
        TorusSpec(1, 2, 16, cutoff_radius=cutoff)


def test_huge_finite_cutoff_is_clipped():
    # cutoff * N overflows to inf; the grid's alias clip still bounds the box
    table = frequency_table(TorusSpec(1, 2, 16, cutoff_radius=1e308))
    assert np.array_equal(table.h[:, 0], np.arange(-7, 8))


def test_frequency_table_no_aliasing():
    # retained indices stay below the per-axis alias limit even for a huge cutoff
    spec = TorusSpec(1, 2, 8, cutoff_radius=1e6)
    table = frequency_table(spec)
    assert np.abs(table.h).max() <= (8 - 1) // 2
    # distinct retained frequencies never collide on the grid
    flat = table._grid_flat
    assert len(set(flat.tolist())) == table.size


def test_frequency_table_structure(spec1d):
    table = frequency_table(spec1d)
    assert table.h[table.zero].tolist() == [0]
    # conj pairing: xi[conj[i]] = -xi[i]
    assert np.allclose(table.xi[table.conj], -table.xi)
    # gamma* marks even h for N = 2
    assert np.array_equal(table.gamma_star, table.h[:, 0] % 2 == 0)
    # lexicographic order
    assert np.array_equal(table.h, table.h[np.lexsort(table.h.T[::-1])])


@pytest.mark.parametrize("geometry", [(1, 2, 16), (2, 3, 12), (3, 2, 8), (3, 3, 9)])
def test_frequency_table_lattice_class(geometry):
    # the class h mod N, numbered like the lattice sites; gamma* is class 0
    spec = TorusSpec(*geometry)
    table = frequency_table(spec)
    n = spec.cells_per_axis
    expected = np.ravel_multi_index((table.h % n).T, (n,) * spec.dimension)
    assert np.array_equal(table.lattice_class, expected)
    assert np.array_equal(lattice_points(spec)[table.lattice_class], table.h % n)
    assert np.array_equal(table.gamma_star, table.lattice_class == 0)


@pytest.mark.parametrize("geometry", [(1, 2, 16), (2, 3, 12), (3, 2, 8), (3, 3, 9)])
def test_frequency_table_pairing_weight(geometry):
    # 1/(|xi|^2 |T|), zero at xi = 0: the Coulomb weight with the volume applied
    spec = TorusSpec(*geometry)
    table = frequency_table(spec)
    assert np.array_equal(table.pairing_weight, table.coulomb_weight / spec.volume)
    assert table.pairing_weight[table.zero] == 0.0


@pytest.mark.parametrize("geometry, cutoff", [
    ((1, 2, 8), 1e6),  # clipped to |h| <= 3 by the grid
    ((2, 2, 12), 0.0),
    ((3, 2, 6), 0.0),  # the ball |h| <= 3 clipped to |h_j| <= 2
    ((1, 3, 9), 0.0),
    ((2, 3, 12), 0.0),
    ((3, 3, 9), 5.0),
])
def test_frequency_table_lookup(geometry, cutoff):
    # the grid-slot gather against a dict over the retained rows, on a box
    # reaching past the grid so that empty slots and aliases are probed
    spec = TorusSpec(*geometry, cutoff_radius=cutoff)
    table = frequency_table(spec)
    index = {tuple(row): i for i, row in enumerate(table.h.tolist())}
    h = integer_box(-spec.grid_per_axis, spec.grid_per_axis + 1, spec.dimension)
    found, retained = table.lookup(h)
    expected = [index.get(tuple(row)) for row in h.tolist()]
    assert retained.tolist() == [i is not None for i in expected]
    assert found[retained].tolist() == [i for i in expected if i is not None]
    assert table.conj.tolist() == [index[tuple(-row)] for row in table.h]
    assert table.zero == index[(0,) * spec.dimension]
    # the set is centrally symmetric and sorted, so -h sits at the mirror
    # position and h = 0 in the middle: _FlowPlan.ion_phases relies on it
    np.testing.assert_array_equal(table.conj, np.arange(table.size)[::-1])
    assert table.zero == (table.size - 1) // 2
    with pytest.raises(DimensionMismatchError, match="not retained"):
        table.positions(h)


def test_round_trip_band_limited(spec1d):
    rng = np.random.default_rng(0)
    field = random_field(spec1d, rng)
    back = dft_forward(dft_inverse(field), spec1d)
    np.testing.assert_allclose(back.values, field.values, atol=1e-12)


def test_round_trip_2d():
    spec = TorusSpec(2, 2, 8)
    rng = np.random.default_rng(1)
    field = random_field(spec, rng)
    back = dft_forward(dft_inverse(field), spec)
    np.testing.assert_allclose(back.values, field.values, atol=1e-12)


def test_constant_field_transform(spec1d):
    # f = c on the torus has a single coefficient c |T| at xi = 0
    grid = np.full(spec1d.grid_per_axis, 3.5)
    field = dft_forward(grid, spec1d)
    table = frequency_table(spec1d)
    assert field.values[table.zero] == pytest.approx(3.5 * spec1d.volume)
    off = np.delete(field.values, table.zero)
    assert np.abs(off).max() < 1e-12


def test_pointwise_synthesis_matches_modes(spec1d):
    # inverse transform = |T|^{-1} sum F(xi) exp(-i xi x) at the grid points
    rng = np.random.default_rng(2)
    field = random_field(spec1d, rng)
    table = frequency_table(spec1d)
    x = spec1d.grid_axes()
    manual = np.zeros(len(x), dtype=complex)
    for h_row, value in zip(table.h, field.values):
        manual += value * np.exp(-1j * spec1d.xi(h_row)[0] * x)
    manual /= spec1d.volume
    np.testing.assert_allclose(dft_inverse(field), manual, atol=1e-12)


def test_parseval(spec1d):
    rng = np.random.default_rng(3)
    field = random_field(spec1d, rng)
    grid = dft_inverse(field)
    quadrature = (np.abs(grid) ** 2).sum() * spec1d.grid_spacing
    spectral = (np.abs(field.values) ** 2).sum() / spec1d.volume
    assert quadrature == pytest.approx(spectral, rel=1e-10)


def test_translation_phase(spec1d):
    # shifting samples by one grid step multiplies F(xi) by exp(i xi a)
    rng = np.random.default_rng(4)
    field = random_field(spec1d, rng)
    grid = dft_inverse(field)
    shifted = np.roll(grid, 1)  # f(x - a), a = grid spacing
    table = frequency_table(spec1d)
    expected = field.values * np.exp(1j * table.xi[:, 0] * spec1d.grid_spacing)
    np.testing.assert_allclose(dft_forward(shifted, spec1d).values, expected,
                               atol=1e-12)


def test_green_solves_poisson(spec1d):
    # rho = cos(pi x): -phi'' = rho gives phi = cos(pi x) / pi^2
    table = frequency_table(spec1d)
    rho = FourierScalarField.zeros(spec1d)
    amp = spec1d.volume / 2.0
    rho.values[table.position((1,))] = amp
    rho.values[table.position((-1,))] = amp
    phi = green_apply(rho)
    assert phi.coefficient((1,)) == pytest.approx(amp / np.pi**2)
    grid_rho = dft_inverse(rho).real
    grid_phi = dft_inverse(phi).real
    np.testing.assert_allclose(grid_phi, grid_rho / np.pi**2, atol=1e-12)


def test_green_requires_neutrality(spec1d):
    rho = FourierScalarField.zeros(spec1d)
    rho.values[frequency_table(spec1d).zero] = 1.0
    with pytest.raises(NeutralityError) as err:
        green_apply(rho)
    assert err.value.residual == pytest.approx(1.0)


def test_green_self_adjoint_positive(spec1d):
    rng = np.random.default_rng(5)
    table = frequency_table(spec1d)

    def neutral():
        f = random_field(spec1d, rng)
        f.values[table.zero] = 0.0
        return f

    a, b = neutral(), neutral()
    ga, gb = green_apply(a), green_apply(b)
    pair_ab = np.vdot(gb.values, a.values) / spec1d.volume
    pair_ba = np.vdot(b.values, ga.values) / spec1d.volume
    assert pair_ab == pytest.approx(pair_ba, rel=1e-12)
    assert coulomb_energy(a) > 0.0


def test_coulomb_energy_formula(spec1d):
    table = frequency_table(spec1d)
    rho = FourierScalarField.zeros(spec1d)
    rho.values[table.position((1,))] = 2.0
    rho.values[table.position((-1,))] = 2.0
    expected = (4.0 / np.pi**2 + 4.0 / np.pi**2) / (2.0 * spec1d.volume)
    assert coulomb_energy(rho) == pytest.approx(expected)


def test_lattice_points_order():
    pts = lattice_points(TorusSpec(2, 2, 8))
    assert pts.tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]
    pts3 = lattice_points(TorusSpec(3, 2, 4))
    assert len(pts3) == 8 and pts3[0].tolist() == [0, 0, 0]


@pytest.mark.parametrize("d, n, n_g", [(1, 2, 16), (2, 3, 12), (3, 2, 8)])
def test_lattice_points_built_once_read_only(d, n, n_g):
    spec = TorusSpec(d, n, n_g)
    pts = lattice_points(spec)
    assert np.array_equal(pts, integer_box(0, n, d))
    assert pts.dtype == integer_box(0, n, d).dtype
    assert not pts.flags.writeable
    with pytest.raises(ValueError):
        pts[0, 0] = 1
    assert lattice_points(TorusSpec(d, n, n_g)) is pts


@pytest.mark.parametrize("d, n, n_g", [(1, 3, 6), (2, 2, 8), (2, 4, 8), (3, 3, 9), (3, 4, 8)])
def test_bloch_waves(d, n, n_g):
    spec = TorusSpec(d, n, n_g)
    sites = lattice_points(spec)
    partner, waves = bloch_waves(spec)
    m = len(sites)
    np.testing.assert_array_equal(sites[partner], -sites % n)
    np.testing.assert_array_equal(partner[partner], np.arange(m))
    assert np.abs(waves @ waves.T - np.eye(m)).max() <= 1e-15
    # the lower class of a pair takes cos(theta n), the other its sine
    for h in range(m):
        lower = min(h, partner[h])
        phase = (TWO_PI / n) * (sites @ sites[lower])
        wave = np.cos(phase) if h == lower else np.sin(phase)
        np.testing.assert_allclose(wave / np.linalg.norm(wave), waves[h], atol=1e-15)
    for array in (partner, waves):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 1
    again = bloch_waves(TorusSpec(d, n, n_g))
    assert again[0] is partner and again[1] is waves


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 4), st.integers(1, 3), st.data())
def test_round_trip_property(n, d_times, data):
    # round trip holds for every admissible spec and band-limited field
    n_g = n * data.draw(st.integers(2, 4), label="multiplier")
    spec = TorusSpec(1, n, n_g)
    table = frequency_table(spec)
    seed = data.draw(st.integers(0, 2**31 - 1), label="seed")
    rng = np.random.default_rng(seed)
    field = FourierScalarField(
        spec, rng.standard_normal(table.size) + 1j * rng.standard_normal(table.size)
    )
    back = dft_forward(dft_inverse(field), spec)
    assert np.abs(back.values - field.values).max() < 1e-11


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_parseval_property_2d(seed):
    spec = TorusSpec(2, 2, 8)
    rng = np.random.default_rng(seed)
    table = frequency_table(spec)
    field = FourierScalarField(
        spec, rng.standard_normal(table.size) + 1j * rng.standard_normal(table.size)
    )
    grid = dft_inverse(field)
    quadrature = (np.abs(grid) ** 2).sum() * spec.grid_spacing**2
    spectral = (np.abs(field.values) ** 2).sum() / spec.volume
    assert abs(quadrature - spectral) < 1e-9 * max(1.0, spectral)
