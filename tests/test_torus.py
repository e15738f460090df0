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
from fermicrystal.torus import integer_box

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
    # the escape hatch drops the mean instead
    phi = green_apply(rho, enforce_neutrality=False)
    assert np.abs(phi.values).max() == 0.0


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
