import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermicrystal import (
    DimensionMismatchError,
    FourierScalarField,
    FrequencyDomainError,
    InvalidDensityError,
    TorusSpec,
    box_density,
    box_profile_transform,
    fourier_density,
    frequency_table,
    grid_density,
    jellium_check,
    load_density_file,
    perturbed_box_density,
    uniform_ion_check,
    wiener_matrix,
    wiener_report,
)
from fermicrystal import density
from fermicrystal.torus import dft_inverse, integer_box, lattice_points

TWO_PI = 2.0 * np.pi


def test_profile_transform_values():
    # one-box profile at s = pi: 2 sin(pi/2) / pi = 2 / pi
    assert box_profile_transform(np.pi, 1) == pytest.approx(2.0 / np.pi)
    assert box_profile_transform(np.pi, 2) == pytest.approx((2.0 / np.pi) ** 2)
    assert box_profile_transform(0.0, 3) == 1.0
    # zeros at the nonzero dual lattice, up to the roundoff of sin(pi)
    assert abs(box_profile_transform(TWO_PI, 1)) < 1e-15
    assert abs(box_profile_transform(-3 * TWO_PI, 2)) < 1e-15


def test_box_total_charge(spec1d):
    model = box_density(spec1d, 2, Z=3.0, e=0.5)
    assert model.charge == pytest.approx(1.5)
    table = frequency_table(spec1d)
    assert model.field.values[table.zero] == pytest.approx(1.5)


def test_box_rejects_nonpositive_charge(spec1d):
    with pytest.raises(InvalidDensityError):
        box_density(spec1d, 1, Z=-1.0)
    with pytest.raises(InvalidDensityError):
        box_density(spec1d, 0)


@pytest.mark.parametrize("decay", [-3.0, 0.0, 0.25, float("nan")])
def test_perturbed_box_rejects_slow_decay(spec2d, decay):
    # the bump's spectral tail bound holds only for 4 decay > 1
    with pytest.raises(InvalidDensityError, match="decay"):
        perturbed_box_density(spec2d, decay=decay)


@pytest.mark.parametrize("build", [
    lambda spec: perturbed_box_density(spec, k=0),
    lambda spec: perturbed_box_density(spec, k=-2),  # |sigma_hat| up to 6.6e32
    lambda spec: box_density(spec, 1.5),
], ids=["perturbed-k0", "perturbed-k-2", "box-k1.5"])
def test_density_refuses_bad_order(spec2d, build):
    # refused before the transform is built, so without a RuntimeWarning
    with pytest.raises(InvalidDensityError, match="box order k"):
        build(spec2d)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_grid_density_refuses_non_finite_samples(spec2d, bad):
    samples = np.full((spec2d.grid_per_axis,) * 2, 0.25)
    samples[3, 5] = samples[7, 1] = bad
    with pytest.raises(InvalidDensityError, match=r"2 of 64 density samples are not finite, "
                                                  r"the first at grid index \(3, 5\)"):
        grid_density(spec2d, samples, Z=1.0, e=1.0)


@pytest.mark.parametrize("build", [
    lambda spec: box_density(spec, 1, Z=1e160),
    lambda spec: perturbed_box_density(spec, amplitude=1e160),
], ids=["box-charge", "perturbed-amplitude"])
def test_density_rejects_overflowing_peak(spec2d, build):
    # (e Z (1 + amplitude d))^2 scales every Sigma entry and tail bound
    with pytest.raises(InvalidDensityError, match="peak"):
        build(spec2d)


def test_jellium_box_passes(spec1d):
    for k in (1, 2, 3):
        verdict = jellium_check(box_density(spec1d, k), radius=16.0 * np.pi)
        assert verdict.passes
        assert verdict.worst_value <= verdict.tolerance


def test_jellium_perturbed_passes(spec2d):
    verdict = jellium_check(perturbed_box_density(spec2d), radius=16.0 * np.pi)
    assert verdict.passes


def test_jellium_failure_reports_offender(spec1d):
    # plant a violation exactly at xi = 2 pi (h = N)
    table = frequency_table(spec1d)
    field = box_density(spec1d, 1).field.copy()
    n = spec1d.cells_per_axis
    field.values[table.position((n,))] += 0.05
    field.values[table.position((-n,))] += 0.05
    model = fourier_density(spec1d, field, Z=1.0, e=1.0)
    verdict = jellium_check(model)
    assert not verdict.passes
    assert verdict.worst_h in ((n,), (-n,))
    assert verdict.worst_value == pytest.approx(0.05)


def test_jellium_gaussian_fails(spec1d):
    # a smooth bump without the crystal property: clearly nonzero at 2 pi
    x = spec1d.grid_axes()
    samples = np.exp(-8.0 * (x - 1.0) ** 2)
    samples *= 1.0 / (samples.sum() * spec1d.grid_spacing)
    model = grid_density(spec1d, samples, Z=1.0, e=1.0)
    assert not jellium_check(model).passes


def test_uniform_ion_sum(spec1d, sigma1d):
    assert uniform_ion_check(sigma1d) < 1e-12
    assert uniform_ion_check(perturbed_box_density(spec1d, k=2)) < 1e-12


def test_uniform_ion_sum_fails_for_gaussian(spec1d):
    x = spec1d.grid_axes()
    samples = np.exp(-8.0 * (x - 1.0) ** 2)
    samples *= 1.0 / (samples.sum() * spec1d.grid_spacing)
    model = grid_density(spec1d, samples, Z=1.0, e=1.0)
    assert uniform_ion_check(model) > 1e-3


def test_density_file_round_trip(tmp_path, spec1d, sigma1d):
    from fermicrystal import dft_inverse

    samples = dft_inverse(sigma1d.field).real
    path = tmp_path / "density.txt"
    header = f"1 2 {spec1d.grid_per_axis} 1.0 1.0\n"
    path.write_text(header + " ".join(format(v, ".17g") for v in samples) + "\n")
    model = load_density_file(path)
    np.testing.assert_allclose(model.field.values, sigma1d.field.values, atol=1e-10)


def test_density_file_malformed(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 2 16 1.0\n")  # missing e and samples
    with pytest.raises(InvalidDensityError):
        load_density_file(path)
    path.write_text("1 2 16 1.0 1.0 " + " ".join(["0.1"] * 7))
    with pytest.raises(InvalidDensityError):
        load_density_file(path)
    # headers naming no valid torus: n_g not a multiple of N, d = 4, n_g = 0
    for header, samples in [("1 3 16", 16), ("4 2 2", 16), ("1 2 0", 0)]:
        path.write_text(f"{header} 1.0 1.0 " + " ".join(["0.1"] * samples))
        with pytest.raises(InvalidDensityError, match="bad.txt"):
            load_density_file(path)


def test_sigma_tilde_off_lattice_raises(spec1d):
    x = spec1d.grid_axes()
    samples = np.exp(-8.0 * (x - 1.0) ** 2)
    model = grid_density(spec1d, samples / (samples.sum() * spec1d.grid_spacing),
                         Z=1.0, e=1.0)
    with pytest.raises(FrequencyDomainError):
        model.sigma_tilde(np.array([[0.1234]]))


def _sampled(model):
    """Grid-sampled copy of a closed-form density."""
    return grid_density(model.spec, dft_inverse(model.field).real, model.Z, model.e)


def test_sigma_tilde_beyond_cutoff_raises(spec1d):
    model = _sampled(box_density(spec1d, 1))
    n = spec1d.cells_per_axis
    # h = n_g aliases the retained h = 0 on the grid, so it must not match
    for h in (spec1d.grid_per_axis, -9, 40):
        with pytest.raises(DimensionMismatchError, match=rf"\({h},\) is not retained"):
            model.sigma_tilde(np.array([[0.0], [TWO_PI * h / n], [TWO_PI * 50 / n]]))


def test_sigma_tilde_lookup_matches_loop():
    spec = TorusSpec(3, 2, 8)
    model = _sampled(perturbed_box_density(spec))
    table = model.field.table
    rng = np.random.default_rng(7)
    h = table.h[rng.permutation(table.size)]
    expected = np.array([model.field.values[table.position(row)] for row in h.tolist()])
    np.testing.assert_array_equal(model.sigma_tilde(spec.xi(h)), expected)


def _enumerated_wiener_matrix(model, theta_h, truncation_radius=32.0 * TWO_PI):
    """Sigma(theta) summed row by row over an enumerated box of shifts.

    The reference for ``wiener_matrix``: one (K, d) array of frequencies,
    sigma_hat per row, the unit outer products summed by one GEMM (its
    blocked sums keep the rounding of a 137k-term sum near 1e-15; an einsum
    of the products drifts to 4e-14 of the largest entry at d = 3).
    """
    spec = model.spec
    n = spec.cells_per_axis
    if not model.closed_form:
        clip = (TWO_PI / n) * ((spec.grid_per_axis - 1) // 2)
        truncation_radius = min(truncation_radius, spec.cutoff_radius, clip)
    theta = spec.xi(np.asarray(theta_h, dtype=int))
    m_max = int(np.ceil((truncation_radius + np.linalg.norm(theta)) / TWO_PI)) + 1
    shifts = integer_box(-m_max, m_max + 1, spec.dimension).astype(float)
    xi = theta[None, :] + TWO_PI * shifts
    r = np.sqrt((xi**2).sum(axis=1))
    keep = (r <= truncation_radius + 1e-12) & (r > 1e-12)
    xi, r = xi[keep], r[keep]
    amp2 = np.abs(model.sigma_tilde(xi)) ** 2
    units = xi / r[:, None]
    matrix = (amp2[:, None] * units).T @ units
    matrix = 0.5 * (matrix + matrix.T)
    if model.closed_form:
        return matrix, density._spectral_tail_bound(model, truncation_radius)
    outer = r > 0.5 * truncation_radius
    c_decay = float((np.sqrt(amp2[outer]) * r[outer] ** 2).max()) if outer.any() \
        else float(abs(model.charge))
    return matrix, c_decay**2 * density._lattice_ball_tail(truncation_radius, spec.dimension)


WIENER_SPECS = {1: TorusSpec(1, 2, 16), 2: TorusSpec(2, 3, 12), 3: TorusSpec(3, 2, 8)}
WIENER_MODELS = {
    "box1": lambda spec: box_density(spec, 1),
    "box2": lambda spec: box_density(spec, 2),
    "perturbed": lambda spec: perturbed_box_density(spec),
    "grid": lambda spec: _sampled(perturbed_box_density(spec)),
}


@pytest.mark.parametrize("d", sorted(WIENER_SPECS))
@pytest.mark.parametrize("kind", sorted(WIENER_MODELS))
def test_wiener_series_matches_enumeration(d, kind, monkeypatch):
    model = WIENER_MODELS[kind](WIENER_SPECS[d])
    reference = {}
    for h in map(tuple, lattice_points(model.spec)[1:].tolist()):
        reference[h] = _enumerated_wiener_matrix(model, h)
        matrix, tail = wiener_matrix(model, h)
        expected, expected_tail = reference[h]
        assert np.abs(matrix - expected).max() <= 1e-12 * np.abs(expected).max()
        assert tail == expected_tail
    fast = wiener_report(model)
    monkeypatch.setattr(density, "_orbit_sum", lambda m, h, radius, tables: reference[h])
    slow = density.wiener_report(model)
    assert [p.kernel_dim for p in fast.points] == [p.kernel_dim for p in slow.points]
    assert fast.wiener_holds == slow.wiener_holds
    assert fast.degeneracy_dim == slow.degeneracy_dim


def _perturbed_k4(spec):
    return perturbed_box_density(spec, k=4, amplitude=0.5, decay=0.7)


@pytest.mark.parametrize("kind", ["box1", "box2", "perturbed", "perturbed_k4"])
@pytest.mark.parametrize("spec, points", [
    pytest.param(spec, points, id=f"d{spec.dimension}-N{spec.cells_per_axis}")
    for spec, points in [
        *((spec, None) for spec in WIENER_SPECS.values()),
        # theta_i in {0, pi} beside pi / 2: folded and full axes
        (TorusSpec(2, 4, 8), None),
        (TorusSpec(3, 4, 8), [(2, 1, 0), (1, 3, 2), (3, 3, 1)]),
        (TorusSpec(3, 3, 9), None),
    ]
])
def test_wiener_separable_sum_matches_enumeration(kind, spec, points):
    # the rank-expansion contraction against the row-by-row sum, at every
    # dual-cell point (or the listed ones), with the kernel dimension the
    # report reads off
    model = _perturbed_k4(spec) if kind == "perturbed_k4" else WIENER_MODELS[kind](spec)
    report = wiener_report(model)
    for p in report.points if points is None else map(report.point, points):
        matrix, tail = wiener_matrix(model, p.h)
        expected, expected_tail = _enumerated_wiener_matrix(model, p.h)
        scale = np.abs(expected).max()
        assert np.abs(matrix - expected).max() <= 1e-13 * scale
        assert np.abs(p.matrix - expected).max() <= 1e-13 * scale
        assert tail == expected_tail
        ktol = 1e-9 * float(np.trace(expected)) + expected_tail
        assert p.kernel_dim == int((np.linalg.eigvalsh(expected) <= ktol).sum())


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("kind", ["box1", "box2", "perturbed", "perturbed_k4"])
def test_rank_expansion_reproduces_transform(d, kind):
    # |sigma_hat|^2 = sum_p C_p prod_i G[index[i, p]](xi_i) on a random
    # per-axis grid, G the products of every two per-axis factors
    spec = TorusSpec(d, 2, 8)
    model = _perturbed_k4(spec) if kind == "perturbed_k4" else WIENER_MODELS[kind](spec)
    rng = np.random.default_rng(d)
    axes = [np.sort(rng.uniform(-60.0, 60.0, 5 + i)) for i in range(d)]
    grids = [a.reshape((-1,) + (1,) * (d - 1 - i)) for i, a in enumerate(axes)]
    coefficients, index = density._rank_pairs(model)
    products = []
    for a in axes:
        factors = density._axis_factors(model, a)
        products.append((factors[:, None] * factors).reshape(-1, a.size))
    expansion = sum(
        c * math.prod(products[i][index[i, p]].reshape(grids[i].shape) for i in range(d))
        for p, c in enumerate(coefficients)
    )
    np.testing.assert_allclose(expansion, model._transform(grids) ** 2, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("kind", ["box2", "perturbed"])
def test_wiener_series_outside_dual_cell(kind):
    model = WIENER_MODELS[kind](WIENER_SPECS[2])
    for h in [(7, -3), (-2, 5)]:
        matrix, tail = wiener_matrix(model, h)
        expected, expected_tail = _enumerated_wiener_matrix(model, h)
        assert np.abs(matrix - expected).max() <= 1e-12 * np.abs(expected).max()
        assert tail == expected_tail


def _per_point_degeneracy_dim(report, spec):
    """The flat-space dimension from per-point cos/sin rows, the reference
    for ``wiener_report``'s Bloch waves: each pair {h, -h} once, at the
    first of its points, with Re and Im of exp(-i theta n) u (Re alone
    where the point is its own pair), ranked by singular values."""
    ions = lattice_points(spec)
    rows, seen = [], set()
    for p in report.points:
        pair = tuple(int(c) for c in -np.asarray(p.h) % spec.cells_per_axis)
        if pair in seen:
            continue
        seen.add(p.h)
        phase = ions @ p.theta
        for u in p.kernel_basis.T:
            rows.append((np.cos(phase)[:, None] * u[None, :]).ravel())
            if pair != p.h:
                rows.append((np.sin(phase)[:, None] * u[None, :]).ravel())
    if not rows:
        return 0
    singular = np.linalg.svd(np.stack(rows), compute_uv=False)
    return int((singular > 1e-9 * singular[0]).sum())


@pytest.mark.parametrize("kind", sorted(WIENER_MODELS))
@pytest.mark.parametrize("spec", [
    pytest.param(spec, id=f"d{spec.dimension}-N{spec.cells_per_axis}")
    for spec in [TorusSpec(2, 2, 8), TorusSpec(2, 3, 12), TorusSpec(2, 4, 16),
                 TorusSpec(3, 2, 8), TorusSpec(3, 3, 9), TorusSpec(3, 4, 8)]
])
def test_degeneracy_dim_matches_per_point_waves(kind, spec):
    report = wiener_report(WIENER_MODELS[kind](spec))
    assert report.degeneracy_dim == _per_point_degeneracy_dim(report, spec)
    if kind.startswith("box"):  # flat off the translations for d >= 2
        assert report.degeneracy_dim > 0


def test_wiener_d3_benchmark_reference():
    # the smallest eigenvalue per dual-cell point of the analysis benchmark's
    # d = 3 density, as its correctness gate pins them
    reference = [
        0.022854046480720442, 0.022854046480720605, 0.059122570619190636,
        0.02285404648072069, 0.059122570619190365, 0.059122570619190455,
        0.6008205881639774,
    ]
    model = perturbed_box_density(TorusSpec(3, 2, 8), k=2, amplitude=0.5, decay=2.0)
    report = wiener_report(model)
    assert report.wiener_holds
    lowest = [float(p.eigenvalues[0]) for p in report.points]
    np.testing.assert_allclose(lowest, reference, rtol=1e-9, atol=0.0)


def test_wiener_matrix_domain(spec1d, sigma1d):
    with pytest.raises(FrequencyDomainError):
        wiener_matrix(sigma1d, (0,))
    with pytest.raises(FrequencyDomainError):
        wiener_matrix(sigma1d, (2,))  # theta = 2 pi lies on gamma*


def test_wiener_matrix_symmetric_psd(spec2d, sigma2d_perturbed):
    for h in [(1, 0), (0, 1), (1, 1)]:
        matrix, tail = wiener_matrix(sigma2d_perturbed, h)
        assert np.allclose(matrix, matrix.T)
        assert np.linalg.eigvalsh(matrix).min() > -1e-12
        assert tail > 0.0


def test_wiener_scalar_value_d1(spec1d, sigma1d):
    # full series at theta = pi sums |sinc|^2 over odd half-integers: exactly
    # (eZ)^2; the truncation deficit must sit inside the reported tail bound
    matrix, tail = wiener_matrix(sigma1d, (1,))
    value = matrix[0, 0]
    assert value < 1.0
    assert 1.0 - value <= tail
    assert 1.0 - value > 0.5 * tail  # the bound is tight, not just valid


def test_wiener_periodicity(spec1d, sigma1d):
    # theta and theta + 2 pi N index the same dual point, which the series
    # is summed from, so the matrices are equal
    m1, _ = wiener_matrix(sigma1d, (1,))
    m2, _ = wiener_matrix(sigma1d, (1 + 2 * spec1d.cells_per_axis,))
    np.testing.assert_array_equal(m1, m2)


def test_wiener_report_d1_box_holds(spec1d, sigma1d):
    report = wiener_report(sigma1d)
    assert report.wiener_holds
    assert report.degeneracy_dim == 0
    assert len(report.points) == 1
    assert report.points[0].kernel_dim == 0


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("model", ["box", "perturbed_box"])
def test_wiener_report_one_cell(d, model):
    # N = 1: the dual cell without its origin is empty, so Sigma is never
    # evaluated and the condition holds vacuously
    spec = TorusSpec(d, 1, 8)
    sigma = box_density(spec, 1) if model == "box" else perturbed_box_density(spec, k=2)
    report = wiener_report(sigma)
    assert report.points == []
    assert report.wiener_holds is True
    assert report.degeneracy_dim == 0
    assert report.kernel_tolerance == 0.0 and report.tail_bound == 0.0


def test_wiener_report_d2_dichotomy(sigma2d_box, sigma2d_perturbed):
    degenerate = wiener_report(sigma2d_box)
    assert not degenerate.wiener_holds
    # axis points each lose the transverse direction; the corner is definite
    assert degenerate.point((1, 0)).kernel_dim == 1
    assert degenerate.point((0, 1)).kernel_dim == 1
    assert degenerate.point((1, 1)).kernel_dim == 0
    assert degenerate.degeneracy_dim == 2

    positive = wiener_report(sigma2d_perturbed)
    assert positive.wiener_holds
    assert positive.degeneracy_dim == 0
    assert min(p.eigenvalues[0] for p in positive.points) > 1e-4


def test_wiener_report_d3_box():
    spec = TorusSpec(3, 2, 8)
    report = wiener_report(box_density(spec, 1))
    assert not report.wiener_holds
    kernels = {p.h: p.kernel_dim for p in report.points}
    assert kernels[(0, 0, 1)] == kernels[(0, 1, 0)] == kernels[(1, 0, 0)] == 2
    assert kernels[(0, 1, 1)] == kernels[(1, 0, 1)] == kernels[(1, 1, 0)] == 1
    assert kernels[(1, 1, 1)] == 0
    assert report.degeneracy_dim == 9


def test_wiener_tolerance_robust(sigma2d_box):
    # the counts survive a 10x change of the relative kernel tolerance
    a = wiener_report(sigma2d_box, kernel_rtol=1e-9)
    b = wiener_report(sigma2d_box, kernel_rtol=1e-8)
    assert a.degeneracy_dim == b.degeneracy_dim
    assert [p.kernel_dim for p in a.points] == [p.kernel_dim for p in b.points]


def test_wiener_sampled_density(spec1d):
    # a sampled copy of the box density reproduces the closed-form matrix
    # on its clamped truncation ball
    from fermicrystal import dft_inverse

    sigma = box_density(spec1d, 1)
    sampled = grid_density(spec1d, dft_inverse(sigma.field).real, Z=1.0, e=1.0)
    m_sampled, tail = wiener_matrix(sampled, (1,))
    m_exact, _ = wiener_matrix(sigma, (1,), truncation_radius=spec1d.cutoff_radius)
    np.testing.assert_allclose(m_sampled, m_exact, atol=1e-10)
    assert tail > 0.0


def test_wiener_report_deterministic(sigma2d_box):
    a = wiener_report(sigma2d_box)
    b = wiener_report(sigma2d_box)
    assert a.degeneracy_dim == b.degeneracy_dim
    for pa, pb in zip(a.points, b.points):
        np.testing.assert_array_equal(pa.matrix, pb.matrix)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 3), st.integers(2, 3), st.sampled_from([1, 2]))
def test_jellium_property(k, n, d):
    # the crystal condition holds for every box order on every torus
    spec = TorusSpec(d, n, 4 * n)
    verdict = jellium_check(box_density(spec, k), radius=10.0 * np.pi)
    assert verdict.passes


@settings(max_examples=15, deadline=None)
@given(st.integers(1, 5), st.integers(0, 1))
def test_wiener_psd_property(h1, h2):
    # every truncated Sigma(theta) is symmetric positive semidefinite
    spec = TorusSpec(2, 3, 6)
    model = perturbed_box_density(spec)
    h = (h1 % 3, h2)
    if h == (0, 0):
        h = (1, 0)
    matrix, _ = wiener_matrix(model, h)
    assert np.allclose(matrix, matrix.T)
    assert np.linalg.eigvalsh(matrix).min() > -1e-12


@pytest.mark.parametrize("kind", sorted(WIENER_MODELS))
def test_wiener_report_conjugate_pairs(kind):
    # real sigma has Sigma(-theta) = Sigma(theta): the two points of a pair
    # agree up to rounding and share their verdict
    model = WIENER_MODELS[kind](WIENER_SPECS[2])
    n = model.spec.cells_per_axis
    report = wiener_report(model)
    for p in report.points:
        partner = report.point(tuple(int(c) for c in (-np.asarray(p.h)) % n))
        assert np.abs(p.matrix - partner.matrix).max() <= 1e-12 * np.abs(p.matrix).max()
        assert p.kernel_dim == partner.kernel_dim


@pytest.mark.parametrize("kind", ["box1", "box2", "perturbed"])
@pytest.mark.parametrize("spec, points", [
    (TorusSpec(2, 4, 8), [(2, 1), (1, 2), (2, 0)]),
    (TorusSpec(3, 4, 8), [(2, 1, 0)]),
])
def test_wiener_fold_mixed_axes(kind, spec, points):
    # theta_i = pi or 0 (folded) beside theta_j = pi / 2 (summed in full)
    model = WIENER_MODELS[kind](spec)
    for h in points:
        matrix, tail = wiener_matrix(model, h)
        expected, expected_tail = _enumerated_wiener_matrix(model, h)
        assert np.abs(matrix - expected).max() <= 1e-12 * np.abs(expected).max()
        assert tail == expected_tail
        folded = [i for i, c in enumerate(h) if 2 * c % spec.cells_per_axis == 0]
        for i in folded:
            for j in range(spec.dimension):
                if j != i:
                    assert matrix[i, j] == 0.0 and matrix[j, i] == 0.0


@pytest.mark.parametrize("spec, h", [
    (TorusSpec(2, 2, 8), (1, 0)),  # (5, 0) and (3, 4) lie on the shell
    (TorusSpec(2, 3, 12), (1, 0)),  # (-5, 0) and (4, 3)
    (TorusSpec(3, 2, 8), (1, 0, 0)),  # (5, 0, 0) and (3, 4, 0)
], ids=["d2-N2", "d2-N3", "d3-N2"])
def test_wiener_ball_keeps_its_shell(spec, h):
    # a radius through lattice points puts shifts exactly on the sphere:
    # the test on |xi|^2 keeps the set the test on |xi| keeps, since every
    # |xi|^2 is (2 pi / N)^2 times an integer
    n = spec.cells_per_axis
    model = perturbed_box_density(spec)
    radius = 5.0 * TWO_PI / n  # the shell |h + N m|^2 = 25
    matrix, _ = wiener_matrix(model, h, radius)
    expected, _ = _enumerated_wiener_matrix(model, h, radius)
    assert np.abs(matrix - expected).max() <= 1e-13 * np.abs(expected).max()
    inside, _ = _enumerated_wiener_matrix(model, h, radius - 1e-6)
    assert np.abs(matrix - inside).max() > 1e-6 * np.abs(expected).max()


@pytest.mark.parametrize("d", [2, 3])
def test_wiener_sampled_exactly_symmetric(d):
    # S^T S goes to syrk, which fills one triangle from the other; a plain
    # (xi^T * w) @ xi differs across the diagonal in the last bit
    model = WIENER_MODELS["grid"](WIENER_SPECS[d])
    for h in map(tuple, lattice_points(model.spec)[1:].tolist()):
        matrix, _ = wiener_matrix(model, h)
        assert np.array_equal(matrix, matrix.T)


@pytest.mark.parametrize("spec", [TorusSpec(2, 2, 16), TorusSpec(2, 3, 12)])
def test_wiener_sampled_not_folded(spec):
    # a Gaussian stretched along the diagonal: |sigma_hat|^2 has a xi_1 xi_2
    # term, so it is not even in one axis alone (an off-centre box would
    # be, as a translation only moves the phase), and folding a sampled
    # density would show at every point.  At d = 1 |sigma_hat|^2 of any
    # real sigma is even, so no d = 1 torus could tell
    half = 0.5 * spec.cells_per_axis
    x = (spec.grid_axes() + half) % spec.cells_per_axis - half
    x1, x2 = np.meshgrid(x, x, indexing="ij")
    along, across = x1 + x2, x1 - x2
    samples = np.exp(-along**2 / 0.5 - across**2 / 0.05)
    samples /= samples.sum() * spec.grid_spacing**spec.dimension
    model = grid_density(spec, samples, Z=1.0, e=1.0)
    for h in map(tuple, lattice_points(spec)[1:].tolist()):
        matrix, tail = wiener_matrix(model, h)
        expected, expected_tail = _enumerated_wiener_matrix(model, h)
        assert np.abs(matrix - expected).max() <= 1e-12 * np.abs(expected).max()
        assert tail == expected_tail
        assert abs(matrix[0, 1]) > 1e-3 * np.abs(matrix).max()


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-400.0, 400.0), min_size=3, max_size=3),
       st.sampled_from(["box1", "box2", "perturbed"]))
def test_closed_form_transform_even_per_axis(xi, kind):
    # the premise of the fold: xi_i -> -xi_i alone leaves sigma_hat unchanged
    model = WIENER_MODELS[kind](TorusSpec(3, 2, 4))
    xi = np.array(xi)
    values = model._transform(list(xi))
    for axis in range(3):
        flipped = xi.copy()
        flipped[axis] = -flipped[axis]
        assert abs(model._transform(list(flipped)) - values) <= 1e-15 * abs(model.charge)


def _orbit(h, n):
    """The signed-permutation class of a dual-cell point: sorted min(h, N - h)."""
    v = np.asarray(h) % n
    return tuple(sorted(int(x) for x in np.minimum(v, n - v)))


@pytest.mark.parametrize("kind", ["box1", "box2", "perturbed"])
@pytest.mark.parametrize("spec", [
    TorusSpec(2, 3, 12),
    TorusSpec(2, 4, 8),  # h_i = 2 reflects onto itself; h_i = 1, 3 leave off-diagonals
    TorusSpec(3, 2, 8),
    TorusSpec(3, 3, 9),
], ids=lambda s: f"d{s.dimension}-N{s.cells_per_axis}")
def test_wiener_orbit_map_matches_direct(kind, spec):
    # each closed-form point's matrix is mapped from its orbit's
    # representative: it must equal the direct sum up to rounding, signs of
    # the off-diagonal entries included, and give the same kernel
    model = WIENER_MODELS[kind](spec)
    report = wiener_report(model)
    assert len(report.points) == spec.cells_per_axis**spec.dimension - 1
    for p in report.points:
        direct, tail = wiener_matrix(model, p.h)
        assert np.abs(p.matrix - direct).max() <= 1e-12 * np.abs(direct).max()
        ktol = 1e-9 * float(np.trace(direct)) + tail
        assert p.kernel_dim == int((np.linalg.eigvalsh(direct) <= ktol).sum())


def _count_orbit_sums(model, monkeypatch):
    calls = []
    inner = density._orbit_sum

    def counted(m, h, radius, tables):
        calls.append(tuple(h))
        return inner(m, h, radius, tables)

    monkeypatch.setattr(density, "_orbit_sum", counted)
    return density.wiener_report(model), calls


def test_wiener_report_one_sum_per_orbit(monkeypatch):
    # the analysis benchmark's d = 3 density: 7 points in 3 orbits
    model = perturbed_box_density(TorusSpec(3, 2, 8), k=2, amplitude=0.5, decay=2.0)
    report, calls = _count_orbit_sums(model, monkeypatch)
    assert len(report.points) == 7
    assert calls == [(0, 0, 1), (0, 1, 1), (1, 1, 1)]


def test_wiener_report_sampled_per_point(monkeypatch):
    # a sampled density need not share the symmetry: one sum per point
    model = _sampled(perturbed_box_density(TorusSpec(3, 2, 8)))
    report, calls = _count_orbit_sums(model, monkeypatch)
    assert calls == [p.h for p in report.points] and len(calls) == 7


@pytest.mark.parametrize("spec", [TorusSpec(2, 4, 8), TorusSpec(3, 3, 9)],
                         ids=lambda s: f"d{s.dimension}-N{s.cells_per_axis}")
def test_wiener_orbit_mates_share_eigenvalues(spec):
    model = perturbed_box_density(spec)
    n = spec.cells_per_axis
    orbits = {}
    for p in wiener_report(model).points:
        orbits.setdefault(_orbit(p.h, n), []).append(p)
    assert len(orbits) < len(lattice_points(spec)) - 1
    for mates in orbits.values():
        first = mates[0].eigenvalues
        for p in mates[1:]:
            np.testing.assert_allclose(p.eigenvalues, first, rtol=0.0,
                                       atol=1e-13 * first[-1])
            assert p.kernel_dim == mates[0].kernel_dim


def test_wiener_tail_bound_small_charge_large_amplitude(spec2d):
    # (amplitude d)^2 alone overflows a float here, e Z amplitude d does not
    model = perturbed_box_density(spec2d, amplitude=1e155, Z=1e-10)
    report = wiener_report(model)
    assert np.isfinite(report.tail_bound) and report.tail_bound > 0.0
    assert report.wiener_holds
