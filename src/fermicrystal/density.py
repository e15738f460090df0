"""Ion charge densities and their crystal-sum diagnostics.

A single ion carries the smooth density sigma with total charge
int sigma = e Z > 0.  Two structural properties of sigma control the whole
theory:

* the crystal condition sigma_hat(xi) = 0 on gamma* \\ {0}, gamma* = 2 pi Z^d,
  which makes the lattice sum sum_n sigma(x - n) identically equal to e Z
  (so a uniform electron background cancels it exactly), and

* the positivity of the matrix series

      Sigma(theta) = sum_{m in Z^d} [ (xi xi^T / |xi|^2) |sigma_hat(xi)|^2 ],
      xi = theta + 2 pi m,

  on theta in the dual cell away from 0, which decides whether the energy
  Hessian at a ground state has any flat ion directions beyond rigid
  translations.

The density rules live once, in the ``_check_*`` functions below, which
the constructors, the model and the run configuration call.

Box products sigma_k with per-axis profile chi_k (k-fold self-convolution
of the unit box) have the closed transform e Z prod_i (2 sin(s/2)/s)^k and
satisfy the crystal condition for every k; for d >= 2 they vanish on whole
hyperplanes off gamma*, so positivity fails.  The perturbed box adds a
strictly positive bump off gamma*, restoring positivity while keeping the
crystal condition and the total charge.

The closed-form sigma_hat is a sum of R per-axis products: e Z prod_i b
for the box (R = 1), plus e Z amplitude prod_i e sum_j s_j for the
perturbed box (R = d + 1; b the box profile, e the envelope, s the bump
term sin^2(xi_i / 2)).  So |sigma_hat|^2 = sum_p C_p prod_i G_{p,i}(xi_i)
over R (R + 1) / 2 pairs of products (10 for the perturbed box at
d = 3).  Sigma(theta), summed over theta + 2 pi Z^d, the product of the
1-d lattices theta_i + 2 pi Z, is then a contraction of the kernel
1/|xi|^2 on the truncation ball against 1-d tables x^t G(x), t = 0, 1,
2: the sum factorisation of tensor-product spectral methods (Orszag,
J. Comput. Phys. 37 (1980) 70).  The tables are built once per scan;
each point costs one kernel grid, one GEMM and a few small contractions.

The closed-form kinds are even in each axis on its own.  Where theta_i is
0 or pi (2 h_i = 0 mod N) the reflection xi_i -> -xi_i maps the shifts of
that axis onto themselves, so the axis is folded: summed over xi_i >= 0
with the weight 2 (1 at xi_i = 0), and every off-diagonal entry on it is
exactly 0.  They are also symmetric under axis permutations (one k, one
amplitude, one decay), so for a signed axis permutation S, which keeps
|xi| and the ball, Sigma(S theta) = S Sigma(theta) S^T: the Wiener scan
sums once per orbit of the dual cell (3 sums for the 7 points at d = 3,
N = 2) and maps the other points.  Sampled kinds (grid, fourier) need
neither symmetry: at every point they are summed over the retained
frequencies of its lattice class, the table rows h' = h mod N.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import ConfigError, FrequencyDomainError, InvalidDensityError
from .torus import (
    TWO_PI,
    FourierScalarField,
    TorusSpec,
    bloch_waves,
    dft_forward,
    dft_inverse,
    frequency_table,
    integer_box,
    lattice_points,
)


def _check_order(k, perturbed: bool) -> None:
    """Refuse a box order k that is not an integer >= 1, or, for the
    perturbed box, not even (see ``perturbed_box_density``)."""
    if not isinstance(k, numbers.Integral) or k < 1:
        raise InvalidDensityError(f"box order k must be an integer >= 1, got {k!r}")
    if perturbed and k % 2:
        raise InvalidDensityError(
            f"perturbed box requires an even k so the sum stays nonnegative, got {k}")


def _check_bump(amplitude: float, decay: float) -> None:
    """Refuse a perturbed-box bump with amplitude <= 0 or decay <= 1/4
    (see ``perturbed_box_density``); nan fails both."""
    if not amplitude > 0.0:
        raise InvalidDensityError(f"perturbation amplitude must be positive, got {amplitude}")
    if not 4.0 * decay > 1.0:
        raise InvalidDensityError(
            f"perturbed box requires decay > 1/4 (4 * decay > 1 bounds its "
            f"spectral tail), got {decay}")


def _check_charge(charge: float, amplitude: float, dimension: int) -> None:
    """Refuse a total charge e Z <= 0, or a peak e Z (1 + amplitude d) >= |sigma_hat|
    whose square overflows a float, as the Wiener tail bounds square it."""
    if not charge > 0.0:
        raise InvalidDensityError(f"total ion charge e Z must be positive, got {charge:.3e}")
    peak = charge * (1.0 + amplitude * dimension)
    if not math.isfinite(peak * peak):
        raise InvalidDensityError(
            f"squared peak transform (e Z (1 + amplitude d))^2 = ({peak:.3e})^2 "
            f"overflows a float: lower e Z or the amplitude")


def box_profile_transform(s: np.ndarray, k: int) -> np.ndarray:
    """(2 sin(s/2)/s)^k with the value 1 at s = 0."""
    return np.sinc(np.asarray(s, dtype=float) / TWO_PI) ** k


def _envelope_factor(s: np.ndarray) -> np.ndarray:
    """1 / (1 + (s / 2 pi)^2): one axis of the bump's envelope, before ** decay."""
    return 1.0 / (1.0 + (s / TWO_PI) ** 2)


def _bump_term(s: np.ndarray) -> np.ndarray:
    """sin^2(s / 2): one axis's term of the bump, 0 exactly on 2 pi Z."""
    return np.sin(s / 2.0) ** 2


def _box_transform(axes, k: int, charge: float) -> np.ndarray:
    # ``axes`` holds one coordinate array per axis; they broadcast together,
    # so the columns of an (n, d) array and reshaped 1-d axes both work.
    return math.prod(box_profile_transform(a, k) for a in axes) * charge


def _perturbed_box_transform(
    axes, k: int, amplitude: float, decay: float, charge: float
) -> np.ndarray:
    # The bump sum_i sin^2(xi_i / 2) vanishes exactly on gamma* and nowhere
    # else; the per-axis algebraic decay keeps |sigma_hat| <= C / |xi|^2.
    axes = [np.asarray(a, dtype=float) for a in axes]
    envelope = math.prod(_envelope_factor(a) for a in axes) ** decay
    bump = sum(_bump_term(a) for a in axes)
    box = math.prod(box_profile_transform(a, k) for a in axes)
    return charge * (box + amplitude * bump * envelope)


@dataclass(eq=False)
class IonDensityModel:
    """A single-ion charge density together with its retained transform.

    Attributes
    ----------
    spec : TorusSpec
    kind : str
        One of ``box``, ``perturbed_box``, ``grid``, ``fourier``.
    Z, e : float
        Ion charge number and unit charge; total charge is e Z.
    field : FourierScalarField
        sigma_hat on the retained frequencies.
    params : tuple
        Kind-specific parameters, kept for closed-form evaluation.
    """

    spec: TorusSpec
    kind: str
    Z: float
    e: float
    field: FourierScalarField
    params: tuple = ()

    def __post_init__(self):
        amplitude = self.params[1] if self.kind == "perturbed_box" else 0.0
        _check_charge(self.charge, amplitude, self.spec.dimension)
        if not self.field.is_real(1e-10):
            raise InvalidDensityError("sigma must be real: transform not conjugate symmetric")
        total = self.field.values[self.field.table.zero]
        if abs(total - self.e * self.Z) > 1e-10 * abs(self.e * self.Z):
            raise InvalidDensityError(
                f"total charge {total:.12g} does not match e Z = {self.e * self.Z:.12g}"
            )

    @property
    def charge(self) -> float:
        return self.e * self.Z

    @property
    def closed_form(self) -> bool:
        """Whether sigma_hat has a closed form at every xi, not only samples."""
        return self.kind in ("box", "perturbed_box")

    def _transform(self, axes) -> np.ndarray:
        """Closed-form sigma_hat on per-axis coordinate arrays that broadcast."""
        if self.kind == "box":
            (k,) = self.params
            return _box_transform(axes, k, self.charge)
        k, amplitude, decay = self.params
        return _perturbed_box_transform(axes, k, amplitude, decay, self.charge)

    def sigma_tilde(self, xi: np.ndarray) -> np.ndarray:
        """Evaluate sigma_hat at arbitrary frequency vectors.

        Closed-form kinds evaluate exactly at any xi; sampled kinds can only
        look up retained coefficients and raise beyond the cutoff.
        """
        xi = np.atleast_2d(np.asarray(xi, dtype=float))
        if self.closed_form:
            return self._transform(xi.T)
        h = xi * self.spec.cells_per_axis / TWO_PI
        h_int = np.rint(h).astype(int)
        if not np.allclose(h, h_int, atol=1e-9):
            raise FrequencyDomainError("xi is not on the frequency lattice of this torus")
        return self.field.values[self.field.table.positions(h_int)]


def _field_from_transform(spec: TorusSpec, evaluate) -> FourierScalarField:
    table = frequency_table(spec)
    return FourierScalarField(spec, np.asarray(evaluate(table.xi), dtype=complex))


def box_density(spec: TorusSpec, k: int, Z: float = 1.0, e: float = 1.0) -> IonDensityModel:
    """Product box density sigma_k, centered on the ion so the transform is real."""
    _check_order(k, perturbed=False)
    field = _field_from_transform(spec, lambda xi: _box_transform(xi.T, k, e * Z))
    return IonDensityModel(spec, "box", Z, e, field, params=(k,))


def perturbed_box_density(
    spec: TorusSpec,
    k: int = 2,
    amplitude: float = 0.5,
    decay: float = 2.0,
    Z: float = 1.0,
    e: float = 1.0,
) -> IonDensityModel:
    """Box density of even order plus a bump that is positive off gamma*.

    For even k the box transform is nonnegative everywhere, so the sum with
    the strictly positive bump cannot vanish off gamma*: the genericity that
    the positivity of Sigma(theta) needs holds by construction.  The bump's
    squared envelope decays as |xi_i|^{-4 decay} per axis, and the Wiener
    scan's tail bound sums it, so decay must exceed 1/4.
    """
    _check_order(k, perturbed=True)
    _check_bump(amplitude, decay)
    field = _field_from_transform(
        spec, lambda xi: _perturbed_box_transform(xi.T, k, amplitude, decay, e * Z)
    )
    return IonDensityModel(spec, "perturbed_box", Z, e, field, params=(k, amplitude, decay))


def grid_density(
    spec: TorusSpec, samples: np.ndarray, Z: float, e: float
) -> IonDensityModel:
    """Density given by real-space grid samples of a single ion's charge;
    samples that are not finite are refused before the transform."""
    samples = np.asarray(samples, dtype=float)
    bad = np.flatnonzero(~np.isfinite(samples))
    if bad.size:
        first = tuple(int(i) for i in np.unravel_index(bad[0], samples.shape))
        raise InvalidDensityError(
            f"{bad.size} of {samples.size} density samples are not finite, the first "
            f"at grid index {first}")
    field = dft_forward(samples, spec)
    return IonDensityModel(spec, "grid", Z, e, field)


def fourier_density(
    spec: TorusSpec, field: FourierScalarField, Z: float, e: float
) -> IonDensityModel:
    """Density given directly by retained Fourier coefficients."""
    return IonDensityModel(spec, "fourier", Z, e, field.copy())


def load_density_file(path) -> IonDensityModel:
    """Read a grid density file: header ``d N n_g Z e``, then n_g^d samples.

    Samples are whitespace separated in C order (last axis fastest).  A path
    that cannot be read raises :class:`ConfigError`; a file no density can
    come from raises :class:`InvalidDensityError` naming the path.
    """
    try:
        with open(path) as handle:
            tokens = handle.read().split()
    except OSError as exc:
        raise ConfigError(f"cannot read density file {path}: {exc.strerror}") from None
    if len(tokens) < 5:
        raise InvalidDensityError(f"density file {path}: missing header fields")
    try:
        d, n, n_g = int(tokens[0]), int(tokens[1]), int(tokens[2])
        z_val, e_val = float(tokens[3]), float(tokens[4])
        values = np.array([float(t) for t in tokens[5:]])
        spec = TorusSpec(d, n, n_g)  # refuses a header naming no valid torus
    except ValueError as exc:
        raise InvalidDensityError(f"density file {path}: {exc}") from None
    if values.size != n_g**d:
        raise InvalidDensityError(
            f"density file {path}: expected {n_g**d} samples, found {values.size}"
        )
    try:  # the sample and model rules are grid_density's
        return grid_density(spec, values.reshape((n_g,) * d), z_val, e_val)
    except InvalidDensityError as exc:
        raise InvalidDensityError(f"density file {path}: {exc}") from None


@dataclass(eq=False)
class JelliumResult:
    passes: bool
    worst_h: Optional[tuple]
    worst_value: float
    tolerance: float


def jellium_check(
    model: IonDensityModel, tol: float = 1e-10, radius: Optional[float] = None
) -> JelliumResult:
    """Verify sigma_hat = 0 on gamma* \\ {0} up to tol * e Z.

    Closed-form densities are scanned over all of gamma* within ``radius``
    (default: the retained cutoff); sampled densities over the retained set.
    Returns the worst offender so failures are actionable.
    """
    spec = model.spec
    radius = spec.cutoff_radius if radius is None else float(radius)
    if model.closed_form:
        m_max = int(np.floor(radius / TWO_PI + 1e-9))
        m = integer_box(-m_max, m_max + 1, spec.dimension)
        m = m[np.any(m != 0, axis=1)]
        xi = TWO_PI * m.astype(float)
        keep = np.sqrt((xi**2).sum(axis=1)) <= radius + 1e-12
        m, xi = m[keep], xi[keep]
        values = np.abs(model.sigma_tilde(xi))
        h = m * spec.cells_per_axis
    else:
        table = model.field.table
        mask = table.gamma_star.copy()
        mask[table.zero] = False
        keep = np.sqrt(table.xi_sq[mask]) <= radius + 1e-12
        h = table.h[mask][keep]
        values = np.abs(model.field.values[mask][keep])
    threshold = tol * abs(model.charge)
    if values.size == 0:
        return JelliumResult(True, None, 0.0, threshold)
    worst = int(np.argmax(values))
    return JelliumResult(
        bool(values[worst] <= threshold),
        tuple(int(c) for c in h[worst]),
        float(values[worst]),
        threshold,
    )


def uniform_ion_check(model: IonDensityModel) -> float:
    """Max deviation of the undisplaced crystal sum from the constant e Z.

    Real-space oracle: synthesize sigma on the grid once and accumulate the
    lattice sum by rolling the array, one whole-cell shift per ion.  N | n_g
    makes every shift an integer number of grid steps, so no interpolation
    enters.
    """
    spec = model.spec
    sigma_grid = dft_inverse(model.field).real
    step = spec.grid_per_axis // spec.cells_per_axis
    total = np.zeros_like(sigma_grid)
    for n in lattice_points(spec):
        total += np.roll(sigma_grid, shift=tuple(int(c) * step for c in n),
                         axis=tuple(range(spec.dimension)))
    return float(np.abs(total - model.charge).max())


@dataclass(eq=False)
class WienerPoint:
    """Sigma(theta) at one dual-cell point, with its spectral summary."""

    h: tuple
    theta: np.ndarray
    matrix: np.ndarray
    eigenvalues: np.ndarray
    kernel_dim: int
    kernel_basis: np.ndarray


@dataclass(eq=False)
class WienerReport:
    points: list
    wiener_holds: bool
    degeneracy_dim: int
    truncation_radius: float
    kernel_tolerance: float
    tail_bound: float

    def point(self, h) -> WienerPoint:
        key = tuple(int(c) for c in h)
        for p in self.points:
            if p.h == key:
                return p
        raise KeyError(f"no dual-cell point {key} in report")


@lru_cache(maxsize=64)
def _box_axis_tail(k: int, length: float) -> float:
    """sum of (2/|s|)^{2k} over a 2 pi spaced shifted 1-d lattice, |s| > length.

    The j-th nearest pair of lattice points to the origin sits at
    |s| >= pi (2j - 1) whatever the shift, so the sum is at most twice the
    tail of (2 / (pi (2j - 1)))^{2k}; 64 explicit terms plus an integral
    remainder.  Dominates the per-axis tail of |sinc(s / 2 pi)|^{2k}.
    """
    j0 = max(1, int(np.ceil((length / np.pi + 1.0) / 2.0)))
    power = 2 * k
    head = sum((2.0 / (np.pi * (2 * j - 1))) ** power for j in range(j0, j0 + 64))
    j1 = j0 + 64
    # integral test: sum_{j >= j1} f(j) <= f(j1) + int_{j1}^inf f
    remainder = (2.0 / (np.pi * (2 * j1 - 1))) ** power + (
        (2.0 / np.pi) ** power * (2 * j1 - 1) ** (1 - power) / (2 * (power - 1))
    )
    return 2.0 * (head + remainder)


@lru_cache(maxsize=64)
def _bump_axis_tail(decay: float, length: float) -> float:
    """Same per-axis tail for the envelope (1 + (s / 2 pi)^2)^{-2 decay}."""
    j0 = max(1, int(np.ceil((length / np.pi + 1.0) / 2.0)))
    arguments = np.pi * (2.0 * np.arange(j0, j0 + 64) - 1.0)
    head = float((1.0 / (1.0 + (arguments / TWO_PI) ** 2) ** (2.0 * decay)).sum())
    j1 = j0 + 64
    power = 4.0 * decay  # (1 + u^2)^{-2 decay} <= u^{-4 decay}
    remainder = (2.0 / (2 * j1 - 1)) ** power + (
        2.0**power * (2 * j1 - 1) ** (1.0 - power) / (2.0 * (power - 1.0))
    )
    return 2.0 * (head + remainder)


def _spectral_tail_bound(model: IonDensityModel, radius: float) -> float:
    """Bound on sum_{xi in theta + 2 pi Z^d, |xi| > radius} |sigma_hat(xi)|^2.

    Each dropped term of Sigma(theta) is positive semidefinite with trace
    |sigma_hat(xi)|^2, so this sum bounds the spectral error of the
    truncation.  The ball complement is covered by the union of the d slabs
    |xi_i| > radius / sqrt(d); on each slab the closed-form transforms
    factorize per axis and every full 1-d lattice sum of |sinc|^{2k} is at
    most 1 (the k-fold box convolutions are a nonnegative partition of
    unity), leaving one explicit 1-d tail per slab.
    """
    d = model.spec.dimension
    length = radius / np.sqrt(d)
    scale = model.charge**2
    if model.kind == "box":
        (k,) = model.params
        return scale * d * _box_axis_tail(k, length)
    if model.kind == "perturbed_box":
        k, amplitude, decay = model.params
        box_part = scale * d * _box_axis_tail(k, length)
        s_axis = 1.0 + _bump_axis_tail(decay, 0.0)
        # e Z amplitude d is below the peak the model checks, so its square
        # is finite even where amplitude d alone would overflow squared
        bump_part = ((model.charge * amplitude * d) ** 2 * d
                     * _bump_axis_tail(decay, length) * s_axis ** (d - 1))
        # |a + b|^2 <= 2|a|^2 + 2|b|^2 splits the box and bump contributions
        return 2.0 * (box_part + bump_part)
    raise InvalidDensityError(f"no spectral tail model for kind {model.kind!r}")


@lru_cache(maxsize=64)
def _lattice_ball_tail(radius: float, dimension: int) -> float:
    """sum of |xi|^-4 over a shifted lattice theta + 2 pi Z^d with |xi| > radius.

    Shift-independent: each lattice point is displaced by at most
    pi sqrt(d) from 2 pi m, so terms are evaluated at the pessimistic
    distance.  Enumerated out to four radii, integral bound beyond.
    """
    slack = np.pi * np.sqrt(dimension)
    m_max = int(np.ceil(4.0 * radius / TWO_PI)) + 1
    m = integer_box(-m_max, m_max + 1, dimension).astype(float)
    r_grid = TWO_PI * np.sqrt((m**2).sum(axis=1))
    keep = r_grid + slack > radius
    r_low = np.maximum(r_grid[keep] - slack, np.pi)
    exact = float((r_low**-4).sum())
    surface = {1: 2.0, 2: TWO_PI, 3: 4.0 * np.pi}[dimension]
    r_out = 4.0 * radius - slack
    powers = {1: r_out**-3 / 3.0, 2: r_out**-2 / 2.0, 3: r_out**-1}
    beyond = 2.0 * surface / TWO_PI**dimension * powers[dimension]
    return exact + beyond


def _axis_lattice(t: float, radius: float, fold: bool) -> np.ndarray:
    """The shifts t + 2 pi m with |t + 2 pi m| <= R, only those >= 0 if
    ``fold``: the truncation ball reaches no other shift of the axis."""
    m_max = int(np.ceil((radius + abs(t)) / TWO_PI)) + 1
    axis = t + TWO_PI * np.arange(0 if fold else -m_max, m_max + 1)
    return axis[np.abs(axis) <= radius + 1e-12]


def _axis_factors(model: IonDensityModel, x: np.ndarray) -> np.ndarray:
    """The per-axis factors F of a closed-form sigma_hat at x, stacked: the
    box profile, and for the perturbed box the envelope and the envelope
    times the bump term."""
    if model.kind == "box":
        (k,) = model.params
        return box_profile_transform(x, k)[None]
    k, _, decay = model.params
    envelope = _envelope_factor(x) ** decay
    return np.stack([box_profile_transform(x, k), envelope, envelope * _bump_term(x)])


def _rank_pairs(model: IonDensityModel) -> tuple[np.ndarray, np.ndarray]:
    """(C, index) with |sigma_hat(xi)|^2 = sum_p C_p prod_i G[index[i, p]](xi_i).

    sigma_hat = sum_r c_r prod_i F[row(i, r)](xi_i): the product of box
    profiles, and for the perturbed box d more terms, amplitude times the
    envelope on every axis times the bump term on axis r.  p runs over the
    pairs r <= r', C_p = c_r c_r' doubled off the diagonal, and G holds the
    products of every two of the m factors, flattened to m m rows.
    """
    d = model.spec.dimension
    c, rows = [model.charge], [[0]] * d
    if model.kind == "perturbed_box":
        c += [model.charge * model.params[1]] * d
        rows = [[0] + [2 if j == i else 1 for j in range(d)] for i in range(d)]
    pairs = [(r, t) for r in range(len(c)) for t in range(r, len(c))]
    coefficients = np.array([c[r] * c[t] * (1.0 if r == t else 2.0) for r, t in pairs])
    m = 1 + max(map(max, rows))
    return coefficients, np.array([[row[r] * m + row[t] for r, t in pairs] for row in rows])


def _rank_tables(model: IonDensityModel, values, truncation_radius: float) -> tuple:
    """(C, index, {v: (x^2, table)}) on the axis indices ``values``, once per scan.

    ``table`` (3, m m, len(x)) is x^t G on the shifts x of an axis with
    index v, t = 0, 1, 2.  Where 2 v = 0 mod N (theta_i in {0, pi}) the
    axis is folded: sigma_hat, |xi| and the ball are even in xi_i, so only
    x >= 0 is kept, its weight 2 (1 at x = 0) exact in the table.
    """
    n = model.spec.cells_per_axis
    axes = {}
    for v in values:
        fold = 2 * v % n == 0
        x = _axis_lattice((TWO_PI / n) * v, truncation_radius, fold)
        factors = _axis_factors(model, x)
        m = len(factors)
        table = np.empty((3, m * m, x.size))
        np.multiply(factors[:, None], factors, out=table[0].reshape(m, m, -1))
        if fold:
            table[0] *= np.where(x == 0.0, 1.0, 2.0)
        square = x * x
        np.multiply(table[0], x, out=table[1])
        np.multiply(table[0], square, out=table[2])
        axes[v] = square, table
    return (*_rank_pairs(model), axes)


def _separable_sum(tables: tuple, h: tuple, n: int, truncation_radius: float) -> np.ndarray:
    """Sigma(theta) at the dual-cell index h by separable factors.

    Sigma_ab = sum_p C_p sum_xi K(xi) xi_a xi_b prod_i G_{p,i}(xi_i), with
    K = 1/|xi|^2 on the ball and 0 off it: one GEMM contracts K's last axis
    against its tables for every pair and power, each further axis one
    batched product that adds its power.  The moments of total power 2 are
    the entries; an off-diagonal one on a folded axis is odd in that axis,
    an exact 0.
    """
    coefficients, index, axes = tables
    d, p = len(h), coefficients.size
    squares = [axes[v][0] for v in h]
    shape = tuple(s.size for s in squares)
    xi_sq = sum(s.reshape((-1,) + (1,) * (d - 1 - i)) for i, s in enumerate(squares))
    # xi = 0 lies on no grid off gamma*, and no |xi|^2, (2 pi / N)^2 times an
    # integer, lies within rounding of (R + 1e-12)^2: the ball's mask over
    # |xi|^2 is K
    kernel = np.divide(xi_sq <= (truncation_radius + 1e-12) ** 2, xi_sq, out=xi_sq)
    parts = [axes[v][1][:, index[i]] for i, v in enumerate(h)]
    moments = parts[-1].reshape(3 * p, -1) @ kernel.reshape(-1, shape[-1]).T
    for i in reversed(range(d - 1)):
        moments = moments.reshape(-1, p, math.prod(shape[:i]), shape[i])
        moments = (moments @ parts[i].transpose(1, 2, 0)).transpose(3, 0, 1, 2)
    # indexed by the powers (t_0, ..., t_{d-1}) in base 3, t_0 the highest digit
    moments = moments.reshape(-1, p) @ coefficients
    folded = [2 * v % n == 0 for v in h]
    matrix = np.zeros((d, d))
    for a in range(d):
        for b in range(a, d):
            if a == b or not (folded[a] or folded[b]):
                matrix[a, b] = matrix[b, a] = moments[3 ** (d - 1 - a) + 3 ** (d - 1 - b)]
    return matrix


def _sampled_sum(model: IonDensityModel, h: tuple, truncation_radius: float):
    """(Sigma(theta), tail bound) of a sampled density, summed over the class
    of h: the retained h' = h mod N, at xi = theta + 2 pi (h' - h) / N.

    A sampled transform exists only on the retained set: the truncation is
    clamped to the largest ball the per-axis alias clip keeps intact, and
    the tail models the continuation by |sigma_hat(xi)| <= C / |xi|^2 with
    C fitted on the outer half.
    """
    spec = model.spec
    n = spec.cells_per_axis
    clip = (TWO_PI / n) * ((spec.grid_per_axis - 1) // 2)
    truncation_radius = min(truncation_radius, spec.cutoff_radius, clip)
    table = model.field.table
    rows = np.flatnonzero(table.lattice_class == np.ravel_multi_index(h, (n,) * len(h)))
    # theta_i + 2 pi m_i, the bits of the shifted 1-d lattices theta_i + 2 pi Z
    xi = spec.xi(np.asarray(h)) + TWO_PI * ((table.h[rows] - h) // n)
    r = np.sqrt((xi**2).sum(axis=1))
    keep = r <= truncation_radius + 1e-12
    xi, r, amp2 = xi[keep], r[keep], np.abs(model.field.values[rows[keep]]) ** 2
    # Sigma = S^T S with rows |sigma_hat| xi / |xi|; numpy hands S^T S to
    # syrk, so Sigma is exactly symmetric
    s = xi * (np.sqrt(amp2) / r)[:, None]
    outer = r > 0.5 * truncation_radius
    if outer.any():
        c_decay = float((np.sqrt(amp2[outer]) * r[outer] ** 2).max())
    else:
        c_decay = float(abs(model.charge))
    return s.T @ s, c_decay**2 * _lattice_ball_tail(truncation_radius, spec.dimension)


def _orbit_sum(model: IonDensityModel, h: tuple, truncation_radius: float,
               tables: Optional[tuple]):
    """(Sigma(theta), tail bound) at the dual-cell index h, one call per orbit:
    from the scan's rank tables, or over h's class for a sampled kind (None)."""
    if tables is None:
        return _sampled_sum(model, h, truncation_radius)
    matrix = _separable_sum(tables, h, model.spec.cells_per_axis, truncation_radius)
    return matrix, _spectral_tail_bound(model, truncation_radius)


def wiener_matrix(
    model: IonDensityModel,
    theta_h,
    truncation_radius: float = 32.0 * TWO_PI,
) -> tuple[np.ndarray, float]:
    """Truncated series Sigma(theta) and a bound on the dropped tail.

    ``theta_h`` is the integer index of theta = (2 pi / N) h; points of
    gamma* (h = 0 mod N) are outside the domain and raise.  The series is
    2 pi Z^d periodic, so it is summed at h mod N.

    Closed-form kinds are summed by the rank expansion of |sigma_hat|^2:
    sigma_hat is a sum of R per-axis products (R = 1 for the box, d + 1 for
    the perturbed box), so Sigma_ab = sum_p C_p sum_xi (xi_a xi_b / |xi|^2)
    prod_i G_{p,i}(xi_i) over the R (R + 1) / 2 pairs p, one contraction
    of the kernel 1/|xi|^2 on the ball against 1-d tables.  Axes with
    theta_i in {0, pi} are folded onto xi_i >= 0, their off-diagonal
    entries exact zeros.  The tail bound is the rigorous per-axis one.
    Sampled kinds sum |sigma_hat|^2 xi xi^T / |xi|^2 over the retained
    frequencies of theta's lattice class, with the fitted tail model of the
    retained cutoff.
    """
    spec = model.spec
    d, n = spec.dimension, spec.cells_per_axis
    h0 = np.asarray(theta_h, dtype=int)
    if h0.shape != (d,):
        raise FrequencyDomainError(f"theta index must have {d} components")
    if np.all(h0 % n == 0):
        raise FrequencyDomainError(
            f"theta = (2 pi / N) {tuple(h0)} lies on gamma*; Sigma is defined off it"
        )
    h = tuple(int(c) for c in h0 % n)
    tables = _rank_tables(model, set(h), truncation_radius) if model.closed_form else None
    return _orbit_sum(model, h, truncation_radius, tables)


def wiener_report(
    model: IonDensityModel,
    truncation_radius: float = 32.0 * TWO_PI,
    kernel_rtol: float = 1e-9,
) -> WienerReport:
    """Scan Sigma(theta) over the dual cell and measure the flat ion space.

    For each theta = (2 pi / N) h, h in {0..N-1}^d \\ 0 (lexicographic), the
    truncated Sigma(theta) is diagonalized; eigenvalues at or below
    kernel_rtol * trace(Sigma) + tail_bound count as zero.  ``wiener_holds``
    says every point is positive definite at that tolerance.

    Closed-form kinds are summed once per orbit of the dual cell under
    signed axis permutations, from rank tables built once per scan.  Each
    axis is reflected to r_i = min(h_i, N - h_i) (sign s_i = -1 where
    h_i > r_i) and the axes are sorted stably; the sorted r is the orbit's
    representative, a dual-cell point, and Sigma(h) is s s^T *
    Sigma(representative) with rows and columns put back in h's axis
    order, exact up to rounding.  One stacked ``eigh`` diagonalises the
    representatives; orbit mates share the eigenvalues and get the
    eigenvectors permuted and signed the same way.  Sampled kinds need not
    share the symmetry: every point is its own orbit.  The tolerance and
    the flat space stay per point.

    The flat space collects the real lattice vector fields w(n) u: for
    each pair {h, -h}, u in the kernel of Sigma at its lower class h (which
    -h shares) and w the Bloch waves of h and of its partner
    (``torus.bloch_waves``).  Its dimension is the rank of the stacked
    fields, by singular values.
    """
    spec = model.spec
    n, d = spec.cells_per_axis, spec.dimension
    cell = lattice_points(spec)[1:]  # the dual cell {0..N-1}^d without its first point, the origin
    if not len(cell):  # N = 1: no point to scan, so the condition holds vacuously
        return WienerReport([], True, 0, truncation_radius, 0.0, 0.0)
    if model.closed_form:
        # theta = S theta_canon for a signed axis permutation S, and
        # Sigma(S theta) = S Sigma(theta) S^T
        reflected = np.minimum(cell, n - cell)
        signs = np.where(cell == reflected, 1.0, -1.0)
        perm = reflected.argsort(axis=1, kind="stable")
        canon = reflected[np.arange(len(cell))[:, None], perm]
        inv = perm.argsort(axis=1)
    else:
        canon, signs, inv = cell, np.ones(cell.shape), np.broadcast_to(np.arange(d), cell.shape)
    orbits = {}  # representative -> its position, in order of first appearance
    which = np.array([orbits.setdefault(c, len(orbits)) for c in map(tuple, canon.tolist())])
    tables = (_rank_tables(model, {v for c in orbits for v in c}, truncation_radius)
              if model.closed_form else None)
    sums = [_orbit_sum(model, c, truncation_radius, tables) for c in orbits]
    bases = np.stack([matrix for matrix, _ in sums])
    eigenvalues, vectors = np.linalg.eigh(bases)
    # rows and columns back in each point's axis order, then signed
    rows, columns = inv[:, :, None], inv[:, None, :]
    matrices = signs[:, :, None] * signs[:, None, :] * bases[which[:, None, None], rows, columns]
    vectors = signs[:, :, None] * vectors[which[:, None], inv]
    eigenvalues = eigenvalues[which]
    tails = np.array([tail for _, tail in sums])[which]
    ktol = kernel_rtol * matrices.trace(axis1=1, axis2=2) + tails
    kernel = eigenvalues <= ktol[:, None]
    kernel_dims = kernel.sum(axis=1).tolist()
    points = [
        WienerPoint(h, theta, matrix, values, dim, basis[:, flat])
        for h, theta, matrix, values, dim, basis, flat in zip(
            map(tuple, cell.tolist()), spec.xi(cell), matrices, eigenvalues,
            kernel_dims, vectors, kernel)
    ]
    # class c > 0 is point c - 1 of the cell
    partner, waves = bloch_waves(spec)
    degenerate_rows = [np.outer(waves[c], u).ravel()
                       for c in range(1, len(waves))
                       for u in points[min(c, partner[c]) - 1].kernel_basis.T]
    if degenerate_rows:
        stacked = np.stack(degenerate_rows)
        singular = np.linalg.svd(stacked, compute_uv=False)
        degeneracy_dim = int((singular > 1e-9 * singular[0]).sum())
    else:
        degeneracy_dim = 0
    return WienerReport(points, not any(kernel_dims), degeneracy_dim, truncation_radius,
                        float(ktol.max()), float(tails.max()))
