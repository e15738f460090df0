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

Box products sigma_k with per-axis profile chi_k (k-fold self-convolution
of the unit box) have the closed transform e Z prod_i (2 sin(s/2)/s)^k and
satisfy the crystal condition for every k; for d >= 2 they vanish on whole
hyperplanes off gamma*, so positivity fails.  The perturbed box adds a
strictly positive bump off gamma*, restoring positivity while keeping the
crystal condition and the total charge.

The shifted lattice theta + 2 pi Z^d is the product of the d lattices
theta_i + 2 pi Z, and the closed-form transforms are built from per-axis
factors (a product of box profiles, a sum of per-axis bumps, a product of
envelopes), so Sigma(theta) is summed on a product grid from 1-d tables.
Its entries sum_xi w(xi) xi_i xi_j, with w = |sigma_hat|^2 / |xi|^2, are
then the one- and two-axis marginals of w against the 1-d coordinates.

The closed-form kinds (box and perturbed box) are even in each axis on its
own.  Where theta_i is 0 or pi (2 h_i = 0 mod N) the reflection
xi_i -> -xi_i maps the shifts of that axis onto themselves, so the axis is
folded: summed over xi_i >= 0 with weight 2 (weight 1 at xi_i = 0), and
every off-diagonal entry on it is exactly 0.  At N = 2 every axis of every
point is folded and the grid is about 1/2^d of the cube.  Sampled kinds
(grid, fourier) are never folded: a sampled density need not be even per
axis.

A closed-form sigma_hat is also symmetric under axis permutations (one k,
one amplitude, one decay for every axis), and the torus has one N.  So
for a signed axis permutation S, which maps theta + 2 pi Z^d onto
S theta + 2 pi Z^d and keeps |xi| and the ball, Sigma(S theta) =
S Sigma(theta) S^T term by term.  The Wiener scan sums Sigma once per
orbit of the dual cell under these maps, about N^d / (2^d d!) sums, and
builds every other point's matrix by that similarity: at d = 3, N = 2 the
7 points fall into 3 orbits.  Sampled kinds are summed at every point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import ConfigError, FrequencyDomainError, InvalidDensityError
from .torus import (
    TWO_PI,
    FourierScalarField,
    TorusSpec,
    dft_forward,
    dft_inverse,
    frequency_table,
    integer_box,
    lattice_points,
)


def box_profile_transform(s: np.ndarray, k: int) -> np.ndarray:
    """(2 sin(s/2)/s)^k with the value 1 at s = 0."""
    return np.sinc(np.asarray(s, dtype=float) / TWO_PI) ** k


# The transforms below run on the Wiener scan's full product grids, where
# every fresh full-size temporary costs its first touch page by page, so
# they update their few full-size arrays in place.  Each in-place step is
# the same IEEE operation as the expression charge * (box + amplitude *
# bump * envelope), operands swapped only where that is exact.

def _box_transform(axes, k: int, charge: float) -> np.ndarray:
    # ``axes`` holds one coordinate array per axis; they broadcast together,
    # so the columns of an (n, d) array and reshaped 1-d axes both work.
    value = math.prod(box_profile_transform(a, k) for a in axes)
    value *= charge
    return value


def _perturbed_box_transform(
    axes, k: int, amplitude: float, decay: float, charge: float
) -> np.ndarray:
    # The bump sum_i sin^2(xi_i / 2) vanishes exactly on gamma* and nowhere
    # else; the per-axis algebraic decay keeps |sigma_hat| <= C / |xi|^2.
    axes = [np.asarray(a, dtype=float) for a in axes]
    value = math.prod(1.0 / (1.0 + (a / TWO_PI) ** 2) for a in axes)
    value **= decay  # the envelope
    bump = sum(np.sin(a / 2.0) ** 2 for a in axes)
    bump *= amplitude
    value *= bump
    del bump  # its block is free for the box product
    value += math.prod(box_profile_transform(a, k) for a in axes)
    value *= charge
    return value


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
        if self.e * self.Z <= 0.0:
            raise InvalidDensityError(
                f"total ion charge e Z must be positive, got {self.e * self.Z:.3e}"
            )
        if not self.field.is_real(1e-10):
            raise InvalidDensityError("sigma must be real: transform not conjugate symmetric")
        total = self.field.values[self.field.table.zero]
        if abs(total - self.e * self.Z) > 1e-10 * abs(self.e * self.Z):
            raise InvalidDensityError(
                f"total charge {total:.12g} does not match e Z = {self.e * self.Z:.12g}"
            )
        # |sigma_hat| <= e Z (1 + amplitude d), and the Wiener tail bounds
        # square it: a Python float squared by ** raises on overflow
        amplitude = self.params[1] if self.kind == "perturbed_box" else 0.0
        peak = self.charge * (1.0 + amplitude * self.spec.dimension)
        if not math.isfinite(peak * peak):
            raise InvalidDensityError(
                f"squared peak transform (e Z (1 + amplitude d))^2 = ({peak:.3e})^2 "
                f"overflows a float"
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
    if k < 1:
        raise InvalidDensityError("box order k must be a positive integer")
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
    if k % 2 != 0:
        raise InvalidDensityError("perturbed box requires even k so the sum stays nonnegative")
    if amplitude <= 0.0:
        raise InvalidDensityError("perturbation amplitude must be positive")
    if not 4.0 * decay > 1.0:  # nan fails it too
        raise InvalidDensityError(
            f"perturbed box requires decay > 1/4 (4 * decay > 1 bounds its "
            f"spectral tail), got {decay}")
    field = _field_from_transform(
        spec, lambda xi: _perturbed_box_transform(xi.T, k, amplitude, decay, e * Z)
    )
    return IonDensityModel(spec, "perturbed_box", Z, e, field, params=(k, amplitude, decay))


def grid_density(
    spec: TorusSpec, samples: np.ndarray, Z: float, e: float
) -> IonDensityModel:
    """Density given by real-space grid samples of a single ion's charge."""
    samples = np.asarray(samples, dtype=float)
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
    that cannot be read raises :class:`ConfigError`.
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
    return grid_density(spec, values.reshape((n_g,) * d), z_val, e_val)


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
    if model.charge <= 0.0:
        raise InvalidDensityError("jellium check needs positive total charge")
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


def wiener_matrix(
    model: IonDensityModel,
    theta_h,
    truncation_radius: float = 32.0 * TWO_PI,
) -> tuple[np.ndarray, float]:
    """Truncated series Sigma(theta) and a bound on the dropped tail.

    ``theta_h`` is the integer index of theta = (2 pi / N) h; points of
    gamma* (h = 0 mod N) are outside the domain and raise.  Closed-form
    densities get the rigorous per-axis tail bound; sampled kinds clamp the
    truncation to the retained cutoff and model the unknown continuation by
    |sigma_hat(xi)| <= C / |xi|^2 with C fitted on the outer half.

    For closed-form kinds every axis with theta_i in {0, pi} is folded by
    its reflection: only the shifts with xi_i >= 0 are summed, weighted 2
    (1 at xi_i = 0), and the off-diagonal entries on that axis are written
    as exact zeros.  The ball is symmetric, so this is the full sum up to
    rounding, and the tail bound is unchanged.  Sampled kinds sum the
    whole grid.  Every kind's grid keeps on each axis only the shifts with
    |xi_i| <= R, the ones the truncation ball can reach.
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
    if not model.closed_form:
        # Sampled transforms exist only on the retained set; stay inside the
        # largest ball the per-axis alias clip keeps intact.
        clip = (TWO_PI / n) * ((spec.grid_per_axis - 1) // 2)
        truncation_radius = min(truncation_radius, spec.cutoff_radius, clip)
    # Sigma is 2 pi Z^d periodic: sum over the shifts of the dual-cell theta
    h = h0 % n
    theta = spec.xi(h)
    m_max = int(np.ceil((truncation_radius + np.linalg.norm(theta)) / TWO_PI)) + 1
    shifts = TWO_PI * np.arange(-m_max, m_max + 1)
    # an axis with theta_i in {0, pi} maps its shifts onto themselves under
    # xi_i -> -xi_i, which keeps a closed-form sigma_hat, |xi| and the ball:
    # sum it over xi_i >= 0 with weight 2 (1 at xi_i = 0)
    folded = model.closed_form & (2 * h % n == 0)
    # axis i of the product grid holds the theta_i + 2 pi m_i inside the
    # ball's extent; |xi_i| > R puts |xi| > R, so the cut drops no kept term
    axes = []
    for i, (t, fold) in enumerate(zip(theta, folded)):
        axis = t + (shifts[m_max:] if fold else shifts)
        axis = axis[np.abs(axis) <= truncation_radius + 1e-12]
        axes.append(axis.reshape((-1,) + (1,) * (d - 1 - i)))
    xi_sq = sum(a**2 for a in axes)
    # |xi|^2 is (2 pi / N)^2 times an integer, so no |xi|^2 lies within
    # rounding of (R + 1e-12)^2: this keeps the points |xi| <= R + 1e-12 keeps
    keep = (xi_sq <= (truncation_radius + 1e-12) ** 2) & (xi_sq > 1e-24)
    if model.closed_form:
        amp2 = np.square(model._transform(axes))  # real: |x|^2 = x * x exactly
    else:
        kept = np.stack([np.broadcast_to(a, keep.shape)[keep] for a in axes], axis=1)
        amp2 = np.zeros(keep.shape)
        amp2[keep] = np.abs(model.sigma_tilde(kept)) ** 2
        r = np.sqrt(xi_sq)
    if folded.any():
        # the mirror image of each xi_i > 0, as one factor of 1s, 2s and 4s:
        # exact, so the same bits as one pass per folded axis
        amp2 *= math.prod(np.where(a == 0.0, 1.0, 2.0) for a, fold in zip(axes, folded)
                          if fold)
    # Sigma_ij = sum w xi_i xi_j, contracted through the marginals of w;
    # xi_sq is not read again, so w takes its place (finite, so the mask
    # zeroes the dropped entries exactly)
    w = np.divide(amp2, xi_sq, out=xi_sq, where=keep)
    w *= keep
    coords = [a.ravel() for a in axes]
    matrix = np.zeros((d, d))
    for i in range(d):
        for j in range(i, d):
            if i != j and (folded[i] or folded[j]):
                continue  # xi_i xi_j is odd in the folded axis: the entry is 0
            marginal = w.sum(axis=tuple(a for a in range(d) if a not in (i, j)))
            matrix[i, j] = matrix[j, i] = (
                coords[i] ** 2 @ marginal if i == j else coords[i] @ marginal @ coords[j]
            )

    if model.closed_form:
        tail = _spectral_tail_bound(model, truncation_radius)
    else:
        outer = keep & (r > 0.5 * truncation_radius)
        if outer.any():
            c_decay = float((np.sqrt(amp2[outer]) * r[outer] ** 2).max())
        else:
            c_decay = float(abs(model.charge))
        tail = c_decay**2 * _lattice_ball_tail(truncation_radius, spec.dimension)
    return matrix, tail


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

    Closed-form kinds call ``wiener_matrix`` once per orbit of the dual
    cell under signed axis permutations.  With v = h mod N, each axis is
    reflected to r_i = min(v_i, N - v_i) (sign s_i = -1 where v_i > r_i)
    and the axes are sorted stably; the sorted r is the orbit's
    representative, itself a dual-cell point, and Sigma(h) is
    s s^T * Sigma(representative) with rows and columns put back in h's
    axis order.  The similarity is exact, so this is the direct sum up to
    rounding; the tail bound is the representative's.  The representative
    is diagonalised once: its orbit mates share its eigenvalues, and their
    eigenvectors are its own, permuted and signed the same way.  Sampled
    kinds need not share the symmetry and get one ``wiener_matrix`` call and
    one diagonalization per point.  The tolerance and the flat space stay
    per point.

    The flat space collects the real lattice vector fields
    v(n) = Re / Im of exp(-i theta n) v_hat with Sigma(theta) v_hat = 0;
    conjugate pairs (theta, -theta) are taken once with both quadratures,
    self-paired points (2 theta in gamma*) only with the real one.  Its
    dimension is the rank of the stacked vectors, by singular values.
    """
    spec = model.spec
    n = spec.cells_per_axis
    ions = lattice_points(spec)
    points = []
    holds = True
    tolerance = 0.0
    tail_used = 0.0
    degenerate_rows = []
    seen_pairs = set()
    bases = {}  # closed-form Sigma and its eigh per orbit representative
    # the dual cell {0..N-1}^d without its first point, the origin
    for h in map(tuple, ions[1:].tolist()):
        if model.closed_form:
            # theta = S theta_canon for a signed axis permutation S, and
            # Sigma(S theta) = S Sigma(theta) S^T: sum and diagonalise the
            # orbit once; S maps the eigenvectors, the eigenvalues stay
            v = np.asarray(h) % n
            r = np.minimum(v, n - v)
            signs = np.where(v == r, 1.0, -1.0)
            perm = np.argsort(r, kind="stable")
            canon = tuple(int(x) for x in r[perm])
            if canon not in bases:
                base, tail = wiener_matrix(model, canon, truncation_radius)
                bases[canon] = base, tail, np.linalg.eigh(base)
            base, tail, (eigenvalues, vectors) = bases[canon]
            inv = np.argsort(perm)
            matrix = np.outer(signs, signs) * base[np.ix_(inv, inv)]
            vectors = signs[:, None] * vectors[inv]
        else:
            matrix, tail = wiener_matrix(model, h, truncation_radius)
            eigenvalues, vectors = np.linalg.eigh(matrix)
        ktol = kernel_rtol * float(np.trace(matrix)) + tail
        tolerance = max(tolerance, ktol)
        tail_used = max(tail_used, tail)
        kernel = eigenvalues <= ktol
        kernel_dim = int(kernel.sum())
        points.append(
            WienerPoint(h, spec.xi(np.array(h)), matrix, eigenvalues, kernel_dim,
                        vectors[:, kernel].copy())
        )
        if kernel_dim > 0:
            holds = False
        pair = tuple(int(c) for c in (-np.asarray(h)) % n)
        if pair in seen_pairs:
            continue
        seen_pairs.add(tuple(h))
        theta = spec.xi(np.array(h))
        phase = ions @ theta
        self_paired = pair == tuple(h)
        for column in range(kernel_dim):
            u = vectors[:, kernel][:, column]
            cos_part = np.cos(phase)[:, None] * u[None, :]
            degenerate_rows.append(cos_part.ravel())
            if not self_paired:
                sin_part = np.sin(phase)[:, None] * u[None, :]
                degenerate_rows.append(sin_part.ravel())
    if degenerate_rows:
        stacked = np.stack(degenerate_rows)
        singular = np.linalg.svd(stacked, compute_uv=False)
        degeneracy_dim = int((singular > 1e-9 * singular[0]).sum())
    else:
        degeneracy_dim = 0
    return WienerReport(points, holds, degeneracy_dim, truncation_radius,
                        tolerance, tail_used)
