"""Spectral toolbox on the discrete torus T = R^d / N Z^d.

Unit cells have volume 1, so |T| = N^d.  Frequencies live on the dual
lattice Xi = (2 pi / N) Z^d and are indexed by integer vectors h.  The
analysis convention used throughout the package is

    F[f](xi) = int_T exp(+i xi x) f(x) dx,
    f(x)     = |T|^{-1} sum_xi F[f](xi) exp(-i xi x),

so the h = 0 coefficient equals the integral of f, translation by a
multiplies coefficients by exp(+i xi a), and Parseval reads
int |f|^2 = |T|^{-1} sum |F[f]|^2.  Real-space grids carry n_g points per
axis at spacing N / n_g; the rectangle rule on such a grid integrates
band-limited functions exactly, which is what makes the discrete
transforms below inverses of each other.

The reciprocal lattice of the unit ion lattice Z^d is gamma* = 2 pi Z^d;
in h coordinates these are the vectors divisible by N.  They play a
special role for crystal sums and are tagged on the frequency table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatchError, NeutralityError

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class TorusSpec:
    """Geometry of the computational torus and its spectral truncation.

    Parameters
    ----------
    dimension : int
        Spatial dimension d, between 1 and 3.
    cells_per_axis : int
        Number N of unit cells per axis; the torus has N^d cells and one
        ion per cell.
    grid_per_axis : int
        Real-space grid size n_g per axis.  Must be a multiple of N so
        every lattice translation is a whole number of grid steps.
    cutoff_radius : float, optional
        Frequencies with |xi| <= cutoff_radius are retained.  Defaults to
        2 pi n_g / (2 N), the grid Nyquist radius.  Retained indices are
        additionally clipped to |h_j| <= (n_g - 1) // 2 per axis so no
        retained frequency aliases another on the grid.
    """

    dimension: int
    cells_per_axis: int
    grid_per_axis: int
    cutoff_radius: float = 0.0

    def __post_init__(self):
        d, n, n_g = self.dimension, self.cells_per_axis, self.grid_per_axis
        if not 1 <= d <= 3:
            raise ValueError(f"dimension must be 1, 2 or 3, got {d}")
        if n < 1:
            raise ValueError("cells_per_axis must be positive")
        if n_g < 2 or n_g % n != 0:
            raise ValueError(
                f"grid_per_axis must be a multiple of cells_per_axis and at "
                f"least 2, got n_g = {n_g}, N = {n}"
            )
        if self.cutoff_radius <= 0.0:
            object.__setattr__(self, "cutoff_radius", TWO_PI * n_g / (2 * n))

    @property
    def volume(self) -> float:
        """|T| = N^d (unit cell volume is 1)."""
        return float(self.cells_per_axis ** self.dimension)

    @property
    def n_ions(self) -> int:
        """Number of lattice cells, one ion each."""
        return self.cells_per_axis ** self.dimension

    def xi(self, h) -> np.ndarray:
        """Frequency vector(s) xi = (2 pi / N) h for integer index h."""
        return (TWO_PI / self.cells_per_axis) * np.asarray(h, dtype=float)

    @property
    def grid_spacing(self) -> float:
        return self.cells_per_axis / self.grid_per_axis

    def grid_axes(self) -> np.ndarray:
        """1D coordinate array shared by all axes of the real-space grid."""
        return np.arange(self.grid_per_axis) * self.grid_spacing


class FrequencyTable:
    """Retained frequencies of a TorusSpec in a fixed lexicographic order.

    Attributes
    ----------
    h : (n_freq, d) int array of frequency indices, lexicographically sorted.
    xi : (n_freq, d) float array, xi = (2 pi / N) h.
    xi_sq : (n_freq,) float array of |xi|^2.
    coulomb_weight : (n_freq,) float array of 1/|xi|^2 with the xi = 0 entry
        zeroed: the Green function -Laplace^{-1} on mean-free fields.
    conj : (n_freq,) int array, position of -h for each h.  The retained set
        is centrally symmetric and sorted, so this is n_freq - 1 - f.
    zero : int, position of h = 0, the middle one (n_freq - 1) // 2.
    gamma_star : (n_freq,) bool mask of frequencies on 2 pi Z^d.
    """

    def __init__(self, spec: TorusSpec):
        d, n, n_g = spec.dimension, spec.cells_per_axis, spec.grid_per_axis
        h_cut = int(np.floor(spec.cutoff_radius * n / TWO_PI + 1e-9))
        h_max = min(h_cut, (n_g - 1) // 2)
        h = integer_box(-h_max, h_max + 1, d)
        xi = spec.xi(h)
        keep = np.sqrt((xi**2).sum(axis=1)) <= spec.cutoff_radius + 1e-12
        h = h[keep]
        h = h[np.lexsort(h.T[::-1])]

        self.spec = spec
        self.h = h
        self.xi = spec.xi(h)
        self.xi_sq = (self.xi**2).sum(axis=1)
        self.size = h.shape[0]
        nonzero = np.any(h != 0, axis=1)
        self.coulomb_weight = np.zeros(self.size)
        self.coulomb_weight[nonzero] = 1.0 / self.xi_sq[nonzero]
        self.gamma_star = np.all(h % n == 0, axis=1)
        self._grid_flat = np.ravel_multi_index((h % n_g).T, (n_g,) * d)
        # grid slot -> table position; slots of no retained index keep -1,
        # which ``lookup`` rejects by comparing with the row of h it reads
        self._grid_position = np.full(n_g**d, -1)
        self._grid_position[self._grid_flat] = np.arange(self.size)
        self.conj = self.positions(-h)
        self.zero = self.position((0,) * d)

    def lookup(self, h) -> tuple[np.ndarray, np.ndarray]:
        """Positions of the integer vectors h, an (m, d) array, and the mask
        of the retained ones: the one gather through the grid slot h mod n_g.
        A slot that is empty or holds another alias is masked out."""
        h = np.asarray(h, dtype=int)
        d, n_g = self.spec.dimension, self.spec.grid_per_axis
        if h.ndim != 2 or h.shape[1] != d:
            raise DimensionMismatchError(f"frequency indices must have {d} components")
        found = self._grid_position[np.ravel_multi_index((h % n_g).T, (n_g,) * d)]
        return found, np.all(self.h[found] == h, axis=1)

    def position(self, h) -> int:
        """Index of a frequency given its integer vector h."""
        return int(self.positions(np.atleast_1d(h)[None, :])[0])

    def positions(self, h) -> np.ndarray:
        """``lookup``'s positions; an index not retained raises, naming the first."""
        found, retained = self.lookup(h)
        missing = np.flatnonzero(~retained)
        if missing.size:
            key = tuple(int(c) for c in np.asarray(h)[missing[0]])
            raise DimensionMismatchError(
                f"frequency index {key} is not retained (cutoff "
                f"{self.spec.cutoff_radius:.6g})"
            )
        return found


@lru_cache(maxsize=64)
def frequency_table(spec: TorusSpec) -> FrequencyTable:
    return FrequencyTable(spec)


@dataclass(eq=False)
class FourierScalarField:
    """Finitely supported Fourier coefficients of a scalar field on T.

    ``values[i]`` is F[f](xi_i) for the i-th retained frequency of
    ``frequency_table(spec)``.
    """

    spec: TorusSpec
    values: np.ndarray

    def __post_init__(self):
        table = frequency_table(self.spec)
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != (table.size,):
            raise DimensionMismatchError(
                f"expected {table.size} coefficients, got shape {self.values.shape}"
            )

    @classmethod
    def zeros(cls, spec: TorusSpec) -> "FourierScalarField":
        return cls(spec, np.zeros(frequency_table(spec).size, dtype=complex))

    @property
    def table(self) -> FrequencyTable:
        return frequency_table(self.spec)

    def coefficient(self, h) -> complex:
        return complex(self.values[self.table.position(h)])

    def is_real(self, tol: float = 1e-12) -> bool:
        """Whether coefficients are conjugate symmetric, so f is real-valued."""
        scale = max(1.0, float(np.abs(self.values).max(initial=0.0)))
        residual = np.abs(np.conj(self.values[self.table.conj]) - self.values).max(
            initial=0.0
        )
        return residual <= tol * scale

    def copy(self) -> "FourierScalarField":
        return FourierScalarField(self.spec, self.values.copy())

    def __add__(self, other: "FourierScalarField") -> "FourierScalarField":
        if other.spec != self.spec:
            raise DimensionMismatchError("fields live on different tori")
        return FourierScalarField(self.spec, self.values + other.values)

    def __sub__(self, other: "FourierScalarField") -> "FourierScalarField":
        if other.spec != self.spec:
            raise DimensionMismatchError("fields live on different tori")
        return FourierScalarField(self.spec, self.values - other.values)

    def __mul__(self, scalar) -> "FourierScalarField":
        return FourierScalarField(self.spec, self.values * scalar)

    __rmul__ = __mul__


def dft_forward(samples: np.ndarray, spec: TorusSpec) -> FourierScalarField:
    """Transform real-space grid samples into retained Fourier coefficients.

    The rectangle rule (N / n_g)^d sum_j f(x_j) exp(+i xi x_j) reduces to a
    single FFT: with x_j = j N / n_g and xi = (2 pi / N) h the phases are
    exp(2 pi i h j / n_g), so F[f](h) = |T| ifftn(samples)[h mod n_g].
    Exact for band-limited f; frequencies beyond the retained set alias and
    are dropped.
    """
    samples = np.asarray(samples)
    d, n_g = spec.dimension, spec.grid_per_axis
    if samples.shape != (n_g,) * d:
        raise DimensionMismatchError(
            f"expected grid of shape {(n_g,) * d}, got {samples.shape}"
        )
    table = frequency_table(spec)
    spectrum = np.fft.ifftn(samples) * spec.volume
    return FourierScalarField(spec, spectrum.ravel()[table._grid_flat])


def dft_inverse(field: FourierScalarField) -> np.ndarray:
    """Synthesize grid samples f(x_j) = |T|^{-1} sum_h F(h) exp(-i xi x_j).

    Returns the complex grid; the imaginary part is at round-off level when
    the coefficients are conjugate symmetric.
    """
    spec = field.spec
    table = field.table
    n_g = spec.grid_per_axis
    spectrum = np.zeros((n_g,) * spec.dimension, dtype=complex)
    spectrum.ravel()[table._grid_flat] = field.values
    return np.fft.fftn(spectrum) / spec.volume


def green_apply(
    rho: FourierScalarField,
    neutrality_tol: float = 1e-10,
    *,
    enforce_neutrality: bool = True,
) -> FourierScalarField:
    """Solve -Laplace(Phi) = rho on the torus: divide coefficients by |xi|^2.

    The xi = 0 coefficient is dropped (the inverse Laplacian is defined on
    mean-free sources and returns a mean-free potential).  With
    ``enforce_neutrality`` a residual |rho_hat(0)| above ``neutrality_tol``
    raises :class:`NeutralityError` carrying the residual.
    """
    table = rho.table
    residual = abs(rho.values[table.zero])
    if enforce_neutrality and residual > neutrality_tol:
        raise NeutralityError(residual, neutrality_tol)
    return FourierScalarField(rho.spec, rho.values * table.coulomb_weight)


def coulomb_energy(
    rho: FourierScalarField,
    neutrality_tol: float = 1e-10,
    *,
    enforce_neutrality: bool = True,
) -> float:
    """Self energy (1/2) (rho, G rho) = (2 |T|)^{-1} sum_{xi != 0} |rho_hat|^2 / |xi|^2."""
    table = rho.table
    residual = abs(rho.values[table.zero])
    if enforce_neutrality and residual > neutrality_tol:
        raise NeutralityError(residual, neutrality_tol)
    terms = np.abs(rho.values) ** 2 * table.coulomb_weight
    return float(terms.sum() / (2.0 * rho.spec.volume))


def lattice_points(spec: TorusSpec) -> np.ndarray:
    """Ion lattice Gamma = {0..N-1}^d as an (N^d, d) integer array, lex order.

    Every module indexes ions in this order; keeping a single source of
    truth is what makes ion-block vectors comparable across modules.
    """
    return integer_box(0, spec.cells_per_axis, spec.dimension)


def integer_box(low: int, high: int, d: int) -> np.ndarray:
    """All integer vectors in {low, ..., high - 1}^d as a (m^d, d) array, lex order.

    The first component varies slowest, so the rows are sorted and a box
    starting at 0 lists the origin first.
    """
    mesh = np.meshgrid(*([np.arange(low, high)] * d), indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)
