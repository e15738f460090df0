"""Antisymmetric N-electron states over plane-wave orbitals.

Orbitals are the normalized exponentials phi_k = exp(i k x) / sqrt(|T|)
with k on the frequency lattice of the torus; an occupation set of N_bar
distinct orbitals, kept in lexicographic order of the integer indices,
labels the normalized Slater determinant built from them.  Determinants
over distinct sets are orthonormal, so a configuration-interaction vector
psi = sum_I C_I D_I has squared norm sum |C_I|^2 and every one-body
operator reduces to Slater-Condon rules: diagonal pairs plus single
substitutions k -> k', weighted by the parity of resorting the substituted
set.

The multiplicative operator sum_j exp(i xi x_j) maps D_I to the signed sum
of determinants with one orbital shifted by xi, which makes both the
electron charge density and the action of a multiplication potential a
single sparse pass over precomputed substitution entries.

States whose occupation sets pairwise differ in at least two orbitals
("doubly redundant" families) have exactly uniform charge density; a pair
differing in one orbital k -> k' leaves a density beat at xi = k' - k.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DimensionMismatchError
from .torus import FourierScalarField, TorusSpec, frequency_table, integer_box

Occupation = tuple  # tuple of integer h-tuples, lexicographically sorted


def orbital_kinetic(spec: TorusSpec, h) -> float:
    """Kinetic energy |xi|^2 / 2 of one plane-wave orbital."""
    xi = spec.xi(np.asarray(h, dtype=float))
    return float((xi**2).sum() / 2.0)


def occupation_kinetic(spec: TorusSpec, occupation: Occupation) -> float:
    """Total kinetic energy (1/2) sum_j |xi_j|^2 of an occupation set."""
    return sum(orbital_kinetic(spec, h) for h in occupation)


def _orbital_values_in_box(spec: TorusSpec, h_max: int) -> tuple[list, np.ndarray]:
    h = integer_box(-h_max, h_max + 1, spec.dimension)
    values = (spec.xi(h) ** 2).sum(axis=1)
    orbitals = [tuple(int(c) for c in row) for row in h]
    return orbitals, values


def _lowest_orbitals(spec: TorusSpec, count: int) -> tuple[list, np.ndarray]:
    """The ``count`` orbitals of smallest |xi|^2, complete shells guaranteed.

    The enclosing box is grown until every orbital at the boundary value
    sits strictly inside it, so degenerate shells are never cut.
    """
    h_max = 1
    while True:
        orbitals, values = _orbital_values_in_box(spec, h_max)
        if len(orbitals) > count:
            order = np.argsort(values, kind="stable")
            boundary = values[order[count - 1]]
            box_edge = (2.0 * np.pi / spec.cells_per_axis * h_max) ** 2
            if box_edge > boundary + 1e-9:
                ordered = [orbitals[i] for i in order]
                return ordered, values[order]
        h_max *= 2


def ground_occupations(spec: TorusSpec) -> tuple[list, float]:
    """All N_bar-orbital sets of minimal total kinetic energy, and omega0.

    Brute construction: fill every shell strictly below the Fermi value,
    then distribute the remaining slots over the boundary shell in all
    possible ways.  Returns the sets in lexicographic order and the shared
    eigenvalue omega0 (half the minimal total |xi|^2).
    """
    n_bar = spec.n_ions
    ordered, values = _lowest_orbitals(spec, n_bar)
    fermi = values[n_bar - 1]
    below = [o for o, v in zip(ordered, values) if v < fermi - 1e-9]
    shell = sorted(o for o, v in zip(ordered, values) if abs(v - fermi) <= 1e-9)
    slots = n_bar - len(below)
    sets = [
        tuple(sorted(below + list(choice)))
        for choice in itertools.combinations(shell, slots)
    ]
    omega0 = float(values[:n_bar].sum() / 2.0)
    return sorted(sets), omega0


def _one_apart(sets):
    """Ordered pairs of sorted-tuple sets one substitution apart, as (i, a, j, b).

    Two sets are one substitution apart exactly when removing slot a from
    set i and slot b from set j leaves the same N_bar - 1 orbitals (the
    hole) and the removed orbitals differ.  The (set, slot) pairs are
    grouped by their hole, each group sorted by the removed orbital, so the
    pairs come in the order of a scan over i, a and the new orbital.
    """
    holes: dict = {}
    for i, occupation in enumerate(sets):
        for a, k in enumerate(occupation):
            holes.setdefault(occupation[:a] + occupation[a + 1:], []).append((k, i, a))
    for group in holes.values():
        group.sort()
    for i, occupation in enumerate(sets):
        for a, k in enumerate(occupation):
            for k_new, j, b in holes[occupation[:a] + occupation[a + 1:]]:
                if k_new != k:
                    yield i, a, j, b


def check_adr(occupations) -> bool:
    """Whether all pairs of distinct sets differ in at least two orbitals."""
    sets = [tuple(sorted(occupation)) for occupation in occupations]
    return next(_one_apart(sets), None) is None


def enumerate_basis(
    spec: TorusSpec, m: float, capacity: int = 200_000
) -> "DeterminantBasis":
    """All occupation sets with sum_j |xi_j|^2 <= m, in lexicographic order.

    Depth-first over orbitals sorted by energy, pruning branches whose
    cheapest completion already exceeds the budget.  Counting past
    ``capacity`` raises :class:`CapacityError` before memory does.
    """
    n_bar = spec.n_ions
    _, low_values = _lowest_orbitals(spec, max(n_bar, 2))
    floor_rest = float(low_values[: n_bar - 1].sum())
    if m < float(low_values[:n_bar].sum()) - 1e-12:
        return DeterminantBasis(spec, m, [])

    h_max = max(1, int(np.floor(np.sqrt(m - floor_rest + 1e-12)
                                * spec.cells_per_axis / (2.0 * np.pi) + 1e-9)))
    orbitals, values = _orbital_values_in_box(spec, h_max)
    keep = values <= m - floor_rest + 1e-12
    pool = sorted((v, o) for v, o, k in zip(values, orbitals, keep) if k)
    pool_values = np.array([v for v, _ in pool])
    pool_orbitals = [o for _, o in pool]

    sets: list[Occupation] = []
    chosen: list[tuple] = []

    def descend(start: int, budget: float) -> None:
        need = n_bar - len(chosen)
        if need == 0:
            if len(sets) >= capacity:
                raise CapacityError(
                    f"basis exceeds capacity budget of {capacity} determinants"
                )
            sets.append(tuple(sorted(chosen)))
            return
        for i in range(start, len(pool_orbitals) - need + 1):
            cheapest = pool_values[i : i + need].sum()
            if cheapest > budget + 1e-12:
                break
            chosen.append(pool_orbitals[i])
            descend(i + 1, budget - pool_values[i])
            chosen.pop()

    descend(0, float(m))
    return DeterminantBasis(spec, m, sorted(sets))


class SubstitutionTable:
    """Sparse single-substitution structure of a determinant basis.

    Arrays are aligned: entry t says determinant ``src[t]`` maps to
    ``dst[t]`` by replacing one orbital k with k' = k + delta, picking up
    ``sign[t]`` from resorting; ``delta[t]`` / ``neg_delta[t]`` index
    xi = k' - k and its negative in the frequency table.  Substitutions
    whose delta leaves the retained set are omitted, which is exactly the
    spectral truncation of the field the basis couples to.
    """

    def __init__(self, basis: "DeterminantBasis"):
        table = frequency_table(basis.spec)
        # flat items: fromiter reads 4-tuple items about twice as slowly
        pairs = itertools.chain.from_iterable(_one_apart(basis.sets))
        i, a, j, b = np.fromiter(pairs, dtype=np.intp).reshape(-1, 4).T
        step = basis.orbitals[j, b] - basis.orbitals[i, a]
        position, retained = table.lookup(step)
        self.src = i[retained]
        self.dst = j[retained]
        self.sign = np.where((a - b)[retained] % 2, -1.0, 1.0)
        self.delta = position[retained]
        self.neg_delta = table.conj[self.delta]
        self.n_freq = table.size
        self.zero = table.zero
        self.n_electrons = basis.n_electrons
        self.volume = basis.spec.volume

    def _scatter(self, index: np.ndarray, size: int, terms: np.ndarray) -> np.ndarray:
        """Sum ``terms[..., t]`` into bin ``index[t]`` of a zero (..., size) array.

        Rows are flattened into one ``np.add.at`` with offset bins, which
        keeps each bin's additions in entry order, so every row gets the
        bits of its own single-row scatter.
        """
        out = np.zeros(terms.shape[:-1] + (size,), dtype=complex)
        flat = out
        if out.ndim > 1:
            flat, terms = out.reshape(-1), terms.reshape(-1)
            index = (index + size * np.arange(len(out))[:, None]).ravel()
        np.add.at(flat, index, terms)
        return out

    def transition_values(self, c: np.ndarray, d: np.ndarray) -> np.ndarray:
        """Coefficients of ``transition_density`` for raw CI arrays c, d.

        c and d are (B,) arrays or (R, B) stacks of rows; each row maps to
        its own row of coefficients.
        """
        # ``take`` gathers over the last axis without fancy indexing's
        # per-row cost, which shows at B = 2002
        terms = (c.take(self.src, axis=-1) * np.conj(d.take(self.dst, axis=-1))
                 * self.sign)
        out = self._scatter(self.delta, self.n_freq, terms)
        # np.vecdot is np.vdot row by row, with the same bits; .T puts the
        # row axis last, so one expression serves one row and a stack
        out.T[self.zero] += self.n_electrons * np.vecdot(d, c)
        return out

    def potential_values(self, c: np.ndarray, phi: np.ndarray) -> np.ndarray:
        """Values of ``apply_one_body_potential`` for raw c and Phi_hat arrays,
        single or stacked in rows like ``transition_values``."""
        volume = self.volume
        terms = (c.take(self.src, axis=-1) * self.sign
                 * phi.take(self.neg_delta, axis=-1) / volume)
        out = self._scatter(self.dst, c.shape[-1], terms).T
        out += self.n_electrons * phi.T[self.zero] / volume * c.T
        return out.T


class DeterminantBasis:
    """Galerkin family of occupation sets under a total |xi|^2 cutoff;
    ``orbitals`` is the (B, N_bar, d) integer array of the sets' orbitals."""

    def __init__(self, spec: TorusSpec, cutoff: float, sets: list):
        self.spec = spec
        self.cutoff = float(cutoff)
        self.sets = list(sets)
        self.index = {occ: i for i, occ in enumerate(self.sets)}
        self.orbitals = np.array(self.sets, dtype=int).reshape(
            self.size, spec.n_ions, spec.dimension)
        # slot by slot, the bits of a per-set running sum
        ksq = (spec.xi(self.orbitals) ** 2).sum(axis=-1)
        self.ksq_total = np.add.accumulate(ksq, axis=1)[:, -1]
        self.kinetic = self.ksq_total / 2.0
        self._substitutions = None

    @property
    def size(self) -> int:
        return len(self.sets)

    @property
    def n_electrons(self) -> int:
        return self.spec.n_ions

    def substitutions(self) -> SubstitutionTable:
        if self._substitutions is None:
            self._substitutions = SubstitutionTable(self)
        return self._substitutions

    def __contains__(self, occupation) -> bool:
        return tuple(occupation) in self.index


@dataclass(eq=False)
class CIVector:
    """Configuration-interaction vector over a determinant basis."""

    basis: DeterminantBasis
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != (self.basis.size,):
            raise DimensionMismatchError(
                f"expected {self.basis.size} coefficients, got {self.values.shape}"
            )

    @classmethod
    def zeros(cls, basis: DeterminantBasis) -> "CIVector":
        return cls(basis, np.zeros(basis.size, dtype=complex))

    @classmethod
    def from_occupations(cls, basis: DeterminantBasis, amplitudes) -> "CIVector":
        """Build from a mapping {occupation set: amplitude}."""
        psi = cls.zeros(basis)
        for occupation, amplitude in amplitudes.items():
            psi.values[basis.index[tuple(occupation)]] = amplitude
        return psi

    def charge(self) -> float:
        """Q(psi) = ||psi||^2 = sum |C_I|^2."""
        return float((np.abs(self.values) ** 2).sum())

    def copy(self) -> "CIVector":
        return CIVector(self.basis, self.values.copy())


def ci_inner(psi: CIVector, chi: CIVector) -> complex:
    """L^2 pairing <psi, chi> = sum C_psi conj(C_chi)."""
    return complex(np.vdot(chi.values, psi.values))


def h1_norm(psi: CIVector) -> float:
    weight = 1.0 + psi.basis.ksq_total
    return float(np.sqrt((weight * np.abs(psi.values) ** 2).sum()))


def apply_kinetic(psi: CIVector) -> CIVector:
    """Diagonal action of -(1/2) Laplacian: multiply by each set's kinetic energy."""
    return CIVector(psi.basis, psi.basis.kinetic * psi.values)


def transition_density(psi: CIVector, chi: CIVector) -> FourierScalarField:
    """P(xi) = <sum_j exp(i xi x_j) psi, chi> on the retained frequencies.

    Diagonal pairs contribute only at xi = 0 (value N_bar <psi, chi>);
    single substitutions k -> k' land at xi = k' - k.
    """
    if chi.basis is not psi.basis:
        raise DimensionMismatchError("transition density needs a shared basis")
    basis = psi.basis
    values = basis.substitutions().transition_values(psi.values, chi.values)
    return FourierScalarField(basis.spec, values)


def one_body_density(psi: CIVector, e: float) -> FourierScalarField:
    """Electron charge density of psi: F[rho_e](xi) = -e P(xi) with chi = psi."""
    field = transition_density(psi, psi)
    field.values *= -e
    return field


def apply_one_body_potential(psi: CIVector, phi: FourierScalarField) -> CIVector:
    """Galerkin projection of (Phi tensor psi): multiply Phi into each slot.

    Matrix elements are Phi_hat(k - k') / |T| on single substitutions and
    N_bar Phi_hat(0) / |T| on the diagonal; substituted determinants
    outside the basis are dropped (the projection).
    """
    basis = psi.basis
    if phi.spec != basis.spec:
        raise DimensionMismatchError("potential lives on a different torus")
    return CIVector(basis, basis.substitutions().potential_values(psi.values, phi.values))
