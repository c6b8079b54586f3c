"""Concrete compact groups: finite enumeration and Haar sampling.

Finite groups are given by generators (permutations or invertible real
matrices) or by a named family, and are expanded to a full element table
by breadth-first closure.  Matrix elements are deduplicated through a
bucket index keyed by a fixed linear projection (``MatrixIndex``), so the
closure and ``index_of`` compare each matrix with a handful of stored
elements instead of the whole table.  Continuous families (the orthogonal
and special orthogonal groups) are sampled directly from their invariant
distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadParams,
    ClosureOverflow,
    IncompleteTable,
    NonInvertibleGenerator,
)

MATRIX_DEDUP_TOL = 1e-8      # entrywise distance below which two elements coincide
DEFAULT_CLOSURE_CAP = 1_000_000

FINITE_FAMILIES = ("symmetric", "cyclic", "dihedral", "quaternion8")
CONTINUOUS_FAMILIES = ("orthogonal", "special_orthogonal")


def substream(seed, *path: int) -> np.random.SeedSequence:
    """Seed material addressed by (seed, path); paths compose.

    ``seed`` may be an integer or an existing SeedSequence, whose spawn
    key the new path components are appended to.  Substreams for distinct
    paths are statistically independent; the same (seed, path) always
    yields the bit-identical state.
    """
    if isinstance(seed, np.random.SeedSequence):
        key = tuple(seed.spawn_key) + tuple(int(p) for p in path)
        return np.random.SeedSequence(entropy=seed.entropy, spawn_key=key)
    return np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))


def stream(seed, *path: int) -> np.random.Generator:
    """Independent reproducible generator addressed by (seed, path)."""
    return np.random.default_rng(substream(seed, *path))


@dataclass(frozen=True, eq=False)
class GroupElement:
    """A group element carried as a permutation or a real square matrix.

    ``word`` records the generator indices whose product produced the
    element during closure (empty for the identity and for Haar samples).
    ``index`` is the element's position in its enumerating table, if any.
    """

    perm: tuple[int, ...] | None = None
    matrix: np.ndarray | None = None
    word: tuple[int, ...] = ()
    index: int | None = None

    @property
    def is_permutation(self) -> bool:
        return self.perm is not None

    @property
    def degree(self) -> int:
        if self.perm is not None:
            return len(self.perm)
        return self.matrix.shape[0]

    def __repr__(self) -> str:
        if self.perm is not None:
            return f"GroupElement(perm={self.perm})"
        return f"GroupElement(matrix {self.matrix.shape[0]}x{self.matrix.shape[1]})"


@dataclass(frozen=True)
class GroupSpec:
    """Description of a compact group.

    ``kind`` is one of the named families (``symmetric``, ``cyclic``,
    ``dihedral``, ``quaternion8``, ``orthogonal``, ``special_orthogonal``)
    or ``permutation_generators`` / ``matrix_generators`` with explicit
    generator payloads.
    """

    kind: str
    n: int | None = None
    generators: tuple = ()

    @property
    def is_finite(self) -> bool:
        return self.kind not in CONTINUOUS_FAMILIES


@dataclass(frozen=True)
class ContinuousFamily:
    """A continuous orthogonal matrix family, identified by kind and size."""

    kind: str  # "orthogonal" | "special_orthogonal"
    n: int


@dataclass
class FiniteGroupTable:
    """Deduplicated element list of a finite group.

    ``complete`` is true when the list is closed under composition and
    inverses; only complete tables support uniform sampling.  Element
    order is the breadth-first discovery order, identity first.
    """

    elements: list[GroupElement]
    order: int
    complete: bool
    generators: list[GroupElement] = field(default_factory=list)
    spec: GroupSpec | None = None
    _perm_index: dict | None = field(default=None, repr=False)
    _matrix_index: MatrixIndex | None = field(default=None, repr=False)

    def identity(self) -> GroupElement:
        return self.elements[0]

    def index_of(self, g: GroupElement) -> int:
        """Table index of the element equal to ``g`` (payload comparison)."""
        if g.is_permutation:
            if self._perm_index is None:
                self._perm_index = {el.perm: i for i, el in enumerate(self.elements)}
            try:
                return self._perm_index[g.perm]
            except KeyError:
                raise KeyError(f"{g!r} is not in the table") from None
        if self._matrix_index is None:
            self._matrix_index = MatrixIndex.of([el.matrix for el in self.elements])
        i = self._matrix_index.lookup(g.matrix)
        if i is None:
            raise KeyError(f"{g!r} is not in the table")
        return i


class MatrixIndex:
    """Bucket index of matrices for dedup at ``MATRIX_DEDUP_TOL``.

    A matrix m is filed under ``floor(<w, vec(m)> / cell)``, where ``w`` is
    a fixed direction with positive weights and ``cell = 2 * tol * |w|_1``.
    Completeness: if max|a - b| < tol then
    |<w, vec(a)> - <w, vec(b)>| <= |w|_1 * max|a - b| < cell / 2, so the
    keys of a and b differ by at most one, and every stored element within
    tol of a query lies in the query's bucket or one of its two
    neighbours.  The other half-cell absorbs the rounding of the two
    projections, which stays far below tol * |w|_1 while
    n^2 * max|m| * 2^-52 << tol (orthogonal matrices of any practical n).
    The buckets only prune which elements are compared: the test itself
    stays max-abs < tol against a stored matrix.
    """

    def __init__(self, n: int):
        # Weights in [1, 2) from the fractional parts of k * golden ratio:
        # a constant, seed-free direction that separates typical tables.
        self.weights = 1.0 + np.modf(np.arange(1, n * n + 1) * 0.6180339887498949)[0]
        self.cell = 2.0 * MATRIX_DEDUP_TOL * float(self.weights.sum())
        self.shape = (n, n)
        self.matrices: list[np.ndarray] = []
        self.buckets: dict[int, list[int]] = {}

    @classmethod
    def of(cls, matrices: list[np.ndarray]) -> MatrixIndex:
        index = cls(matrices[0].shape[0])
        for m, key in zip(matrices, index.keys(np.stack(matrices))):
            index.add(m, key)
        return index

    def keys(self, stack: np.ndarray) -> list[int | None]:
        """Bucket keys of a (k, n, n) stack; None where the projection is not finite."""
        with np.errstate(over="ignore", invalid="ignore"):
            q = (stack.reshape(len(stack), -1) @ self.weights) / self.cell
        return [math.floor(x) if math.isfinite(x) else None for x in q.tolist()]

    def lookup(self, m: np.ndarray) -> int | None:
        """Smallest stored index within tol of ``m``, or None."""
        key = self.keys(m[None])[0] if m.shape == self.shape else None
        return None if key is None else self.find(m, key)

    def find(self, m: np.ndarray, key: int) -> int | None:
        """``lookup`` for a matrix whose key is already known."""
        hits = [
            i
            for k in (key - 1, key, key + 1)
            for i in self.buckets.get(k, ())
            if float(np.abs(self.matrices[i] - m).max()) < MATRIX_DEDUP_TOL
        ]
        return min(hits) if hits else None

    def add(self, m: np.ndarray, key: int) -> None:
        self.buckets.setdefault(key, []).append(len(self.matrices))
        self.matrices.append(m)


GroupSource = FiniteGroupTable | ContinuousFamily


# ---------------------------------------------------------------------------
# element arithmetic
# ---------------------------------------------------------------------------

def multiply(a: GroupElement, b: GroupElement) -> GroupElement:
    """Group product a*b (function composition for permutations)."""
    if a.is_permutation != b.is_permutation:
        raise BadParams("cannot multiply a permutation by a matrix element")
    if a.is_permutation:
        pa, pb = a.perm, b.perm
        if len(pa) != len(pb):
            raise BadParams("permutation degrees differ")
        return GroupElement(perm=tuple(pa[i] for i in pb), word=a.word + b.word)
    return GroupElement(matrix=a.matrix @ b.matrix, word=a.word + b.word)


def inverse(a: GroupElement) -> GroupElement:
    if a.is_permutation:
        inv = tuple(int(i) for i in np.argsort(a.perm))
        return GroupElement(perm=inv)
    return GroupElement(matrix=np.linalg.inv(a.matrix))


def orthogonality_defect(m: np.ndarray) -> float:
    """Entrywise deviation of m @ m.T from the identity.

    ``m`` may also be a (k, n, n) stack; the result is then the worst
    deviation over the stack, from one batched product.
    """
    n = m.shape[-1]
    return float(np.max(np.abs(m @ np.swapaxes(m, -1, -2) - np.eye(n))))


def permutation_element(images, word: tuple[int, ...] = ()) -> GroupElement:
    """Build a permutation element from 0-based images, validating bijectivity."""
    p = tuple(int(i) for i in images)
    if sorted(p) != list(range(len(p))):
        raise BadParams(f"not a permutation of 0..{len(p) - 1}: {p}")
    return GroupElement(perm=p, word=word)


# ---------------------------------------------------------------------------
# named families
# ---------------------------------------------------------------------------

def rotation_matrix(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])

# Left multiplication by the unit quaternions i and j on the basis (1, i, j, k).
QUAT_LEFT_I = np.array([
    [0.0, -1.0, 0.0, 0.0],
    [1.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, -1.0],
    [0.0, 0.0, 1.0, 0.0],
])
QUAT_LEFT_J = np.array([
    [0.0, 0.0, -1.0, 0.0],
    [0.0, 0.0, 0.0, 1.0],
    [1.0, 0.0, 0.0, 0.0],
    [0.0, -1.0, 0.0, 0.0],
])


def canonical_generators(spec: GroupSpec) -> list[GroupElement]:
    """Expand a finite GroupSpec into its generator elements."""
    kind = spec.kind
    if kind == "symmetric":
        n = _require_n(spec, minimum=1)
        if n == 1:
            return [GroupElement(perm=(0,), word=(0,))]
        swap = permutation_element([1, 0] + list(range(2, n)), word=(0,))
        cycle = permutation_element(list(range(1, n)) + [0], word=(1,))
        return [swap, cycle] if n > 2 else [swap]
    if kind == "cyclic":
        n = _require_n(spec, minimum=1)
        return [GroupElement(matrix=rotation_matrix(2.0 * math.pi / n), word=(0,))]
    if kind == "dihedral":
        n = _require_n(spec, minimum=1)
        rot = GroupElement(matrix=rotation_matrix(2.0 * math.pi / n), word=(0,))
        refl = GroupElement(matrix=np.diag([1.0, -1.0]), word=(1,))
        return [rot, refl]
    if kind == "quaternion8":
        return [
            GroupElement(matrix=QUAT_LEFT_I.copy(), word=(0,)),
            GroupElement(matrix=QUAT_LEFT_J.copy(), word=(1,)),
        ]
    if kind == "permutation_generators":
        gens = [permutation_element(p, word=(i,)) for i, p in enumerate(spec.generators)]
        if len({g.degree for g in gens}) > 1:
            raise BadParams("permutation generators have mixed degrees")
        return gens
    if kind == "matrix_generators":
        gens = []
        for i, m in enumerate(spec.generators):
            arr = np.asarray(m, dtype=float)
            if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
                raise BadParams(f"matrix generator {i} is not square")
            if abs(np.linalg.det(arr)) < 1e-12:
                raise NonInvertibleGenerator(f"matrix generator {i} is singular")
            gens.append(GroupElement(matrix=arr, word=(i,)))
        if len({g.degree for g in gens}) > 1:
            raise BadParams("matrix generators have mixed sizes")
        return gens
    raise BadParams(f"not a finite group kind: {kind!r}")


def _require_n(spec: GroupSpec, minimum: int) -> int:
    if spec.n is None or spec.n < minimum:
        raise BadParams(f"family {spec.kind!r} needs n >= {minimum}")
    return spec.n


# ---------------------------------------------------------------------------
# closure enumeration
# ---------------------------------------------------------------------------

def enumerate_closure(spec: GroupSpec, cap: int = DEFAULT_CLOSURE_CAP) -> FiniteGroupTable:
    """Breadth-first closure of the generators into a full group table.

    Elements are deduplicated exactly for permutations and by entrywise
    distance below ``MATRIX_DEDUP_TOL`` for matrices.  Matrix products are
    looked up in a ``MatrixIndex`` (three buckets of a fixed projection
    hold every stored element within tol, see its docstring), so closure
    costs about O(|G| k) comparisons for k generators instead of
    O(|G|^2 k); the index stays on the table for ``index_of``.  Raises
    ClosureOverflow when more than ``cap`` distinct elements appear, or
    when a matrix product's projection is not finite (an entry overflowed
    or is NaN), which no element of a finite group has.
    """
    if cap < 1:
        raise BadParams("cap must be >= 1")
    if not spec.is_finite:
        raise BadParams(f"{spec.kind!r} is a continuous family; it has no finite table")
    generators = canonical_generators(spec)
    if not generators:
        raise BadParams("no generators")

    index = None
    if generators[0].is_permutation:
        elements = _close_permutations(generators, cap)
    else:
        elements, index = _close_matrices(generators, cap)

    table = FiniteGroupTable(
        elements=elements,
        order=len(elements),
        complete=True,
        spec=spec,
        _matrix_index=index,
    )
    # Generators re-appear in the table with their index attached.
    table.generators = [table.elements[table.index_of(g)] for g in generators]
    return table


def _close_permutations(generators: list[GroupElement], cap: int) -> list[GroupElement]:
    degree = generators[0].degree
    ident = GroupElement(perm=tuple(range(degree)), word=(), index=0)
    seen = {ident.perm: 0}
    elements = [ident]
    frontier = [ident]
    while frontier:
        nxt = []
        for el in frontier:
            for gi, gen in enumerate(generators):
                prod = tuple(el.perm[i] for i in gen.perm)
                if prod in seen:
                    continue
                if len(elements) >= cap:
                    raise ClosureOverflow(f"closure exceeds cap={cap}")
                new = GroupElement(perm=prod, word=el.word + (gi,), index=len(elements))
                seen[prod] = new.index
                elements.append(new)
                nxt.append(new)
        frontier = nxt
    return elements


def _close_matrices(
    generators: list[GroupElement], cap: int
) -> tuple[list[GroupElement], MatrixIndex]:
    n = generators[0].degree
    elements = [GroupElement(matrix=np.eye(n), word=(), index=0)]
    index = MatrixIndex.of([elements[0].matrix])
    frontier = [elements[0]]
    while frontier:
        # One batched product and projection per generator and level; the
        # batched matmul runs the same kernel per matrix as el.matrix @ gen.
        stack = np.stack([el.matrix for el in frontier])
        prods = [stack @ gen.matrix for gen in generators]
        keys = [index.keys(p) for p in prods]
        nxt = []
        for f, el in enumerate(frontier):
            for gi in range(len(generators)):
                prod, key = prods[gi][f], keys[gi][f]
                if key is None:  # an entry overflowed; no finite group has such an element
                    raise ClosureOverflow(f"a product is not finite after {len(elements)} elements")
                if index.find(prod, key) is not None:
                    continue
                if len(elements) >= cap:
                    raise ClosureOverflow(f"closure exceeds cap={cap}")
                prod = prod.copy()  # own its data rather than pin the level's batch
                new = GroupElement(matrix=prod, word=el.word + (gi,), index=len(elements))
                elements.append(new)
                index.add(prod, key)
                nxt.append(new)
        frontier = nxt
    return elements, index


# ---------------------------------------------------------------------------
# Haar sampling
# ---------------------------------------------------------------------------

def haar_sample_finite(table: FiniteGroupTable, rng: np.random.Generator) -> GroupElement:
    """One element drawn uniformly from a complete finite table."""
    if not table.complete:
        raise IncompleteTable("uniform sampling needs a complete table")
    idx = int(rng.integers(table.order))
    return table.elements[idx]


def haar_indices(table: FiniteGroupTable, rng: np.random.Generator, size: int) -> np.ndarray:
    """Batch of uniform element indices from a complete finite table."""
    if not table.complete:
        raise IncompleteTable("uniform sampling needs a complete table")
    return rng.integers(table.order, size=size)


def haar_matrices(family: ContinuousFamily, rng: np.random.Generator, size: int) -> np.ndarray:
    """Stack of ``size`` matrices drawn from the invariant distribution.

    A standard Gaussian matrix is QR-factorized and the Q columns are
    rescaled by the signs of R's diagonal; making the factorization unique
    makes the resulting distribution exactly invariant.  For the
    special orthogonal family the last column sign is flipped whenever the
    determinant is -1, which maps the invariant distribution of the full
    group onto the subgroup.
    """
    n = family.n
    if n < 1:
        raise BadParams("family dimension must be >= 1")
    q, r = np.linalg.qr(rng.standard_normal((size, n, n)))
    diag = np.diagonal(r, axis1=1, axis2=2)
    # A singular Gaussian draw has probability zero; re-draw defensively.
    # |prod diag r| = |det z|, so the factorization itself flags it.
    bad = np.flatnonzero(np.abs(diag.prod(axis=1)) < 1e-250)
    while bad.size:
        q[bad], r[bad] = np.linalg.qr(rng.standard_normal((bad.size, n, n)))
        bad = bad[np.abs(diag[bad].prod(axis=1)) < 1e-250]
    signs = np.where(diag < 0, -1.0, 1.0)
    q = q * signs[:, None, :]
    if family.kind == "special_orthogonal":
        flip = np.linalg.det(q) < 0
        q[flip, :, -1] *= -1.0
    elif family.kind != "orthogonal":
        raise BadParams(f"unknown continuous family {family.kind!r}")
    return q


def haar_sample_continuous(family: ContinuousFamily, rng: np.random.Generator) -> GroupElement:
    """One invariant-distributed element of a continuous family."""
    return GroupElement(matrix=haar_matrices(family, rng, 1)[0])
