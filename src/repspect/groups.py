"""Concrete compact groups: finite enumeration and Haar sampling.

Finite groups are given by generators (permutations or invertible real
matrices) or by a named family, and are expanded to a full element table
by breadth-first closure; the plane groups ``cyclic`` and ``dihedral``
get the same breadth-first tree from integer labels and their matrices in
closed form.  A table is one payload array (permutation
images or matrices) plus a Schreier tree of parent pointers: each element
is its parent times one generator, so images of every element follow
from the generator images by one batched product per level.  An element
is its table index and nothing more: products, inverses and uniform
draws are array operations on payload rows (``a[b]`` or ``a @ b``,
``argsort`` or ``.T``, ``rng.integers(order)``).  Permutations are
deduplicated by their bytes; matrices through a bucket index keyed by a
fixed linear projection (``MatrixIndex``), so the closure and
``indices_of`` compare each matrix with a handful of stored elements
instead of the whole table.  Continuous families (the orthogonal and
special orthogonal groups) are sampled directly from their invariant
distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.random import SeedSequence, default_rng

from .errors import BadParams, ClosureOverflow, NonInvertibleGenerator

MATRIX_DEDUP_TOL = 1e-8      # entrywise distance below which two elements coincide
DEFAULT_CLOSURE_CAP = 1_000_000
SINGULAR_DET = 1e-250        # |det| of a Gaussian draw below which it is re-drawn

FINITE_FAMILIES = ("symmetric", "cyclic", "dihedral", "quaternion8")
CONTINUOUS_FAMILIES = ("orthogonal", "special_orthogonal")


def substream(seed, *path: int) -> SeedSequence:
    """Seed material addressed by (seed, path); paths compose.

    ``seed`` may be an integer or an existing SeedSequence, whose spawn
    key the new path components are appended to.  Substreams for distinct
    paths are statistically independent; the same (seed, path) always
    yields the bit-identical state.
    """
    if isinstance(seed, SeedSequence):
        key = tuple(seed.spawn_key) + tuple(int(p) for p in path)
        return SeedSequence(entropy=seed.entropy, spawn_key=key)
    return SeedSequence(entropy=int(seed), spawn_key=tuple(int(p) for p in path))


def stream(seed, *path: int) -> np.random.Generator:
    """Independent reproducible generator addressed by (seed, path)."""
    return default_rng(substream(seed, *path))


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


@dataclass(eq=False)
class FiniteGroupTable:
    """A finite group as one payload array and a Schreier tree.

    ``payload`` holds every element once, identity first, in breadth-first
    discovery order: an int ``(|G|, degree)`` array of 0-based permutation
    images, or a float ``(|G|, m, m)`` array of matrices.  Element i > 0 is
    element ``parent[i]`` times generator ``generator[i]`` (both -1 for the
    identity); parents come before their children and are nondecreasing,
    so each breadth-first level is a contiguous run.  ``generators`` holds
    the table indices of the generators.  ``cyclic``/``dihedral`` payloads
    are closed-form rotations and reflections by multiples of 2*pi/n on
    that tree; other matrix payloads are the products along it.
    """

    payload: np.ndarray
    parent: np.ndarray
    generator: np.ndarray
    generators: np.ndarray
    spec: GroupSpec | None = None
    _index: dict | MatrixIndex | None = field(default=None, repr=False)

    @property
    def order(self) -> int:
        return len(self.payload)

    def indices_of(self, stack) -> np.ndarray:
        """Table indices of a stack of payloads (exact for permutations,
        within ``MATRIX_DEDUP_TOL`` for matrices); KeyError if one is absent."""
        stack = np.asarray(stack, dtype=self.payload.dtype)
        if self._index is None:
            self._index = _payload_index(self.payload)
        found = _lookup(self._index, stack)
        if None in found:
            raise KeyError(f"payload {found.index(None)} of the stack is not in the table")
        return np.array(found, dtype=np.intp)

    def tree_product(self, generator_images: np.ndarray) -> np.ndarray:
        """Images of all elements from a ``(k, d, d)`` stack of generator images.

        Element i's image is ``image[parent[i]] @ generator_images[generator[i]]``,
        the product of the generator images along its path from the identity
        in the tree; each level of the tree is one batched product.
        """
        images = np.empty((self.order,) + generator_images.shape[1:])
        images[0] = np.eye(generator_images.shape[1])
        start = 1
        while start < self.order:
            # The level starting at `start` ends at the first element whose
            # parent is not yet computed.
            stop = int(np.searchsorted(self.parent, start))
            images[start:stop] = images[self.parent[start:stop]] @ generator_images[
                self.generator[start:stop]
            ]
            start = stop
        return images


def _row_keys(rows: np.ndarray) -> list[bytes]:
    """The bytes of each row of a 2-D array, as dictionary keys."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel().tolist()


def _payload_index(payload: np.ndarray) -> dict | MatrixIndex:
    if payload.ndim == 2:
        return {key: i for i, key in enumerate(_row_keys(payload))}
    return MatrixIndex.of(payload)


def _lookup(index: dict | MatrixIndex, stack: np.ndarray) -> list[int | None]:
    if isinstance(index, MatrixIndex):
        return index.lookup(stack)
    if stack.ndim != 2:
        return [None] * len(stack)
    return [index.get(key) for key in _row_keys(stack)]


def golden_weights(count: int) -> np.ndarray:
    """Weights in [1, 2) from the fractional parts of k * golden ratio,
    k = 1..count: a constant, seed-free direction with generic entries."""
    return 1.0 + np.modf(np.arange(1, count + 1) * 0.6180339887498949)[0]


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
        self.weights = golden_weights(n * n)
        self.cell = 2.0 * MATRIX_DEDUP_TOL * float(self.weights.sum())
        self.shape = (n, n)
        # A list while the closure adds elements, then the table's payload.
        self.matrices: list[np.ndarray] | np.ndarray = []
        self.buckets: dict[int, list[int]] = {}

    @classmethod
    def of(cls, matrices: np.ndarray) -> MatrixIndex:
        """Index of a (k, n, n) stack, comparing against its rows."""
        index = cls(matrices.shape[1])
        for i, key in enumerate(index.keys(matrices)):
            index.buckets.setdefault(key, []).append(i)
        index.matrices = matrices
        return index

    def keys(self, stack: np.ndarray) -> list[int | None]:
        """Bucket keys of a (k, n, n) stack; None where the projection is not finite."""
        with np.errstate(over="ignore", invalid="ignore"):
            q = (stack.reshape(len(stack), -1) @ self.weights) / self.cell
        return [math.floor(x) if math.isfinite(x) else None for x in q.tolist()]

    def lookup(self, stack: np.ndarray) -> list[int | None]:
        """Smallest stored index within tol of each matrix of a stack, or None."""
        if stack.shape[1:] != self.shape:
            return [None] * len(stack)
        keys = self.keys(stack)
        return [None if key is None else self.find(m, key) for m, key in zip(stack, keys)]

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


def orthogonality_defect(m: np.ndarray) -> float:
    """Entrywise deviation of m @ m.T from the identity.

    ``m`` may also be a (k, n, n) stack; the result is then the worst
    deviation over the stack, from one batched product.
    """
    n = m.shape[-1]
    return float(np.max(np.abs(m @ np.swapaxes(m, -1, -2) - np.eye(n))))


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


def canonical_generators(spec: GroupSpec) -> np.ndarray:
    """Generator payloads of a finite GroupSpec: an int ``(k, degree)``
    array of 0-based permutation images or a float ``(k, m, m)`` stack."""
    kind = spec.kind
    if kind in ("permutation_generators", "matrix_generators") and not spec.generators:
        raise BadParams("no generators")
    if kind == "symmetric":
        n = _require_n(spec, minimum=1)
        if n == 1:
            return np.zeros((1, 1), dtype=np.intp)
        swap = [1, 0] + list(range(2, n))
        cycle = list(range(1, n)) + [0]
        return np.array([swap, cycle] if n > 2 else [swap], dtype=np.intp)
    if kind == "cyclic":
        n = _require_n(spec, minimum=1)
        return rotation_matrix(2.0 * math.pi / n)[None]
    if kind == "dihedral":
        n = _require_n(spec, minimum=1)
        return np.stack([rotation_matrix(2.0 * math.pi / n), np.diag([1.0, -1.0])])
    if kind == "quaternion8":
        return np.stack([QUAT_LEFT_I, QUAT_LEFT_J])
    if kind == "permutation_generators":
        perms = [tuple(int(i) for i in p) for p in spec.generators]
        for p in perms:
            if sorted(p) != list(range(len(p))):
                raise BadParams(f"not a permutation of 0..{len(p) - 1}: {p}")
        if len({len(p) for p in perms}) > 1:
            raise BadParams("permutation generators have mixed degrees")
        return np.array(perms, dtype=np.intp)
    if kind == "matrix_generators":
        gens = []
        for i, m in enumerate(spec.generators):
            arr = np.asarray(m, dtype=float)
            if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
                raise BadParams(f"matrix generator {i} is not square")
            if abs(np.linalg.det(arr)) < 1e-12:
                raise NonInvertibleGenerator(f"matrix generator {i} is singular")
            gens.append(arr)
        if len({g.shape for g in gens}) > 1:
            raise BadParams("matrix generators have mixed sizes")
        return np.stack(gens)
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

    ``cyclic`` and ``dihedral`` tables are built in closed form
    (``_plane_group_table``): the same tree from integer labels, payloads
    from cos/sin(2*pi*k/n), and the order checked against ``cap`` up
    front.  Every other group is closed level by level: each level
    multiplies every frontier element by every generator, in
    (element, generator) order, and keeps the products not seen before.
    Permutation products are ``frontier[:, gen]``, deduplicated exactly by
    their byte rows; matrix products are one batched product per generator,
    deduplicated at entrywise distance below ``MATRIX_DEDUP_TOL`` through a
    ``MatrixIndex`` (three buckets of a fixed projection hold every stored
    element within tol, see its docstring), so closure costs about O(|G| k)
    comparisons for k generators.  The dictionary or index stays on the
    table for ``indices_of``; a closed-form table builds its index on the
    first lookup.  Raises ClosureOverflow when more than ``cap``
    distinct elements appear, or when a matrix product's projection is not
    finite (an entry overflowed or is NaN), which no element of a finite
    group has.
    """
    if cap < 1:
        raise BadParams("cap must be >= 1")
    if not spec.is_finite:
        raise BadParams(f"{spec.kind!r} is a continuous family; it has no finite table")
    if spec.kind in ("cyclic", "dihedral"):
        return _plane_group_table(spec, cap)
    generators = canonical_generators(spec)
    close = _close_permutations if generators.ndim == 2 else _close_matrices
    payload, parent, generator, index = close(generators, cap)
    return FiniteGroupTable(
        payload=payload,
        parent=parent,
        generator=generator,
        generators=np.array(_lookup(index, generators), dtype=np.intp),
        spec=spec,
        _index=index,
    )


def _plane_group_table(spec: GroupSpec, cap: int) -> FiniteGroupTable:
    """The ``cyclic``/``dihedral`` table in closed form, on the closure's tree.

    With r the rotation by 2*pi/n and s = diag(1, -1), element r^k s^e has
    the integer label k + n*e, and right multiplication by the generators is
    (k, e) r = (k + (-1)^e mod n, e) and (k, e) s = (k, 1 - e).  A
    breadth-first pass over labels in (element, generator) order therefore
    finds the elements in the order, and with the parents, that the matrix
    closure of the generators finds, as long as that closure tells
    neighbouring rotations apart (their entries differ by about 2*pi/n,
    above ``MATRIX_DEDUP_TOL`` for n below about 6e8).  Each payload is then
    R(2*pi*k/n) diag(1, (-1)^e) from one cos/sin, exact to rounding, rather
    than a product along its path in the tree.  The order (n or 2n) is
    checked against ``cap`` before anything is allocated.
    """
    n = _require_n(spec, minimum=1)
    reflections = spec.kind == "dihedral"
    order = 2 * n if reflections else n
    if order > cap:
        raise ClosureOverflow(f"closure exceeds cap={cap}: {spec.kind}({n}) has {order} elements")
    # steps[g][label] is the label of (label) * generator g.
    k = np.arange(n)
    if reflections:
        steps = [np.concatenate([(k + 1) % n, n + (k - 1) % n]), np.concatenate([k + n, k])]
    else:
        steps = [(k + 1) % n]
    steps = [step.tolist() for step in steps]
    position = [-1] * order  # table index of each label, -1 until it is found
    position[0] = 0
    labels, parent, generator = [0], [-1], [-1]
    for i, label in enumerate(labels):  # a FIFO queue: found labels are appended
        for g, step in enumerate(steps):
            found = step[label]
            if position[found] < 0:
                position[found] = len(labels)
                labels.append(found)
                parent.append(i)
                generator.append(g)
    reflected, rotation = np.divmod(np.array(labels), n)
    angle = 2.0 * np.pi * rotation / n
    cos, sin = np.cos(angle), np.sin(angle)
    sign = 1.0 - 2.0 * reflected
    payload = np.empty((order, 2, 2))
    payload[:, 0, 0] = cos
    payload[:, 1, 0] = sin
    payload[:, 0, 1] = 0.0 - sign * sin  # 0.0 - x: the identity keeps +0.0, as in eye(2)
    payload[:, 1, 1] = sign * cos
    generator_labels = [1 % n, n] if reflections else [1 % n]
    return FiniteGroupTable(
        payload=payload,
        parent=np.array(parent, dtype=np.intp),
        generator=np.array(generator, dtype=np.intp),
        generators=np.array([position[label] for label in generator_labels], dtype=np.intp),
        spec=spec,
    )


def _close_permutations(generators: np.ndarray, cap: int):
    k, degree = generators.shape
    frontier = np.arange(degree, dtype=np.intp)[None]
    seen = {_row_keys(frontier)[0]: 0}
    levels, parents, generator_ids = [frontier], [np.array([-1])], [np.array([-1])]
    start = 0
    while len(frontier):
        products = frontier[:, generators].reshape(-1, degree)  # row f*k + g is frontier[f] * gen g
        new = []
        for pos, key in enumerate(_row_keys(products)):
            if key in seen:
                continue
            if len(seen) >= cap:
                raise ClosureOverflow(f"closure exceeds cap={cap}")
            seen[key] = len(seen)
            new.append(pos)
        new = np.array(new, dtype=np.intp)
        parents.append(start + new // k)
        generator_ids.append(new % k)
        start += len(frontier)
        frontier = products[new]
        levels.append(frontier)
    return np.concatenate(levels), np.concatenate(parents), np.concatenate(generator_ids), seen


def _close_matrices(generators: np.ndarray, cap: int):
    n = generators.shape[1]
    frontier = np.eye(n)[None]
    index = MatrixIndex(n)
    index.add(frontier[0], index.keys(frontier)[0])
    parents, generator_ids = [-1], [-1]
    start = 0
    while len(frontier):
        # One batched product and projection per generator and level; the
        # batched matmul runs the same kernel per matrix as el @ gen.
        products = [frontier @ gen for gen in generators]
        keys = [index.keys(p) for p in products]
        new = []
        for f in range(len(frontier)):
            for g in range(len(generators)):
                prod, key = products[g][f], keys[g][f]
                if key is None:  # an entry overflowed; no finite group has such an element
                    raise ClosureOverflow(
                        f"a product is not finite after {len(index.matrices)} elements"
                    )
                if index.find(prod, key) is not None:
                    continue
                if len(index.matrices) >= cap:
                    raise ClosureOverflow(f"closure exceeds cap={cap}")
                prod = prod.copy()  # own its data rather than pin the level's batch
                index.add(prod, key)
                new.append(prod)
                parents.append(start + f)
                generator_ids.append(g)
        start += len(frontier)
        frontier = np.array(new).reshape(-1, n, n)
    # From here on the index compares against payload rows, and the
    # per-element copies are freed.
    index.matrices = payload = np.stack(index.matrices)
    return payload, np.array(parents, dtype=np.intp), np.array(generator_ids, dtype=np.intp), index


# ---------------------------------------------------------------------------
# Haar sampling
# ---------------------------------------------------------------------------

def haar_matrices(family: ContinuousFamily, rng: np.random.Generator, size: int) -> np.ndarray:
    """Stack of ``size`` matrices drawn from the invariant distribution.

    A standard Gaussian matrix is QR-factorized and the Q columns are
    rescaled by the signs of R's diagonal; making the factorization unique
    makes the resulting distribution exactly invariant (Mezzadri, Notices
    AMS 2007).  For the special orthogonal family the last column sign is
    flipped whenever the determinant is -1, which maps the invariant
    distribution of the full group onto the subgroup.  For n = 3 that Q is
    built in closed form from the same Gaussian draws (``_haar_frames_3``);
    other sizes go through the batched LAPACK QR.
    """
    n = family.n
    if n < 1:
        raise BadParams("family dimension must be >= 1")
    if family.kind not in CONTINUOUS_FAMILIES:
        raise BadParams(f"unknown continuous family {family.kind!r}")
    special = family.kind == "special_orthogonal"
    if n == 3:
        return _haar_frames_3(rng, size, special)
    q, r = np.linalg.qr(rng.standard_normal((size, n, n)))
    diag = np.diagonal(r, axis1=1, axis2=2)
    # A singular Gaussian draw has probability zero; re-draw defensively.
    # |prod diag r| = |det z|, so the factorization itself flags it.
    bad = np.flatnonzero(np.abs(diag.prod(axis=1)) < SINGULAR_DET)
    while bad.size:
        q[bad], r[bad] = np.linalg.qr(rng.standard_normal((bad.size, n, n)))
        bad = bad[np.abs(diag[bad].prod(axis=1)) < SINGULAR_DET]
    signs = np.where(diag < 0, -1.0, 1.0)
    q = q * signs[:, None, :]
    if special:
        flip = np.linalg.det(q) < 0
        q[flip, :, -1] *= -1.0
    return q


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (k, 3) arrays."""
    return np.einsum("ki,ki->k", a, b)


def _haar_frames_3(rng: np.random.Generator, size: int, special: bool) -> np.ndarray:
    """The sign-corrected QR factor of ``size`` Gaussian 3x3 draws, without LAPACK.

    With R's diagonal positive, Q is the Gram-Schmidt frame of the columns
    z1, z2, z3: q1 = z1/|z1|, q2 the normalized part of z2 orthogonal to
    q1 (projected twice, so q1.q2 is at rounding level), and
    q3 = sign(det z) q1 x q2, since det z = det Q det R with det R > 0.
    The special orthogonal family takes q3 = q1 x q2, which is the QR
    path's flip of the last column.  ``det z = z3 . (z1 x z2)`` replaces
    ``prod diag r`` in the singular-draw guard, which re-draws before
    anything is normalized, so the generator is called exactly as on the
    QR path.
    """
    z = rng.standard_normal((size, 3, 3))
    a, b, c = z[:, :, 0], z[:, :, 1], z[:, :, 2]  # views: re-drawn rows show through
    det = _dot(c, np.cross(a, b))
    bad = np.flatnonzero(np.abs(det) < SINGULAR_DET)
    while bad.size:
        z[bad] = rng.standard_normal((bad.size, 3, 3))
        det[bad] = _dot(c[bad], np.cross(a[bad], b[bad]))
        bad = bad[np.abs(det[bad]) < SINGULAR_DET]
    q1 = a / np.sqrt(_dot(a, a))[:, None]
    for _ in range(2):
        b = b - _dot(q1, b)[:, None] * q1
    q2 = b / np.sqrt(_dot(b, b))[:, None]
    q3 = np.cross(q1, q2)
    if not special:
        q3 *= np.sign(det)[:, None]
    return np.stack([q1, q2, q3], axis=2)
