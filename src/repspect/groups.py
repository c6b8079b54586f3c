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
fixed, non-additive linear projection (``MatrixIndex``), so the closure
and ``indices_of`` compare each matrix with a handful of stored elements
instead of the whole table, monomial groups included.  The same index
decides which support points of a discrete measure coincide.
Continuous families (the orthogonal and special orthogonal groups) are
sampled directly from their invariant distribution.
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
    _index: PermutationIndex | MatrixIndex | None = field(default=None, repr=False)

    @property
    def order(self) -> int:
        return len(self.payload)

    def indices_of(self, stack) -> np.ndarray:
        """Table indices of a stack of payloads (exact for permutations,
        within ``MATRIX_DEDUP_TOL`` for matrices); KeyError if one is absent."""
        stack = np.asarray(stack, dtype=self.payload.dtype)
        if self._index is None:
            # The payload holds each element once, so each row is filed
            # under its own position.
            self._index = _payload_index(self.payload.shape[1:])
            self._index.add_absent(self.payload)
            self._index.rows = self.payload
        found = self._index.lookup(stack)
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


def _payload_index(shape: tuple[int, ...]) -> PermutationIndex | MatrixIndex:
    """An empty index of payload rows: exact for permutation images,
    within ``MATRIX_DEDUP_TOL`` for matrices."""
    return PermutationIndex(shape) if len(shape) == 1 else MatrixIndex(shape, MATRIX_DEDUP_TOL)


def golden_weights(count: int) -> np.ndarray:
    """Weights in [1, 2) from the fractional parts of k * golden ratio,
    k = 1..count: a constant, seed-free direction with generic entries."""
    return 1.0 + np.modf(np.arange(1, count + 1) * 0.6180339887498949)[0]


def index_weights(count: int) -> np.ndarray:
    """The ``MatrixIndex`` direction t^k, t = e^(1/count), k = 0..count-1:
    distinct weights in [1, e).  Powers of the transcendental t have no
    integer relation, so distinct integer matrices (signed permutations)
    never share a projection; ``golden_weights`` are additive mod 1 and
    crowd a monomial group into a few buckets."""
    return np.exp(np.arange(count) / count)


class PermutationIndex:
    """Exact index of permutation images by their bytes, with the two
    operations of ``MatrixIndex``."""

    def __init__(self, shape: tuple[int, ...]):
        self.shape = tuple(shape)
        self.positions: dict[bytes, int] = {}
        self.rows: np.ndarray | None = None  # the table's payload, once it has one

    def __len__(self) -> int:
        return len(self.positions)

    def lookup(self, stack: np.ndarray) -> list[int | None]:
        """Stored position of each row of a stack, or None."""
        if stack.shape[1:] != self.shape:
            return [None] * len(stack)
        return [self.positions.get(key) for key in _row_keys(stack)]

    def add_absent(self, stack: np.ndarray, cap: float = math.inf) -> np.ndarray:
        """Store the rows of a stack that are new, also against rows earlier
        in the stack; returns their positions in the stack.  Storing more
        than ``cap`` rows in all raises ClosureOverflow."""
        positions, new = self.positions, []
        for pos, key in enumerate(_row_keys(stack)):
            if key not in positions:
                if len(positions) >= cap:
                    raise ClosureOverflow(f"closure exceeds cap={cap}")
                positions[key] = len(positions)
                new.append(pos)
        return np.array(new, dtype=np.intp)


class MatrixIndex:
    """Bucket index of float rows of one shape, equal within ``tol``.

    It decides when two group elements (``MATRIX_DEDUP_TOL``) or two
    discrete support points (``moments.DISCRETE_POINT_TOL``) coincide:
    rows a and b of any shape match when max|a - b| < tol.  A row r is
    filed under ``floor(<w, vec(r)> / cell)``, where ``w`` is the fixed
    direction ``index_weights`` and ``cell = 2 * tol * |w|_1``.
    Completeness: if max|a - b| < tol then
    |<w, vec(a)> - <w, vec(b)>| <= |w|_1 * max|a - b| < cell / 2, so the
    keys of a and b differ by at most one, and every stored row within
    tol of a query lies in the query's bucket or one of its two
    neighbours.  The other half-cell absorbs the rounding of the two
    projections, which stays far below tol * |w|_1 while
    size * max|r| * 2^-52 << tol, size being the number of entries:
    orthogonal n x n matrices of any practical n, and unit vectors
    (max|r| <= 1) of any dimension below about 10^6.  The buckets only
    prune which rows are compared: the test itself stays max-abs < tol
    against a stored row.
    """

    def __init__(self, shape: tuple[int, ...], tol: float):
        self.shape = tuple(shape)
        self.tol = tol
        self.weights = index_weights(math.prod(self.shape))
        self.cell = 2.0 * tol * float(self.weights.sum())
        # A list of row copies while rows are added, then the table's payload.
        self.rows: list[np.ndarray] | np.ndarray = []
        self.buckets: dict[int, list[int]] = {}

    def __len__(self) -> int:
        return len(self.rows)

    def keys(self, stack: np.ndarray) -> list[int | None]:
        """Bucket keys of a stack; None where the projection is not finite."""
        with np.errstate(over="ignore", invalid="ignore"):
            q = (stack.reshape(len(stack), -1) @ self.weights) / self.cell
        return [math.floor(x) if math.isfinite(x) else None for x in q.tolist()]

    def lookup(self, stack: np.ndarray) -> list[int | None]:
        """Smallest stored position within tol of each row of a stack, or None."""
        if stack.shape[1:] != self.shape:
            return [None] * len(stack)
        return [
            None if key is None else self._find(row, key)
            for row, key in zip(stack, self.keys(stack))
        ]

    def add_absent(self, stack: np.ndarray, cap: float = math.inf) -> np.ndarray:
        """Store the rows of a stack with no stored row within tol, also
        against rows earlier in the stack; returns their positions in the
        stack.  Storing more than ``cap`` rows in all, or a row whose
        projection is not finite (an entry overflowed or is NaN, which no
        element of a finite group has), raises ClosureOverflow."""
        new = []
        for pos, (row, key) in enumerate(zip(stack, self.keys(stack))):
            if key is None:
                raise ClosureOverflow(f"a row is not finite after {len(self.rows)} elements")
            if self._find(row, key) is None:
                if len(self.rows) >= cap:
                    raise ClosureOverflow(f"closure exceeds cap={cap}")
                self.buckets.setdefault(key, []).append(len(self.rows))
                self.rows.append(row.copy())  # own its data rather than pin the stack
                new.append(pos)
        return np.array(new, dtype=np.intp)

    def _find(self, row: np.ndarray, key: int) -> int | None:
        found = None
        for k in (key - 1, key, key + 1):
            for i in self.buckets.get(k, ()):
                if (found is None or i < found) and np.abs(self.rows[i] - row).max() < self.tol:
                    found = i
        return found


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
    front.  Every other group is closed by one breadth-first loop: each
    level multiplies every frontier element by every generator in one
    batched product, in (element, generator) order, and the index's
    ``add_absent`` keeps the products not seen before: exactly, by their
    bytes, for permutations (``PermutationIndex``), and at entrywise
    distance below ``MATRIX_DEDUP_TOL`` for matrices (``MatrixIndex``,
    whose three buckets of a fixed projection hold every stored element
    within tol).  Its direction spreads monomial groups (signed and plain
    permutation matrices) over the buckets too, so closure costs about
    O(|G| k) comparisons for k generators.  The index stays on the table
    for ``indices_of``; a closed-form table builds its index on the first
    lookup.  Raises ClosureOverflow when more than ``cap`` distinct
    elements appear, or when a matrix product's projection is not finite
    (an entry overflowed or is NaN), which no element of a finite group
    has.
    """
    if cap < 1:
        raise BadParams("cap must be >= 1")
    if not spec.is_finite:
        raise BadParams(f"{spec.kind!r} is a continuous family; it has no finite table")
    if spec.kind in ("cyclic", "dihedral"):
        return _plane_group_table(spec, cap)
    generators = canonical_generators(spec)
    payload, parent, generator, index = _close(generators, cap)
    return FiniteGroupTable(
        payload=payload,
        parent=parent,
        generator=generator,
        generators=np.array(index.lookup(generators), dtype=np.intp),
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


def _close(generators: np.ndarray, cap: int):
    k, shape = len(generators), generators.shape[1:]
    frontier = np.arange(shape[0])[None] if len(shape) == 1 else np.eye(shape[0])[None]
    index = _payload_index(shape)
    index.add_absent(frontier)
    levels, parents, generator_ids = [frontier], [np.array([-1])], [np.array([-1])]
    start = 0
    while len(frontier):
        # Row f*k + g is frontier[f] * generator g; one batched product per level.
        if len(shape) == 1:
            products = frontier[:, generators].reshape((-1,) + shape)
        else:
            products = (frontier[:, None] @ generators).reshape((-1,) + shape)
        new = index.add_absent(products, cap)
        parents.append(start + new // k)
        generator_ids.append(new % k)
        start += len(frontier)
        frontier = products[new]
        levels.append(frontier)
    # From here on a matrix index compares against payload rows, and its
    # per-element copies are freed.
    index.rows = payload = np.concatenate(levels)
    return payload, np.concatenate(parents), np.concatenate(generator_ids), index


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
