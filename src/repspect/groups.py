"""Concrete compact groups: finite enumeration, stabilizer chains and Haar
sampling.

Finite groups are given by generators (permutations or invertible real
matrices) or by a named family, and are expanded to a full element table
by breadth-first closure; the plane groups ``cyclic`` and ``dihedral``
get the same breadth-first tree and their matrices in closed form.  A
permutation group can also stay unlisted, as a ``PermutationGroup``: its
generators and the exact order of a Schreier-Sims stabilizer chain, which
is all the permutation entries need.  A table is one payload array (permutation
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
Continuous families (O(n) and SO(n)) are sampled directly from their
invariant distribution, and have a fixed stack of topological generators.
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import NamedTuple

import numpy as np
from numpy.random import SeedSequence, default_rng

from .errors import BadParams, ClosureOverflow, NonInvertibleGenerator, TooLarge

MATRIX_DEDUP_TOL = 1e-8      # entrywise distance below which two elements coincide
DEFAULT_CLOSURE_CAP = 1_000_000
# Permutation entries a stabilizer chain may form: each Schreier generator
# it tests and each transversal element it stores counts its degree.  S_58
# fits; S_128 is refused after about 0.5 s.
CHAIN_ENTRY_BUDGET = 2**22
SINGULAR_DRAW = 1e-250       # |det| of a Gaussian matrix, or |q|^2 of a Gaussian quaternion,
                             # below which the draw is re-drawn

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


class GroupSpec(NamedTuple):
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


class ContinuousFamily:
    """A continuous orthogonal matrix family, identified by kind and size."""

    def __init__(self, kind: str, n: int):
        if kind not in CONTINUOUS_FAMILIES:
            raise BadParams(f"unknown continuous family {kind!r}")
        if n < 1:
            raise BadParams("family dimension must be >= 1")
        self.kind = kind  # "orthogonal" | "special_orthogonal"
        self.n = n


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
    that tree; other matrix payloads are the products along it.  ``index``,
    when given, is the payload index ``indices_of`` would otherwise build.
    """

    def __init__(self, payload: np.ndarray, parent: np.ndarray, generator: np.ndarray,
                 generators: np.ndarray, index: PermutationIndex | MatrixIndex | None = None):
        self.payload = payload
        self.parent = parent
        self.generator = generator
        self.generators = generators
        self._index = index
        self._orbitals: tuple | None = None  # see group_orbitals

    @property
    def order(self) -> int:
        return len(self.payload)

    @property
    def generator_payloads(self) -> np.ndarray:
        return self.payload[self.generators]

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


class PermutationGroup:
    """A finite permutation group held by its generators, with no table.

    ``generator_payloads`` is the int ``(k, degree)`` array of 0-based
    images, and ``order`` the exact order from ``stabilizer_chain_order``,
    a Python int, so orders past 2^63 stay exact.  Its elements are never
    listed: what the permutation entries need of the group (orbitals, point
    stabilizers, orbit moments) is read off the generators.
    """

    def __init__(self, generator_payloads: np.ndarray, order: int):
        self.generator_payloads = generator_payloads
        self.order = order
        self._orbitals: tuple | None = None  # see group_orbitals


def orbit_labels(maps: np.ndarray) -> np.ndarray:
    """The least element of the orbit of each i in range(m) under the group
    generated by the ``(k, m)`` index permutations ``maps``.

    Each round gives every element the least of its own label and the
    labels of its images and preimages under every map, in one gather over
    the maps and their inverses, then replaces each label by its own label.
    A label is always an element of the same orbit and never rises, so the
    rounds stop, and they stop only when each map keeps every label: the
    labels are then constant on orbits, and the least element of an orbit
    keeps its own.
    """
    k, m = maps.shape
    labels = np.arange(m)
    both = np.concatenate([maps, maps])
    both[np.arange(k, 2 * k)[:, None], maps] = labels  # the inverses
    while True:
        new = labels[both].min(axis=0)
        np.minimum(new, labels, out=new)
        new = new[new]
        if np.array_equal(new, labels):
            return labels
        labels = new


def orbitals(generators: np.ndarray):
    """The orbitals of the group generated by ``(k, n)`` permutation images:
    its orbits on ordered pairs of points (Higman, Coherent configurations
    I, 1970).

    Returns ``(orbital, roots, transpose, point_orbit)``:
    ``orbital[i * n + j]`` numbers the orbit of the pair (i, j), orbitals
    ordered by their first pair ``roots[o]`` in row-major order;
    ``transpose[o]`` is the orbital of the pairs of o reversed; and
    ``point_orbit[i]`` numbers the orbit of point i the same way, read off
    the diagonal orbitals.
    """
    k, n = generators.shape
    pair_maps = (generators[:, :, None] * n + generators[:, None, :]).reshape(k, n * n)
    roots, orbital = np.unique(orbit_labels(pair_maps), return_inverse=True)
    transpose = orbital[(roots % n) * n + roots // n]
    point_orbit = np.unique(orbital[np.arange(n) * (n + 1)], return_inverse=True)[1]
    return orbital, roots, transpose, point_orbit


def group_orbitals(group: FiniteGroupTable | PermutationGroup):
    """``orbitals`` of a permutation group's generators, kept on the group:
    the commutant and the exact orbit moments of one group read the same
    labels."""
    if group._orbitals is None:
        group._orbitals = orbitals(group.generator_payloads)
    return group._orbitals


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


GroupSource = FiniteGroupTable | PermutationGroup | ContinuousFamily


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
    O(|G| k) comparisons for k generators.  A ``MatrixIndex``, whose rows
    are then the payload itself, stays on the table for ``indices_of``; a
    ``PermutationIndex`` keys a bytes copy of every element, so it is
    dropped, and a permutation or closed-form table builds its index on
    the first lookup.  Raises ClosureOverflow when more than ``cap`` distinct
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
        index=index if isinstance(index, MatrixIndex) else None,
    )


def _plane_group_table(spec: GroupSpec, cap: int) -> FiniteGroupTable:
    """The ``cyclic``/``dihedral`` table in closed form, on the closure's tree.

    With r the rotation by 2*pi/n and s = diag(1, -1), element r^k s^e has
    the integer label k + n*e, and right multiplication by the generators is
    (k, e) r = (k + (-1)^e mod n, e) and (k, e) s = (k, 1 - e).  A
    breadth-first pass in (element, generator) order, the matrix closure's,
    reaches each element first through its least word over (r, s) in
    shortlex order (length, then r < s), and reaches the elements in that
    order, as long as the closure tells neighbouring rotations apart (their
    entries differ by about 2*pi/n, above ``MATRIX_DEDUP_TOL`` for n below
    about 6e8).  Since s^2 = 1 and s r = r^-1 s, a least word of length L is
    one of r^L, r^(L-1) s, s r^(L-1) and s r^(L-2) s, ranked 0 to 3 in that
    order.  So (k, 0) is r^k or s r^j s and (k, 1) is r^k s or s r^j, with
    j = -k mod n; the least key 4 L + rank of its two words files each
    element in one slot array, whose filled slots give the order.  Dropping
    the last letter gives the parent: (k - 1, 0), (k, 0), (k + 1, 1) or
    (k, 1) by rank, through r for even ranks and s for odd ones.  Each
    payload is then R(2*pi*k/n) diag(1, (-1)^e) from one cos/sin, exact to
    rounding, rather than a product along its path in the tree.  The order
    (n or 2n) is checked against ``cap`` before anything is allocated.
    """
    n = _require_n(spec, minimum=1)
    reflections = spec.kind == "dihedral"
    order = 2 * n if reflections else n
    if order > cap:
        raise ClosureOverflow(f"closure exceeds cap={cap}: {spec.kind}({n}) has {order} elements")
    k = np.arange(n)
    keys = 4 * k  # r^k
    if reflections:
        j = -k % n
        keys = np.concatenate([np.minimum(keys, 4 * j + 11), np.minimum(4 * k + 5, 4 * j + 6)])
    slots = np.full(4 * n + 2, -1)
    slots[keys] = np.arange(order)
    labels = slots[slots >= 0]
    position = np.empty(order, dtype=np.intp)
    position[labels] = np.arange(order)
    reflected, rotation = np.divmod(labels, n)
    rank = keys[labels] % 4
    parent_labels = np.stack([rotation - 1, rotation, n + (rotation + 1) % n, n + rotation])
    parent = position[parent_labels[rank, np.arange(order)]]
    generator = rank % 2
    parent[0] = generator[0] = -1  # the identity, r^0
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
        parent=parent,
        generator=generator,
        generators=position[generator_labels],
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
# stabilizer chains
# ---------------------------------------------------------------------------

def permutation_group(spec: GroupSpec) -> PermutationGroup:
    """The table-free group of a ``symmetric`` or ``permutation_generators``
    spec: its generators and the order of their stabilizer chain."""
    generators = canonical_generators(spec)
    if generators.ndim != 2:
        raise BadParams(f"{spec.kind!r} is not given by permutations")
    return PermutationGroup(generators, stabilizer_chain_order(generators))


def stabilizer_chain_order(generators: np.ndarray) -> int:
    """The exact order of the group G generated by ``(k, n)`` permutation
    images, from a deterministic Schreier-Sims stabilizer chain (Sims 1970;
    Seress, Permutation Group Algorithms, 2003, ch. 4), in pure Python on
    tuples.

    Level i of the chain is G^(i), the elements fixing the points 0..i-1.
    Its strong generators are those whose first moved point is i or later,
    and its transversal maps i to each point of its orbit under them.  A
    permutation is sifted by dividing it, level by level, by the transversal
    element that matches it; one that stops at level i, on a point the
    transversal lacks, is a new strong generator at i.  Every product s u of
    a strong generator s of a level and an element u of its transversal is
    formed once, whichever of the two came later: a new point joins the
    transversal, a known one gives the Schreier generator u_p^-1 s u, which
    is sifted.  When no product is left, every Schreier generator of every
    level sifts to the identity, so by Schreier's lemma each G^(i) is its
    transversal times G^(i+1), and |G| is the product of the transversal
    sizes.  A product that is filed costs the degree n against
    ``CHAIN_ENTRY_BUDGET``; past it, TooLarge is raised, which bounds both
    the time and the memory of the transversals.
    """
    n = generators.shape[1]
    if n < 2:
        return 1
    identity = tuple(range(n))
    # transversal[i][p] is (u, u^-1) for the element u of G^(i) with u(i) = p.
    transversal = [{i: (identity, identity)} for i in range(n)]
    strong = []  # (first moved point, strong generator)
    formed = 0
    # A task (level, w) files w, an element of G^(level), at that level; a
    # task (None, w) sifts w.
    tasks = [(None, _compose(identity, g)) for g in generators.tolist()[::-1]]
    while tasks:
        level, w = tasks.pop()
        if level is not None:
            formed += n
            if formed > CHAIN_ENTRY_BUDGET:
                raise TooLarge(
                    f"stabilizer chain on {n} points: more than {CHAIN_ENTRY_BUDGET} "
                    "permutation entries in Schreier generators and transversal elements"
                )
            known = transversal[level].get(w[level])
            if known is None:
                transversal[level][w[level]] = (w, _inverse(w, identity))
                tasks.extend((level, _compose(s, w)) for first, s in strong if first >= level)
                continue
            w = _compose(known[1], w)  # a Schreier generator: it fixes 0..level
        i = 0
        while w != identity:  # sift: w fixes 0..i-1
            while w[i] == i:
                i += 1
            known = transversal[i].get(w[i])
            if known is None:
                strong.append((i, w))
                tasks.extend(
                    (j, _compose(w, u)) for j in range(i + 1) for u, _ in transversal[j].values()
                )
                break
            w = _compose(known[1], w)
    return math.prod(len(t) for t in transversal)


def _compose(a: tuple, b: tuple) -> tuple:
    """a after b: the tuple of a[b[i]] (two or more points)."""
    return itemgetter(*b)(a)


def _inverse(a: tuple, points: tuple) -> tuple:
    """The inverse of a, built from the int objects of ``points``, the
    identity, so that no tuple of the chain holds ints of its own."""
    inverse = list(points)
    for i, j in zip(points, a):
        inverse[j] = i
    return tuple(inverse)


# ---------------------------------------------------------------------------
# Haar sampling
# ---------------------------------------------------------------------------

def haar_matrices(family: ContinuousFamily, rng: np.random.Generator, size: int) -> np.ndarray:
    """Stack of ``size`` matrices drawn from the invariant distribution.

    For n = 3 each rotation comes from a standard Gaussian quaternion
    (``_haar_rotations_3``): four draws per matrix, and the stack is the
    view of a ``(3, 3, size)`` array, one row per entry.  Other sizes
    QR-factorize a standard Gaussian matrix and rescale the Q columns by
    the signs of R's diagonal; making the factorization unique makes the
    resulting distribution exactly invariant (Mezzadri, Notices AMS 2007).
    For the special orthogonal family the last column sign is flipped
    whenever the determinant is -1, which maps the invariant distribution
    of the full group onto the subgroup.
    """
    n = family.n
    special = family.kind == "special_orthogonal"
    if n == 3:
        return _haar_rotations_3(rng, size, special)
    q, r = np.linalg.qr(rng.standard_normal((size, n, n)))
    diag = np.diagonal(r, axis1=1, axis2=2)
    # A singular Gaussian draw has probability zero; re-draw defensively.
    # |prod diag r| = |det z|, so the factorization itself flags it.
    bad = np.flatnonzero(np.abs(diag.prod(axis=1)) < SINGULAR_DRAW)
    while bad.size:
        q[bad], r[bad] = np.linalg.qr(rng.standard_normal((bad.size, n, n)))
        bad = bad[np.abs(diag[bad].prod(axis=1)) < SINGULAR_DRAW]
    signs = np.where(diag < 0, -1.0, 1.0)
    q = q * signs[:, None, :]
    if special:
        flip = np.linalg.det(q) < 0
        q[flip, :, -1] *= -1.0
    return q


def _haar_rotations_3(rng: np.random.Generator, size: int, special: bool) -> np.ndarray:
    """``size`` invariant 3x3 draws from standard Gaussian quaternions.

    A standard Gaussian q in R^4 has a uniform direction, so q/|q| is a
    uniform unit quaternion and its rotation R(q) is Haar on SO(3)
    (Shoemake, Graphics Gems III, 1992).  With (w, x, y, z) = q sqrt(2/|q|^2),
    so that w^2 + x^2 + y^2 + z^2 = 2, the Euler-Rodrigues formula reads

        R = [[1 - (y^2 + z^2), xy - wz,          xz + wy        ],
             [xy + wz,         1 - (x^2 + z^2),  yz - wx        ],
             [xz - wy,         yz + wx,          1 - (x^2 + y^2)]].

    q and -q give the same rotation and the Gaussian law is symmetric, so
    sign(w) is a fair coin independent of R(q): the orthogonal family takes
    sign(w) R(q), Haar on O(3) = SO(3) x {I, -I}, with no further draw.  A
    row with |q|^2 below ``SINGULAR_DRAW`` (probability zero) is re-drawn
    before anything is normalized.

    The quaternions are drawn row by row, as ``(size, 4)``; w, x, y, z are
    then contiguous rows, and so is each of the nine entries of R, computed
    into a ``(3, 3, size)`` array.  The stack returned is its
    ``(size, 3, 3)`` view, with the same values as a row-major stack.
    """
    q = rng.standard_normal((size, 4))
    norm2 = np.einsum("ki,ki->k", q, q)
    bad = np.flatnonzero(norm2 < SINGULAR_DRAW)
    while bad.size:
        q[bad] = rng.standard_normal((bad.size, 4))
        norm2[bad] = np.einsum("ki,ki->k", q[bad], q[bad])
        bad = bad[norm2[bad] < SINGULAR_DRAW]
    w, x, y, z = np.multiply(q.T, np.sqrt(2.0 / norm2), out=np.empty((4, size)))
    xx, yy, zz = x * x, y * y, z * z
    xy, xz, yz, wx, wy, wz = x * y, x * z, y * z, w * x, w * y, w * z
    r = np.empty((3, 3, size))
    r[0, 0] = 1.0 - (yy + zz)
    r[0, 1] = xy - wz
    r[0, 2] = xz + wy
    r[1, 0] = xy + wz
    r[1, 1] = 1.0 - (xx + zz)
    r[1, 2] = yz - wx
    r[2, 0] = xz - wy
    r[2, 1] = yz + wx
    r[2, 2] = 1.0 - (xx + yy)
    if not special:
        r *= np.where(w < 0, -1.0, 1.0)
    return np.moveaxis(r, 2, 0)


def topological_generators(family: ContinuousFamily) -> np.ndarray:
    """A fixed ``(k, n, n)`` stack, k <= 3, generating a dense subgroup.

    ``a`` turns the planes (0, 1), (2, 3), ... and ``b`` the planes (1, 2),
    (3, 4), ..., plane (i, i + 1) by theta_i, the ``index_weights`` of the
    n - 1 planes.  These have no integer relation, so the powers of a fill
    the torus of its planes, and those of b theirs; the two tori hold every
    exp(t L_i), L_i = E_{i,i+1} - E_{i+1,i}, and the L_i generate so(n)
    (Hall, Lie Groups, Lie Algebras, and Representations, 2015, ch. 4).
    O(n) puts r = diag(-1, 1, ..., 1) first.  n = 2 takes a alone; SO(1)
    takes the identity, and O(1) r.
    """
    n, theta = family.n, index_weights(family.n - 1)
    elements = [np.diag([-1.0] + [1.0] * (n - 1))] if family.kind == "orthogonal" else []
    for first in range(min(2, n - 1)):
        elements.append(np.eye(n))
        for i in range(first, n - 1, 2):
            elements[-1][i : i + 2, i : i + 2] = rotation_matrix(theta[i])
    return np.stack(elements or [np.eye(n)])
