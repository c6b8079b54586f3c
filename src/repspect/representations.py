"""Orthogonal representations and the matrix-space geometry they act on.

A representation is a map from group elements to orthogonal matrices.  The
catalog covers the permutation action of the symmetric group and its
restriction to the sum-zero subspace, planar rotations of the cyclic and
dihedral families, left quaternion multiplication, the conjugation action
of SO(3) on traceless symmetric matrices, the defining action of the
orthogonal families, and explicit generator images (symmetrized to an
orthogonal form).

Every representation maps a stack of group payloads (permutation images
or matrices) to the stack of their images through one ``stack_map``;
table images, sampled images and the image of a single element all come
from it.  Orbit points rho(g) v of a payload stack come from ``orbit``,
which applies the image stack to v unless the representation has a
cheaper closed form: ``so3_traceless_symmetric`` maps v to the
coordinates of R V R^T and builds no image.  ``explicit`` images are
multiplied along the group table's Schreier tree, one batched product
per level, and looked up by payload; their table images are that stack
itself.

The module also carries the geometry used downstream: the trace inner
product on matrix space and the squaring map x -> x x^T from unit vectors
to unit-trace rank-one matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from .errors import BadParams, DimensionMismatch, NotUnitVector, SingularGram, UnknownName
from .groups import (
    FiniteGroupTable,
    GroupElement,
    GroupSource,
    GroupSpec,
    canonical_generators,
    orthogonality_defect,
)

ORTHOGONALITY_TOL = 1e-8
UNIT_TOL = 1e-10
GRAM_EIG_FLOOR = 1e-12


@dataclass(eq=False)
class Representation:
    """Concrete orthogonal representation of a group source.

    ``stack_map`` maps a stack of payloads, ``(k, degree)`` permutation
    images or ``(k, m, m)`` matrices, to the ``(k, dim, dim)`` stack of
    their orthogonal images.  ``orbit_map``, when set, maps a payload
    stack and one vector v to the rows rho(g) v without building the
    images.  ``basis_change`` records the Gram symmetrization applied to
    explicit generator images, if any.
    """

    dim: int
    stack_map: Callable[[np.ndarray], np.ndarray]
    group: GroupSource | None = None
    catalog_id: str | None = None
    basis_change: np.ndarray | None = None
    orbit_map: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    _images: np.ndarray | None = field(default=None, repr=False)

    @property
    def finite(self) -> bool:
        return isinstance(self.group, FiniteGroupTable)

    def evaluate(self, g: GroupElement) -> np.ndarray:
        """The image of one element."""
        return self.stack_map(g.payload[None])[0]

    def orbit(self, payloads: np.ndarray, v: np.ndarray) -> np.ndarray:
        """The ``(k, dim)`` rows rho(g_k) v of a stack of k payloads."""
        if self.orbit_map is not None:
            return self.orbit_map(payloads, v)
        return np.einsum("kij,j->ki", self.stack_map(payloads), v)

    def table_images(self) -> np.ndarray:
        """All element images of a finite group, stacked in table order."""
        if not self.finite:
            raise BadParams("table_images needs a finite group table")
        if self._images is None:
            self._images = self.stack_map(self.group.payload)
        return self._images

    def generator_images(self) -> np.ndarray:
        if not self.finite:
            raise BadParams("generator_images needs a finite group table")
        return self.stack_map(self.group.payload[self.group.generators])


# ---------------------------------------------------------------------------
# fixed bases
# ---------------------------------------------------------------------------

def permutation_images(payload: np.ndarray) -> np.ndarray:
    """Permutation matrices of a ``(k, n)`` stack of images: image j sends
    basis vector i to basis vector ``payload[j, i]``."""
    return np.eye(payload.shape[1])[payload].transpose(0, 2, 1)


def sum_zero_basis(n: int) -> np.ndarray:
    """Orthonormal rows spanning the hyperplane of zero coordinate sum.

    These are the rows 1..n-1 of the Helmert matrix: row k is
    (1, ..., 1, -k, 0, ..., 0) / sqrt(k (k + 1)) with k ones.
    """
    if n < 2:
        raise BadParams("sum-zero subspace needs n >= 2")
    k = np.arange(1, n)
    rows = np.tril(np.ones((n, n)), -1) - np.diag(np.arange(n))
    return rows[1:] / np.sqrt(k * (k + 1))[:, None]


def traceless_symmetric_basis() -> np.ndarray:
    """Orthonormal (Frobenius) basis of traceless symmetric 3x3 matrices."""
    basis = np.zeros((5, 3, 3))
    s = 1.0 / np.sqrt(2.0)
    for k, (i, j) in enumerate([(0, 1), (0, 2), (1, 2)]):
        basis[k, i, j] = s
        basis[k, j, i] = s
    basis[3] = np.diag([s, -s, 0.0])
    basis[4] = np.diag([1.0, 1.0, -2.0]) / np.sqrt(6.0)
    return basis


_TS_BASIS = traceless_symmetric_basis()
# Image entry (a, b) is <B_a, R B_b R^T> = sum (R kron R)[ij, pq] B_a[ij] B_b[pq],
# so the (k, 81) Kronecker rows times this (81, 25) matrix give the images.
_TS_KRON_TO_IMAGE = np.einsum(
    "ax,by->xyab", _TS_BASIS.reshape(5, 9), _TS_BASIS.reshape(5, 9)
).reshape(81, 25)
TS_IMAGE_BLOCK = 2048  # rotations per Kronecker block, bounding the (block, 81) buffer


def conjugation_on_traceless_symmetric(rots: np.ndarray) -> np.ndarray:
    """Images of a (k, 3, 3) stack of rotations acting by conjugation on the
    5-dim space, as a (k, 5, 5) stack.

    Each block of ``TS_IMAGE_BLOCK`` rotations is one GEMM of its R kron R
    rows with a constant (81, 25) matrix.
    """
    k = rots.shape[0]
    out = np.empty((k, 25))
    kron = np.empty((min(k, TS_IMAGE_BLOCK), 3, 3, 3, 3))  # [row, i, j, p, q]
    for start in range(0, k, TS_IMAGE_BLOCK):
        r = rots[start:start + TS_IMAGE_BLOCK]
        rows = kron[:r.shape[0]]
        np.multiply(r[:, :, None, :, None], r[:, None, :, None, :], out=rows)
        np.matmul(rows.reshape(-1, 81), _TS_KRON_TO_IMAGE, out=out[start:start + TS_IMAGE_BLOCK])
    return out.reshape(k, 5, 5)


def conjugation_orbit_on_traceless_symmetric(rots: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The (k, 5) rows rho(R) v of a (k, 3, 3) stack of rotations.

    rho(R) v holds the coordinates of R V R^T, where V = sum_b v_b B_b is
    the matrix of v: one GEMM for R V, one batched product for (R V) R^T
    and one GEMM against the basis, with no image built.
    """
    k = rots.shape[0]
    rv = (rots.reshape(3 * k, 3) @ np.einsum("a,aij->ij", v, _TS_BASIS)).reshape(k, 3, 3)
    return np.matmul(rv, rots.transpose(0, 2, 1)).reshape(k, 9) @ _TS_BASIS.reshape(5, 9).T


# ---------------------------------------------------------------------------
# explicit images and Gram symmetrization
# ---------------------------------------------------------------------------

def gram_symmetrize(raw_images: np.ndarray, table: FiniteGroupTable) -> Representation:
    """Conjugate the images of every table element into orthogonal form.

    Averages rho(g)^T rho(g) over the ``(|G|, d, d)`` stack ``raw_images``
    (in table order), takes the symmetric square root B^(1/2) of the
    average, and returns the equivalent representation
    B^(1/2) rho(g) B^(-1/2), which is orthogonal whenever the input is a
    homomorphism; it maps payloads to images by table lookup, and its
    table images are the symmetrized stack itself.
    ``basis_change`` on the result records B^(1/2).
    """
    raw = np.asarray(raw_images, dtype=float)
    dim = raw.shape[1]
    # Summed one element at a time in table order: a fixed summation order
    # keeps the average, and so every explicit image, the same to the bit.
    gram = sum(m.T @ m for m in raw) / table.order
    eigvals, eigvecs = np.linalg.eigh(gram)
    if eigvals.min() < GRAM_EIG_FLOOR:
        raise SingularGram(f"Gram average nearly singular (min eigenvalue {eigvals.min():.2e})")
    b_sqrt = (eigvecs * np.sqrt(eigvals)) @ eigvecs.T
    b_isqrt = (eigvecs / np.sqrt(eigvals)) @ eigvecs.T
    images = b_sqrt @ raw @ b_isqrt

    rep = Representation(
        dim,
        lambda payload: images[table.indices_of(payload)],
        table,
        basis_change=b_sqrt,
        _images=images,
    )
    worst = orthogonality_defect(images)
    if worst > ORTHOGONALITY_TOL:
        raise BadParams(
            f"symmetrized images are not orthogonal (defect {worst:.2e}); "
            "generator images likely violate the group relations"
        )
    return rep


def homomorphism_defect(rep: Representation, n_pairs: int = 100, rng=None) -> float:
    """Largest |rho(gh) - rho(g)rho(h)| over sampled element pairs.

    The product gh is canonicalized through the table, so images built
    along the table's tree are checked for well-definedness, not just for
    formal multiplicativity.
    """
    if not rep.finite:
        raise BadParams("homomorphism check over a table needs a finite group")
    table = rep.group
    rng = np.random.default_rng(0) if rng is None else rng
    i, j = rng.integers(table.order, size=(2, n_pairs))
    a, b = table.payload[i], table.payload[j]
    products = np.take_along_axis(a, b, axis=1) if a.ndim == 2 else a @ b
    images = rep.table_images()
    return float(np.max(np.abs(images[table.indices_of(products)] - images[i] @ images[j])))


# ---------------------------------------------------------------------------
# the catalog
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CatalogEntry:
    """One named representation, as validation, construction and
    ``repspect catalog`` read it.

    ``payload`` is the group it needs: ``permutation``, ``matrix``, or any
    ``finite`` group (images given per generator); ``degree`` fixes the
    payload degree where the entry needs one.  ``dim(degree, images)`` is
    the dimension rule and ``build(group, dim, images)`` constructs it;
    ``help`` (newline-separated) and ``dim_help`` are its catalog text.
    """

    name: str
    help: str
    dim_help: str
    payload: str
    dim: Callable[[int, list | None], int]
    build: Callable[[GroupSource, int, list | None], Representation]
    degree: int | None = None


def _permutation_rep(group, dim, _images) -> Representation:
    return Representation(dim, permutation_images, group)


def _sum_zero_rep(group, dim, _images) -> Representation:
    h = sum_zero_basis(dim + 1)
    return Representation(dim, lambda payload: h @ permutation_images(payload) @ h.T, group)


def _matrix_rep(stack_map, group, dim, _images, orbit_map=None) -> Representation:
    """Build a matrix-payload entry whose images are ``stack_map`` (and
    whose orbit points are ``orbit_map``, when given)."""
    if isinstance(group, FiniteGroupTable):
        worst = orthogonality_defect(group.payload)
        if worst > ORTHOGONALITY_TOL:
            raise BadParams(
                "group elements are not orthogonal (defect "
                f"{worst:.2e}); use the explicit representation to symmetrize"
            )
    return Representation(dim, stack_map, group, orbit_map=orbit_map)


def _images_dim(_degree, images) -> int:
    if images is None:
        raise BadParams("explicit representation needs generator_images")
    shapes = {np.shape(m) for m in images}
    if len(shapes) != 1 or len(shape := shapes.pop()) != 2 or shape[0] != shape[1]:
        raise BadParams("generator images must be square matrices of one size")
    return shape[0]


def _explicit_rep(group, _dim, generator_images) -> Representation:
    """Representation from explicit generator images, multiplied along the
    table's tree, symmetrized and checked."""
    images = np.stack([np.asarray(m, dtype=float) for m in generator_images])
    rep = gram_symmetrize(group.tree_product(images), group)
    defect = homomorphism_defect(rep, n_pairs=min(100, group.order**2))
    if defect > ORTHOGONALITY_TOL:
        raise BadParams(
            f"generator images are not a homomorphism (defect {defect:.2e})"
        )
    return rep


_DEFINING = partial(_matrix_rep, lambda stack: stack)  # the payloads are their own images

CATALOG = {entry.name: entry for entry in (
    CatalogEntry("sn_permutation", "permute coordinates of R^n", "n", "permutation",
                 lambda d, _: d, _permutation_rep),
    CatalogEntry("sn_sum_zero", "coordinate permutations restricted to\nthe zero-sum hyperplane",
                 "n-1", "permutation", lambda d, _: d - 1, _sum_zero_rep),
    CatalogEntry("cyclic_rotation", "defining rotation action of cyclic(n)", "2", "matrix",
                 lambda d, _: d, _DEFINING, degree=2),
    CatalogEntry("q8_left", "left quaternion multiplication", "4", "matrix",
                 lambda d, _: d, _DEFINING, degree=4),
    CatalogEntry("so3_traceless_symmetric", "conjugation on traceless symmetric 3x3", "5",
                 "matrix", lambda d, _: 5,
                 partial(_matrix_rep, conjugation_on_traceless_symmetric,
                         orbit_map=conjugation_orbit_on_traceless_symmetric), degree=3),
    CatalogEntry("defining_orthogonal", "matrix group acting on column vectors", "n", "matrix",
                 lambda d, _: d, _DEFINING),
    CatalogEntry("explicit", "generator images, symmetrized", "set by images", "finite",
                 _images_dim, _explicit_rep),
)}


def _payload(group: GroupSpec | GroupSource) -> tuple[bool, int, int | None]:
    """(permutation payloads, payload degree, generator count) of a spec or
    a group; a finite spec is read from its generators, without closing it.
    The generator count is None for a continuous family."""
    if isinstance(group, GroupSpec) and group.is_finite:
        payload = canonical_generators(group)
        n_generators = len(payload)
    elif isinstance(group, FiniteGroupTable):
        payload, n_generators = group.payload, len(group.generators)
    else:  # a continuous family or its spec
        return False, group.n, None
    return payload.ndim == 2, payload.shape[1], n_generators


def catalog_dim(
    name: str, group: GroupSpec | GroupSource, n: int | None = None, generator_images=None
) -> int:
    """Dimension of catalog representation ``name`` on ``group``.

    ``group`` is a GroupSpec, read without closing it, or a built group;
    both pass the same checks.  Raises UnknownName outside ``CATALOG`` and
    BadParams when the payloads do not fit the entry, when ``n`` is given
    and is not the payload degree, or when generator images are missing,
    given to an entry that takes none, or not one per generator.
    """
    entry = CATALOG.get(name) if isinstance(name, str) else None
    if entry is None:
        raise UnknownName(f"unknown representation name {name!r}; see the catalog")
    permutes, degree, n_generators = _payload(group)
    finite = n_generators is not None
    if n is not None and n != degree:
        raise BadParams(f"{name!r}: the group's payloads have degree {degree}, not n={n}")
    if generator_images is not None and entry.payload != "finite":
        raise BadParams(f"{name!r} takes no generator_images")
    if not {"permutation": permutes, "matrix": not permutes, "finite": finite}[entry.payload]:
        raise BadParams(f"{name!r} needs a {entry.payload} group")
    if generator_images is not None and len(generator_images) != n_generators:
        raise BadParams(
            f"got {len(generator_images)} generator images for {n_generators} generators"
        )
    if entry.degree not in (None, degree):
        raise BadParams(f"{name!r} needs degree-{entry.degree} payloads, group has {degree}")
    dim = entry.dim(degree, generator_images)
    if dim < 1:
        raise BadParams(f"{name!r} has no dimensions on degree-{degree} payloads")
    return dim


def build_named_rep(
    name: str, group: GroupSource, n: int | None = None, generator_images=None
) -> Representation:
    """Build catalog representation ``name`` on an already-constructed group.

    ``catalog_dim`` checks the pair first: ``n``, when given, must be the
    group's payload degree (points permuted, or the matrix size), and
    ``generator_images`` (``explicit`` only) are the generator images in
    order, multiplied along the table's tree and Gram-symmetrized to an
    orthogonal form.
    """
    dim = catalog_dim(name, group, n, generator_images)
    rep = CATALOG[name].build(group, dim, generator_images)
    rep.catalog_id = name
    return rep


# ---------------------------------------------------------------------------
# matrix-space geometry
# ---------------------------------------------------------------------------

def _check_unit(v: np.ndarray, what: str) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    nrm = float(np.linalg.norm(v))
    if abs(nrm - 1.0) > UNIT_TOL:
        raise NotUnitVector(f"{what} has norm {nrm!r}")
    return v


def diag_map(x: np.ndarray) -> np.ndarray:
    """Rank-one symmetric matrix x x^T of a unit vector.

    The output has unit trace and unit Frobenius norm, and the map
    commutes with the group actions: (g x)(g x)^T = g (x x^T) g^T.
    """
    x = _check_unit(x, "x")
    return np.outer(x, x)


def frobenius_inner(a: np.ndarray, b: np.ndarray) -> float:
    """Trace inner product sum_ij a_ij b_ij."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shapes {a.shape} and {b.shape} differ")
    return float(np.sum(a * b))
