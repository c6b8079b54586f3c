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
table images and sampled images both come from it, and one payload p
maps as ``stack_map(p[None])[0]``.  Orbit points rho(g) v of a payload
stack come from ``orbit``, which applies the image stack to v unless the
representation has a cheaper closed form: ``so3_traceless_symmetric``
maps v to the coordinates of R V R^T and builds no image, and its images
are that same map applied to the five basis vectors; ``sn_permutation``
moves the coordinates of v by the payload, and ``sn_sum_zero`` does the
same to v in ambient coordinates.  ``explicit``
images are multiplied along the group table's Schreier tree, one batched
product per level, and looked up by payload; their table images are that
stack itself.

The module also carries the geometry used downstream: the trace inner
product on matrix space and the squaring map x -> x x^T from unit vectors
to unit-trace rank-one matrices.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .errors import BadParams, DimensionMismatch, NotUnitVector, SingularGram, UnknownName
from .groups import (
    FiniteGroupTable,
    GroupSource,
    GroupSpec,
    PermutationGroup,
    canonical_generators,
    orthogonality_defect,
)

ORTHOGONALITY_TOL = 1e-8
UNIT_TOL = 1e-10
GRAM_EIG_FLOOR = 1e-12
# Entries whose commutant, P and orbit moments are read off the orbitals of
# the generators, on a table or on a table-free PermutationGroup alike.
PERMUTATION_ENTRIES = ("sn_permutation", "sn_sum_zero")


class Representation:
    """Concrete orthogonal representation of a group source.

    ``stack_map`` maps a stack of payloads, ``(k, degree)`` permutation
    images or ``(k, m, m)`` matrices, to the ``(k, dim, dim)`` stack of
    their orthogonal images.  ``orbit_map``, when set, maps a payload
    stack and one vector v to the rows rho(g) v without building the
    images.  ``basis_change`` records the Gram symmetrization applied to
    explicit generator images, if any.
    """

    def __init__(
        self,
        dim: int,
        stack_map: Callable[[np.ndarray], np.ndarray],
        group: GroupSource | None = None,
        catalog_id: str | None = None,
        basis_change: np.ndarray | None = None,
        orbit_map: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
    ):
        self.dim = dim
        self.stack_map = stack_map
        self.group = group
        self.catalog_id = catalog_id
        self.basis_change = basis_change
        self.orbit_map = orbit_map
        self._images: np.ndarray | None = None

    @property
    def finite(self) -> bool:
        return isinstance(self.group, (FiniteGroupTable, PermutationGroup))

    def orbit(self, payloads: np.ndarray, v: np.ndarray) -> np.ndarray:
        """The ``(k, dim)`` rows rho(g_k) v of a stack of k payloads; without
        an ``orbit_map``, the view of a ``(dim, k)`` array, one row per
        coordinate."""
        if self.orbit_map is not None:
            return self.orbit_map(payloads, v)
        return np.einsum("kij,j->ik", self.stack_map(payloads), v, order="C").T

    def table_images(self) -> np.ndarray:
        """All element images of a finite group, stacked in table order."""
        if not isinstance(self.group, FiniteGroupTable):
            raise BadParams("table_images needs a finite group table")
        if self._images is None:
            self._images = self.stack_map(self.group.payload)
        return self._images

    def generator_images(self) -> np.ndarray:
        if not self.finite:
            raise BadParams("generator_images needs a finite group")
        return self.stack_map(self.group.generator_payloads)


# ---------------------------------------------------------------------------
# fixed bases
# ---------------------------------------------------------------------------

def permutation_images(payload: np.ndarray) -> np.ndarray:
    """Permutation matrices of a ``(k, n)`` stack of images: image j sends
    basis vector i to basis vector ``payload[j, i]``."""
    return np.eye(payload.shape[1])[payload].transpose(0, 2, 1)


def permutation_orbit(payload: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The ``(k, n)`` rows P(g) v of a ``(k, n)`` stack of images, with no
    image built: P(g) moves coordinate i of v to ``payload[g, i]``."""
    rows = np.empty(payload.shape)
    np.put_along_axis(rows, payload, np.broadcast_to(v, payload.shape), axis=1)
    return rows


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
_SQRT2, _SQRT6 = np.sqrt(2.0), np.sqrt(6.0)


def conjugation_on_traceless_symmetric(rots: np.ndarray) -> np.ndarray:
    """Images of a (k, 3, 3) stack of rotations acting by conjugation on the
    5-dim space, as a (k, 5, 5) stack.

    Column b of an image is rho(R) e_b, the orbit map of the basis vector e_b.
    """
    return np.stack([conjugation_orbit_on_traceless_symmetric(rots, e) for e in np.eye(5)], axis=2)


def conjugation_orbit_on_traceless_symmetric(rots: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The (k, 5) rows rho(R) v of a (k, 3, 3) stack of rotations.

    rho(R) v holds the coordinates of S = R V R^T, where V = sum_b v_b B_b
    is the matrix of v.  The stack is read as ``(3, 3, k)``, one row per
    entry of R (contiguous for ``haar_matrices`` draws).  V is symmetric, so
    row i of R V is V applied to row i of R, one batched GEMM.  S is
    symmetric, so its six entries S_ij = <(R V)_i, R_j> are three-term
    products of rows, and the five Frobenius coordinates <B_a, S>, in the
    order of ``traceless_symmetric_basis``, are written as the five rows
    of a ``(5, k)`` array, with no image built; the result is its
    ``(k, 5)`` view.
    """
    r = np.moveaxis(rots, 0, 2)
    rv = np.matmul(np.einsum("a,aij->ij", v, _TS_BASIS), r)

    def entry(i, j):
        a, b = rv[i], r[j]
        return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]

    s00, s11, s22 = entry(0, 0), entry(1, 1), entry(2, 2)
    out = np.empty((5, r.shape[2]))
    out[0] = _SQRT2 * entry(0, 1)
    out[1] = _SQRT2 * entry(0, 2)
    out[2] = _SQRT2 * entry(1, 2)
    out[3] = (s00 - s11) / _SQRT2
    out[4] = (s00 + s11 - 2.0 * s22) / _SQRT6
    return out.T


# ---------------------------------------------------------------------------
# explicit images and Gram symmetrization
# ---------------------------------------------------------------------------

def gram_roots(gram: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """B^(1/2) and B^(-1/2) of a Gram average B; SingularGram if B is nearly singular."""
    eigvals, eigvecs = np.linalg.eigh(gram)
    if eigvals.min() < GRAM_EIG_FLOOR:
        raise SingularGram(f"Gram average nearly singular (min eigenvalue {eigvals.min():.2e})")
    return (eigvecs * np.sqrt(eigvals)) @ eigvecs.T, (eigvecs / np.sqrt(eigvals)) @ eigvecs.T


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
    b_sqrt, b_isqrt = gram_roots(sum(m.T @ m for m in raw) / table.order)
    images = b_sqrt @ raw @ b_isqrt

    rep = Representation(
        dim,
        lambda payload: images[table.indices_of(payload)],
        table,
        basis_change=b_sqrt,
    )
    rep._images = images
    worst = orthogonality_defect(images)
    if worst > ORTHOGONALITY_TOL:
        raise BadParams(
            f"symmetrized images are not orthogonal (defect {worst:.2e}); "
            "generator images likely violate the group relations"
        )
    return rep


def homomorphism_defect(rep: Representation) -> float:
    """Largest |rho(g s) - rho(g) rho(s)| over every element g and generator
    s, the Cayley graph's edges: complete, as generators give every element.

    The product g s is canonicalized through the table, so images built
    along the table's tree are checked for well-definedness, not just for
    formal multiplicativity.  One generator's products are alive at a time.
    """
    if not isinstance(rep.group, FiniteGroupTable):
        raise BadParams("homomorphism check over a table needs a finite group table")
    table = rep.group
    images = rep.table_images()
    worst = 0.0
    for s in table.generators:
        step = table.payload[s]
        products = table.payload[:, step] if step.ndim == 1 else table.payload @ step
        defects = images[table.indices_of(products)] - images @ images[s]
        worst = max(worst, float(np.max(np.abs(defects))))
    return worst


# ---------------------------------------------------------------------------
# the catalog
# ---------------------------------------------------------------------------

class CatalogEntry(NamedTuple):
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
    return Representation(dim, permutation_images, group, orbit_map=permutation_orbit)


def _sum_zero_rep(group, dim, _images) -> Representation:
    h = sum_zero_basis(dim + 1)
    return Representation(
        dim,
        lambda payload: h @ permutation_images(payload) @ h.T,
        group,
        orbit_map=lambda payload, v: permutation_orbit(payload, h.T @ v) @ h.T,
    )


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
    if not isinstance(group, FiniteGroupTable):
        raise BadParams("'explicit' needs a finite group table")
    images = np.stack([np.asarray(m, dtype=float) for m in generator_images])
    rep = gram_symmetrize(group.tree_product(images), group)
    defect = homomorphism_defect(rep)
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
    elif isinstance(group, (FiniteGroupTable, PermutationGroup)):
        payload = group.generator_payloads
    else:  # a continuous family or its spec
        return False, group.n, None
    return payload.ndim == 2, payload.shape[1], len(payload)


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
