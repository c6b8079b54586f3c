"""Orthogonal representations and the matrix-space geometry they act on.

A representation is a map from group elements to orthogonal matrices.  The
catalog covers the permutation action of the symmetric group and its
restriction to the sum-zero subspace, planar rotations of the cyclic and
dihedral families, left quaternion multiplication, the conjugation action
of SO(3) on traceless symmetric matrices, the defining action of the
orthogonal families, and explicit generator images (symmetrized to an
orthogonal form).

The module also carries the geometry used downstream: the trace inner
product on matrix space, rank-one projections, the conjugation action
g*a*g^-1, and the squaring map x -> x x^T from unit vectors to unit-trace
rank-one matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.linalg import helmert

from .errors import (
    BadParams,
    DimensionMismatch,
    NotUnitVector,
    SingularGram,
    UnknownName,
    ZeroDirection,
)
from .groups import (
    ContinuousFamily,
    FiniteGroupTable,
    GroupElement,
    GroupSource,
    multiply,
    orthogonality_defect,
)

ORTHOGONALITY_TOL = 1e-8
UNIT_TOL = 1e-10
GRAM_EIG_FLOOR = 1e-12

CATALOG_NAMES = (
    "sn_permutation",
    "sn_sum_zero",
    "cyclic_rotation",
    "q8_left",
    "so3_traceless_symmetric",
    "defining_orthogonal",
    "explicit",
)


@dataclass(eq=False)
class Representation:
    """Concrete orthogonal representation of a group source.

    ``evaluate`` maps a GroupElement to its dim x dim orthogonal matrix.
    ``matrix_stack_map``, when present, maps a (k, m, m) stack of matrix
    payloads to the (k, dim, dim) stack of images in one shot; it exists
    for the continuous families where sampling is batched.
    ``basis_change`` records the Gram symmetrization applied to explicit
    generator images, if any.
    """

    dim: int
    evaluate: Callable[[GroupElement], np.ndarray]
    group: GroupSource | None = None
    catalog_id: str | None = None
    basis_change: np.ndarray | None = None
    matrix_stack_map: Callable[[np.ndarray], np.ndarray] | None = None
    _images: np.ndarray | None = field(default=None, repr=False)

    @property
    def finite(self) -> bool:
        return isinstance(self.group, FiniteGroupTable)

    def table_images(self) -> np.ndarray:
        """All element images of a finite group, stacked in table order."""
        if not self.finite:
            raise BadParams("table_images needs a finite group table")
        if self._images is None:
            self._images = np.stack([self.evaluate(g) for g in self.group.elements])
        return self._images

    def generator_images(self) -> list[np.ndarray]:
        if not self.finite:
            raise BadParams("generator_images needs a finite group table")
        return [self.evaluate(g) for g in self.group.generators]


# ---------------------------------------------------------------------------
# fixed bases
# ---------------------------------------------------------------------------

def perm_matrix(p: tuple[int, ...]) -> np.ndarray:
    """Orthogonal matrix sending basis vector i to basis vector p[i]."""
    return np.eye(len(p))[list(p)].T


def sum_zero_basis(n: int) -> np.ndarray:
    """Orthonormal rows spanning the hyperplane of zero coordinate sum."""
    if n < 2:
        raise BadParams("sum-zero subspace needs n >= 2")
    return helmert(n)


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


def conjugation_on_traceless_symmetric(rots: np.ndarray) -> np.ndarray:
    """Images of 3x3 rotations acting by conjugation on the 5-dim space.

    Accepts one (3, 3) matrix or a (k, 3, 3) stack and returns matching
    (5, 5) output(s).
    """
    single = rots.ndim == 2
    r = rots[None] if single else rots
    transformed = np.einsum("kip,bpq,kjq->kbij", r, _TS_BASIS, r)
    out = np.einsum("aij,kbij->kab", _TS_BASIS, transformed)
    return out[0] if single else out


# ---------------------------------------------------------------------------
# catalog construction
# ---------------------------------------------------------------------------

def build_named_rep(
    name: str,
    group: GroupSource,
    n: int | None = None,
    generator_images=None,
) -> Representation:
    """Build a catalog representation on an already-constructed group.

    Parameters
    ----------
    name : str
        One of ``sn_permutation``, ``sn_sum_zero``, ``cyclic_rotation``,
        ``q8_left``, ``so3_traceless_symmetric``, ``defining_orthogonal``,
        ``explicit``.
    group : FiniteGroupTable or ContinuousFamily
        The group the representation acts for.  Must structurally match
        the name (permutation elements for the ``sn_*`` entries, matrix
        payloads of the right size otherwise).
    n : int, optional
        Degree/dimension parameter; inferred from the group when omitted.
    generator_images : sequence of matrices, required for ``explicit``
        Images of the group generators, one per generator, in order.
        They are closed over generator words and Gram-symmetrized to an
        orthogonal form.
    """
    if name == "sn_permutation":
        return _build_permutation_rep(group, n, sum_zero=False)
    if name == "sn_sum_zero":
        return _build_permutation_rep(group, n, sum_zero=True)
    if name in ("cyclic_rotation", "q8_left", "defining_orthogonal"):
        expected = {"cyclic_rotation": 2, "q8_left": 4}.get(name)
        return _build_defining_rep(group, n, catalog_id=name, expected_dim=expected)
    if name == "so3_traceless_symmetric":
        return _build_so3_traceless_symmetric(group)
    if name == "explicit":
        if generator_images is None:
            raise BadParams("explicit representation needs generator_images")
        return build_explicit_rep(group, generator_images)
    raise UnknownName(f"no catalog representation named {name!r}")


def _perm_degree(group: GroupSource) -> int:
    if not isinstance(group, FiniteGroupTable) or not group.elements[0].is_permutation:
        raise BadParams("permutation representation needs a permutation group table")
    return group.elements[0].degree


def _build_permutation_rep(group, n, sum_zero: bool) -> Representation:
    degree = _perm_degree(group)
    if n is not None and n != degree:
        raise BadParams(f"group permutes {degree} points, rep asked for n={n}")
    if not sum_zero:
        return Representation(
            dim=degree,
            evaluate=lambda g: perm_matrix(g.perm),
            group=group,
            catalog_id="sn_permutation",
        )
    h = sum_zero_basis(degree)
    return Representation(
        dim=degree - 1,
        evaluate=lambda g: h @ perm_matrix(g.perm) @ h.T,
        group=group,
        catalog_id="sn_sum_zero",
    )


def _matrix_payload_dim(group: GroupSource) -> int:
    if isinstance(group, ContinuousFamily):
        return group.n
    if group.elements[0].is_permutation:
        raise BadParams("defining representation needs matrix payloads")
    return group.elements[0].degree


def _build_defining_rep(group, n, catalog_id: str, expected_dim: int | None) -> Representation:
    dim = _matrix_payload_dim(group)
    if expected_dim is not None and dim != expected_dim:
        raise BadParams(f"{catalog_id} needs {expected_dim}x{expected_dim} payloads, group has {dim}")
    if n is not None and catalog_id == "defining_orthogonal" and n != dim:
        raise BadParams(f"group acts on R^{dim}, rep asked for n={n}")
    if isinstance(group, FiniteGroupTable):
        worst = orthogonality_defect(np.stack([g.matrix for g in group.elements]))
        if worst > ORTHOGONALITY_TOL:
            raise BadParams(
                "group elements are not orthogonal (defect "
                f"{worst:.2e}); use the explicit representation to symmetrize"
            )
    return Representation(
        dim=dim,
        evaluate=lambda g: g.matrix,
        group=group,
        catalog_id=catalog_id,
        matrix_stack_map=lambda stack: stack,
    )


def _build_so3_traceless_symmetric(group) -> Representation:
    if isinstance(group, ContinuousFamily):
        dim_ok = group.n == 3
    else:
        first = group.elements[0]
        dim_ok = not first.is_permutation and first.degree == 3
    if not dim_ok:
        raise BadParams("traceless-symmetric conjugation action needs 3x3 payloads")
    return Representation(
        dim=5,
        evaluate=lambda g: conjugation_on_traceless_symmetric(g.matrix),
        group=group,
        catalog_id="so3_traceless_symmetric",
        matrix_stack_map=conjugation_on_traceless_symmetric,
    )


# ---------------------------------------------------------------------------
# explicit images and Gram symmetrization
# ---------------------------------------------------------------------------

def word_evaluator(images: list[np.ndarray]) -> Callable[[GroupElement], np.ndarray]:
    """Evaluator multiplying generator images along an element's word."""
    dim = images[0].shape[0]

    def evaluate(g: GroupElement) -> np.ndarray:
        m = np.eye(dim)
        for i in g.word:
            m = m @ images[i]
        return m

    return evaluate


def gram_symmetrize(raw_evaluator, table: FiniteGroupTable) -> Representation:
    """Conjugate a finite-group evaluator into orthogonal form.

    Averages g -> rho(g)^T rho(g) over the whole table, takes the
    symmetric square root B^(1/2) of the average, and returns the
    equivalent evaluator B^(1/2) rho(g) B^(-1/2), which is orthogonal
    whenever the input is a homomorphism.  ``basis_change`` on the result
    records B^(1/2).
    """
    if not table.complete:
        raise BadParams("Gram symmetrization needs a complete table")
    mats = [np.asarray(raw_evaluator(g), dtype=float) for g in table.elements]
    dim = mats[0].shape[0]
    gram = sum(m.T @ m for m in mats) / table.order
    eigvals, eigvecs = np.linalg.eigh(gram)
    if eigvals.min() < GRAM_EIG_FLOOR:
        raise SingularGram(f"Gram average nearly singular (min eigenvalue {eigvals.min():.2e})")
    b_sqrt = (eigvecs * np.sqrt(eigvals)) @ eigvecs.T
    b_isqrt = (eigvecs / np.sqrt(eigvals)) @ eigvecs.T

    def evaluate(g: GroupElement) -> np.ndarray:
        return b_sqrt @ np.asarray(raw_evaluator(g), dtype=float) @ b_isqrt

    rep = Representation(
        dim=dim,
        evaluate=evaluate,
        group=table,
        catalog_id="explicit",
        basis_change=b_sqrt,
    )
    worst = orthogonality_defect(rep.table_images())
    if worst > ORTHOGONALITY_TOL:
        raise BadParams(
            f"symmetrized images are not orthogonal (defect {worst:.2e}); "
            "generator images likely violate the group relations"
        )
    return rep


def build_explicit_rep(group: GroupSource, generator_images) -> Representation:
    """Representation from explicit generator images, symmetrized and checked."""
    if not isinstance(group, FiniteGroupTable):
        raise BadParams("explicit representations are supported for finite groups only")
    images = [np.asarray(m, dtype=float) for m in generator_images]
    if len(images) != len(group.generators):
        raise BadParams(
            f"got {len(images)} generator images for {len(group.generators)} generators"
        )
    dims = {m.shape for m in images}
    if len(dims) != 1 or images[0].ndim != 2 or images[0].shape[0] != images[0].shape[1]:
        raise BadParams("generator images must be square matrices of one size")
    rep = gram_symmetrize(word_evaluator(images), group)
    defect = homomorphism_defect(rep, n_pairs=min(100, group.order**2))
    if defect > ORTHOGONALITY_TOL:
        raise BadParams(
            f"generator images are not a homomorphism (defect {defect:.2e})"
        )
    return rep


def homomorphism_defect(rep: Representation, n_pairs: int = 100, rng=None) -> float:
    """Largest |rho(gh) - rho(g)rho(h)| over sampled element pairs.

    The product gh is canonicalized through the table, so evaluators that
    depend on the stored generator word are checked for well-definedness,
    not just for formal multiplicativity.
    """
    if not rep.finite:
        raise BadParams("homomorphism check over a table needs a finite group")
    table = rep.group
    rng = np.random.default_rng(0) if rng is None else rng
    images = rep.table_images()
    worst = 0.0
    for _ in range(n_pairs):
        i = int(rng.integers(table.order))
        j = int(rng.integers(table.order))
        prod = multiply(table.elements[i], table.elements[j])
        lhs = images[table.index_of(prod)]
        rhs = images[i] @ images[j]
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


# ---------------------------------------------------------------------------
# matrix-space geometry
# ---------------------------------------------------------------------------

def conjugation_action(g: GroupElement, a: np.ndarray, rep: Representation) -> np.ndarray:
    """Conjugate a matrix by the image of g: rho(g) a rho(g)^T."""
    m = rep.evaluate(g)
    a = np.asarray(a, dtype=float)
    if a.shape != (rep.dim, rep.dim):
        raise DimensionMismatch(f"matrix shape {a.shape} != ({rep.dim}, {rep.dim})")
    # images are orthogonal, so the inverse is the transpose
    return m @ a @ m.T


def diag_map(x: np.ndarray) -> np.ndarray:
    """Rank-one symmetric matrix x x^T of a unit vector.

    The output has unit trace and unit Frobenius norm, and the map
    commutes with the group actions: (g x)(g x)^T = g (x x^T) g^T.
    """
    x = np.asarray(x, dtype=float)
    nrm = float(np.linalg.norm(x))
    if abs(nrm - 1.0) > UNIT_TOL:
        raise NotUnitVector(f"|x| = {nrm!r}")
    return np.outer(x, x)


def frobenius_inner(a: np.ndarray, b: np.ndarray) -> float:
    """Trace inner product sum_ij a_ij b_ij."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shapes {a.shape} and {b.shape} differ")
    return float(np.sum(a * b))


def project_matrix(b: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Orthogonal projection of b onto the line spanned by a."""
    denom = frobenius_inner(a, a)
    if denom < 1e-24:
        raise ZeroDirection("projection direction is zero")
    return (frobenius_inner(a, b) / denom) * np.asarray(a, dtype=float)
