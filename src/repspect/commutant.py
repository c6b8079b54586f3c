"""The fixed-point algebra of the conjugation action and what it decides.

A matrix A commutes with every image rho(g) exactly when it is fixed by
the conjugation action a -> rho(g) a rho(g)^T.  The span of all such
matrices always contains the identity; its structure decides everything
this package certifies:

* the representation is irreducible exactly when the only *symmetric*
  commuting matrices are the multiples of the identity;
* for irreducible representations the full commuting algebra is a real
  division algebra, so its dimension (1, 2 or 4) classifies the
  representation as real, complex or quaternionic type;
* for reducible representations a symmetric commuting matrix that is not
  a multiple of the identity has an eigenspace that is a proper invariant
  subspace, which is extracted as an explicit witness; the matrix is the
  projection of a fixed, seed-free symmetric matrix, so the witness does
  not depend on the basis.

The permutation entries ``sn_permutation`` and ``sn_sum_zero`` have an
exact, seed-free basis: the indicator matrices of the orbitals, the orbits
of the group on ordered pairs of points (Higman, Coherent configurations
I, 1970), labelled by label propagation under the generators' index maps.
Normalized indicators have disjoint supports, so they are orthonormal, and
the basis comes out split: a self-paired orbital O = O^T is symmetric and
each pair {O, O^T} gives (1_O +- 1_O^T) / sqrt(2 |O|).  The diagonal
orbitals are the point orbits, so P = sum over point orbits O of
1_O 1_O^T / |O|.  For ``sn_sum_zero``, A -> H A H^T (H the Helmert rows)
maps the commuting A with zero row sums, and so zero column sums,
isometrically onto its commutant; keeping the combinations of each part
with zero row sums (t and t - 1 constraints for t point orbits) gives
counts d - 2t + 1 and s - t, and P is H P H^T.  Both counts must equal
those of the integer characters read off the payload (chi(g) the fixed
points of ``payload[g]``, less 1 on the sum-zero space, chi(g^2) those of
``payload[g][payload[g]]``), and the basis is checked against the
generator images.  No SVD runs and no table image is built; no singular
value is cut, so ``threshold`` reports the relative cutoff itself (the
commuting projector's singular values are exactly 0 and 1) and
``ambiguous_sigma`` is None.

Every other group takes one nullspace over its constraint images: the
generator images of a finite table, or the images of a continuous
family's fixed topological generators (two rotations by generic angles,
and a reflection on O(n)), which generate a dense subgroup.  A matrix
commuting with a set commutes with the closed group it generates, so the
span is exact and seed-free.  It also commutes with the symmetric
K = sum_i w_i (rho(g_i) + rho(g_i)^T), w fixed golden-ratio weights, so
it is block-diagonal over K's eigenspaces (Maehara & Murota, 2010): one
SVD of the commutation constraints on the entries inside those blocks
gives it, a stack of k n^2 rows and sum m^2 columns for eigenvalue
multiplicities m.  A finite table's images, accepted within
``ORTHOGONALITY_TOL`` of orthogonal, enter K and the constraints through
their Gram conjugates, orthogonal up to rounding.  It also counts the
dimension and that of its symmetric part from the characters
(Frobenius-Schur: (1/|G|) sum chi(g)^2 and
(1/|G|) sum (chi(g)^2 + chi(g^2))/2), and the rank and the split must
both agree with the counts.

Every basis comes out split, as one array with the symmetric elements
first: transposition maps the span to itself, so the nullspace splits
exactly into the ranges of (B + B^T)/2 and (B - B^T)/2.  Outside the
permutation entries, the vectors rho itself fixes, whose projector is
the P of the expectation check E(x) = E(P x), are the nullspace of the
stacked rho(g) - I over the same constraint images, under the same
cutoff rule; every basis carries its P.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSpectrum,
    InconsistentDimensions,
    NotReducible,
    RepspectError,
    ThresholdAmbiguity,
    TooLarge,
)
from .groups import golden_weights, orbit_labels, topological_generators
from .groups import haar_matrices  # not called here: perfbench's Tracer.install wraps it by this name
from .representations import Representation, gram_roots, sum_zero_basis

NULLSPACE_REL_THRESHOLD = 1e-8
CHARACTER_COUNT_TOL = 1e-6   # distance from an integer a character count may have
# The (k n^2, c) column stack of a commutant outside the orbitals, and the
# copy its SVD takes, may take at most this much together: the trivial
# group on 128 points (c = n^2, a 2 GiB stack) is refused.
COLUMN_STACK_BYTES = 512 * 2**20
# The dense orbital basis of a permutation entry, (d, n^2) floats, may take
# at most this much, as may the pair labels that find it.
ORBITAL_BASIS_BYTES = 256 * 2**20
PERMUTATION_ENTRIES = ("sn_permutation", "sn_sum_zero")  # commutants read off orbitals
WITNESS_GAP_TOL = 1e-8
WITNESS_RESIDUAL_TOL = 1e-6


@dataclass
class CommutantBasis:
    """Orthonormal basis (trace inner product) of the commuting span, split.

    ``basis`` is a ``(dim, n, n)`` array: ``sym_dim`` symmetric elements
    first, then ``skew_dim`` skew ones.  ``residual`` is the largest
    commutation defect of any basis element against any constraint
    matrix; ``threshold`` is the singular-value cutoff that defined the
    nullspace (on orbitals, which cut nothing, the relative cutoff
    itself).  ``constraints`` keeps the constraint images so later stages
    read the same evidence, and ``projector`` is P, the projector onto the
    vectors they fix: exact on orbitals, otherwise :func:`fixed_projector`
    of ``constraints``.
    """

    basis: np.ndarray
    dim: int
    sym_dim: int
    skew_dim: int
    residual: float
    threshold: float
    constraints: np.ndarray
    projector: np.ndarray
    ambiguous_sigma: float | None = None


@dataclass(frozen=True)
class TypeVerdict:
    """Irreducibility decision plus division-algebra type when it applies."""

    irreducible: bool
    type: str  # "R" | "C" | "H" | "not_applicable"
    commutant_dim: int
    sym_dim: int


@dataclass
class WitnessSubspace:
    """Orthonormal basis of a proper invariant subspace, with its residual."""

    basis: np.ndarray  # (n, m), orthonormal columns
    m: int
    residual: float


# ---------------------------------------------------------------------------
# nullspace machinery
# ---------------------------------------------------------------------------

def trace_orthonormal_nullspace(
    stacked: np.ndarray,
    rel_threshold: float = NULLSPACE_REL_THRESHOLD,
) -> tuple[np.ndarray, float, float | None]:
    """Nullspace rows of a stacked constraint matrix.

    Returns (rows, threshold, ambiguous_sigma) where rows are orthonormal
    right singular vectors whose singular values fall below the cutoff of
    :func:`_singular_cutoff`, and ambiguous_sigma is the singular value
    closest to the cutoff if any lies within a factor of ten of it.
    """
    # A tall stack (the commutant's column stacks are) needs no full U:
    # its vh is square either way, and only a wide stack has rows of vh
    # beyond the singular values.
    _, sigma, vh = np.linalg.svd(stacked, full_matrices=stacked.shape[0] < stacked.shape[1])
    sigma = np.concatenate([sigma, np.zeros(stacked.shape[1] - len(sigma))])
    threshold, ambiguous = _singular_cutoff(sigma, rel_threshold)
    return vh[sigma <= threshold], threshold, ambiguous


def _singular_cutoff(sigma: np.ndarray, rel_threshold: float) -> tuple[float, float | None]:
    """Cutoff ``rel_threshold * max(sigma_max, 1)`` for descending singular
    values.  The floor 1 is the spectral norm of an orthogonal image: a
    stack of rounding noise alone (the columns of rotation(pi), -I up to
    1e-16) is cut as null, not kept as constraints relative to its own
    largest value.

    Also returns the singular value closest to the cutoff (in log ratio)
    when one lies within a decade of it, else None.
    """
    threshold = rel_threshold * max(sigma[0] if len(sigma) else 0.0, 1.0)
    band = sigma[(sigma > threshold / 10.0) & (sigma < threshold * 10.0)]
    if not len(band):
        return threshold, None
    return threshold, float(band[np.argmin(np.abs(np.log(band / threshold)))])


def character_counts(images: np.ndarray) -> tuple[int, int]:
    """Commutant dimension and symmetric-part dimension from characters.

    For orthogonal images of a finite group these are
    d = (1/|G|) sum chi(g)^2 and s = (1/|G|) sum (chi(g)^2 + chi(g^2))/2,
    the dimensions of the invariant bilinear and symmetric bilinear forms
    (Serre, Linear Representations of Finite Groups, 2.3 and 13.2), with
    chi(g^2) = tr(rho(g) rho(g)).  A count off an integer means the table
    is not a group or the images are not a homomorphism, and raises
    InconsistentDimensions.
    """
    chi = np.trace(images, axis1=1, axis2=2)
    return _dimension_counts(chi, np.einsum("kij,kji->k", images, images))


def _dimension_counts(chi: np.ndarray, chi_of_square: np.ndarray) -> tuple[int, int]:
    """The counts of :func:`character_counts` from chi(g) and chi(g^2) over
    the table."""
    d = float(np.mean(chi * chi))
    s = float(np.mean(chi * chi + chi_of_square)) / 2.0
    for label, count in (("commutant", d), ("symmetric commutant", s)):
        if abs(count - round(count)) > CHARACTER_COUNT_TOL:
            raise InconsistentDimensions(
                f"character count of the {label} dimension is {count:.9g}, not an "
                "integer: the table is not a group or the images are not a homomorphism"
            )
    return round(d), round(s)


def _eigenspace_nullspace(
    constraints: np.ndarray, rel_threshold: float
) -> tuple[np.ndarray, float, float | None]:
    """Orthonormal rows (vectorized n x n matrices) spanning the matrices
    that commute with every constraint image, with the cutoff of their SVD.

    A matrix commuting with orthogonal images commutes with their
    transposes, so with K = sum_i w_i (G_i + G_i^T), w the
    ``golden_weights``: it maps each eigenspace of K to itself, and in K's
    eigenbasis Q it is block-diagonal over the clusters of K's eigenvalues
    (Maehara & Murota, 2010), clustered on the scale 2 sum w_i that bounds
    them.  Its entries (i, j) inside one block are the unknowns: the
    columns G' E_ij - E_ij G', G' = Q^T G Q, stacked over the constraints
    form a (k n^2, c) matrix, c the sum of the squared block sizes, whose
    nullspace Y maps back as A = Q Y Q^T, an isometry.  The stack and its
    SVD copy are checked against ``COLUMN_STACK_BYTES`` once c is known,
    before they are allocated.
    """
    k, n, _ = constraints.shape
    weights = golden_weights(k)
    combined = np.einsum("g,gij->ij", weights, constraints)
    eigvals, q = np.linalg.eigh(combined + combined.T)
    blocks = [idx for _, idx in _eigenvalue_clusters(eigvals / (2.0 * weights.sum()))]
    # Unknown p is the entry (ii[p], jj[p]) of Q^T A Q.
    ii = np.concatenate([np.repeat(idx, len(idx)) for idx in blocks])
    jj = np.concatenate([np.tile(idx, len(idx)) for idx in blocks])
    c = len(ii)
    needed = 2 * k * n * n * c * 8
    if needed > COLUMN_STACK_BYTES:
        raise TooLarge(
            f"commutant column stack: {k} constraint images in degree {n} with {c} "
            f"unknowns need {needed} bytes (stack and SVD copy), above the "
            f"{COLUMN_STACK_BYTES} byte budget"
        )
    rotated = q.T @ constraints @ q
    stack = np.zeros((k, n, n, c))
    unknowns = np.arange(c)
    stack[:, :, jj, unknowns] = rotated[:, :, ii]  # G' E_ij: column j is G'[:, i]
    stack[:, ii, :, unknowns] -= rotated[:, jj, :].transpose(1, 0, 2)  # E_ij G': row i is G'[j, :]
    y, threshold, ambiguous = trace_orthonormal_nullspace(stack.reshape(k * n * n, c), rel_threshold)
    blockwise = np.zeros((len(y), n, n))
    blockwise[:, ii, jj] = y
    return (q @ blockwise @ q.T).reshape(len(y), n * n), threshold, ambiguous


# ---------------------------------------------------------------------------
# permutation entries: orbitals
# ---------------------------------------------------------------------------

def _orbitals(generators: np.ndarray):
    """The orbitals of the group generated by ``(k, n)`` permutation images.

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


def _orbital_split(orbital: np.ndarray, transpose: np.ndarray):
    """Orthonormal symmetric and skew rows (vectorized n x n matrices)
    spanning the span of the orbital indicators.

    A self-paired orbital O = O^T gives its normalized indicator, and each
    pair {O, O^T} gives (1_O +- 1_O^T) / sqrt(2 |O|); disjoint supports
    make the rows orthonormal.
    """
    d = len(transpose)
    own = np.arange(d)
    paired = transpose != own
    support = np.bincount(orbital) * (1 + paired)  # entries of each orbital's rows
    value = 1.0 / np.sqrt(support)
    sym_of = np.unique(np.minimum(own, transpose), return_inverse=True)[1]
    skew_leads = np.flatnonzero(own < transpose)
    skew_of = np.zeros(d, dtype=np.intp)
    skew_of[skew_leads] = skew_of[transpose[skew_leads]] = np.arange(len(skew_leads))
    pairs = np.arange(len(orbital))
    sym = np.zeros((sym_of.max() + 1, len(orbital)))
    sym[sym_of[orbital], pairs] = value[orbital]
    skew = np.zeros((len(skew_leads), len(orbital)))
    on = paired[orbital]
    signed = np.where(own < transpose, value, -value)
    skew[skew_of[orbital[on]], pairs[on]] = signed[orbital[on]]
    return sym, skew


def _zero_row_sums(rows: np.ndarray, point_orbit: np.ndarray, constraints: int) -> np.ndarray:
    """Orthonormal combinations of the orthonormal commuting ``rows``, all
    symmetric or all skew, whose row sums vanish.

    Row sums of a commuting matrix are constant on point orbits, so its sums
    at one point of each of the first ``constraints`` orbits (the margins)
    are the constraints; a complete QR of the margins gives the combinations
    past its first ``constraints`` columns when the margins have full rank.
    Symmetric rows take all t orbits: an orbit's diagonal orbital adds to
    its margin alone.  Skew rows take t - 1: their margins weighted by orbit
    size sum to 1^T X 1 = 0, and for any two orbits a and b a paired
    orbital in a x b has margins e_a/|a| - e_b/|b| up to a factor.
    """
    n = len(point_orbit)
    leads = np.unique(point_orbit, return_index=True)[1][:constraints]
    margins = rows.reshape(len(rows), n, n)[:, leads].sum(axis=2)
    return np.linalg.qr(margins, mode="complete")[0][:, constraints:].T @ rows


def _helmert_conjugates(rows: np.ndarray, h: np.ndarray) -> np.ndarray:
    """H X H^T of each row X (a vectorized n x n matrix) in two products:
    the stacked X H^T, then H against them side by side."""
    m, n = len(rows), h.shape[1]
    right = (rows.reshape(m * n, n) @ h.T).reshape(m, n, n - 1)
    both = h @ right.transpose(1, 0, 2).reshape(n, m * (n - 1))
    return both.reshape(n - 1, m, n - 1).transpose(1, 0, 2).reshape(m, (n - 1) ** 2)


def _payload_characters(payload: np.ndarray, shift: int):
    """chi(g) and chi(g^2) of every table element, less ``shift``: the fixed
    points of ``payload[g]`` and of ``payload[g][payload[g]]``."""
    points = np.arange(payload.shape[1])
    chi = np.count_nonzero(payload == points, axis=1) - shift
    squares = np.take_along_axis(payload, payload, axis=1)
    return chi, np.count_nonzero(squares == points, axis=1) - shift


def _check_orbital_budget(rows: int, n: int, what: str) -> None:
    if rows * n * n * 8 > ORBITAL_BASIS_BYTES:
        raise TooLarge(
            f"{what} on {n} points needs {rows} x {n * n} floats, above the "
            f"{ORBITAL_BASIS_BYTES} byte budget"
        )


def _orbital_commutant(rep: Representation, rel_threshold: float) -> CommutantBasis:
    """The split commutant of ``sn_permutation``, or of ``sn_sum_zero``
    through its rows with zero row sums, read off the orbitals of the
    generators (see the module docstring).

    The counts d and s of the orbitals must equal those of the characters
    of the payload, or InconsistentDimensions is raised; the pair labels
    and the dense basis are checked against ``ORBITAL_BASIS_BYTES``
    before they are allocated.
    """
    table = rep.group
    n = table.payload.shape[1]
    generators = table.payload[table.generators]
    _check_orbital_budget(len(generators) + 2, n, "orbital labels")
    orbital, roots, transpose, point_orbit = _orbitals(generators)
    sum_zero = rep.catalog_id == "sn_sum_zero"
    t = int(point_orbit.max()) + 1
    d, s = len(roots), int(np.count_nonzero(transpose >= np.arange(len(roots))))
    if sum_zero:
        d, s = d - 2 * t + 1, s - t
    dim, sym_count = _dimension_counts(*_payload_characters(table.payload, int(sum_zero)))
    if (d, s) != (dim, sym_count):
        raise InconsistentDimensions(
            f"the orbitals give commutant dimension {d} ({s} symmetric); "
            f"the characters of the payload give {dim} ({sym_count})"
        )
    _check_orbital_budget(len(roots), n, f"orbital basis of dimension {len(roots)}")
    sym, skew = _orbital_split(orbital, transpose)
    fixed = np.eye(t)[point_orbit] / np.sqrt(np.bincount(point_orbit))
    projector = fixed @ fixed.T
    if sum_zero:
        h = sum_zero_basis(n)
        sym = _helmert_conjugates(_zero_row_sums(sym, point_orbit, t), h)
        skew = _helmert_conjugates(_zero_row_sums(skew, point_orbit, t - 1), h)
        projector = h @ projector @ h.T
    return _split_basis(sym, skew, rep.generator_images(), rel_threshold, projector)


def _split_basis(sym, skew, images, threshold, projector, ambiguous=None) -> CommutantBasis:
    """The :class:`CommutantBasis` of orthonormal symmetric and skew rows."""
    n = images.shape[1]
    basis = np.concatenate([sym, skew]).reshape(-1, n, n)
    return CommutantBasis(
        basis=basis,
        dim=len(basis),
        sym_dim=len(sym),
        skew_dim=len(skew),
        residual=_commutation_residual(basis, images),
        threshold=threshold,
        constraints=images,
        projector=projector,
        ambiguous_sigma=ambiguous,
    )


def commutant_basis(
    rep: Representation,
    *,
    rel_threshold: float = NULLSPACE_REL_THRESHOLD,
) -> CommutantBasis:
    """Compute the split commuting span of a representation; its group
    decides how.  Every path is a function of the representation alone.

    ``sn_permutation`` and ``sn_sum_zero`` read a split basis and P off
    the orbitals of their generators; counts other than the payload's
    character counts raise InconsistentDimensions, and a basis or pair
    labelling above ``ORBITAL_BASIS_BYTES`` raises TooLarge before it is
    allocated.

    Every other group takes the nullspace of :func:`_eigenspace_nullspace`
    and P from :func:`fixed_projector` over its constraint images, which
    are kept for later stages to re-verify against: a finite table's
    generator images (a matrix commuting with the generators commutes with
    all of their products; the nullspace reads their Gram conjugates), or
    the images of a continuous family's topological generators, on O(n)
    the reflection diag(-1, 1, ..., 1) first.  A finite table also counts
    the dimension d and the symmetric dimension from the characters of
    the table images; a count off an integer, a numerical rank other than
    d or a symmetric part of another dimension raises
    InconsistentDimensions.  A column stack above ``COLUMN_STACK_BYTES``
    raises TooLarge before it is allocated.

    The nullspace is split with :func:`split_symmetric_skew`, after warning
    with ThresholdAmbiguity when a singular value sits within a decade of
    the cutoff; an empty span raises RepspectError.
    """
    if rep.catalog_id in PERMUTATION_ENTRIES:
        return _orbital_commutant(rep, rel_threshold)
    if rep.finite:
        images, table_images = rep.generator_images(), rep.table_images()
        counts = character_counts(table_images)
        # Images up to ORTHOGONALITY_TOL off orthogonal keep their commutant
        # that far off K's eigenspaces, within reach of the cutoff; their
        # conjugates B^(1/2) rho B^(-1/2), B the table average of rho^T rho,
        # are orthogonal up to rounding.
        flat = table_images.reshape(-1, rep.dim)
        b_sqrt, b_isqrt = gram_roots(flat.T @ flat / len(table_images))
        orthogonal = b_sqrt @ images @ b_isqrt
    else:
        images, counts = rep.stack_map(topological_generators(rep.group)), None
        orthogonal = images
    rows, threshold, ambiguous = _eigenspace_nullspace(orthogonal, rel_threshold)
    if ambiguous is not None:
        warnings.warn(
            ThresholdAmbiguity(
                f"singular value {ambiguous:.3e} within a decade of cutoff {threshold:.3e}"
            )
        )
    if counts is not None and len(rows) != counts[0]:
        raise InconsistentDimensions(
            f"the commuting span has numerical rank {len(rows)}; the character count is {counts[0]}"
        )
    sym, skew = split_symmetric_skew(rows)
    if counts is not None and len(sym) != counts[1]:
        raise InconsistentDimensions(
            f"symmetric part has dimension {len(sym)}; the character count is {counts[1]}"
        )
    projector = fixed_projector(images, rel_threshold)
    return _split_basis(sym, skew, images, threshold, projector, ambiguous)


def _commutation_residual(basis: np.ndarray, images: np.ndarray) -> float:
    """Largest entry of rho b - b rho over the basis and the images."""
    worst = 0.0
    for b in basis:
        defects = images @ b - b @ images  # broadcast over the stack
        worst = max(worst, float(np.max(np.abs(defects))))
    return worst


def fixed_projector(
    constraints: np.ndarray, rel_threshold: float = NULLSPACE_REL_THRESHOLD
) -> np.ndarray:
    """Orthogonal projector V^T V onto the vectors every constraint image fixes.

    V is the nullspace of the stacked rho(g) - I, cut off by the same rule
    as the commutant's.  ``constraints`` is ``CommutantBasis.constraints``:
    the generator images of a finite table or the images of a continuous
    family's topological generators; either way their fixed vectors are
    the group's.
    """
    stack = np.array(constraints, dtype=float)
    k, n, _ = stack.shape
    stack[:, range(n), range(n)] -= 1.0
    rows, _, _ = trace_orthonormal_nullspace(stack.reshape(k * n, n), rel_threshold)
    return rows.T @ rows


# ---------------------------------------------------------------------------
# structure of the span
# ---------------------------------------------------------------------------

def span_project(basis: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Orthogonal projection of x onto the span of an orthonormal basis."""
    out = np.zeros_like(np.asarray(x, dtype=float))
    for b in basis:
        out += float(np.sum(b * x)) * b
    return out


def span_residual(basis: np.ndarray, x: np.ndarray) -> float:
    """Frobenius distance from x to the span of an orthonormal basis."""
    return float(np.linalg.norm(x - span_project(basis, x)))


def split_symmetric_skew(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal symmetric and skew rows spanning the span of the
    orthonormal commuting ``rows`` (vectorized n x n matrices).

    Transposition T maps the commuting span to itself (the images are
    orthogonal), and it is a symmetric involution, so in the basis of the
    orthonormal rows it is the d x d matrix A = rows T(rows)^T, with
    eigenvalues +1 (symmetric) and -1 (skew).  One ``eigh`` of A gives both parts as
    combinations of the rows.  An eigenvalue more than 0.5 from +-1 means
    the span is not closed under transposition, and raises
    InconsistentDimensions.
    """
    d = len(rows)
    if d == 0:
        raise RepspectError("empty commutant basis; the identity should always be present")
    n = math.isqrt(rows.shape[1])
    transposed = rows.reshape(d, n, n).transpose(0, 2, 1).reshape(d, n * n)
    w, u = np.linalg.eigh(rows @ transposed.T)
    if (np.abs(np.abs(w) - 1.0) > 0.5).any():
        raise InconsistentDimensions(
            f"transposition on the {d}-dim commuting span has eigenvalues in "
            f"[{w.min():.3g}, {w.max():.3g}], not +-1 within 0.5"
        )
    return u[:, w > 0].T @ rows, u[:, w < 0].T @ rows


def classify_and_decide(cb: CommutantBasis) -> TypeVerdict:
    """Decide irreducibility and, when it holds, the R/C/H type.

    A reducible orthogonal representation always commutes with the
    symmetric projector onto an invariant subspace, so irreducibility is
    equivalent to the symmetric part reducing to multiples of the
    identity.  For irreducible representations the span is a real
    division algebra and its dimension must be 1, 2 or 4.
    """
    irreducible = cb.sym_dim == 1
    if not irreducible:
        return TypeVerdict(False, "not_applicable", cb.dim, cb.sym_dim)
    kind = {1: "R", 2: "C", 4: "H"}.get(cb.dim)
    if kind is None:
        raise InconsistentDimensions(
            f"scalar symmetric part with commutant dimension {cb.dim} (expected 1, 2 or 4)"
        )
    return TypeVerdict(True, kind, cb.dim, cb.sym_dim)


# ---------------------------------------------------------------------------
# witness extraction
# ---------------------------------------------------------------------------

def witness_invariant_subspace(cb: CommutantBasis, rep: Representation) -> WitnessSubspace:
    """Extract a proper invariant subspace from a reducible commutant.

    Projects the seed-free D = W + W^T (W the ``golden_weights``) onto the
    symmetric part of the span, which does not depend on the basis, removes
    its identity component, and returns the eigenspace of the eigenvalue
    furthest from the spectral mean (ties: smaller eigenspace, then lower
    eigenvalue).  eigh fixes neither the signs nor the basis of that
    eigenspace, so the basis returned is the Q, with R's diagonal made
    positive, of the QR of fixed golden-ratio columns projected onto it:
    it depends on the subspace alone.  Invariance is re-verified against
    the constraint matrices that defined the commutant.
    """
    if cb.sym_dim < 2:
        raise NotReducible("symmetric part is scalar; no proper invariant subspace exists")
    n = rep.dim
    weights = golden_weights(n * n).reshape(n, n)
    candidate = span_project(cb.basis[: cb.sym_dim], weights + weights.T)
    candidate -= np.trace(candidate) / n * np.eye(n)
    nrm = float(np.linalg.norm(candidate))
    if nrm <= 1e-6:
        raise DegenerateSpectrum("the symmetric projection of D is numerically scalar")

    eigvals, eigvecs = np.linalg.eigh(candidate / nrm)
    clusters = _eigenvalue_clusters(eigvals)
    if len(clusters) < 2:
        raise DegenerateSpectrum("witness matrix spectrum has no usable gap")
    mean = float(eigvals.mean())
    dists = [abs(val - mean) for val, _ in clusters]
    top = max(dists)
    tied = [c for c, d in zip(clusters, dists) if top - d < WITNESS_GAP_TOL]
    _, indices = min(tied, key=lambda c: (len(c[1]), c[0]))
    eigenspace = eigvecs[:, indices]
    columns = golden_weights(n * len(indices)).reshape(n, -1)
    basis, r = np.linalg.qr(eigenspace @ (eigenspace.T @ columns))
    r_diag = np.diag(r)
    if np.min(np.abs(r_diag)) <= WITNESS_GAP_TOL:
        raise DegenerateSpectrum("the golden-ratio columns do not span the witness eigenspace")
    basis = basis * np.sign(r_diag)
    residual = _subspace_invariance_residual(basis, cb.constraints)
    if residual > WITNESS_RESIDUAL_TOL:
        raise RepspectError(
            f"witness eigenspace moves under the group (residual {residual:.2e})"
        )
    return WitnessSubspace(basis=basis, m=basis.shape[1], residual=residual)


def _eigenvalue_clusters(eigvals: np.ndarray):
    """Group (sorted) eigenvalues whose gaps are below ``WITNESS_GAP_TOL``."""
    clusters = []
    start = 0
    for i in range(1, len(eigvals) + 1):
        if i == len(eigvals) or eigvals[i] - eigvals[i - 1] > WITNESS_GAP_TOL:
            idx = list(range(start, i))
            clusters.append((float(eigvals[idx].mean()), idx))
            start = i
    return clusters


def _subspace_invariance_residual(basis: np.ndarray, images: np.ndarray) -> float:
    """Largest leakage of rho(g) W outside the column span of W."""
    proj = basis @ basis.T
    moved = images @ basis
    leak = moved - proj[None] @ moved
    return float(np.max(np.abs(leak)))
