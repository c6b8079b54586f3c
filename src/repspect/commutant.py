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

For a finite group table the span is the range of the Reynolds operator
A -> (1/|G|) sum_g rho(g) A rho(g)^T, an orthogonal projector on matrix
space.  Its dimension, and that of its symmetric part, are first counted
from the characters (Frobenius-Schur: (1/|G|) sum chi(g)^2 and
(1/|G|) sum (chi(g)^2 + chi(g^2))/2), then a basis is read off from the
Reynolds images of a few random matrices; the numerical rank and the
symmetric split must both agree with the counts.  A continuous group
has no table: its span is the fixed space of rho(g) (x) rho(g), the SVD
nullspace of the stacked kron(rho(g), rho(g)) - I, with g running over a
batch of invariant-distributed samples that is doubled until the
dimension stabilizes.

The vectors rho itself fixes, whose projector is the P of the expectation
check E(x) = E(P x), are the nullspace of the stacked rho(g) - I over the
same constraint images, under the same cutoff rule.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadParams,
    DegenerateSpectrum,
    InconsistentDimensions,
    NonStabilizedDimension,
    NotReducible,
    RepspectError,
    ThresholdAmbiguity,
    TooLarge,
)
from .groups import FiniteGroupTable, golden_weights, haar_matrices
from .representations import Representation

NULLSPACE_REL_THRESHOLD = 1e-8
# Sampled constraint images of the first round, and the most a continuous
# commutant may take before its dimension must have stabilized.
START_SAMPLES = 8
MAX_SAMPLES = 64
CHARACTER_COUNT_TOL = 1e-6   # distance from an integer a character count may have
RANGE_OVERSAMPLE = 4         # random matrices pushed beyond the counted dimension
# Each (d + RANGE_OVERSAMPLE, n, n) buffer of the Reynolds range (the random
# matrices, their average, the SVD input) may take at most this much: a
# few of them plus the SVD workspace must fit a 2-core, 7 GB machine next
# to the rest of the pipeline.
RANGE_BUFFER_BYTES = 256 * 2**20
# Table images are averaged in blocks whose products stay below this size,
# so the average adds little to the pipeline's peak memory.
REYNOLDS_BLOCK_BYTES = 2**20
# A sampled round's (k n^2, n^2) constraint stack may take at most this
# much: O(40) stabilizes at 16 images, a 328 MB stack.
SAMPLED_STACK_BYTES = 512 * 2**20
WITNESS_GAP_TOL = 1e-8
WITNESS_RESIDUAL_TOL = 1e-6


@dataclass
class CommutantBasis:
    """Orthonormal basis (trace inner product) of the commuting span.

    ``sym_dim``/``skew_dim`` are populated by :func:`split_symmetric_skew`,
    after which the basis lists the symmetric elements first.  ``residual``
    is the largest commutation defect of any basis element against any
    constraint matrix; ``threshold`` is the singular-value cutoff that
    defined the nullspace.  ``constraints`` keeps the constraint images
    so later stages, the fixed projector included, read the same evidence.
    ``sym_count`` is the character count of the symmetric part on finite
    tables, which :func:`split_symmetric_skew` checks its split against;
    it is ``None`` when the basis came from an SVD nullspace.
    """

    basis: list[np.ndarray]
    dim: int
    sym_dim: int | None
    skew_dim: int | None
    residual: float
    threshold: float
    constraints: np.ndarray
    ambiguous_sigma: float | None = None
    sym_count: int | None = None


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
    right singular vectors whose singular values fall below
    ``rel_threshold * sigma_max``, and ambiguous_sigma is the singular
    value closest to the cutoff if any lies within a factor of ten of it.
    """
    # A tall stack (the sampled constraints always are) needs no full U:
    # its vh is square either way, and only a wide stack has rows of vh
    # beyond the singular values.
    _, sigma, vh = np.linalg.svd(stacked, full_matrices=stacked.shape[0] < stacked.shape[1])
    sigma = np.concatenate([sigma, np.zeros(stacked.shape[1] - len(sigma))])
    threshold, ambiguous = _singular_cutoff(sigma, rel_threshold)
    return vh[sigma <= threshold], threshold, ambiguous


def _singular_cutoff(sigma: np.ndarray, rel_threshold: float) -> tuple[float, float | None]:
    """Cutoff ``rel_threshold * sigma_max`` for descending singular values.

    Also returns the singular value closest to the cutoff (in log ratio)
    when one lies within a decade of it, else None.
    """
    threshold = rel_threshold * sigma[0] if len(sigma) else 0.0
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
    chi_of_square = np.einsum("kij,kji->k", images, images)
    d = float(np.mean(chi * chi))
    s = float(np.mean(chi * chi + chi_of_square)) / 2.0
    for label, count in (("commutant", d), ("symmetric commutant", s)):
        if abs(count - round(count)) > CHARACTER_COUNT_TOL:
            raise InconsistentDimensions(
                f"character count of the {label} dimension is {count:.9g}, not an "
                "integer: the table is not a group or the images are not a homomorphism"
            )
    return round(d), round(s)


def _reynolds_range(
    images: np.ndarray,
    dim: int,
    rng: np.random.Generator,
    rel_threshold: float,
) -> tuple[np.ndarray, float, float | None]:
    """Orthonormal rows spanning the Reynolds range, whose rank must be ``dim``.

    The group average of rho(g) A rho(g)^T projects orthogonally onto the
    commuting span, so ``dim + RANGE_OVERSAMPLE`` Gaussian matrices pushed
    through it span the whole of it with probability one, and the spread
    of their singular values keeps clear of the cutoff.
    """
    k, n, _ = images.shape
    m = min(dim + RANGE_OVERSAMPLE, n * n)
    if m * n * n * 8 > RANGE_BUFFER_BYTES:
        raise TooLarge(
            f"commutant of dimension {dim} in degree {n} needs {m} x {n * n} buffers "
            f"above the {RANGE_BUFFER_BYTES} byte budget"
        )
    draws = rng.standard_normal((m, n, n))
    side_by_side = draws.transpose(1, 0, 2).reshape(n, m * n)  # [A_1 | ... | A_m]
    acc = np.zeros((m * n, n))
    block = max(1, REYNOLDS_BLOCK_BYTES // (m * n * n * 8))
    for start in range(0, k, block):
        rho = images[start : start + block]
        b = len(rho)
        # Rows (j, i) and columns (g, c) of left hold (rho(g) A_j)[i, c];
        # contracting (g, c) against rho(g)[l, c] sums rho(g) A_j rho(g)^T
        # over the block in one matrix product.
        left = (rho.reshape(b * n, n) @ side_by_side).reshape(b, n, m, n)
        left = left.transpose(2, 1, 0, 3).reshape(m * n, b * n)
        acc += left @ rho.transpose(0, 2, 1).reshape(b * n, n)
    _, sigma, vh = np.linalg.svd(acc.reshape(m, n * n) / k, full_matrices=False)
    threshold, ambiguous = _singular_cutoff(sigma, rel_threshold)
    rank = int(np.count_nonzero(sigma > threshold))
    if rank != dim:
        raise InconsistentDimensions(
            f"Reynolds range has numerical rank {rank}; the character count is {dim}"
        )
    return vh[:rank], threshold, ambiguous


def commutant_basis(
    rep: Representation,
    *,
    rng: np.random.Generator | None = None,
    rel_threshold: float = NULLSPACE_REL_THRESHOLD,
) -> CommutantBasis:
    """Compute the commuting span of a representation; its group decides how.

    A finite table counts the dimension d and the symmetric dimension
    from the characters of the table images, then takes the basis from
    the Reynolds images of d + 4 Gaussian matrices drawn from ``rng``;
    a count off an integer or a numerical rank other than d raises
    InconsistentDimensions, and a range too large for the buffer budget
    raises TooLarge before anything is drawn.  The generator images are
    kept as the constraints that later stages re-verify against: a
    matrix commuting with the generators commutes with all of their
    products.

    A continuous family takes the vectorized A fixed by every
    rho(g) A rho(g)^T, which for orthogonal images is the same as
    commuting with them, over Haar-sampled images.  The batch is doubled
    (``START_SAMPLES``, twice that, ...) until the computed dimension
    agrees across two consecutive rounds; failure to stabilize by
    ``MAX_SAMPLES`` raises NonStabilizedDimension, and a round whose
    constraint stack would exceed ``SAMPLED_STACK_BYTES`` raises TooLarge
    before its draws (the first round's before any).  On O(n) the first
    draw is made a reflection, since draws that all lie in SO(n) would
    give the commutant of SO(n).
    """
    rng = np.random.default_rng(0) if rng is None else rng
    sym_count = None
    if isinstance(rep.group, FiniteGroupTable):
        images = rep.generator_images()
        table_images = rep.table_images()
        dim, sym_count = character_counts(table_images)
        rows, threshold, ambiguous = _reynolds_range(table_images, dim, rng, rel_threshold)
    else:
        images, rows, threshold, ambiguous = _stabilized_sampled_nullspace(rep, rng, rel_threshold)

    basis = [row.reshape(rep.dim, rep.dim) for row in rows]
    cb = CommutantBasis(
        basis=basis,
        dim=len(basis),
        sym_dim=None,
        skew_dim=None,
        residual=_commutation_residual(basis, images),
        threshold=threshold,
        constraints=images,
        ambiguous_sigma=ambiguous,
        sym_count=sym_count,
    )
    if ambiguous is not None:
        warnings.warn(
            ThresholdAmbiguity(
                f"singular value {ambiguous:.3e} within a decade of cutoff {threshold:.3e}"
            )
        )
    return cb


def _fixed_rows(stack: np.ndarray, rel_threshold: float):
    """Nullspace rows of the stacked ``stack[i] - I``, which overwrites ``stack``."""
    k, m, _ = stack.shape
    stack[:, range(m), range(m)] -= 1.0
    return trace_orthonormal_nullspace(stack.reshape(k * m, m), rel_threshold)


def _conjugation_fixed_rows(images: np.ndarray, rel_threshold: float):
    k, n, _ = images.shape
    # Row (i, j), column (a, b) of rho (x) rho is rho[i, a] rho[j, b]: it
    # maps row-major A to rho A rho^T.
    kron = np.einsum("gia,gjb->gijab", images, images).reshape(k, n * n, n * n)
    return _fixed_rows(kron, rel_threshold)


def _stabilized_sampled_nullspace(rep, rng, rel_threshold):
    images = np.empty((0, rep.dim, rep.dim))
    rows = None
    k = START_SAMPLES
    while k <= MAX_SAMPLES:
        if k * rep.dim**4 * 8 > SAMPLED_STACK_BYTES:
            raise TooLarge(
                f"{k} sampled constraint images in degree {rep.dim} need a "
                f"{k * rep.dim**4 * 8} byte stack, above the {SAMPLED_STACK_BYTES} byte budget"
            )
        draws = haar_matrices(rep.group, rng, k - len(images))
        if not len(images) and rep.group.kind == "orthogonal":
            draws[0, :, 0] *= -np.sign(np.linalg.det(draws[0]))
        images = np.concatenate([images, rep.stack_map(draws)], axis=0)
        del draws
        new_rows, threshold, ambiguous = _conjugation_fixed_rows(images, rel_threshold)
        if rows is not None and len(new_rows) == len(rows):
            return images, new_rows, threshold, ambiguous
        rows = new_rows
        k *= 2
    raise NonStabilizedDimension(
        f"commutant dimension still changing at {len(images)} sampled constraints"
    )


def _commutation_residual(basis: list[np.ndarray], images: np.ndarray) -> float:
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
    the generator images of a finite table, whose fixed vectors are the
    group's, or the Haar images that stabilized a continuous commutant,
    which fix only the group's fixed vectors with probability one.
    """
    rows, _, _ = _fixed_rows(np.array(constraints, dtype=float), rel_threshold)
    return rows.T @ rows


# ---------------------------------------------------------------------------
# structure of the span
# ---------------------------------------------------------------------------

def span_project(basis: list[np.ndarray], x: np.ndarray) -> np.ndarray:
    """Orthogonal projection of x onto the span of an orthonormal basis."""
    out = np.zeros_like(np.asarray(x, dtype=float))
    for b in basis:
        out += float(np.sum(b * x)) * b
    return out


def span_residual(basis: list[np.ndarray], x: np.ndarray) -> float:
    """Frobenius distance from x to the span of an orthonormal basis."""
    return float(np.linalg.norm(x - span_project(basis, x)))


def split_symmetric_skew(cb: CommutantBasis) -> CommutantBasis:
    """Re-basis the span into purely symmetric and purely skew elements.

    Transposition maps the commuting span to itself (the images are
    orthogonal), so the span splits exactly into its symmetric and skew
    parts; (B +- B^T)/2 of every basis element spans them.
    """
    n = cb.basis[0].shape[0] if cb.basis else 0
    if cb.dim == 0:
        raise RepspectError("empty commutant basis; the identity should always be present")
    sym_rows = np.stack([((b + b.T) / 2.0).reshape(-1) for b in cb.basis])
    skew_rows = np.stack([((b - b.T) / 2.0).reshape(-1) for b in cb.basis])
    sym = _orthonormal_rows(sym_rows)
    skew = _orthonormal_rows(skew_rows)
    if len(sym) + len(skew) != cb.dim:
        raise InconsistentDimensions(
            f"symmetric/skew split gives {len(sym)} + {len(skew)} != {cb.dim}"
        )
    if cb.sym_count is not None and len(sym) != cb.sym_count:
        raise InconsistentDimensions(
            f"symmetric part has dimension {len(sym)}; the character count is {cb.sym_count}"
        )
    basis = [r.reshape(n, n) for r in sym] + [r.reshape(n, n) for r in skew]
    return CommutantBasis(
        basis=basis,
        dim=cb.dim,
        sym_dim=len(sym),
        skew_dim=len(skew),
        residual=_commutation_residual(basis, cb.constraints),
        threshold=cb.threshold,
        constraints=cb.constraints,
        ambiguous_sigma=cb.ambiguous_sigma,
        sym_count=cb.sym_count,
    )


def _orthonormal_rows(rows: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the row space.

    The rows are orthogonal projections of an orthonormal set, so their
    singular values sit near 0 or 1 and a 0.5 cutoff is unambiguous.
    """
    _, sigma, vh = np.linalg.svd(rows, full_matrices=False)
    return vh[sigma > 0.5]


def classify_and_decide(cb: CommutantBasis) -> TypeVerdict:
    """Decide irreducibility and, when it holds, the R/C/H type.

    A reducible orthogonal representation always commutes with the
    symmetric projector onto an invariant subspace, so irreducibility is
    equivalent to the symmetric part reducing to multiples of the
    identity.  For irreducible representations the span is a real
    division algebra and its dimension must be 1, 2 or 4.
    """
    if cb.sym_dim is None:
        raise BadParams("classify needs a split basis; call split_symmetric_skew first")
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
    if cb.sym_dim is None:
        raise BadParams("witness extraction needs a split basis")
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
