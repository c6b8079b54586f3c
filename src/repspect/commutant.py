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
  subspace, which is extracted as an explicit witness.

For a finite group table the span is the range of the Reynolds operator
A -> (1/|G|) sum_g rho(g) A rho(g)^T, an orthogonal projector on matrix
space.  Its dimension, and that of its symmetric part, are first counted
from the characters (Frobenius-Schur: (1/|G|) sum chi(g)^2 and
(1/|G|) sum (chi(g)^2 + chi(g^2))/2), then a basis is read off from the
Reynolds images of a few random matrices; the numerical rank and the
symmetric split must both agree with the counts.  The reference path,
used for all-element constraints and for continuous groups, is the SVD
nullspace of stacked linear constraints rho(g) A - A rho(g) = 0, with g
running over all table elements or over a batch of invariant-distributed
samples.
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
from .groups import ContinuousFamily, FiniteGroupTable, haar_matrices
from .representations import Representation

NULLSPACE_REL_THRESHOLD = 1e-8
ELEMENT_SOURCE_CAP = 10_000
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
    so later stages can re-verify against the same evidence.
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
# invariant projector
# ---------------------------------------------------------------------------

def reynolds_matrix(rep: Representation) -> np.ndarray:
    """Exact group average of the representation matrices of a finite table."""
    return rep.table_images().mean(axis=0)


def reynolds_matrix_mc(rep: Representation, rng: np.random.Generator, n_samples: int) -> np.ndarray:
    """Monte Carlo estimate of the group average of the images."""
    return _sample_constraint_images(rep, rng, n_samples).mean(axis=0)


# ---------------------------------------------------------------------------
# nullspace machinery
# ---------------------------------------------------------------------------

def commutation_constraint_rows(image: np.ndarray) -> np.ndarray:
    """Linear map A -> rho(g) A - A rho(g) on row-major vectorized A."""
    n = image.shape[0]
    eye = np.eye(n)
    return np.kron(image, eye) - np.kron(eye, image.T)


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
    _, sigma, vh = np.linalg.svd(stacked, full_matrices=True)
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


def _sample_constraint_images(rep: Representation, rng: np.random.Generator, k: int) -> np.ndarray:
    if not isinstance(rep.group, ContinuousFamily):
        raise BadParams("sampled constraints need a continuous family")
    return rep.stack_map(haar_matrices(rep.group, rng, k))


def commutant_basis(
    rep: Representation,
    source: str = "auto",
    *,
    rng: np.random.Generator | None = None,
    rel_threshold: float = NULLSPACE_REL_THRESHOLD,
    element_cap: int = ELEMENT_SOURCE_CAP,
    start_samples: int = 8,
    max_samples: int = 64,
) -> CommutantBasis:
    """Compute the commuting span of a representation.

    ``source`` selects how: ``generators`` or ``elements`` for finite
    groups, ``samples`` for continuous families; ``auto`` picks generators
    when finite, samples otherwise.

    ``generators`` counts the dimension d and the symmetric dimension
    from the characters of the table images, then takes the basis from
    the Reynolds images of d + 4 Gaussian matrices drawn from ``rng``;
    a count off an integer or a numerical rank other than d raises
    InconsistentDimensions, and a range too large for the buffer budget
    raises TooLarge before anything is drawn.  The generator images are
    kept as the constraints that later stages re-verify against: a
    matrix commuting with the generators commutes with all of their
    products.

    ``elements`` (the reference) and ``samples`` take the SVD nullspace of
    the stacked commutation constraints.  In the sampled case the batch is
    doubled (8, 16, 32, ...) until the computed dimension agrees across two
    consecutive rounds; failure to stabilize by ``max_samples`` raises
    NonStabilizedDimension.
    """
    finite = isinstance(rep.group, FiniteGroupTable)
    if source == "auto":
        source = "generators" if finite else "samples"
    rng = np.random.default_rng(0) if rng is None else rng

    sym_count = None
    if source in ("generators", "elements") and not finite:
        raise BadParams(f"source {source!r} needs a finite group table")
    if source == "generators":
        images = rep.generator_images()
        table_images = rep.table_images()
        dim, sym_count = character_counts(table_images)
        rows, threshold, ambiguous = _reynolds_range(table_images, dim, rng, rel_threshold)
    elif source == "elements":
        if rep.group.order > element_cap:
            raise TooLarge(
                f"table has {rep.group.order} elements; all-element constraints capped at {element_cap}"
            )
        images = rep.table_images()
        rows, threshold, ambiguous = _nullspace_of_images(images, rel_threshold)
    elif source == "samples":
        if finite:
            raise BadParams("source 'samples' is for continuous families")
        images, rows, threshold, ambiguous = _stabilized_sampled_nullspace(
            rep, rng, rel_threshold, start_samples, max_samples
        )
    else:
        raise BadParams(f"unknown constraint source {source!r}")

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


def _nullspace_of_images(images: np.ndarray, rel_threshold: float):
    stacked = np.concatenate([commutation_constraint_rows(m) for m in images], axis=0)
    return trace_orthonormal_nullspace(stacked, rel_threshold)


def _stabilized_sampled_nullspace(rep, rng, rel_threshold, start_samples, max_samples):
    images = _sample_constraint_images(rep, rng, start_samples)
    rows, threshold, ambiguous = _nullspace_of_images(images, rel_threshold)
    k = start_samples
    while 2 * k <= max_samples:
        extra = _sample_constraint_images(rep, rng, k)
        images = np.concatenate([images, extra], axis=0)
        k *= 2
        new_rows, threshold, ambiguous = _nullspace_of_images(images, rel_threshold)
        if len(new_rows) == len(rows):
            return images, new_rows, threshold, ambiguous
        rows = new_rows
    raise NonStabilizedDimension(
        f"commutant dimension still changing at {k} sampled constraints"
    )


def _commutation_residual(basis: list[np.ndarray], images: np.ndarray) -> float:
    worst = 0.0
    for b in basis:
        defects = images @ b - b @ images  # broadcast over the stack
        worst = max(worst, float(np.max(np.abs(defects))))
    return worst


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

def witness_invariant_subspace(
    cb: CommutantBasis,
    rep: Representation,
    gap_tol: float = WITNESS_GAP_TOL,
    residual_tol: float = WITNESS_RESIDUAL_TOL,
) -> WitnessSubspace:
    """Extract a proper invariant subspace from a reducible commutant.

    Takes a symmetric basis element independent of the identity,
    removes its identity component, and returns the eigenspace of the
    eigenvalue furthest from the spectral mean (ties: smaller eigenspace,
    then lower eigenvalue).  Invariance is re-verified against the
    constraint matrices that defined the commutant.
    """
    if cb.sym_dim is None:
        raise BadParams("witness extraction needs a split basis")
    if cb.sym_dim < 2:
        raise NotReducible("symmetric part is scalar; no proper invariant subspace exists")
    n = rep.dim
    ident = np.eye(n) / np.sqrt(n)
    candidate = None
    for b in cb.basis[: cb.sym_dim]:
        reduced = b - float(np.sum(ident * b)) * ident
        nrm = float(np.linalg.norm(reduced))
        if nrm > 1e-6:
            candidate = reduced / nrm
            break
    if candidate is None:
        raise DegenerateSpectrum("all symmetric elements are numerically scalar")

    eigvals, eigvecs = np.linalg.eigh(candidate)
    clusters = _eigenvalue_clusters(eigvals, gap_tol)
    if len(clusters) < 2:
        raise DegenerateSpectrum("witness matrix spectrum has no usable gap")
    mean = float(eigvals.mean())
    dists = [abs(val - mean) for val, _ in clusters]
    top = max(dists)
    tied = [c for c, d in zip(clusters, dists) if top - d < gap_tol]
    value, indices = min(tied, key=lambda c: (len(c[1]), c[0]))
    basis = eigvecs[:, indices]
    residual = _subspace_invariance_residual(basis, cb.constraints)
    if residual > residual_tol:
        raise RepspectError(
            f"witness eigenspace moves under the group (residual {residual:.2e})"
        )
    return WitnessSubspace(basis=basis, m=basis.shape[1], residual=residual)


def _eigenvalue_clusters(eigvals: np.ndarray, gap_tol: float):
    """Group (sorted) eigenvalues whose gaps are below gap_tol."""
    clusters = []
    start = 0
    for i in range(1, len(eigvals) + 1):
        if i == len(eigvals) or eigvals[i] - eigvals[i - 1] > gap_tol:
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
