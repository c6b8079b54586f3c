"""Invariant probability measures and their second-moment statistics.

The central statistic is the mean squared overlap E<x,y>^2 of two
independent draws from an invariant measure on the unit sphere of a
representation space.  It always satisfies E<x,y>^2 >= 1/n, with equality
for every invariant measure exactly when the representation is
irreducible; the estimators and exact finite-group sums here put numbers
on both sides of that statement.

A measure with a finite law (a discrete measure, or an orbit of a finite
group) has exact statistics: its point matrix, the orbit ``O`` (rows
rho(g) v) or the weighted support, gives its second moment
``M = E[x x^T]`` as a ``SecondMomentMatrix(exact=True)`` with zero
stderr, and ``|M|_F^2`` is its exact ``E<x,y>^2``; an orbit of a
representation marked ``permutation`` forms no point, and its M is read
off the orbitals of the generators.
``exact_finite_orbit_moments`` and ``exact_discrete_overlap`` expose
that M.  Monte Carlo covers only the
measures with no finite law: the uniform sphere and subspheres and the
orbits of continuous groups; ``make_sampler`` refuses the others.  The
invariance of a discrete measure is checked on the generator images
alone.  Every ``SecondMomentMatrix`` also holds E[x], so the expectation
check E(x) = E(P x) reads that one moment record and draws nothing.

Monte Carlo estimates are a deterministic function of (seed, worker
count, sample count): sampling is partitioned into per-worker substreams
and reduced in a fixed order.  Every estimator draws ``_sample_blocks``
of at most 8,192 draws and 512 KB, successive blocks continuing each
substream, and holds one block at a time: a block's draws are summed
into the moment record and its overlap values merged into a running
count, mean and M2 before the next block is drawn, so memory does not
depend on the sample count.  A sphere or subsphere draws the blocks of
a worker chunk into one buffer, each block overwriting the last.  Blocks
are coordinate-major: a C-contiguous ``(dim, count)`` array, one row per
coordinate, of which the sampled rows are the ``(count, dim)`` view; the
estimators work on the array, so norms, chained values and sums run along
contiguous rows, and the record of a block is x x^T of that array (GEMMs
against a copy up to ``GEMM_RECORD_DIM`` coordinates, ``syrk`` above).
Every sampled measure draws one point per pair: a worker chunk of N pairs
draws N + 1 points and chains them, <x_i, x_{i+1}>^2.  The chained values
are iid on an invariant measure: on a sphere or subsphere by rotation
invariance, and on an orbit x_j = rho(k_j) v because k_i^-1 k_{i+1} is
again Haar distributed and independent of k_0 ... k_i.  The same draws
give the measure's moment record.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from typing import NamedTuple

import numpy as np

from .errors import (
    BadMeasureSpec,
    BadParams,
    NotDiscrete,
    NotSumZero,
    TooLarge,
    TraceNotOne,
)
from .groups import MatrixIndex, group_orbitals, haar_matrices, stream
from .representations import Representation, _check_unit, column_dots, image_orbit

PROB_SUM_TOL = 1e-12
DISCRETE_POINT_TOL = 1e-8  # see check_discrete_invariance
DISCRETE_PROB_TOL = 1e-10
# Floats per block of draws (512 KB) and draws per block: a sampler's
# ``block`` is ORBIT_BLOCK_FLOATS // dim vectors, or for a continuous orbit
# ORBIT_BLOCK_FLOATS // max(n, dim)^2 payloads (2621 for SO(3) on dim 5),
# so its payloads and the images the default ``orbit`` builds stay that size,
# and at most BLOCK_DRAWS, so each per-draw vector of a block (norms,
# chained values) stays within 64 KB.  A sphere fills its Gaussians through
# a scratch of at most GAUSSIAN_FILL_FLOATS (64 KB), taken from the same
# budget: its block is (ORBIT_BLOCK_FLOATS - scratch) // dim vectors.
# The Monte Carlo estimators hold one block of draws at a time.
ORBIT_BLOCK_FLOATS = 65_536
BLOCK_DRAWS = 8_192
GAUSSIAN_FILL_FLOATS = 8_192
# The moment record of a block of at most this many coordinates is summed by
# GEMMs against copies of GAUSSIAN_FILL_FLOATS pieces, wider ones by syrk
# (see _MomentSums).
GEMM_RECORD_DIM = 7
FACTORIAL_GUARD = 8


class MeasureSpec(NamedTuple):
    """Description of an invariant probability measure on the unit sphere.

    kinds: ``orbit`` (push-forward of the group's invariant distribution
    through g -> rho(g) base), ``uniform_sphere``, ``uniform_subsphere``
    (uniform on the unit sphere of the column span of ``subspace``), and
    ``discrete`` (finitely many unit ``points`` with ``probs``).
    """

    kind: str
    base: np.ndarray | None = None
    subspace: np.ndarray | None = None
    points: np.ndarray | None = None
    probs: np.ndarray | None = None


class MomentEstimate(NamedTuple):
    """A scalar moment with its sampling error; stderr is 0 when exact."""

    value: float
    stderr: float
    n_samples: int
    exact: bool


class SecondMomentMatrix(NamedTuple):
    """Mean of x x^T with per-entry standard errors (zeros when exact),
    and the mean of x over the same draws or points."""

    entries: np.ndarray
    n_samples: int
    exact: bool
    stderr: np.ndarray
    mean: np.ndarray


# ---------------------------------------------------------------------------
# measure constructors
# ---------------------------------------------------------------------------

def orbit_measure(base: np.ndarray) -> MeasureSpec:
    return MeasureSpec(kind="orbit", base=_check_unit(base, "orbit base"))


def uniform_sphere() -> MeasureSpec:
    return MeasureSpec(kind="uniform_sphere")


def uniform_subsphere(subspace: np.ndarray) -> MeasureSpec:
    w = np.atleast_2d(np.asarray(subspace, dtype=float))
    if w.shape[0] < w.shape[1]:
        raise BadMeasureSpec("subspace must have orthonormal columns (n x m, m <= n)")
    gram = w.T @ w
    if np.max(np.abs(gram - np.eye(w.shape[1]))) > 1e-8:
        raise BadMeasureSpec("subspace columns are not orthonormal")
    return MeasureSpec(kind="uniform_subsphere", subspace=w)


def discrete_measure(points, probs) -> MeasureSpec:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    pr = np.asarray(probs, dtype=float)
    if pr.ndim != 1:
        raise BadMeasureSpec(f"probabilities must be a flat list of numbers, got shape {pr.shape}")
    if pts.shape[0] != pr.shape[0]:
        raise BadMeasureSpec(f"{pts.shape[0]} points vs {pr.shape[0]} probabilities")
    if (pr < 0).any():
        raise BadMeasureSpec("probabilities must be nonnegative")
    if abs(pr.sum() - 1.0) > PROB_SUM_TOL:
        raise BadMeasureSpec(f"probabilities sum to {pr.sum()!r}, not 1")
    for i, p in enumerate(pts):
        _check_unit(p, f"discrete point {i}")
    return MeasureSpec(kind="discrete", points=pts, probs=pr)


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def _block_rows(floats_per_draw: int, floats: int = ORBIT_BLOCK_FLOATS) -> int:
    return max(1, min(BLOCK_DRAWS, floats // floats_per_draw))


class VectorSampler:
    """Stateless batch sampler of unit vectors for one measure.

    The estimators draw ``block`` rows at a time, at most ``BLOCK_DRAWS``
    draws and ``ORBIT_BLOCK_FLOATS`` floats, and may overwrite them.
    Draws are iid and row by row, so successive blocks continue one
    stream, and ``squared_overlap_values`` pairs each draw with the next.
    ``sample(rng, count, buf)`` returns ``(count, dim)`` rows; the built-in
    samplers return the view of a C-contiguous ``(dim, count)`` array, one
    row per coordinate, which is what the estimators read.  It may draw
    into ``buf``, the scratch that ``buffer()`` makes for a worker chunk,
    and return a view of it that the next call overwrites; called without
    a buffer, it returns a fresh array.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.block = _block_rows(dim)

    def buffer(self):
        """Scratch for one block of draws, or None when each block is
        drawn into fresh memory."""
        return None

    def sample(self, rng: np.random.Generator, count: int, buf=None) -> np.ndarray:
        raise NotImplementedError


class _SphereSampler(VectorSampler):
    """Normalized Gaussians.  They are drawn row by row, ``fill`` draws at a
    time, into a ``(fill, dim)`` scratch of at most ``GAUSSIAN_FILL_FLOATS``
    and copied transposed into the block, which with that scratch holds at
    most ``ORBIT_BLOCK_FLOATS``."""

    def __init__(self, dim: int):
        super().__init__(dim)
        self.fill = _block_rows(dim, GAUSSIAN_FILL_FLOATS)
        self.block = _block_rows(dim, ORBIT_BLOCK_FLOATS - self.fill * dim)

    def buffer(self, rows: int | None = None):
        """A flat block of ``rows`` draws (``block`` by default) and the
        Gaussian scratch."""
        rows = self.block if rows is None else rows
        return np.empty(self.dim * rows), np.empty((min(self.fill, rows), self.dim))

    def sample(self, rng, count, buf=None):
        flat, scratch = self.buffer(count) if buf is None else buf
        z = flat[: self.dim * count].reshape(self.dim, count)
        for start in range(0, count, len(scratch)):
            g = scratch[: count - start]
            rng.standard_normal(out=g)
            z[:, start : start + len(g)] = g.T
        norms = column_dots(z, z)
        np.sqrt(norms, out=norms)
        while (norms < 1e-12).any():  # probability-zero guard
            bad = norms < 1e-12
            z[:, bad] = rng.standard_normal((int(bad.sum()), self.dim)).T
            norms = np.sqrt(column_dots(z, z))
        z /= norms
        return z.T


class _SubsphereSampler(VectorSampler):
    def __init__(self, subspace: np.ndarray):
        super().__init__(subspace.shape[0])
        self.subspace = subspace
        self._inner = _SphereSampler(subspace.shape[1])

    def buffer(self):
        return np.empty(self.dim * self.block), self._inner.buffer(self.block)

    def sample(self, rng, count, buf=None):
        flat, inner = (np.empty(self.dim * count), None) if buf is None else buf
        out = flat[: self.dim * count].reshape(self.dim, count)
        return np.matmul(self.subspace, self._inner.sample(rng, count, inner).T, out=out).T


class _ContinuousOrbitSampler(VectorSampler):
    def __init__(self, rep: Representation, base: np.ndarray):
        super().__init__(rep.dim)
        self.rep = rep
        self.base = base
        self.block = _block_rows(max(rep.group.n, rep.dim) ** 2)

    def sample(self, rng, count, buf=None):
        return self.rep.orbit(haar_matrices(self.rep.group, rng, count), self.base)


def make_sampler(spec: MeasureSpec, rep: Representation) -> VectorSampler:
    """Build the sampler realizing a measure without a finite law.

    An orbit of a group whose ``order`` is None, a continuous family,
    draws a group element from the invariant distribution and pushes it
    through g -> rho(g) base; any stabilizer of the base point is handled
    implicitly by the push-forward.  A discrete measure, or an orbit of a
    group with an order (a table or a table-free permutation group), has
    exact moments and no sampler: it raises BadMeasureSpec.
    """
    if spec.kind == "uniform_sphere":
        return _SphereSampler(rep.dim)
    if spec.kind == "uniform_subsphere":
        if spec.subspace.shape[0] != rep.dim:
            raise BadMeasureSpec(
                f"subspace lives in R^{spec.subspace.shape[0]}, representation in R^{rep.dim}"
            )
        return _SubsphereSampler(spec.subspace)
    if spec.kind == "discrete":
        if spec.points.shape[1] != rep.dim:
            raise BadMeasureSpec(
                f"points live in R^{spec.points.shape[1]}, representation in R^{rep.dim}"
            )
        raise BadMeasureSpec("a discrete measure has exact moments; it is not sampled")
    if spec.kind == "orbit":
        if spec.base.shape != (rep.dim,):
            raise BadMeasureSpec(
                f"orbit base has shape {spec.base.shape}, representation dim {rep.dim}"
            )
        if rep.group.order is not None:
            raise BadMeasureSpec("an orbit of a finite group has exact moments; it is not sampled")
        return _ContinuousOrbitSampler(rep, spec.base)
    raise BadMeasureSpec(f"unknown measure kind {spec.kind!r}")


# ---------------------------------------------------------------------------
# Monte Carlo estimators
# ---------------------------------------------------------------------------

def _chunk_sizes(n: int, workers: int) -> list[int]:
    """Sizes of the per-worker chunks of n samples; every estimator splits
    its samples here, so this is where their counts are checked."""
    if n < 2:
        raise BadParams(f"need at least 2 samples, got {n}")
    if not 1 <= workers <= n:
        raise BadParams(f"workers must be between 1 and the {n} samples, got {workers}")
    base, rem = divmod(n, workers)
    return [base + 1] * rem + [base] * (workers - rem)


def _sample_blocks(sampler: VectorSampler, rng: np.random.Generator, size: int):
    """``size`` draws from rng, ``sampler.block`` rows at a time.

    Every sampler draws row by row and successive draws continue the
    stream, so the blocks stack to the draws of one
    ``sampler.sample(rng, size)`` call (barring a re-drawn singular Haar
    draw, which has probability zero).  The blocks are drawn into one
    ``sampler.buffer()`` per call, a worker chunk, when the sampler has
    one: a block holds at most 8,192 draws and 512 KB of draws and is
    overwritten by the next, so a caller copies what it keeps.  A block of
    a built-in sampler is the ``(count, dim)`` view of a C-contiguous
    ``(dim, count)`` array: the sphere and subsphere take the first
    ``dim * count`` floats of a flat buffer, so a short last block is
    contiguous too.  Without a buffer each block is fresh, and a caller
    that ends its loop body with ``del`` on the block holds one block at a
    time; a loop variable would keep it alive while the next one is drawn.
    """
    buf = sampler.buffer()
    for start in range(0, size, sampler.block):
        yield sampler.sample(rng, min(sampler.block, size - start), buf)


class _MomentSums:
    """Running sums of x x^T, (x*x)^T (x*x) and x over blocks of draws:
    two matrix products per block and O(n^2) memory.

    A block of at most ``GEMM_RECORD_DIM`` coordinates takes each product
    as GEMMs against a copy of the block, made in pieces of at most
    ``GAUSSIAN_FILL_FLOATS`` into one buffer that the sums own: numpy
    sends z z^T to BLAS ``syrk``, which on OpenBLAS costs 1.2-1.8 times a
    GEMM per draw up to 7 coordinates.  Wider blocks keep ``syrk``: from 8
    to 16 coordinates the two are within about 15% either way, and
    ``syrk`` is the faster at 20 and 40.  The block is squared whole, in
    place, between the two products: squaring its strided pieces would
    make numpy allocate iterator buffers.
    """

    def __init__(self, dim: int):
        self.count = 0
        self.outer = np.zeros((dim, dim))
        self.outer_sq = np.zeros((dim, dim))
        self.total = np.zeros(dim)
        self._copy = np.empty(GAUSSIAN_FILL_FLOATS) if dim <= GEMM_RECORD_DIM else None

    def add(self, x: np.ndarray) -> None:
        """Add a block of draws, the rows of ``x``, squaring it in place.
        Its transpose, one row per coordinate, is what is summed."""
        z = x.T
        self.count += z.shape[1]
        self._add_gram(z, self.outer)
        self.total += np.einsum("ik->i", z)
        z *= z
        self._add_gram(z, self.outer_sq)

    def _add_gram(self, z: np.ndarray, acc: np.ndarray) -> None:
        """acc += z z^T."""
        if self._copy is None:
            acc += z @ z.T
            return
        step = len(self._copy) // len(z)
        for start in range(0, z.shape[1], step):
            piece = z[:, start : start + step]
            copy = self._copy[: piece.size].reshape(piece.shape)
            np.copyto(copy, piece)
            acc += piece @ copy.T

    def record(self) -> SecondMomentMatrix:
        n = self.count
        mean = self.outer / n
        var = np.maximum(self.outer_sq - n * mean**2, 0.0) / (n - 1)
        return SecondMomentMatrix(
            entries=mean, n_samples=n, exact=False, stderr=np.sqrt(var / n), mean=self.total / n
        )


def squared_overlap_values(
    sampler: VectorSampler,
    n_pairs: int,
    seed,
    workers: int,
    sums: _MomentSums,
) -> Iterator[np.ndarray]:
    """Yield, block by block, n_pairs iid values with the law of
    <x, y>^2 for independent draws x, y, in deterministic stream order,
    and add their draws to ``sums``.

    A worker chunk of ``size`` pairs draws ``size + 1`` points x_0 ...
    x_size from substream ``(w, 0)``, block by block, and gives the chained
    values <x_i, x_{i+1}>^2; the order is fixed by the worker index.
    Given x_0 ... x_i, the value <x_i, x_{i+1}> has a fixed law, on a
    sphere or subsphere by rotation invariance, and on an orbit
    x_j = rho(k_j) v because k_i^-1 k_{i+1} is Haar distributed and
    independent of k_0 ... k_i; so the values are independent, not only
    identically distributed, and their sample stderr holds.  ``sums``
    receives all n_pairs + workers draws.

    Each block of draws is read as its transpose, one row per coordinate,
    and gives its overlaps and a copy of its last draw, for the next
    block's first overlap, through the same ``column_dots``, so the values
    are those of the whole chunk bit for bit.  The block is then added to
    ``sums`` and released, or left in the chunk's buffer for the next
    block to overwrite, before its values are yielded, so one block of
    draws is alive at a time whatever n_pairs is.
    """
    for w, size in enumerate(_chunk_sizes(n_pairs, workers)):
        last = None
        for x in _sample_blocks(sampler, stream(seed, w, 0), size + 1):
            z = x.T
            carried = 0 if last is None else 1
            vals = np.empty(z.shape[1] - 1 + carried)
            if carried:
                column_dots(last, z[:, :1], out=vals[:1])
            column_dots(z[:, :-1], z[:, 1:], out=vals[carried:])
            last = z[:, -1:].copy()
            sums.add(x)
            del x, z
            vals *= vals
            if len(vals):  # empty only when a chunk's first block is one row
                yield vals


def _merge_moments(moments: tuple[int, float, float], vals: np.ndarray) -> tuple[int, float, float]:
    """(count, mean, M2) of the values summarized by ``moments`` followed by
    ``vals``, M2 being the sum of squared deviations from the mean.

    This is the pairwise update of Chan, Golub & LeVeque (1983), written
    with vals centred at the running mean (at their first value when there
    is none yet): with s and q the sums of the centred values and of their
    squares, the merged mean is centre + s / n and M2 grows by q - s^2 / n.
    Both sums are ufunc and einsum reductions; BLAS ``np.dot`` on a block
    costs more in thread wake-up than it saves.
    """
    count, mean, m2 = moments
    centre = mean if count else float(vals[0])
    c = vals - centre
    s = float(np.add.reduce(c))
    q = float(np.einsum("k,k->", c, c))
    n = count + len(vals)
    return n, centre + s / n, m2 + q - s * s / n


def _overlap_estimate(moments: tuple[int, float, float]) -> MomentEstimate:
    n, mean, m2 = moments
    return MomentEstimate(
        value=mean, stderr=math.sqrt(max(m2, 0.0) / (n - 1) / n), n_samples=n, exact=False
    )


def _reduce_overlaps(
    sampler: VectorSampler, n_pairs: int, seed, workers: int, checkpoints: list[int]
) -> tuple[MomentEstimate, SecondMomentMatrix, list[tuple[int, float, float]]]:
    """The overlap estimate, the moment record and the (n, estimate,
    stderr) rows at the increasing ``checkpoints`` of one pass of
    ``squared_overlap_values``.

    The running count, mean and M2 are merged block by block; a checkpoint
    inside a block merges the block's prefix into the running moments
    without keeping it, so checkpoints leave the estimate unchanged.
    """
    sums = _MomentSums(sampler.dim)
    moments = (0, 0.0, 0.0)
    rows = []
    pending = iter(checkpoints)
    k = next(pending, None)
    for vals in squared_overlap_values(sampler, n_pairs, seed, workers, sums):
        while k is not None and k <= moments[0] + len(vals):
            est = _overlap_estimate(_merge_moments(moments, vals[: k - moments[0]]))
            rows.append((k, est.value, est.stderr))
            k = next(pending, None)
        moments = _merge_moments(moments, vals)
    return _overlap_estimate(moments), sums.record(), rows


def estimate_squared_overlap(
    sampler: VectorSampler,
    n_pairs: int,
    seed=0,
    workers: int = 1,
) -> tuple[MomentEstimate, SecondMomentMatrix]:
    """Mean of <x,y>^2 over independent chained pairs, with its standard
    error, and the moment record of the same draws
    (``squared_overlap_values``), in memory independent of n_pairs."""
    est, record, _ = _reduce_overlaps(sampler, n_pairs, seed, workers, [])
    return est, record


def overlap_convergence_trace(
    sampler: VectorSampler,
    n_pairs: int,
    seed=0,
    workers: int = 1,
) -> tuple[MomentEstimate, SecondMomentMatrix, list[tuple[int, float, float]]]:
    """The estimate and record of ``estimate_squared_overlap`` and its
    running (n, estimate, stderr) at powers of two, ending at n_pairs.

    All three come from one streamed pass through the same reduction, so
    the estimate and record are bit-identical to
    ``estimate_squared_overlap`` with the same arguments, and the last row
    is the estimate.
    """
    checkpoints = []
    k = 2
    while k < n_pairs:
        checkpoints.append(k)
        k *= 2
    checkpoints.append(n_pairs)
    return _reduce_overlaps(sampler, n_pairs, seed, workers, checkpoints)


def coordinate_second_moments(
    sampler: VectorSampler,
    n_samples: int,
    seed=0,
    workers: int = 1,
) -> SecondMomentMatrix:
    """Monte Carlo mean of x x^T with per-entry standard errors, and of x,
    over one stream of n_samples draws per worker chunk, drawn and summed
    one block at a time as in ``squared_overlap_values``."""
    sums = _MomentSums(sampler.dim)
    for w, size in enumerate(_chunk_sizes(n_samples, workers)):
        for x in _sample_blocks(sampler, stream(seed, w), size):
            sums.add(x)
            del x
    return sums.record()


# ---------------------------------------------------------------------------
# exact second moments and overlaps
# ---------------------------------------------------------------------------

def exact_discrete_overlap(spec: MeasureSpec) -> tuple[MomentEstimate, SecondMomentMatrix]:
    """Exact E<x,y>^2 of a discrete measure via its second-moment matrix.

    Independence factors the expectation through M = sum_i p_i x_i x_i^T:
    the exact value is |M|_F^2 = sum_ij p_i p_j <x_i, x_j>^2.  M is
    returned as the measure's exact coordinate second moment.
    """
    if spec.kind != "discrete":
        raise NotDiscrete(f"measure kind is {spec.kind!r}")
    m = _exact_second_moment(
        np.einsum("k,ki,kj->ij", spec.probs, spec.points, spec.points),
        spec.probs @ spec.points,
        len(spec.points),
    )
    value = float(np.sum(m.entries * m.entries))
    return MomentEstimate(value=value, stderr=0.0, n_samples=m.n_samples, exact=True), m


def _exact_second_moment(entries: np.ndarray, mean: np.ndarray, n_points: int):
    return SecondMomentMatrix(
        entries=entries, n_samples=n_points, exact=True, stderr=np.zeros_like(entries), mean=mean
    )


class LowerBoundCheck(NamedTuple):
    value: float   # |M|_F^2
    bound: float   # 1/n
    gap: float     # |M - I/n|_F^2 >= 0


def lower_bound_check(m, trace_tol: float = 1e-8) -> LowerBoundCheck:
    """Decompose |M|_F^2 = 1/n + gap for a unit-trace second-moment matrix.

    The traceless part z = M - I/n is Frobenius-orthogonal to the
    identity, so the cross term vanishes and the gap |z|_F^2 is an exact
    nonnegative excess over the universal lower bound 1/n.
    """
    entries = m.entries if isinstance(m, SecondMomentMatrix) else np.asarray(m, dtype=float)
    n = entries.shape[0]
    tr = float(np.trace(entries))
    if abs(tr - 1.0) > trace_tol:
        raise TraceNotOne(f"trace is {tr!r}")
    z = entries - np.eye(n) / n
    gap = float(np.sum(z * z))
    return LowerBoundCheck(value=1.0 / n + gap, bound=1.0 / n, gap=gap)


class OrbitMoments(NamedTuple):
    single_sum: float   # mean over g of <rho(g) v, v>^2
    double_sum: float   # mean over (g, h) pairs of <rho(g) v, rho(h) v>^2
    group_sum: float    # |G| * single_sum
    order: int
    second_moment: SecondMomentMatrix  # M = E[x x^T]; double_sum = |M|_F^2


def exact_finite_orbit_moments(rep: Representation, v: np.ndarray) -> OrbitMoments:
    """Exact orbit-averaged squared overlaps of a finite group.

    For an irreducible representation both averages equal 1/dim and the
    unnormalized group sum equals |G|/dim, for a base point with any
    stabilizer.  The pair average factors through the orbit's second
    moment M = E_g[(rho(g) v)(rho(g) v)^T]:
    (1/|G|^2) sum_{g,h} <gv, hv>^2 = |M|_F^2, so no pair is enumerated.  M
    is returned too, with the orbit mean: it is the measure's exact moment
    record.

    A representation marked ``permutation``, on a table or a table-free
    ``PermutationGroup`` alike, lists no element: as g runs over G,
    (g^-1 i, g^-1 j) runs evenly over the orbital of (i, j), so M_ij is
    the orbital average of v v^T, the mean is v averaged over each point
    orbit, and the single sum is v^T M v; ``sn_sum_zero`` takes M and the
    mean for w = H^T v, H its ``sum_zero_rows``, and maps them back
    through H.  Every other representation
    takes the orbit O, the (|G|, n) rows rho(g) v, as
    ``image_orbit(rep.table_images(), v)``: one einsum over the table
    images, which ``commutant_basis`` has already cached, one row of |G|
    floats per coordinate rather than one product per element.
    M = O^T O / |G|, and the single sum is the mean of <gv, v>^2,
    independent of M.  A continuous family, whose ``order``
    is None, has no finite orbit: it raises BadParams.
    """
    v = _check_unit(v, "orbit base")
    if v.shape != (rep.dim,):
        raise BadParams(f"base has shape {v.shape}, representation dim {rep.dim}")
    order = rep.group.order
    if order is None:
        raise BadParams("a continuous family has no finite orbit; sample it")
    if rep.permutation:
        h = rep.sum_zero_rows
        entries, mean = _orbital_moments(group_orbitals(rep.group), v if h is None else h.T @ v)
        if h is not None:
            entries, mean = h @ entries @ h.T, h @ mean
        single = float(v @ entries @ v)
    else:
        orbit = image_orbit(rep.table_images(), v)
        entries, mean = (orbit.T @ orbit) / order, orbit.mean(axis=0)
        single = float(np.mean((orbit @ v) ** 2))
    m = _exact_second_moment(entries, mean, order)
    return OrbitMoments(
        single_sum=single,
        double_sum=float(np.sum(entries * entries)),
        group_sum=order * single,
        order=order,
        second_moment=m,
    )


def _orbital_moments(orbitals: tuple, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """E[x x^T] and E[x] over the orbit of w under a permutation group, from
    its ``orbitals``: the orbital averages of w w^T and the point-orbit
    averages of w."""
    n = len(w)
    orbital, _, _, point_orbit = orbitals
    entries = np.bincount(orbital, weights=np.outer(w, w).ravel()) / np.bincount(orbital)
    mean = np.bincount(point_orbit, weights=w) / np.bincount(point_orbit)
    return entries[orbital].reshape(n, n), mean[point_orbit]


def sn_cosine_identity(x) -> float:
    """Sum of cos^2(x, sigma x) over all coordinate permutations.

    For any nonzero vector whose coordinates add to zero this equals
    n!/(n-1); the full factorial enumeration is guarded at n <= 8.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    if n < 2:
        raise BadParams("need a vector of length >= 2")
    if n > FACTORIAL_GUARD:
        raise TooLarge(f"n = {n} would enumerate {math.factorial(n)} permutations")
    nrm = float(np.linalg.norm(x))
    if nrm == 0.0:
        raise BadParams("zero vector")
    if abs(float(x.sum())) > 1e-10 * max(1.0, nrm):
        raise NotSumZero(f"coordinates sum to {float(x.sum())!r}")
    perms = np.array(list(itertools.permutations(range(n))))
    overlaps = x[perms] @ x
    return float(np.sum(overlaps**2) / nrm**4)


# ---------------------------------------------------------------------------
# expectation identity and invariance checks
# ---------------------------------------------------------------------------

class ExpectationCheck(NamedTuple):
    """Comparison of E(x) with E(P x) for the invariant projector P."""

    mean_x: np.ndarray
    mean_proj: np.ndarray
    residual: float
    residual_band: float
    mean_norm: float
    mean_norm_band: float
    exact: bool


def expectation_identity_check(
    m: SecondMomentMatrix,
    proj: np.ndarray,
    band_sigma: float = 4.0,
) -> ExpectationCheck:
    """Check E(x) = E(P x) from a measure's moment record ``m``.

    ``proj`` is P, the projector onto the fixed vectors
    (``commutant.fixed_projector``), and the residual is |Q E[x]| with
    Q = I - P.  An exact record has zero bands.  A sampled one bands the
    residual and |E[x]| by ``band_sigma`` times the Euclidean aggregate of
    the per-coordinate standard errors of d = Q x and of x, both read
    from the sample covariance cov = (M - mu mu^T) N/(N-1): the variances
    of d are the diagonal of Q cov Q^T.
    """
    mean_x = m.mean
    mean_proj = proj @ mean_x
    residual_band = mean_norm_band = 0.0
    if not m.exact:
        n = m.n_samples
        q = np.eye(len(mean_x)) - proj
        cov = (m.entries - np.outer(mean_x, mean_x)) * (n / (n - 1))
        se_x = np.sqrt(np.maximum(np.diag(cov), 0.0) / n)
        se_d = np.sqrt(np.maximum(np.einsum("ij,jk,ik->i", q, cov, q), 0.0) / n)
        residual_band = band_sigma * float(np.linalg.norm(se_d))
        mean_norm_band = band_sigma * float(np.linalg.norm(se_x))
    return ExpectationCheck(
        mean_x=mean_x,
        mean_proj=mean_proj,
        residual=float(np.linalg.norm(mean_x - mean_proj)),
        residual_band=residual_band,
        mean_norm=float(np.linalg.norm(mean_x)),
        mean_norm_band=mean_norm_band,
        exact=m.exact,
    )


class InvarianceCheck(NamedTuple):
    invariant: bool
    violating_generator: int | None  # position of the first failing generator in the generator list


def check_discrete_invariance(spec: MeasureSpec, rep: Representation) -> InvarianceCheck:
    """Whether the group permutes the weighted support of spec.

    The elements that map the weighted support onto itself form a closed
    subgroup, so the group does exactly when each of its generators does,
    and only the ``generator_images`` are checked: the generators of a
    finite group, or the topological generators of a continuous family,
    which generate a dense subgroup.  The support is merged through a
    ``MatrixIndex`` at ``DISCRETE_POINT_TOL`` (entrywise), each merged
    point carrying the summed mass of its points.  A generator passes when
    every moved point lies within tol of a merged point and the moved mass
    on each merged point equals its mass within ``DISCRETE_PROB_TOL``
    (as a one-to-one matching would decide while merged points are more
    than 2 tol apart); the position of the first failing generator in the
    generator list is reported.
    """
    if spec.kind != "discrete":
        raise NotDiscrete(f"measure kind is {spec.kind!r}")
    index = MatrixIndex(spec.points.shape[1:], DISCRETE_POINT_TOL)
    index.add_absent(spec.points)
    mass = np.bincount(index.lookup(spec.points), weights=spec.probs, minlength=len(index))
    for position, image in enumerate(rep.generator_images()):
        slots = index.lookup(spec.points @ image.T)
        if None in slots or np.abs(
            np.bincount(slots, weights=spec.probs, minlength=len(index)) - mass
        ).max() > DISCRETE_PROB_TOL:
            return InvarianceCheck(invariant=False, violating_generator=position)
    return InvarianceCheck(invariant=True, violating_generator=None)
