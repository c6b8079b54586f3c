import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

import repspect as rs
from repspect.moments import InvarianceCheck
from repspect.representations import traceless_symmetric_basis


@pytest.fixture(scope="session")
def s3_table():
    return rs.enumerate_closure(rs.GroupSpec(kind="symmetric", n=3))


@pytest.fixture(scope="session")
def s4_table():
    return rs.enumerate_closure(rs.GroupSpec(kind="symmetric", n=4))


@pytest.fixture(scope="session")
def q8_table():
    return rs.enumerate_closure(rs.GroupSpec(kind="quaternion8"))


def cyclic_table(n):
    return rs.enumerate_closure(rs.GroupSpec(kind="cyclic", n=n))


def symmetric_table(n):
    return rs.enumerate_closure(rs.GroupSpec(kind="symmetric", n=n))


def brute_commutant(images, rcond=1e-10):
    """Independent oracle: nullspace of A -> mA - Am stacked over images.

    Builds the constraint matrix column by column from explicit basis
    matrices E_ij and delegates the nullspace to scipy; shares no code
    with the library path.
    """
    n = images[0].shape[0]
    blocks = []
    for m in images:
        rows = np.zeros((n * n, n * n))
        for i in range(n):
            for j in range(n):
                e = np.zeros((n, n))
                e[i, j] = 1.0
                rows[:, i * n + j] = (m @ e - e @ m).reshape(-1)
        blocks.append(rows)
    return scipy.linalg.null_space(np.concatenate(blocks), rcond=rcond)


def brute_matrix_closure(generators, tol=1e-8):
    """Independent oracle: breadth-first closure of matrix generators.

    Every product el @ gen is compared with every stored element by
    entrywise distance below ``tol``, and the stack is re-copied each time
    an element is added: the quadratic reference for the library's
    closure.  Returns the matrices and their generator words in discovery
    order, identity first.
    """
    n = generators[0].shape[0]
    stack = np.eye(n)[None, :, :]
    matrices, words = [np.eye(n)], [()]
    frontier = [0]
    while frontier:
        nxt = []
        for i in frontier:
            for gi, gen in enumerate(generators):
                prod = matrices[i] @ gen
                if np.abs(stack - prod[None, :, :]).max(axis=(1, 2)).min() < tol:
                    continue
                matrices.append(prod)
                words.append(words[i] + (gi,))
                stack = np.concatenate([stack, prod[None, :, :]], axis=0)
                nxt.append(len(matrices) - 1)
        frontier = nxt
    return matrices, words


def brute_permutation_closure(generators):
    """Independent oracle: breadth-first closure of permutation generators.

    A plain BFS over tuples, products composed one entry at a time
    ((p * g)[i] = p[g[i]]) and deduplicated through a set.  Returns the
    permutations and their generator words in discovery order, identity
    first.
    """
    gens = [tuple(int(i) for i in g) for g in generators]
    ident = tuple(range(len(gens[0])))
    perms, words, seen = [ident], [()], {ident}
    frontier = [0]
    while frontier:
        nxt = []
        for i in frontier:
            for gi, gen in enumerate(gens):
                prod = tuple(perms[i][j] for j in gen)
                if prod in seen:
                    continue
                seen.add(prod)
                perms.append(prod)
                words.append(words[i] + (gi,))
                nxt.append(len(perms) - 1)
        frontier = nxt
    return perms, words


def brute_plane_group_table(kind, n):
    """Independent oracle: the ``cyclic``/``dihedral`` table in closed form,
    one element at a time.

    Element r^k s^e sits at position 2k + e on ``dihedral`` and r^k at
    position k on ``cyclic``, with r the rotation by 2*pi/n and
    s = diag(1, -1).  A rotation's parent is r^(k-1) through r (generator
    0) and a reflection's is r^k through s (generator 1); each payload is
    R(2*pi*k/n) diag(1, (-1)^e) from one cos/sin.
    """
    reflections = kind == "dihedral"
    elements = [(k, e) for k in range(n) for e in ((0, 1) if reflections else (0,))]
    step = len(elements) // n
    payload = np.empty((len(elements), 2, 2))
    parent, generator = [-1], [-1]
    for i, (k, e) in enumerate(elements):
        if i:
            parent.append(i - 1 if e else i - step)
            generator.append(e)
        # One angle per call, as a one-element array: the library's cos/sin
        # run over arrays.
        angle = np.array([2.0 * np.pi * k / n])
        cos, sin = float(np.cos(angle)[0]), float(np.sin(angle)[0])
        sign = 1.0 - 2.0 * e
        payload[i] = [[cos, 0.0 - sign * sin], [sin, sign * cos]]
    generator_positions = [step * (1 % n), 1] if reflections else [1 % n]
    return rs.FiniteGroupTable(
        payload=payload,
        parent=np.array(parent, dtype=np.intp),
        generator=np.array(generator, dtype=np.intp),
        generators=np.array(generator_positions, dtype=np.intp),
    )


def tree_words(table):
    """Generator words of a table's elements, rebuilt from its Schreier tree."""
    words = [()]
    for i in range(1, table.order):
        words.append(words[table.parent[i]] + (int(table.generator[i]),))
    return words


def brute_word_images(table, generator_images):
    """Independent oracle: the image of every element as the product of the
    generator images along its word, one matrix product at a time."""
    images = []
    for word in tree_words(table):
        m = np.eye(generator_images[0].shape[0])
        for i in word:
            m = m @ generator_images[i]
        images.append(m)
    return np.stack(images)


def brute_discrete_invariance(spec, rep, point_tol=1e-8, prob_tol=1e-10):
    """Independent oracle: whether every table element, not only each
    generator, maps the weighted support of a discrete measure onto itself.

    Each support, the given one and each moved one, is merged greedily: a
    point joins the first kept point within ``point_tol`` (entrywise) and
    adds its mass to it.  The merged supports must then match one to one,
    each moved point taking the first unmatched reference point within
    ``point_tol``, with masses within ``prob_tol``.  ``violating_generator``
    holds the table index of the first element that fails, generator or
    not.
    """
    def merged(points):
        kept, mass = [], []
        for p, w in zip(points, spec.probs):
            near = [i for i, q in enumerate(kept) if np.abs(q - p).max() < point_tol]
            if near:
                mass[near[0]] += w
            else:
                kept.append(p)
                mass.append(w)
        return kept, mass

    def matches(ref, moved):
        (ref_pts, ref_mass), (pts, mass) = ref, moved
        unmatched = list(range(len(ref_pts)))
        for p, w in zip(pts, mass):
            near = [i for i in unmatched if np.abs(ref_pts[i] - p).max() < point_tol]
            if not near or abs(ref_mass[near[0]] - w) > prob_tol:
                return False
            unmatched.remove(near[0])
        return not unmatched

    ref = merged(spec.points)
    for index, image in enumerate(rep.table_images()):
        if not matches(ref, merged(spec.points @ image.T)):
            return InvarianceCheck(invariant=False, violating_generator=index)
    return InvarianceCheck(invariant=True, violating_generator=None)


@st.composite
def structured_permutation_generators(draw):
    """1-3 generators on 1-8 points: random permutations, cycles on a random
    subset, or permutations of the first m points only (intransitive)."""
    n = draw(st.integers(1, 8))
    generators = []
    for _ in range(draw(st.integers(1, 3))):
        shape = draw(st.sampled_from(["random", "cycle", "prefix"]))
        image = list(range(n))
        if shape == "random":
            image = list(draw(st.permutations(range(n))))
        elif shape == "cycle":
            support = draw(st.lists(st.integers(0, n - 1), unique=True))
            for a, b in zip(support, support[1:] + support[:1]):
                image[a] = b
        else:
            m = draw(st.integers(1, n))
            image[:m] = draw(st.permutations(range(m)))
        generators.append(tuple(image))
    return tuple(generators)


def payload_table(payload, generators=()):
    """A hand-made table of the given payloads, not necessarily a group;
    its tree is empty, so only lookups and images apply to it."""
    payload = np.asarray(payload)
    flat = np.full(len(payload), -1)
    return rs.FiniteGroupTable(
        payload=payload, parent=flat, generator=flat, generators=np.array(generators, dtype=int)
    )


def brute_haar_matrices(family, rng, size):
    """Independent oracle: invariant draws of O(n)/SO(n) by batched LAPACK QR.

    A standard Gaussian stack is QR-factorized, the Q columns are rescaled
    by the signs of R's diagonal, and on SO(n) the last column is flipped
    where the determinant is -1; singular draws (|prod diag r| < 1e-250)
    are re-drawn with the same calls as the library.  This is the
    library's path for every n but 3, which it draws from quaternions.
    """
    n = family.n
    q, r = np.linalg.qr(rng.standard_normal((size, n, n)))
    diag = np.diagonal(r, axis1=1, axis2=2)
    bad = np.flatnonzero(np.abs(diag.prod(axis=1)) < 1e-250)
    while bad.size:
        q[bad], r[bad] = np.linalg.qr(rng.standard_normal((bad.size, n, n)))
        bad = bad[np.abs(diag[bad].prod(axis=1)) < 1e-250]
    q = q * np.where(diag < 0, -1.0, 1.0)[:, None, :]
    if family.kind == "special_orthogonal":
        q[np.linalg.det(q) < 0, :, -1] *= -1.0
    return q


def brute_quaternion_rotations(family, rng, size):
    """Independent oracle: invariant draws of O(3)/SO(3) from Gaussian
    quaternions, made by scipy.

    ``size`` standard Gaussian rows (w, x, y, z) are drawn, rows with
    |q|^2 < 1e-250 re-drawn with the same calls as the library, and each
    row is turned into its rotation matrix by scipy's
    ``Rotation.from_quat(..., scalar_first=True)``; on O(3) the rotation is
    multiplied by the sign of w.
    """
    q = rng.standard_normal((size, 4))
    bad = np.flatnonzero(np.sum(q * q, axis=1) < 1e-250)
    while bad.size:
        q[bad] = rng.standard_normal((bad.size, 4))
        bad = bad[np.sum(q[bad] * q[bad], axis=1) < 1e-250]
    r = Rotation.from_quat(q, scalar_first=True).as_matrix()
    if family.kind == "orthogonal":
        r *= np.where(q[:, 0] < 0, -1.0, 1.0)[:, None, None]
    return r


def brute_pair_average(rep, v, block=4096):
    """Independent oracle: (1/|G|^2) sum over all pairs (g, h) of <gv, hv>^2.

    Enumerates the |G|^2 Gram entries of the orbit in row blocks.
    """
    orbit = rep.table_images() @ v
    order = orbit.shape[0]
    acc = 0.0
    for lo in range(0, order, block):
        g = orbit[lo : lo + block] @ orbit.T
        acc += float(np.sum(g * g))
    return acc / order**2


def brute_orbit_second_moment(rep, v):
    """Independent oracle: (1/|G|) sum_g (rho(g) v)(rho(g) v)^T, one outer
    product per table element."""
    m = np.zeros((rep.dim, rep.dim))
    for image in rep.table_images():
        x = image @ v
        m += np.outer(x, x)
    return m / rep.group.order


def brute_table_orbit_moments(rep, v):
    """Independent oracle: M = E[x x^T], E[x] and the single sum
    E<x, v>^2 over the orbit x = rho(g) v, one table image at a time,
    each entry an exactly rounded sum (``math.fsum``) over the elements."""
    points = [image @ v for image in rep.table_images()]
    order, n = len(points), rep.dim
    entries = np.array([
        [math.fsum(x[i] * x[j] for x in points) for j in range(n)] for i in range(n)
    ]) / order
    mean = np.array([math.fsum(x[i] for x in points) for i in range(n)]) / order
    single = math.fsum(float(x @ v) ** 2 for x in points) / order
    return entries, mean, single


def brute_squared_overlap_values(sampler, n_pairs, seed=0, workers=1):
    """Independent oracle: the values <x_i, y_i>^2 with each worker chunk's
    x and y drawn whole, one ``sample`` call per substream."""
    base, rem = divmod(n_pairs, workers)
    out = []
    for w in range(workers):
        size = base + (w < rem)
        x = sampler.sample(rs.stream(seed, w, 0), size)
        y = sampler.sample(rs.stream(seed, w, 1), size)
        out.append(np.einsum("ki,ki->k", x, y) ** 2)
    return np.concatenate(out)


def brute_sampled_record(sampler, n_pairs, seed=0, workers=1):
    """Independent oracle: the moment record of the overlap draws, with each
    worker chunk's x and y drawn whole, one ``sample`` call per substream.

    Returns (E[x x^T], its per-entry standard errors, E[x]) over all
    2 n_pairs draws; each column of standard errors is the two-pass
    ``std(ddof=1)`` of the products x_i x_j, one column at a time.
    """
    base, rem = divmod(n_pairs, workers)
    z = np.concatenate([
        sampler.sample(rs.stream(seed, w, side), base + (w < rem))
        for w in range(workers)
        for side in (0, 1)
    ])
    count = len(z)
    stderr = np.stack(
        [(z[:, [j]] * z).std(axis=0, ddof=1) for j in range(z.shape[1])], axis=1
    ) / np.sqrt(count)
    return z.T @ z / count, stderr, z.mean(axis=0)


def brute_orbit_overlap_values(
    sampler, images, n_pairs, seed=0, workers=1, haar=brute_haar_matrices
):
    """Independent oracle: the one-draw orbit values <rho(k_i) v, v>^2 and
    the orbit points rho(k_i) v of a continuous orbit sampler with base v.

    Each worker chunk's Haar draws k_i are made whole by the oracle
    ``haar`` (``brute_haar_matrices`` unless given) from substream (w, 0)
    and mapped through the explicit image stack ``images(k)``, applied to v.
    """
    rep, v = sampler.rep, sampler.base
    base, rem = divmod(n_pairs, workers)
    x = np.concatenate([
        images(haar(rep.group, rs.stream(seed, w, 0), base + (w < rem))) @ v
        for w in range(workers)
    ])
    return (x @ v) ** 2, x


def brute_points_record(z):
    """Independent oracle: (E[x x^T], its per-entry standard errors, E[x])
    over the rows x of z, each column of standard errors the two-pass
    ``std(ddof=1)`` of the products x_i x_j, one column at a time."""
    stderr = np.stack(
        [(z[:, [j]] * z).std(axis=0, ddof=1) for j in range(z.shape[1])], axis=1
    ) / np.sqrt(len(z))
    return z.T @ z / len(z), stderr, z.mean(axis=0)


def brute_chain_draws(sampler, n_pairs, seed=0, workers=1):
    """The points of each worker chunk of the chained estimator, drawn whole:
    size + 1 points for a chunk of size pairs, in one ``sample`` call on
    substream (w, 0)."""
    base, rem = divmod(n_pairs, workers)
    return [
        sampler.sample(rs.stream(seed, w, 0), base + (w < rem) + 1) for w in range(workers)
    ]


def brute_chain_overlap_values(sampler, n_pairs, seed=0, workers=1):
    """Independent oracle: the chained values <x_i, x_{i+1}>^2 of successive
    points within each worker chunk, the chunk drawn whole."""
    return np.concatenate([
        np.einsum("ki,ki->k", x[:-1], x[1:]) ** 2
        for x in brute_chain_draws(sampler, n_pairs, seed, workers)
    ])


def brute_chain_record(sampler, n_pairs, seed=0, workers=1):
    """Independent oracle: (E[x x^T], its per-entry standard errors, E[x])
    over all n_pairs + workers chained points, each chunk drawn whole."""
    return brute_points_record(np.concatenate(brute_chain_draws(sampler, n_pairs, seed, workers)))


def brute_ts_conjugation(rots):
    """Independent oracle: images of rotations acting by conjugation on the
    traceless symmetric 3x3 matrices, in the orthonormal basis B.

    Conjugates every basis matrix by every rotation, then takes the
    Frobenius coordinates <B_a, R B_b R^T>: two einsums, no Kronecker map.
    """
    basis = traceless_symmetric_basis()
    transformed = np.einsum("kip,bpq,kjq->kbij", rots, basis, rots)
    return np.einsum("aij,kbij->kab", basis, transformed)


def span_columns(basis_matrices):
    """Stack matrices as columns of vectorized coordinates."""
    return np.stack([b.reshape(-1) for b in basis_matrices], axis=1)


def max_principal_angle(a_cols, b_cols):
    return float(np.max(scipy.linalg.subspace_angles(a_cols, b_cols)))


def random_unit(rng, n):
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)
