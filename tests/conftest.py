import numpy as np
import pytest
import scipy.linalg

import repspect as rs
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
