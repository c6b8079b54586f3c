import collections
import math
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings

import repspect as rs
from repspect.errors import BadParams, ClosureOverflow, NonInvertibleGenerator, TooLarge
from repspect.groups import (
    MATRIX_DEDUP_TOL,
    QUAT_LEFT_I,
    QUAT_LEFT_J,
    MatrixIndex,
    orthogonality_defect,
)

from conftest import (
    brute_haar_matrices,
    brute_matrix_closure,
    brute_permutation_closure,
    brute_plane_group_table,
    brute_quaternion_rotations,
    brute_word_images,
    cyclic_table,
    payload_table,
    structured_permutation_generators,
    symmetric_table,
    tree_words,
)


def quaternion_unit_matrices():
    # the eight unit quaternions as left-multiplication matrices, by hand
    i, j = QUAT_LEFT_I, QUAT_LEFT_J
    one = np.eye(4)
    k = i @ j
    return [one, -one, i, -i, j, -j, k, -k]


class TestEnumerateClosure:
    def test_symmetric_4_order(self, s4_table):
        assert s4_table.order == 24

    def test_cyclic_5_order(self):
        assert cyclic_table(5).order == 5

    def test_quaternion8_matches_hand_enumeration(self, q8_table):
        assert q8_table.order == 8
        expected = quaternion_unit_matrices()
        for m in q8_table.payload:
            dists = [np.max(np.abs(m - e)) for e in expected]
            assert min(dists) < 1e-12

    def test_identity_is_first(self, s3_table):
        assert tuple(s3_table.payload[0]) == (0, 1, 2)

    def test_order_one_group(self):
        table = cyclic_table(1)
        assert table.order == 1
        np.testing.assert_allclose(table.payload[0], np.eye(2))

    def test_overflow(self):
        with pytest.raises(ClosureOverflow):
            rs.enumerate_closure(rs.GroupSpec(kind="symmetric", n=5), cap=10)

    def test_non_invertible_generator(self):
        spec = rs.GroupSpec(kind="matrix_generators", generators=(np.zeros((2, 2)),))
        with pytest.raises(NonInvertibleGenerator):
            rs.enumerate_closure(spec)

    def test_continuous_family_rejected(self):
        with pytest.raises(BadParams):
            rs.enumerate_closure(rs.GroupSpec(kind="orthogonal", n=3))

    @pytest.mark.parametrize("kind,n,order", [
        ("symmetric", 3, 6),
        ("cyclic", 4, 4),
        ("dihedral", 5, 10),
        ("quaternion8", None, 8),
    ])
    def test_generator_left_multiplication_is_bijection(self, kind, n, order):
        table = rs.enumerate_closure(rs.GroupSpec(kind=kind, n=n))
        assert table.order == order
        payload = table.payload
        for g in table.generators:
            gen = payload[g]
            # gen * el: composition gen[el] for permutations, gen @ el for matrices
            products = gen[payload] if payload.ndim == 2 else gen @ payload
            assert sorted(table.indices_of(products)) == list(range(table.order))

    def test_closed_under_inverse(self, s3_table):
        inverses = np.argsort(s3_table.payload, axis=1)
        s3_table.indices_of(inverses)  # raises if one is missing
        composed = np.take_along_axis(s3_table.payload, inverses, axis=1)
        assert (composed == np.arange(3)).all()

    def test_matrix_table_closed_under_inverse(self, q8_table):
        inverses = q8_table.payload.transpose(0, 2, 1)  # orthogonal: inverse is transpose
        assert sorted(q8_table.indices_of(inverses)) == list(range(q8_table.order))

    @pytest.mark.parametrize("kind,n", [("cyclic", 7), ("dihedral", 6), ("quaternion8", None)])
    def test_enumerated_matrix_elements_are_orthogonal(self, kind, n):
        table = rs.enumerate_closure(rs.GroupSpec(kind=kind, n=n))
        for m in table.payload:
            assert orthogonality_defect(m) <= 1e-8


# Signed permutation matrices of R^3: a 3-cycle, a transposition and a sign
# flip generate the hyperoctahedral group B3 of order 48.
B3_GENERATORS = (
    np.eye(3)[[1, 2, 0]],
    np.eye(3)[[1, 0, 2]],
    np.diag([-1.0, 1.0, 1.0]),
)


# Named plane groups checked against the linear-scan oracle: their
# closed-form tables as element sets, and their generator stacks, given as
# `matrix_generators` and closed by matrix BFS, bit for bit.
ORACLE_PLANE_GROUPS = [*(("dihedral", n) for n in (1, 2, 3, 7, 12, 360)), ("cyclic", 997)]
# Sizes on which the closed-form payload is compared with the library's BFS.
BFS_PLANE_GROUPS = [
    *(("dihedral", n) for n in (1, 2, 3, 4, 7, 360, 3000)),
    *(("cyclic", n) for n in (1, 2, 3, 12, 997)),
]


def signed_permutation_spec(n):
    """The signed permutation matrices of R^n (order 2^n n!) as
    ``matrix_generators``: a swap, an n-cycle and one sign flip."""
    eye = np.eye(n)
    return rs.GroupSpec(kind="matrix_generators", generators=(
        eye[[1, 0, *range(2, n)]],
        eye[[*range(1, n), 0]],
        np.diag([-1.0] + [1.0] * (n - 1)),
    ))


def largest_bucket(payload):
    """The most payload rows filed under one ``MatrixIndex`` key."""
    keys = MatrixIndex(payload.shape[1:], MATRIX_DEDUP_TOL).keys(payload)
    return max(collections.Counter(keys).values())


def generator_stack_spec(kind, n):
    """A named family's generator matrices as a ``matrix_generators`` spec."""
    gens = rs.groups.canonical_generators(rs.GroupSpec(kind=kind, n=n))
    return rs.GroupSpec(kind="matrix_generators", generators=tuple(gens))


class TestMatrixClosure:
    @pytest.mark.parametrize("spec", [
        *(
            pytest.param(generator_stack_spec(kind, n), id=f"{kind}-{n}-matrix_generators")
            for kind, n in ORACLE_PLANE_GROUPS
        ),
        pytest.param(rs.GroupSpec(kind="quaternion8"), id="quaternion8-None"),
        pytest.param(
            rs.GroupSpec(kind="matrix_generators", generators=B3_GENERATORS),
            id="matrix_generators-None",
        ),
        pytest.param(signed_permutation_spec(4), id="signed-permutations-4"),
    ])
    def test_bit_identical_to_linear_scan_oracle(self, spec):
        table = rs.enumerate_closure(spec)
        gens = list(rs.groups.canonical_generators(spec))
        matrices, words = brute_matrix_closure(gens)
        assert table.order == len(matrices)
        assert tree_words(table) == words
        for row, m in zip(table.payload, matrices):
            assert row.shape == m.shape
            assert row.tobytes() == m.tobytes()
        for g, gen in zip(table.generators, gens):
            assert float(np.max(np.abs(table.payload[g] - gen))) < MATRIX_DEDUP_TOL

    @pytest.mark.parametrize("kind,n", ORACLE_PLANE_GROUPS, ids=str)
    def test_closed_form_table_matches_linear_scan_oracle(self, kind, n):
        # The closed-form payload, in its own order, is the element set of
        # the linear-scan closure of the canonical generators: each oracle
        # matrix is the nearest of exactly one table element, within 1e-12,
        # and the table's generators are the oracle's.
        spec = rs.GroupSpec(kind=kind, n=n)
        table = rs.enumerate_closure(spec)
        gens = list(rs.groups.canonical_generators(spec))
        matrices = np.stack(brute_matrix_closure(gens)[0])
        assert table.order == len(matrices)
        distance = np.abs(matrices[:, None] - table.payload[None]).max(axis=(2, 3))
        nearest = distance.argmin(axis=1)
        assert sorted(nearest.tolist()) == list(range(table.order))
        assert float(distance[np.arange(len(matrices)), nearest].max()) <= 1e-12
        for g, gen in zip(table.generators, gens):
            assert float(np.abs(table.payload[g] - gen).max()) <= 1e-12
        assert orthogonality_defect(table.payload) <= 1e-15
        assert table.payload[0].tobytes() == np.eye(2).tobytes()

    @pytest.mark.parametrize("kind", ["cyclic", "dihedral"])
    def test_plane_tables_are_trees_whose_products_are_the_payload(self, kind):
        # n = 1..300 and 3000: parents precede their children and never
        # decrease, generators are r (0) or s (1), and the canonical
        # generators multiplied along the tree give the closed-form payload.
        for n in [*range(1, 301), 3000]:
            spec = rs.GroupSpec(kind=kind, n=n)
            table = rs.enumerate_closure(spec)
            children = np.arange(1, table.order)
            assert table.parent[0] == table.generator[0] == -1
            assert (table.parent[1:] >= 0).all() and (table.parent[1:] < children).all(), n
            assert (np.diff(table.parent) >= 0).all(), n
            assert np.isin(table.generator[1:], (0, 1)).all(), n
            products = table.tree_product(rs.groups.canonical_generators(spec))
            assert float(np.abs(products - table.payload).max()) <= 1e-12, n

    @pytest.mark.parametrize("kind,n", BFS_PLANE_GROUPS, ids=str)
    def test_plane_payload_is_the_matrix_closure_element_set(self, kind, n):
        table = rs.enumerate_closure(rs.GroupSpec(kind=kind, n=n))
        closed = rs.enumerate_closure(generator_stack_spec(kind, n))
        assert table.order == closed.order
        assert sorted(closed.indices_of(table.payload)) == list(range(closed.order))
        assert np.array_equal(closed.indices_of(table.generator_payloads), closed.generators)
        assert orthogonality_defect(table.payload) <= 1e-15
        assert table.payload[0].tobytes() == np.eye(2).tobytes()

    @pytest.mark.parametrize("kind", ["cyclic", "dihedral"])
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 3000])
    def test_plane_payload_is_coordinate_major(self, kind, n):
        # The payload views a (2, 2, |G|) array, one contiguous row per
        # entry, with the bytes of the oracle's row-major stack; the tree is
        # the oracle's too.
        table = rs.enumerate_closure(rs.GroupSpec(kind=kind, n=n))
        oracle = brute_plane_group_table(kind, n)
        assert np.moveaxis(table.payload, 0, 2).flags.c_contiguous
        for name in ("payload", "parent", "generator", "generators"):
            got, want = getattr(table, name), getattr(oracle, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("kind,n", [("dihedral", 10**12), ("cyclic", 10**12)])
    def test_plane_group_order_checked_against_cap_first(self, kind, n):
        start = time.perf_counter()
        with pytest.raises(ClosureOverflow):
            rs.enumerate_closure(rs.GroupSpec(kind=kind, n=n))
        assert time.perf_counter() - start < 0.1

    def test_dihedral_3000_closure_time(self):
        spec = rs.GroupSpec(kind="dihedral", n=3000)
        best = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            rs.enumerate_closure(spec)
            best = min(best, time.perf_counter() - start)
        assert best < 0.02

    def test_signed_permutations_b5_spread_over_buckets(self, monkeypatch):
        table = rs.enumerate_closure(signed_permutation_spec(5))
        assert table.order == 3840
        assert largest_bucket(table.payload) <= 4
        # The golden-ratio weights are additive mod 1: 72 elements share a bucket.
        monkeypatch.setattr("repspect.groups.index_weights", rs.groups.golden_weights)
        assert largest_bucket(table.payload) > 4

    def test_signed_permutations_b5_closure_time(self):
        spec = signed_permutation_spec(5)
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            rs.enumerate_closure(spec)
            best = min(best, time.perf_counter() - start)
        assert best < 0.5

    def test_neighbours_across_a_bucket_edge_dedupe(self):
        index = MatrixIndex((2, 2), MATRIX_DEDUP_TOL)
        edge = 7 * index.cell
        a = np.zeros((2, 2))
        a[0, 0] = (edge - 0.1 * index.cell) / index.weights[0]
        # shifts the projection by 0.4 tol |w|_1 = 0.2 cell, over the edge
        b = a + 0.4 * MATRIX_DEDUP_TOL
        ka, kb = index.keys(np.stack([a, b]))
        assert kb == ka + 1
        for stored, query in ((a, b), (b, a)):
            table = payload_table(stored[None])
            assert table.indices_of(query[None]).tolist() == [0]
            with pytest.raises(KeyError):
                table.indices_of((stored + 2 * MATRIX_DEDUP_TOL)[None])

    def test_overflow_at_cap_for_dihedral(self):
        spec = rs.GroupSpec(kind="dihedral", n=50)
        assert rs.enumerate_closure(spec, cap=100).order == 100
        with pytest.raises(ClosureOverflow):
            rs.enumerate_closure(spec, cap=99)

    def test_overflowing_generator_hits_the_cap(self):
        # Powers of diag(2, 1/2) overflow; the first product whose projection
        # is not finite ends the closure before the cap.
        spec = rs.GroupSpec(kind="matrix_generators", generators=(np.diag([2.0, 0.5]),))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ClosureOverflow):
            rs.enumerate_closure(spec, cap=1500)

    def test_infinite_order_generator_ends_at_overflow(self):
        # Powers of [[2]] reach a non-finite projection after ~1000 levels.
        spec = rs.GroupSpec(kind="matrix_generators", generators=(np.array([[2.0]]),))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ClosureOverflow) as info:
            rs.enumerate_closure(spec)
        assert int(re.search(r"after (\d+) elements", str(info.value)).group(1)) < 1100

    def test_indices_of_every_dihedral_3000_element(self):
        table = rs.enumerate_closure(rs.GroupSpec(kind="dihedral", n=3000))
        rebuilt = payload_table(table.payload)  # index built from the payload
        probes = table.payload.copy()
        assert np.array_equal(table.indices_of(probes), np.arange(table.order))
        assert np.array_equal(rebuilt.indices_of(probes), np.arange(table.order))

    def test_dihedral_3000_closure_memory(self):
        spec = rs.GroupSpec(kind="dihedral", n=3000)
        tracemalloc.start()
        try:
            table = rs.enumerate_closure(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.order == 6000
        assert peak < 8 * 2**20

    def test_closed_matrix_table_retains_no_element_copies(self):
        # The closed-form table builds its index on the first lookup, and
        # that index compares against the payload rows; per-element copies
        # would add ~1 MiB on dihedral(3000).
        spec = rs.GroupSpec(kind="dihedral", n=3000)
        tracemalloc.start()
        try:
            table = rs.enumerate_closure(spec)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert table._index is None
        assert retained < 1.6 * 2**20
        assert np.array_equal(table.indices_of(table.payload[::-7]), np.arange(6000)[::-7])
        assert table._index.rows is table.payload

    def test_bfs_closed_matrix_table_retains_no_element_copies(self):
        # The same contract on the matrix BFS, which `matrix_generators` takes.
        spec = generator_stack_spec("dihedral", 3000)
        tracemalloc.start()
        try:
            table = rs.enumerate_closure(spec)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert table._index.rows is table.payload
        assert retained < 1.6 * 2**20


# Dihedral group of order 80 acting on 40 points: rotation i -> i+1 and
# reflection i -> -i.
DIHEDRAL_40_POINTS = (
    tuple((i + 1) % 40 for i in range(40)),
    tuple((-i) % 40 for i in range(40)),
)


class TestPermutationClosure:
    @pytest.mark.parametrize("spec", [
        *(rs.GroupSpec(kind="symmetric", n=n) for n in range(1, 7)),
        rs.GroupSpec(kind="permutation_generators", generators=DIHEDRAL_40_POINTS),
        rs.GroupSpec(kind="permutation_generators", generators=((1, 2, 3, 0, 4), (0, 1, 2, 4, 3))),
    ], ids=lambda spec: f"{spec.kind}-{spec.n}")
    def test_same_elements_and_words_as_tuple_bfs_oracle(self, spec):
        table = rs.enumerate_closure(spec)
        gens = rs.groups.canonical_generators(spec)
        perms, words = brute_permutation_closure(gens)
        assert table.payload.shape == (len(perms), gens.shape[1])
        assert [tuple(row) for row in table.payload.tolist()] == perms
        assert tree_words(table) == words
        assert [perms[g] for g in table.generators] == [tuple(g) for g in gens.tolist()]

    def test_closed_s9_table_retains_no_index(self):
        # A kept PermutationIndex would key a bytes copy of each of the
        # 362,880 elements: ~66 MiB more.  The table keeps its payload
        # (24.9 MiB) and its parent and generator arrays (2.8 MiB each).
        spec = rs.GroupSpec(kind="symmetric", n=9)
        tracemalloc.start()
        try:
            table = rs.enumerate_closure(spec)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert table.order == 362_880 and table._index is None
        assert retained < 32 * 2**20

    def test_indices_of_rebuilds_the_permutation_index(self):
        table = symmetric_table(5)
        assert table._index is None
        probes = table.payload[rs.stream(46).permutation(table.order)[:40]]
        expected = [int(np.flatnonzero((table.payload == p).all(axis=1))[0]) for p in probes]
        assert table.indices_of(probes).tolist() == expected
        assert table._index is not None  # kept for later lookups
        assert table.indices_of(probes).tolist() == expected
        with pytest.raises(KeyError):
            table.indices_of([[0, 0, 1, 2, 3]])

    def test_overflow_at_cap(self):
        spec = rs.GroupSpec(kind="symmetric", n=4)
        assert rs.enumerate_closure(spec, cap=24).order == 24
        with pytest.raises(ClosureOverflow):
            rs.enumerate_closure(spec, cap=23)


class TestStabilizerChain:
    @settings(max_examples=300, deadline=None)
    @given(structured_permutation_generators())
    def test_order_equals_the_closure_order(self, generators):
        spec = rs.GroupSpec(kind="permutation_generators", generators=generators)
        group = rs.groups.permutation_group(spec)
        assert group.order == rs.enumerate_closure(spec).order
        assert np.array_equal(group.generator_payloads, np.array(generators))

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 12, 20, 21, 30])
    def test_symmetric_orders_are_exact(self, n):
        order = rs.groups.permutation_group(rs.GroupSpec(kind="symmetric", n=n)).order
        assert type(order) is int and order == math.factorial(n)  # 21! > 2^63

    def test_dihedral_on_128_points(self):
        spec = rs.GroupSpec(kind="permutation_generators", generators=(
            tuple((i + 1) % 128 for i in range(128)), tuple((-i) % 128 for i in range(128))))
        assert rs.groups.permutation_group(spec).order == 256

    def test_s128_refused_fast_and_small(self):
        spec = rs.GroupSpec(kind="symmetric", n=128)
        start = time.perf_counter()
        tracemalloc.start()
        try:
            with pytest.raises(TooLarge, match="stabilizer chain on 128 points"):
                rs.groups.permutation_group(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 5.0
        assert peak < 100 * 2**20

    def test_matrix_groups_have_no_permutation_group(self):
        with pytest.raises(BadParams):
            rs.groups.permutation_group(rs.GroupSpec(kind="quaternion8"))


class TestOrbitLabels:
    @pytest.mark.parametrize("seed", range(6))
    def test_least_element_of_each_orbit(self, seed):
        # A few random permutations of 60 points, each with most points fixed,
        # so the orbits are of many sizes; the oracle walks each orbit.
        rng = rs.stream(seed, 70)
        maps = np.tile(np.arange(60), (3, 1))
        for m in maps:
            moved = rng.choice(60, size=8, replace=False)
            m[moved] = rng.permutation(moved)
        expected = np.arange(60)
        for start in range(60):
            orbit, frontier = {start}, [start]
            while frontier:
                frontier = [int(m[i]) for i in frontier for m in maps if int(m[i]) not in orbit]
                orbit.update(frontier)
            expected[start] = min(orbit)
        assert np.array_equal(rs.groups.orbit_labels(maps), expected)

    def test_one_long_cycle(self):
        cycle = np.roll(np.arange(500), 1)[None]
        assert np.array_equal(rs.groups.orbit_labels(cycle), np.zeros(500, dtype=int))


class TestTreeProduct:
    @pytest.mark.parametrize("kind,n,name", [
        pytest.param("symmetric", 4, "sn_permutation", id="symmetric-4"),
        pytest.param("quaternion8", None, "q8_left", id="quaternion8-None"),
        pytest.param("dihedral", 12, "defining_orthogonal", id="dihedral-12"),
        pytest.param("cyclic", 7, "defining_orthogonal", id="cyclic-7"),
    ])
    def test_explicit_images_equal_word_products_bit_for_bit(self, kind, n, name):
        table = rs.enumerate_closure(rs.GroupSpec(kind=kind, n=n))
        raw_rep = rs.build_named_rep(name, table)
        m = np.triu(np.ones((raw_rep.dim, raw_rep.dim))) + np.diag(np.arange(raw_rep.dim))
        images = m @ raw_rep.generator_images() @ np.linalg.inv(m)  # not orthogonal
        oracle = brute_word_images(table, list(images))
        assert table.tree_product(images).tobytes() == oracle.tobytes()
        rep = rs.build_named_rep("explicit", table, generator_images=list(images))
        expected = rs.gram_symmetrize(oracle, table).table_images()
        assert rep.table_images().tobytes() == expected.tobytes()
        assert orthogonality_defect(rep.table_images()) <= 1e-10


class TestContinuousSampling:
    def test_one_dimensional_signs(self):
        fam = rs.ContinuousFamily(kind="orthogonal", n=1)
        vals = rs.haar_matrices(fam, rs.stream(3), 20_000).ravel()
        assert set(np.unique(vals)) <= {-1.0, 1.0}
        p_hat = np.mean(vals > 0)
        assert abs(p_hat - 0.5) <= 4.0 * np.sqrt(0.25 / 20_000)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_samples_are_orthogonal(self, n):
        fam = rs.ContinuousFamily(kind="orthogonal", n=n)
        for m in rs.haar_matrices(fam, rs.stream(n), 200):
            assert orthogonality_defect(m) <= 1e-8

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_special_orthogonal_determinant(self, n):
        fam = rs.ContinuousFamily(kind="special_orthogonal", n=n)
        dets = np.linalg.det(rs.haar_matrices(fam, rs.stream(n), 500))
        assert np.max(np.abs(dets - 1.0)) <= 1e-8

    def test_first_column_mean_vanishes(self):
        fam = rs.ContinuousFamily(kind="orthogonal", n=3)
        cols = rs.haar_matrices(fam, rs.stream(17), 100_000)[:, :, 0]
        mean = cols.mean(axis=0)
        stderr = cols.std(axis=0, ddof=1) / np.sqrt(cols.shape[0])
        assert np.all(np.abs(mean) <= 4.0 * stderr)

    def test_first_column_second_moment_is_identity_over_n(self):
        fam = rs.ContinuousFamily(kind="orthogonal", n=3)
        cols = rs.haar_matrices(fam, rs.stream(23), 100_000)[:, :, 0]
        outer = np.einsum("ki,kj->kij", cols, cols)
        mean = outer.mean(axis=0)
        stderr = outer.std(axis=0, ddof=1) / np.sqrt(cols.shape[0])
        assert np.all(np.abs(mean - np.eye(3) / 3.0) <= 4.0 * stderr)

    def test_fixed_seed_bit_identical(self):
        fam = rs.ContinuousFamily(kind="special_orthogonal", n=4)
        a = rs.haar_matrices(fam, rs.stream(5, 1), 50)
        b = rs.haar_matrices(fam, rs.stream(5, 1), 50)
        assert np.array_equal(a, b)

    def test_substreams_differ(self):
        fam = rs.ContinuousFamily(kind="orthogonal", n=3)
        a = rs.haar_matrices(fam, rs.stream(5, 1), 4)
        b = rs.haar_matrices(fam, rs.stream(5, 2), 4)
        assert not np.allclose(a, b)

    def test_streams_are_sfc64_on_seed_sequence_paths(self):
        # The engine is part of the determinism contract: a (seed, path)
        # repeats its draws, and sibling paths, or a longer path, differ.
        rng = rs.stream(5, 1, 0)
        assert isinstance(rng.bit_generator, np.random.SFC64)
        draws = rng.standard_normal(64)
        assert np.array_equal(draws, rs.stream(5, 1, 0).standard_normal(64))
        assert np.array_equal(
            draws, np.random.Generator(np.random.SFC64(rs.substream(5, 1, 0))).standard_normal(64)
        )
        for other in (rs.stream(5, 1, 1), rs.stream(5, 2, 0), rs.stream(5, 1), rs.stream(6, 1, 0)):
            assert not np.any(draws == other.standard_normal(64))

    def test_singular_draw_is_redrawn(self):
        class FirstDrawSingular:
            """Returns a first Gaussian stack with one zero row, then real draws."""

            def __init__(self):
                self.rng = rs.stream(9)
                self.calls = []

            def standard_normal(self, shape):
                self.calls.append(shape)
                z = self.rng.standard_normal(shape)
                if len(self.calls) == 1:
                    z[1] = 0.0  # a zero quaternion
                return z

        fam = rs.ContinuousFamily(kind="special_orthogonal", n=3)
        rng = FirstDrawSingular()
        q = rs.haar_matrices(fam, rng, 4)
        assert rng.calls == [(4, 4), (1, 4)]
        assert orthogonality_defect(q) <= 1e-12
        np.testing.assert_allclose(np.linalg.det(q), 1.0, atol=1e-12)

    def test_single_draw(self):
        fam = rs.ContinuousFamily(kind="orthogonal", n=3)
        (m,) = rs.haar_matrices(fam, rs.stream(0), 1)
        assert m.shape == (3, 3)
        assert orthogonality_defect(m) <= 1e-8

    @pytest.mark.parametrize("kind", ["orthogonal", "special_orthogonal"])
    def test_quaternion_draws_match_scipy_rotations(self, kind):
        fam = rs.ContinuousFamily(kind=kind, n=3)
        q = rs.haar_matrices(fam, rs.stream(31), 100_000)
        ref = brute_quaternion_rotations(fam, rs.stream(31), 100_000)
        assert float(np.max(np.abs(q - ref))) <= 1e-14
        assert orthogonality_defect(q) <= 1e-14

    def test_closed_form_3_special_orthogonal_determinant(self):
        fam = rs.ContinuousFamily(kind="special_orthogonal", n=3)
        dets = np.linalg.det(rs.haar_matrices(fam, rs.stream(37), 100_000))
        assert float(np.max(np.abs(dets - 1.0))) <= 1e-14

    def test_closed_form_3_orthogonal_determinant_is_the_draws_sign(self):
        n_draws = 100_000
        fam = rs.ContinuousFamily(kind="orthogonal", n=3)
        dets = np.linalg.det(rs.haar_matrices(fam, rs.stream(41), n_draws))
        w = rs.stream(41).standard_normal((n_draws, 4))[:, 0]  # the draws' own stream
        assert float(np.max(np.abs(dets - np.sign(w)))) <= 1e-14
        share = np.mean(dets < 0)
        assert abs(share - 0.5) <= 4.0 * np.sqrt(0.25 / n_draws)

    @pytest.mark.parametrize("kind", ["orthogonal", "special_orthogonal"])
    def test_squared_trace_has_mean_one(self, kind):
        # Schur orthogonality: the defining representation of SO(3), and of
        # O(3), is irreducible, so its character has E[(tr R)^2] = 1.
        fam = rs.ContinuousFamily(kind=kind, n=3)
        sq = np.trace(rs.haar_matrices(fam, rs.stream(47), 100_000), axis1=1, axis2=2) ** 2
        stderr = sq.std(ddof=1) / np.sqrt(len(sq))
        assert abs(sq.mean() - 1.0) <= 4.0 * stderr

    @pytest.mark.parametrize("kind", ["orthogonal", "special_orthogonal"])
    @pytest.mark.parametrize("n", [1, 2, 4, 5])
    def test_other_sizes_are_the_qr_draws_bit_for_bit(self, kind, n):
        fam = rs.ContinuousFamily(kind=kind, n=n)
        q = rs.haar_matrices(fam, rs.stream(43, n), 2000)
        assert q.tobytes() == brute_haar_matrices(fam, rs.stream(43, n), 2000).tobytes()

    @pytest.mark.parametrize("kind", ["orthogonal", "special_orthogonal"])
    def test_rotations_3_are_row_major_euler_rodrigues_bit_for_bit(self, kind):
        # The library computes each entry of R as one contiguous row of a
        # (3, 3, size) array; the values are those of the row-major formula
        # applied to the same quaternions, entry by entry.
        fam = rs.ContinuousFamily(kind=kind, n=3)
        q = rs.stream(44).standard_normal((5000, 4))
        norm2 = np.einsum("ki,ki->k", q, q)
        assert norm2.min() >= 1e-250  # no draw is re-drawn
        w, x, y, z = q.T * np.sqrt(2.0 / norm2)
        expected = np.empty((5000, 3, 3))
        expected[:, 0, 0] = 1.0 - (y * y + z * z)
        expected[:, 0, 1] = x * y - w * z
        expected[:, 0, 2] = x * z + w * y
        expected[:, 1, 0] = x * y + w * z
        expected[:, 1, 1] = 1.0 - (x * x + z * z)
        expected[:, 1, 2] = y * z - w * x
        expected[:, 2, 0] = x * z - w * y
        expected[:, 2, 1] = y * z + w * x
        expected[:, 2, 2] = 1.0 - (x * x + y * y)
        if kind == "orthogonal":
            expected *= np.where(w < 0, -1.0, 1.0)[:, None, None]
        r = rs.haar_matrices(fam, rs.stream(44), 5000)
        assert r.shape == (5000, 3, 3)
        assert r.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", [2, 3])
    def test_unknown_family_rejected_before_drawing(self, n):
        class NoDraws:
            def standard_normal(self, shape):
                raise AssertionError("drew before checking the family")

        with pytest.raises(BadParams, match="unknown continuous family"):
            rs.haar_matrices(rs.ContinuousFamily(kind="unitary", n=n), NoDraws(), 4)


class TestTopologicalGenerators:
    @pytest.mark.parametrize("kind,n,count", [
        ("special_orthogonal", 1, 1), ("orthogonal", 1, 1),
        ("special_orthogonal", 2, 1), ("orthogonal", 2, 2),
        ("special_orthogonal", 3, 2), ("orthogonal", 3, 3),
        ("special_orthogonal", 8, 2), ("orthogonal", 9, 3),
    ])
    def test_fixed_rotations_and_the_reflection_first(self, kind, n, count):
        elements = rs.groups.topological_generators(rs.ContinuousFamily(kind=kind, n=n))
        assert elements.shape == (count, n, n)
        assert rs.groups.orthogonality_defect(elements) <= 1e-15
        dets = np.linalg.det(elements)
        reflection = np.diag([-1.0] + [1.0] * (n - 1))
        if kind == "orthogonal":
            assert np.array_equal(elements[0], reflection)
            dets = dets[1:]
        np.testing.assert_allclose(dets, 1.0, atol=1e-14)

    @pytest.mark.parametrize("n", [4, 7])
    def test_planes_alternate_between_the_two_rotations(self, n):
        a, b = rs.groups.topological_generators(rs.ContinuousFamily(kind="special_orthogonal", n=n))
        theta = rs.groups.index_weights(n - 1)
        for i in range(n - 1):
            rotation = (a, b)[i % 2]
            assert rotation[i + 1, i] == pytest.approx(np.sin(theta[i]), abs=1e-15)

    @pytest.mark.parametrize("kind,n", [
        ("special_orthogonal", 1), ("orthogonal", 1), ("orthogonal", 2), ("special_orthogonal", 5),
    ])
    def test_family_answers_its_generators_and_its_order(self, kind, n):
        family = rs.ContinuousFamily(kind=kind, n=n)
        expected = rs.groups.topological_generators(family)
        assert family.generator_payloads.shape == expected.shape
        assert family.generator_payloads.tobytes() == expected.tobytes()
        assert family.order is None
