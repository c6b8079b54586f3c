import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repspect as rs
from repspect.errors import (
    BadMeasureSpec,
    BadParams,
    NotDiscrete,
    NotSumZero,
    NotUnitVector,
    TooLarge,
    TraceNotOne,
)

from repspect.moments import VectorSampler, _MomentSums, _sample_blocks, squared_overlap_values

from conftest import (
    brute_chain_overlap_values,
    brute_chain_record,
    brute_discrete_invariance,
    brute_haar_matrices,
    brute_orbit_overlap_values,
    brute_orbit_second_moment,
    brute_pair_average,
    brute_points_record,
    brute_quaternion_rotations,
    brute_sampled_record,
    brute_squared_overlap_values,
    brute_ts_conjugation,
    cyclic_table,
    random_unit,
    symmetric_table,
)


def chained_values(sampler, n_pairs, seed, workers=1):
    """The producer's value blocks concatenated, and the record of their draws."""
    sums = _MomentSums(sampler.dim)
    blocks = list(squared_overlap_values(sampler, n_pairs, seed, workers, sums))
    return np.concatenate(blocks), sums.record()


def traced_peak(fn):
    """Result of fn() and its tracemalloc peak in bytes."""
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


class FiniteLawSampler(VectorSampler):
    """Monte Carlo draws of a finite law: rows of ``points`` with ``probs``
    (uniform when None).  The library computes such laws exactly and never
    samples them; this sampler checks the exact values statistically."""

    def __init__(self, points, probs=None):
        super().__init__(np.shape(points)[1])
        self.points = np.asarray(points, dtype=float)
        self.probs = probs

    def sample(self, rng, count, buf=None):
        return self.points[rng.choice(len(self.points), size=count, p=self.probs)]


def o3_plus_trivial():
    """O(3) acting on R^3 + R by diag(R, 1): a representation with a
    trivial summand (dim 4), whose orbits do not give 1/dim."""
    def stack_map(rots):
        images = np.zeros((len(rots), 4, 4))
        images[:, :3, :3] = rots
        images[:, 3, 3] = 1.0
        return images

    return rs.Representation(4, stack_map, rs.ContinuousFamily(kind="orthogonal", n=3))


@pytest.fixture(scope="module")
def c4_rotation():
    return rs.build_named_rep("cyclic_rotation", cyclic_table(4))


@pytest.fixture(scope="module")
def so3_tss():
    fam = rs.ContinuousFamily(kind="special_orthogonal", n=3)
    return rs.build_named_rep("so3_traceless_symmetric", fam)


class TestSamplers:
    def test_rotation_orbit_hits_only_four_points(self, c4_rotation):
        # The finite law behind the exact orbit moments: each of the four
        # targets once.
        pts = c4_rotation.table_images() @ np.array([1.0, 0.0])
        targets = np.array([[1, 0], [-1, 0], [0, 1], [0, -1]], dtype=float)
        hits = [int(np.argmin(np.max(np.abs(targets - p), axis=1))) for p in pts]
        assert sorted(hits) == [0, 1, 2, 3]
        np.testing.assert_allclose(pts, targets[hits], rtol=0, atol=1e-12)

    def test_sphere_samples_are_unit(self):
        fam = rs.ContinuousFamily(kind="orthogonal", n=3)
        rep = rs.build_named_rep("defining_orthogonal", fam)
        pts = rs.make_sampler(rs.uniform_sphere(), rep).sample(rs.stream(1), 1000)
        np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("kind", ["discrete", "finite-orbit"])
    def test_finite_laws_have_no_sampler(self, c4_rotation, kind):
        spec = {
            "discrete": rs.discrete_measure([[1.0, 0.0]], [1.0]),
            "finite-orbit": rs.orbit_measure(np.array([1.0, 0.0])),
        }[kind]
        with pytest.raises(BadMeasureSpec, match="exact moments"):
            rs.make_sampler(spec, c4_rotation)

    def test_subsphere_samples_live_in_subspace(self, s4_table):
        rep = rs.build_named_rep("sn_permutation", s4_table)
        w = rs.sum_zero_basis(4).T  # (4, 3) orthonormal columns
        pts = rs.make_sampler(rs.uniform_subsphere(w), rep).sample(rs.stream(3), 200)
        np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(pts.sum(axis=1), 0.0, atol=1e-10)

    def test_continuous_orbit_sampler(self, so3_tss):
        spec = rs.orbit_measure(np.eye(5)[4])
        pts = rs.make_sampler(spec, so3_tss).sample(rs.stream(4), 200)
        np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-10)

    def test_continuous_orbit_sampler_maps_orbits_in_blocks(self, so3_tss):
        # Block by block, the same points as the orbit of one payload stack of
        # all draws, and within rounding of its image stack times the base.
        base = rs.sum_zero_basis(5)[0]
        sampler = rs.make_sampler(rs.orbit_measure(base), so3_tss)
        pts, peak = traced_peak(
            lambda: np.concatenate(list(_sample_blocks(sampler, rs.stream(5), 50_000)))
        )
        whole = rs.haar_matrices(so3_tss.group, rs.stream(5), 50_000)
        np.testing.assert_array_equal(pts, so3_tss.orbit(whole, base))
        images = so3_tss.stack_map(whole)
        np.testing.assert_allclose(
            pts, np.einsum("kij,j->ki", images, base), rtol=0, atol=1e-15
        )
        assert peak < 16 * 2**20

    def test_continuous_orbit_sampler_draws_in_blocks(self):
        # The estimators draw O(8) payloads a block at a time: the whole
        # 100,000-draw payload stack alone would be 51 MB.
        fam = rs.ContinuousFamily(kind="orthogonal", n=8)
        rep = rs.build_named_rep("defining_orthogonal", fam)
        base = np.full(8, 1.0 / np.sqrt(8.0))
        sampler = rs.make_sampler(rs.orbit_measure(base), rep)
        whole = np.einsum("kij,j->ki", brute_haar_matrices(fam, rs.stream(5), 100_000), base)

        def drawn_rows():
            start = 0
            for pts in _sample_blocks(sampler, rs.stream(5), 100_000):
                np.testing.assert_array_equal(pts, whole[start:start + len(pts)])
                start += len(pts)
            return start

        rows, peak = traced_peak(drawn_rows)
        assert rows == 100_000
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("kind", ["sphere", "subsphere"])
    def test_blocks_of_a_chunk_share_one_buffer(self, so3_tss, kind):
        # Each block overwrites the last in the chunk's buffer, and the blocks,
        # copied as they come, are the draws of one whole sample call.
        if kind == "sphere":
            spec = rs.uniform_sphere()
        else:
            spec = rs.uniform_subsphere(np.linalg.qr(rs.stream(27).standard_normal((5, 2)))[0])
        sampler = rs.make_sampler(spec, so3_tss)
        size = 2 * sampler.block + 5
        blocks = _sample_blocks(sampler, rs.stream(28), size)
        first = next(blocks)
        kept = [first.copy()]
        for x in blocks:
            kept.append(x.copy())
            assert np.shares_memory(x, first)
        assert len(kept) == 3
        np.testing.assert_array_equal(np.concatenate(kept), sampler.sample(rs.stream(28), size))

    def test_a_sample_call_without_a_buffer_is_fresh(self, so3_tss):
        sampler = rs.make_sampler(rs.uniform_sphere(), so3_tss)
        a = sampler.sample(rs.stream(29), 100)
        b = sampler.sample(rs.stream(29), 100)
        assert not np.shares_memory(a, b)
        np.testing.assert_array_equal(a, b)

    def test_blocks_hold_at_most_8192_draws(self, so3_tss):
        # The float budget alone gives O(1) orbits 65,536 draws a block,
        # O(2) orbits 16,384 and the 2-dim sphere 32,768.
        samplers = [rs.make_sampler(rs.uniform_sphere(), so3_tss)]
        samplers.append(rs.make_sampler(rs.orbit_measure(np.eye(5)[4]), so3_tss))
        for n in (1, 2):
            rep = rs.build_named_rep("defining_orthogonal", rs.ContinuousFamily(kind="orthogonal", n=n))
            samplers.append(rs.make_sampler(rs.orbit_measure(np.eye(n)[0]), rep))
            samplers.append(rs.make_sampler(rs.uniform_sphere(), rep))
        assert all(1 <= s.block <= 8_192 for s in samplers)

    @pytest.mark.parametrize("case", [
        "sphere_dim2", "sphere_dim5", "sphere_dim40", "subsphere", "so3_orbit", "o3_orbit",
        "o4_orbit",
    ])
    def test_blocks_are_coordinate_major(self, case):
        # Every block, the short last one too, and a direct sample call are
        # the (count, dim) view of a C-contiguous (dim, count) array.
        def on(name, kind, n):
            return rs.build_named_rep(name, rs.ContinuousFamily(kind=kind, n=n))

        if case.startswith("sphere_dim"):
            rep = on("defining_orthogonal", "orthogonal", int(case.removeprefix("sphere_dim")))
            spec = rs.uniform_sphere()
        elif case == "subsphere":
            rep = on("defining_orthogonal", "orthogonal", 64)
            spec = rs.uniform_subsphere(np.linalg.qr(rs.stream(30).standard_normal((64, 40)))[0])
        elif case == "o4_orbit":
            rep = on("defining_orthogonal", "orthogonal", 4)
            spec = rs.orbit_measure(random_unit(rs.stream(30), 4))
        else:
            kind = "special_orthogonal" if case == "so3_orbit" else "orthogonal"
            rep = on("so3_traceless_symmetric", kind, 3)
            spec = rs.orbit_measure(random_unit(rs.stream(30), 5))
        sampler = rs.make_sampler(spec, rep)
        counts = []
        for x in _sample_blocks(sampler, rs.stream(31), 2 * sampler.block + 3):
            assert x.shape == (len(x), rep.dim) and x.T.flags.c_contiguous
            counts.append(len(x))
        assert counts == [sampler.block, sampler.block, 3]
        assert sampler.sample(rs.stream(31), 7).T.flags.c_contiguous

    def test_dimension_mismatch_rejected(self, c4_rotation, so3_tss):
        with pytest.raises(BadMeasureSpec, match="orbit base has shape"):
            rs.make_sampler(rs.orbit_measure(np.array([1.0, 0.0, 0.0])), c4_rotation)
        with pytest.raises(BadMeasureSpec, match="points live in R"):
            rs.make_sampler(rs.discrete_measure([[1.0, 0.0, 0.0]], [1.0]), c4_rotation)
        with pytest.raises(BadMeasureSpec, match="points live in R"):
            rs.make_sampler(rs.discrete_measure([[1.0, 0.0]], [1.0]), so3_tss)

    def test_orbit_needs_a_group(self):
        rep = rs.Representation(2, lambda payload: payload)
        with pytest.raises(BadMeasureSpec, match="group source"):
            rs.make_sampler(rs.orbit_measure(np.array([1.0, 0.0])), rep)

    def test_bad_probabilities_rejected(self):
        with pytest.raises(BadMeasureSpec):
            rs.discrete_measure([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.4])
        with pytest.raises(BadMeasureSpec):
            rs.discrete_measure([[1.0, 0.0]], [-1.0])

    def test_non_orthonormal_subspace_rejected(self):
        with pytest.raises(BadMeasureSpec):
            rs.uniform_subsphere(np.array([[1.0], [1.0]]))

    def test_non_unit_point_rejected(self):
        with pytest.raises(NotUnitVector):
            rs.discrete_measure([[1.0, 1.0]], [1.0])


class TestEstimateSquaredOverlap:
    def test_uniform_sphere_r3(self):
        fam = rs.ContinuousFamily(kind="orthogonal", n=3)
        rep = rs.build_named_rep("defining_orthogonal", fam)
        est, _ = rs.estimate_squared_overlap(
            rs.make_sampler(rs.uniform_sphere(), rep), 200_000, seed=5
        )
        assert abs(est.value - 1.0 / 3.0) <= 4.0 * est.stderr
        assert est.stderr > 0 and not est.exact

    def test_orbit_of_five_dimensional_conjugation_action(self, so3_tss):
        spec = rs.orbit_measure(random_unit(rs.stream(6), 5))
        est, _ = rs.estimate_squared_overlap(rs.make_sampler(spec, so3_tss), 200_000, seed=7)
        assert abs(est.value - 0.2) <= 4.0 * est.stderr

    @pytest.mark.parametrize("seed", [41, 42, 43])
    def test_one_draw_orbit_value_where_it_is_not_one_over_n(self, seed):
        # Base v = (u, d): <x, y> = |u|^2 c + d^2 with c the cosine of two
        # uniform directions of R^3 (E c = 0, E c^2 = 1/3), so
        # E<x,y>^2 = (1 - d^2)^2 / 3 + d^4 = 0.4528, not 1/4.
        d, n_pairs = 0.8, 200_000
        u = random_unit(rs.stream(seed), 3) * math.sqrt(1.0 - d * d)
        sampler = rs.make_sampler(rs.orbit_measure(np.append(u, d)), o3_plus_trivial())
        exact = (1.0 - d * d) ** 2 / 3.0 + d**4
        est, record = rs.estimate_squared_overlap(sampler, n_pairs, seed=seed)
        assert record.n_samples == n_pairs + 1
        assert abs(est.value - exact) <= 4.0 * est.stderr
        assert abs(exact - 0.25) > 50.0 * est.stderr
        two_draw = brute_squared_overlap_values(sampler, n_pairs, seed=seed)
        two_draw_stderr = two_draw.std(ddof=1) / math.sqrt(n_pairs)
        assert abs(est.value - two_draw.mean()) <= 4.0 * math.hypot(est.stderr, two_draw_stderr)

    def test_qr_path_orbit_draws_one_haar_matrix_per_pair(self, monkeypatch):
        # O(8) draws through the batched QR, not the 3 x 3 quaternion rotations.
        draws = []

        def counting_haar_matrices(family, rng, size):
            draws.append(size)
            return rs.haar_matrices(family, rng, size)

        monkeypatch.setattr("repspect.moments.haar_matrices", counting_haar_matrices)
        rep = rs.build_named_rep("defining_orthogonal", rs.ContinuousFamily(kind="orthogonal", n=8))
        sampler = rs.make_sampler(rs.orbit_measure(random_unit(rs.stream(44), 8)), rep)
        # Each of the 2 worker chunks draws one point more than its pairs.
        est, record = rs.estimate_squared_overlap(sampler, 5_001, seed=45, workers=2)
        assert sum(draws) == record.n_samples == 5_001 + 2
        assert abs(est.value - 1.0 / 8.0) <= 4.0 * est.stderr

    def test_antipodal_two_point_measure(self):
        w = np.ones(3) / np.sqrt(3.0)
        est, _ = rs.estimate_squared_overlap(FiniteLawSampler([w, -w], [0.5, 0.5]), 10_000, seed=8)
        exact, _ = rs.exact_discrete_overlap(rs.discrete_measure([w, -w], [0.5, 0.5]))
        assert abs(est.value - 1.0) <= 1e-12 and abs(exact.value - 1.0) <= 1e-12

    @pytest.mark.parametrize("case", ["sphere_dim40", "subsphere", "so3_orbit", "one_row_blocks"])
    def test_block_draws_match_whole_chunk_draws(self, so3_tss, case):
        # Each case spans several blocks of the sampler's rows; the chained
        # values, carried across block boundaries, and the record of all
        # n_pairs + workers draws match those of whole chunk draws.
        if case == "sphere_dim40":
            fam = rs.ContinuousFamily(kind="orthogonal", n=40)
            sampler = rs.make_sampler(rs.uniform_sphere(), rs.build_named_rep("defining_orthogonal", fam))
            n_pairs, workers = 12_001, 2
        elif case == "subsphere":
            basis = np.linalg.qr(rs.stream(21).standard_normal((5, 2)))[0]
            sampler = rs.make_sampler(rs.uniform_subsphere(basis), so3_tss)
            n_pairs, workers = 90_001, 1
        elif case == "one_row_blocks":
            # A chunk's first block then gives no value yet.
            sampler = rs.make_sampler(rs.uniform_sphere(), so3_tss)
            sampler.block = 1
            n_pairs, workers = 301, 2
        else:
            spec = rs.orbit_measure(random_unit(rs.stream(22), 5))
            sampler = rs.make_sampler(spec, so3_tss)
            n_pairs, workers = 90_001, 2
        assert n_pairs > 2 * sampler.block
        vals, record = chained_values(sampler, n_pairs, seed=23, workers=workers)
        assert np.array_equal(
            vals, brute_chain_overlap_values(sampler, n_pairs, seed=23, workers=workers)
        )
        assert record.n_samples == n_pairs + workers and not record.exact
        if case == "so3_orbit":
            # scipy's quaternion rotations and explicit conjugation images,
            # against the library's rotations and orbit map: equal to rounding.
            # A chunk of size pairs draws size + 1 points, so the chunks of
            # n_pairs + workers one-draw points are the chained draws.
            _, x = brute_orbit_overlap_values(
                sampler, brute_ts_conjugation, n_pairs + workers, seed=23, workers=workers,
                haar=brute_quaternion_rotations,
            )
            entries, stderr, mean = brute_points_record(x)
        else:
            entries, stderr, mean = brute_chain_record(sampler, n_pairs, seed=23, workers=workers)
        np.testing.assert_allclose(record.entries, entries, rtol=0, atol=1e-12)
        np.testing.assert_allclose(record.stderr, stderr, rtol=0, atol=1e-12)
        np.testing.assert_allclose(record.mean, mean, rtol=0, atol=1e-12)

    def test_dim_40_sampled_memory_is_one_block(self):
        # A whole (200_000, 40) chunk is 64 MB; blocks are 512 KB.
        fam = rs.ContinuousFamily(kind="orthogonal", n=40)
        sphere_rep = rs.build_named_rep("defining_orthogonal", fam)
        _, peak = traced_peak(lambda: rs.estimate_squared_overlap(
            rs.make_sampler(rs.uniform_sphere(), sphere_rep), 200_000, seed=24
        ))
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("n_pairs", [100_000, 400_000])
    @pytest.mark.parametrize("dim", [2, 5, 40])
    def test_sphere_pass_holds_about_one_block(self, dim, n_pairs):
        # A block is at most 8,192 draws and 512 KB of draws, in one buffer
        # per worker chunk, and each of its per-draw vectors (norms, chained
        # and centred values) at most 64 KB.
        fam = rs.ContinuousFamily(kind="orthogonal", n=dim)
        sampler = rs.make_sampler(rs.uniform_sphere(), rs.build_named_rep("defining_orthogonal", fam))
        _, peak = traced_peak(lambda: rs.estimate_squared_overlap(sampler, n_pairs, seed=30))
        assert peak < 0.7 * 2**20

    def test_reproducible_given_seed_and_workers(self, so3_tss):
        sampler = rs.make_sampler(rs.uniform_sphere(), so3_tss)
        a, ra = rs.estimate_squared_overlap(sampler, 5000, seed=9, workers=3)
        b, rb = rs.estimate_squared_overlap(sampler, 5000, seed=9, workers=3)
        assert a == b
        assert np.array_equal(ra.entries, rb.entries) and np.array_equal(ra.mean, rb.mean)

    def test_worker_count_changes_the_stream(self, so3_tss):
        sampler = rs.make_sampler(rs.uniform_sphere(), so3_tss)
        a, _ = rs.estimate_squared_overlap(sampler, 5000, seed=9, workers=1)
        b, _ = rs.estimate_squared_overlap(sampler, 5000, seed=9, workers=2)
        assert a.value != b.value

    @pytest.mark.parametrize("estimator", ["overlap", "coordinates"])
    @pytest.mark.parametrize("count, workers", [(1, 1), (0, 1), (100, 0), (100, -1), (2, 3)])
    def test_sample_and_worker_counts_checked(self, so3_tss, estimator, count, workers):
        spec = rs.uniform_sphere()
        sampler = rs.make_sampler(spec, so3_tss)
        run = {
            "overlap": lambda: rs.estimate_squared_overlap(sampler, count, workers=workers),
            "coordinates": lambda: rs.coordinate_second_moments(
                sampler, count, workers=workers
            ),
        }[estimator]
        with pytest.raises(BadParams):
            run()

    def test_matches_exact_value_on_discrete_measure(self):
        rng = rs.stream(10)
        pts = np.stack([random_unit(rng, 4) for _ in range(5)])
        pr = rng.dirichlet(np.ones(5))
        pr = pr / pr.sum()
        exact, _ = rs.exact_discrete_overlap(rs.discrete_measure(pts, pr))
        # This law is not invariant, so chained values would be correlated
        # and their stderr too small; independent pairs have an honest one.
        vals = brute_squared_overlap_values(FiniteLawSampler(pts, pr), 100_000, seed=11)
        stderr = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - exact.value) <= 4.0 * stderr


def chain_case(case, so3_tss):
    """A sampled measure with its exact E<x,y>^2."""
    if case in ("sphere_dim2", "sphere_dim40"):
        n = int(case.removeprefix("sphere_dim"))
        rep = rs.build_named_rep("defining_orthogonal", rs.ContinuousFamily(kind="orthogonal", n=n))
        return rs.make_sampler(rs.uniform_sphere(), rep), 1.0 / n
    if case == "so3_orbit":
        return rs.make_sampler(rs.orbit_measure(random_unit(rs.stream(50), 5)), so3_tss), 0.2
    # o3_plus_trivial, base (u, d) with d = 0.8: see
    # test_one_draw_orbit_value_where_it_is_not_one_over_n.
    u = random_unit(rs.stream(51), 3) * 0.6
    return rs.make_sampler(rs.orbit_measure(np.append(u, 0.8)), o3_plus_trivial()), 0.4528


class TestChainedPairs:
    # Successive chained values <x_i, x_{i+1}>^2 and <x_{i+1}, x_{i+2}>^2
    # share a draw but are independent on an invariant measure.

    @pytest.mark.parametrize("case", ["sphere_dim2", "sphere_dim40", "so3_orbit"])
    def test_successive_values_are_uncorrelated(self, so3_tss, case):
        sampler, _ = chain_case(case, so3_tss)
        n_pairs = 200_000
        vals, _ = chained_values(sampler, n_pairs, seed=52)
        lag1 = np.corrcoef(vals[:-1], vals[1:])[0, 1]
        assert abs(lag1) <= 4.0 / math.sqrt(n_pairs)

    @pytest.mark.parametrize("case", ["sphere_dim2", "o3_plus_trivial"])
    def test_mean_agrees_with_two_draw_oracle(self, so3_tss, case):
        sampler, exact = chain_case(case, so3_tss)
        n_pairs, workers = 200_000, 3
        est, record = rs.estimate_squared_overlap(sampler, n_pairs, seed=53, workers=workers)
        two_draw = brute_squared_overlap_values(sampler, n_pairs, seed=53, workers=workers)
        two_draw_stderr = two_draw.std(ddof=1) / math.sqrt(n_pairs)
        assert abs(est.value - two_draw.mean()) <= 4.0 * math.hypot(est.stderr, two_draw_stderr)
        assert abs(est.value - exact) <= 4.0 * est.stderr
        if case == "sphere_dim2":
            # The record of n_pairs + workers chained draws against that of
            # the oracle's 2 n_pairs draws.
            entries, stderr, _ = brute_sampled_record(sampler, n_pairs, seed=53, workers=workers)
            assert np.all(np.abs(record.entries - entries) <= 4.0 * np.hypot(record.stderr, stderr))


class TestExactDiscreteOverlap:
    def test_single_point(self):
        est, m = rs.exact_discrete_overlap(rs.discrete_measure([[1.0, 0.0]], [1.0]))
        assert est.value == pytest.approx(1.0) and est.exact and est.stderr == 0.0
        np.testing.assert_allclose(m.entries, [[1.0, 0.0], [0.0, 0.0]])

    def test_two_basis_vectors(self):
        spec = rs.discrete_measure([[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5])
        est, _ = rs.exact_discrete_overlap(spec)
        assert est.value == pytest.approx(0.5)

    def test_two_oblique_points(self):
        spec = rs.discrete_measure(
            [[1.0, 0.0], [1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0)]], [0.5, 0.5]
        )
        est, _ = rs.exact_discrete_overlap(spec)
        assert est.value == pytest.approx(0.75)

    def test_rejects_non_discrete(self):
        with pytest.raises(NotDiscrete):
            rs.exact_discrete_overlap(rs.uniform_sphere())

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_matches_pair_enumeration_and_lower_bound(self, seed):
        rng = rs.stream(seed)
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, 7))
        pts = np.stack([random_unit(rng, n) for _ in range(k)])
        pr = rng.dirichlet(np.ones(k))
        pr = pr / pr.sum()
        spec = rs.discrete_measure(pts, pr)
        est, m = rs.exact_discrete_overlap(spec)
        brute = sum(
            pr[i] * pr[j] * float(np.dot(pts[i], pts[j])) ** 2
            for i in range(k)
            for j in range(k)
        )
        assert abs(est.value - brute) <= 1e-12
        check = rs.lower_bound_check(m)
        assert check.gap >= -1e-12
        assert est.value >= 1.0 / n - 1e-12


class TestLowerBoundCheck:
    def test_isotropic_matrix_has_zero_gap(self):
        check = rs.lower_bound_check(np.eye(4) / 4.0)
        assert check.value == pytest.approx(0.25) and check.gap == pytest.approx(0.0)

    def test_rank_one_matrix(self):
        check = rs.lower_bound_check(np.diag([1.0, 0.0]))
        assert check.value == pytest.approx(1.0)
        assert check.gap == pytest.approx(0.5)

    def test_two_point_measure_gap(self):
        spec = rs.discrete_measure(
            [[1.0, 0.0], [1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0)]], [0.5, 0.5]
        )
        _, m = rs.exact_discrete_overlap(spec)
        check = rs.lower_bound_check(m)
        assert check.value == pytest.approx(0.75)
        assert check.bound == pytest.approx(0.5)
        assert check.gap == pytest.approx(0.25)

    def test_trace_validation(self):
        with pytest.raises(TraceNotOne):
            rs.lower_bound_check(np.eye(3))


class TestExactFiniteOrbitMoments:
    def test_s3_sum_zero_with_explicit_base(self, s3_table):
        rep = rs.build_named_rep("sn_sum_zero", s3_table)
        v = rs.sum_zero_basis(3) @ (np.array([1.0, 0.0, -1.0]) / np.sqrt(2.0))
        om = rs.exact_finite_orbit_moments(rep, v)
        assert om.single_sum == pytest.approx(0.5, abs=1e-12)
        assert om.group_sum == pytest.approx(3.0, abs=1e-12)

    def test_s4_sum_zero_group_sum(self, s4_table):
        rep = rs.build_named_rep("sn_sum_zero", s4_table)
        v = random_unit(rs.stream(12), 3)
        om = rs.exact_finite_orbit_moments(rep, v)
        assert om.group_sum == pytest.approx(8.0, abs=1e-9)

    def test_quarter_turn_orbit(self, c4_rotation):
        om = rs.exact_finite_orbit_moments(c4_rotation, np.array([1.0, 0.0]))
        # the four rotations give overlaps 1, 0, 1, 0 with the base point
        assert om.single_sum == pytest.approx(0.5, abs=1e-15)
        assert om.double_sum == pytest.approx(om.single_sum, abs=1e-12)

    def test_double_equals_single_for_random_bases(self, s4_table):
        rep = rs.build_named_rep("sn_sum_zero", s4_table)
        rng = rs.stream(13)
        for _ in range(5):
            om = rs.exact_finite_orbit_moments(rep, random_unit(rng, 3))
            assert abs(om.double_sum - om.single_sum) <= 1e-10

    @pytest.mark.parametrize("rep_name,kind,n", [
        ("sn_permutation", "symmetric", 3),
        ("sn_sum_zero", "symmetric", 3),
        ("sn_permutation", "symmetric", 4),
        ("sn_sum_zero", "symmetric", 4),
        ("q8_left", "quaternion8", None),
        ("cyclic_rotation", "cyclic", 7),
        ("defining_orthogonal", "dihedral", 12),
    ])
    def test_pair_moment_matches_pair_enumeration(self, rep_name, kind, n):
        rep = rs.build_named_rep(rep_name, rs.enumerate_closure(rs.GroupSpec(kind=kind, n=n)))
        rng = rs.stream(31)
        for _ in range(3):
            v = random_unit(rng, rep.dim)
            om = rs.exact_finite_orbit_moments(rep, v)
            assert abs(om.double_sum - brute_pair_average(rep, v)) <= 1e-12

    def test_dihedral_3000_pair_moment_stays_small(self):
        table = rs.enumerate_closure(rs.GroupSpec(kind="dihedral", n=3000))
        rep = rs.build_named_rep("defining_orthogonal", table)
        v = np.array([0.6, 0.8])
        om, peak = traced_peak(lambda: rs.exact_finite_orbit_moments(rep, v))
        assert om.double_sum == pytest.approx(0.5, abs=1e-12)
        assert peak < 16 * 2**20

    def test_non_unit_base_rejected(self, c4_rotation):
        with pytest.raises(NotUnitVector):
            rs.exact_finite_orbit_moments(c4_rotation, np.array([1.0, 1.0]))


class TestExactSecondMoments:
    @pytest.mark.parametrize("rep_name,kind,n", [
        ("sn_sum_zero", "symmetric", 4),
        ("q8_left", "quaternion8", None),
        ("defining_orthogonal", "dihedral", 12),
        ("defining_orthogonal", "cyclic", 7),
    ])
    def test_orbit_second_moment_matches_outer_product_loop(self, rep_name, kind, n):
        rep = rs.build_named_rep(rep_name, rs.enumerate_closure(rs.GroupSpec(kind=kind, n=n)))
        rng = rs.stream(32)
        for _ in range(3):
            v = random_unit(rng, rep.dim)
            om = rs.exact_finite_orbit_moments(rep, v)
            m = om.second_moment
            assert m.exact and m.n_samples == rep.group.order
            assert np.array_equal(m.stderr, np.zeros((rep.dim, rep.dim)))
            np.testing.assert_allclose(m.entries, brute_orbit_second_moment(rep, v), rtol=0, atol=1e-12)
            assert om.double_sum == np.sum(m.entries**2)

    def test_discrete_second_moment_with_unequal_weights(self):
        rng = rs.stream(33)
        pts = np.stack([random_unit(rng, 4) for _ in range(6)])
        pr = np.array([0.05, 0.1, 0.15, 0.2, 0.2, 0.3])
        _, m = rs.exact_discrete_overlap(rs.discrete_measure(pts, pr))
        brute = sum(p * np.outer(x, x) for p, x in zip(pr, pts))
        assert m.exact and np.array_equal(m.stderr, np.zeros((4, 4)))
        np.testing.assert_allclose(m.entries, brute, rtol=0, atol=1e-12)

    def test_sampled_finite_orbit_moments_agree_with_exact(self):
        rep = rs.build_named_rep("sn_permutation", symmetric_table(4))
        v = random_unit(rs.stream(34), 4)
        smm = rs.coordinate_second_moments(FiniteLawSampler(rep.table_images() @ v), 50_000, seed=35)
        exact = rs.exact_finite_orbit_moments(rep, v).second_moment
        assert np.all(np.abs(smm.entries - exact.entries) <= 4.0 * smm.stderr + 1e-12)


class TestSumZeroCosineSum:
    def test_three_coordinates(self):
        assert rs.sn_cosine_identity(np.array([1.0, 0.0, -1.0])) == pytest.approx(3.0, abs=1e-12)

    def test_four_coordinates(self):
        value = rs.sn_cosine_identity(np.array([3.0, -1.0, -1.0, -1.0]))
        assert value == pytest.approx(8.0, abs=1e-12)

    def test_scale_invariance(self):
        x = np.array([2.0, -0.5, -1.5])
        assert rs.sn_cosine_identity(7.0 * x) == pytest.approx(
            rs.sn_cosine_identity(x), abs=1e-12
        )

    def test_rejects_nonzero_sum(self):
        with pytest.raises(NotSumZero):
            rs.sn_cosine_identity(np.array([1.0, 1.0, 1.0]))

    def test_rejects_large_degree(self):
        x = np.arange(9, dtype=float) - 4.0
        with pytest.raises(TooLarge):
            rs.sn_cosine_identity(x)


class TestCoordinateSecondMoments:
    def test_uniform_sphere_r4(self):
        fam = rs.ContinuousFamily(kind="orthogonal", n=4)
        rep = rs.build_named_rep("defining_orthogonal", fam)
        smm = rs.coordinate_second_moments(
            rs.make_sampler(rs.uniform_sphere(), rep), 200_000, seed=14
        )
        off = ~np.eye(4, dtype=bool)
        diag = np.diag_indices(4)
        assert np.all(np.abs(smm.entries[diag] - 0.25) <= 4.0 * smm.stderr[diag])
        assert np.all(np.abs(smm.entries[off]) <= 4.0 * smm.stderr[off])

    def test_rotation_orbit_matches_exact_enumeration(self, c4_rotation):
        orbit = c4_rotation.table_images() @ np.array([1.0, 0.0])
        smm = rs.coordinate_second_moments(FiniteLawSampler(orbit), 50_000, seed=15)
        exact = np.diag([0.5, 0.5])  # four orbit points +-e1, +-e2
        band = 4.0 * smm.stderr + 1e-12
        assert np.all(np.abs(smm.entries - exact) <= band)

    def test_single_point_is_exact(self):
        smm = rs.coordinate_second_moments(FiniteLawSampler([[1.0, 0.0]], [1.0]), 100, seed=16)
        np.testing.assert_allclose(smm.entries, [[1.0, 0.0], [0.0, 0.0]], atol=1e-15)

    def test_dim_40_memory_stays_small(self):
        fam = rs.ContinuousFamily(kind="orthogonal", n=40)
        sampler = rs.make_sampler(rs.uniform_sphere(), rs.build_named_rep("defining_orthogonal", fam))
        smm, peak = traced_peak(lambda: rs.coordinate_second_moments(sampler, 20_000, seed=17))
        assert np.trace(smm.entries) == pytest.approx(1.0, abs=1e-12)
        assert peak < 32 * 2**20

    def test_exact_orbit_second_moment(self, c4_rotation):
        orbit = c4_rotation.table_images() @ np.array([1.0, 0.0])
        entries = orbit.T @ orbit / c4_rotation.group.order
        np.testing.assert_allclose(entries, np.diag([0.5, 0.5]), atol=1e-15)


def per_sample_expectation_check(sampler, proj, n_samples, seed, workers, band_sigma=4.0):
    """Independent oracle: E(x), the residual |E(d)| and the bands of the
    expectation check from the draws themselves, d = x - P x per draw, each
    band ``band_sigma`` times the norm of the per-coordinate standard errors.
    Each worker chunk is drawn whole from ``stream(seed, w)``."""
    base, rem = divmod(n_samples, workers)
    x = np.concatenate([
        sampler.sample(rs.stream(seed, w), base + (w < rem)) for w in range(workers)
    ])
    d = x - x @ proj.T

    def band(a):
        return band_sigma * float(np.linalg.norm(a.std(axis=0, ddof=1) / np.sqrt(n_samples)))

    return x.mean(axis=0), float(np.linalg.norm(d.mean(axis=0))), band(d), band(x)


def exact_orbit_check(rep, base):
    return rs.expectation_identity_check(
        rs.exact_finite_orbit_moments(rep, base).second_moment,
        rs.fixed_projector(rs.commutant_basis(rep).constraints),
    )


class TestExpectationIdentity:
    def test_rotation_orbit_exact_zero(self, c4_rotation):
        chk = exact_orbit_check(c4_rotation, np.array([1.0, 0.0]))
        assert chk.exact
        assert chk.residual <= 1e-10
        assert chk.mean_norm <= 1e-10

    def test_permutation_orbit_exact_mean(self, s3_table):
        rep = rs.build_named_rep("sn_permutation", s3_table)
        chk = exact_orbit_check(rep, np.eye(3)[0])
        np.testing.assert_allclose(chk.mean_x, np.ones(3) / 3.0, atol=1e-12)
        np.testing.assert_allclose(chk.mean_proj, np.ones(3) / 3.0, atol=1e-12)
        assert chk.residual <= 1e-10

    def test_sum_zero_orbit_mean_vanishes(self):
        table = symmetric_table(5)
        rep = rs.build_named_rep("sn_sum_zero", table)
        chk = exact_orbit_check(rep, random_unit(rs.stream(17), 4))
        assert chk.exact
        assert chk.mean_norm <= 1e-10

    def test_discrete_record_is_exact(self, s3_table):
        rep = rs.build_named_rep("sn_permutation", s3_table)
        _, m = rs.exact_discrete_overlap(rs.discrete_measure(np.eye(3)[:2], [0.25, 0.75]))
        proj = rs.fixed_projector(rs.commutant_basis(rep).constraints)
        chk = rs.expectation_identity_check(m, proj)
        np.testing.assert_allclose(chk.mean_x, [0.25, 0.75, 0.0], atol=1e-15)
        assert chk.exact and chk.residual_band == chk.mean_norm_band == 0.0
        assert chk.residual == pytest.approx(np.linalg.norm([-1 / 12, 5 / 12, -1 / 3]))

    def test_monte_carlo_path_on_continuous_group(self, so3_tss):
        spec = rs.orbit_measure(random_unit(rs.stream(18), 5))
        m = rs.coordinate_second_moments(rs.make_sampler(spec, so3_tss), 20_000, seed=19)
        proj = rs.fixed_projector(rs.commutant_basis(so3_tss).constraints)
        chk = rs.expectation_identity_check(m, proj)
        assert not chk.exact
        assert chk.residual <= chk.residual_band
        assert chk.mean_norm <= chk.mean_norm_band

    def test_monte_carlo_path_on_finite_group_sphere(self, s4_table):
        rep = rs.build_named_rep("sn_permutation", s4_table)
        m = rs.coordinate_second_moments(rs.make_sampler(rs.uniform_sphere(), rep), 20_000, seed=20)
        proj = rs.fixed_projector(rs.commutant_basis(rep).constraints)
        chk = rs.expectation_identity_check(m, proj)
        assert chk.residual <= chk.residual_band

    @pytest.mark.parametrize("case", ["s4_sphere", "so3_orbit"])
    def test_sampled_bands_match_per_sample_oracle(self, s4_table, so3_tss, case):
        if case == "s4_sphere":  # P projects onto the all-ones line
            rep, spec, workers = rs.build_named_rep("sn_permutation", s4_table), rs.uniform_sphere(), 2
        else:  # P = 0
            rep, spec, workers = so3_tss, rs.orbit_measure(random_unit(rs.stream(25), 5)), 1
        proj = rs.fixed_projector(rs.commutant_basis(rep).constraints)
        sampler = rs.make_sampler(spec, rep)
        m = rs.coordinate_second_moments(sampler, 30_001, seed=27, workers=workers)
        chk = rs.expectation_identity_check(m, proj)
        mean_x, residual, residual_band, mean_norm_band = per_sample_expectation_check(
            sampler, proj, 30_001, seed=27, workers=workers
        )
        assert (np.linalg.norm(proj) > 0.5) == (case == "s4_sphere")
        np.testing.assert_allclose(chk.mean_x, mean_x, rtol=0, atol=1e-15)
        assert chk.residual == pytest.approx(residual, rel=1e-12)
        assert chk.residual_band == pytest.approx(residual_band, rel=1e-12)
        assert chk.mean_norm_band == pytest.approx(mean_norm_band, rel=1e-12)


class TestDiscreteInvariance:
    def test_orbit_points_are_invariant(self, c4_rotation):
        pts = [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]
        spec = rs.discrete_measure(pts, [0.25] * 4)
        chk = rs.check_discrete_invariance(spec, c4_rotation)
        assert chk.invariant and chk.violating_generator is None

    def test_single_point_moves_under_rotation(self, c4_rotation):
        spec = rs.discrete_measure([[1.0, 0.0]], [1.0])
        chk = rs.check_discrete_invariance(spec, c4_rotation)
        assert not chk.invariant
        assert chk.violating_generator == 0  # position in the generator list

    def test_antipodal_diagonal_pair_under_permutations(self, s3_table):
        rep = rs.build_named_rep("sn_permutation", s3_table)
        w = np.ones(3) / np.sqrt(3.0)
        spec = rs.discrete_measure([w, -w], [0.5, 0.5])
        chk = rs.check_discrete_invariance(spec, rep)
        assert chk.invariant

    def test_unequal_weights_break_invariance(self, c4_rotation):
        pts = [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]
        spec = rs.discrete_measure(pts, [0.4, 0.4, 0.1, 0.1])
        chk = rs.check_discrete_invariance(spec, c4_rotation)
        assert not chk.invariant


INVARIANCE_REPS = {
    "S3-permutation": ("sn_permutation", "symmetric", 3),
    "S4-permutation": ("sn_permutation", "symmetric", 4),
    "S3-sum-zero": ("sn_sum_zero", "symmetric", 3),
    "S4-sum-zero": ("sn_sum_zero", "symmetric", 4),
    "C4": ("cyclic_rotation", "cyclic", 4),
    "D6": ("defining_orthogonal", "dihedral", 6),
    "Q8": ("q8_left", "quaternion8", None),
}


def weighted(points, weights=None):
    points = np.asarray(points, dtype=float)
    weights = np.ones(len(points)) if weights is None else np.asarray(weights, dtype=float)
    return rs.discrete_measure(points, weights / weights.sum())


def invariance_cases(rep, rng):
    """Invariant and non-invariant discrete measures on the sphere of rep."""
    images = rep.table_images()
    v = random_unit(rng, rep.dim)
    orbit = images @ v
    axis_orbit = images @ np.eye(rep.dim)[0]  # repeated points where e_0 has a stabilizer
    jitter = orbit + 1e-11 * rng.standard_normal(orbit.shape)  # merged within point_tol
    jitter /= np.linalg.norm(jitter, axis=1)[:, None]
    subgroup = np.stack([v, rep.generator_images()[0] @ v])
    return {
        "orbit": weighted(orbit),
        "axis-orbit": weighted(axis_orbit),
        "jittered-orbit": weighted(jitter),
        "orbit-both-signs": weighted(np.concatenate([orbit, -orbit])),
        "point": weighted(v[None]),
        "heavy-base-point": weighted(orbit, 1.0 + np.eye(len(orbit))[0]),
        "first-generator-only": weighted(subgroup),
        "jittered-orbit-missing-a-point": weighted(jitter[1:]),
    }


class TestDiscreteInvarianceOracle:
    @pytest.mark.parametrize("label", INVARIANCE_REPS)
    def test_generators_agree_with_all_elements(self, label):
        name, kind, n = INVARIANCE_REPS[label]
        rep = rs.build_named_rep(name, rs.enumerate_closure(rs.GroupSpec(kind=kind, n=n)))
        outcomes = set()
        for case, spec in invariance_cases(rep, rs.stream(51)).items():
            fast = rs.check_discrete_invariance(spec, rep)
            brute = brute_discrete_invariance(spec, rep)
            assert fast.invariant == brute.invariant, case
            if fast.invariant:
                assert fast.violating_generator is None
            else:
                assert fast.violating_generator in range(len(rep.group.generators)), case
            outcomes.add(fast.invariant)
        assert outcomes == {True, False}

    def test_violating_generator_is_the_first_failing_one(self, s4_table):
        rep = rs.build_named_rep("sn_permutation", s4_table)
        v = random_unit(rs.stream(52), 4)
        swap, cycle = rep.generator_images()
        chk = rs.check_discrete_invariance(weighted([v, swap @ v]), rep)
        assert not chk.invariant
        assert chk.violating_generator == 1
        assert tuple(s4_table.generator_payloads[chk.violating_generator]) == (1, 2, 3, 0)


class TestDiscreteInvarianceAtScale:
    def test_s6_orbit_of_720_points(self):
        table = symmetric_table(6)
        rep = rs.build_named_rep("sn_permutation", table)
        orbit = rep.table_images() @ random_unit(rs.stream(53), 6)
        full, missing = weighted(orbit), weighted(orbit[1:])
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            chk = rs.check_discrete_invariance(full, rep)
            chk_missing = rs.check_discrete_invariance(missing, rep)
            best = min(best, time.perf_counter() - start)
        assert chk.invariant and chk.violating_generator is None
        # The one-to-one matching of merged supports named the swap too.
        assert not chk_missing.invariant
        assert chk_missing.violating_generator == 0
        assert best < 1.0


class TestConvergenceTrace:
    def test_checkpoints_are_powers_of_two(self, so3_tss):
        sampler = rs.make_sampler(rs.uniform_sphere(), so3_tss)
        traced, traced_record, rows = rs.moments.overlap_convergence_trace(sampler, 5000, seed=21)
        ns = [r[0] for r in rows]
        assert ns == [2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 5000]
        final_n, final_est, final_err = rows[-1]
        est, record = rs.estimate_squared_overlap(sampler, 5000, seed=21)
        assert final_est == pytest.approx(est.value, abs=1e-15)
        assert final_err == pytest.approx(est.stderr, rel=1e-10)
        assert traced == est
        assert np.array_equal(traced_record.entries, record.entries)

    def test_rows_match_prefix_statistics(self, so3_tss):
        # Checkpoints inside and across blocks and worker chunks, against the
        # mean and two-pass stderr of each prefix of the producer's values.
        sampler = rs.make_sampler(rs.uniform_sphere(), so3_tss)
        n_pairs, workers = 100_001, 2
        est, _, rows = rs.moments.overlap_convergence_trace(sampler, n_pairs, seed=26, workers=workers)
        vals, _ = chained_values(sampler, n_pairs, seed=26, workers=workers)
        assert rows[-1] == (n_pairs, est.value, est.stderr)
        for k, mean, stderr in rows:
            assert mean == pytest.approx(vals[:k].mean(), rel=1e-12)
            assert stderr == pytest.approx(vals[:k].std(ddof=1) / math.sqrt(k), rel=1e-10)

    def test_memory_does_not_grow_with_the_sample_count(self):
        # Values are reduced block by block: nothing of length n_pairs is kept.
        rep = rs.build_named_rep("defining_orthogonal", rs.ContinuousFamily(kind="orthogonal", n=5))
        sampler = rs.make_sampler(rs.uniform_sphere(), rep)
        small, large = (
            traced_peak(lambda: rs.moments.overlap_convergence_trace(sampler, n_pairs, seed=25))[1]
            for n_pairs in (20_000, 400_000)
        )
        assert abs(large - small) <= 2**20
