import dataclasses
import tracemalloc

import numpy as np
import pytest

import repspect as rs
from repspect.commutant import trace_orthonormal_nullspace
from repspect.representations import permutation_images
from repspect.errors import (
    BadParams,
    DegenerateSpectrum,
    InconsistentDimensions,
    NonStabilizedDimension,
    NotReducible,
    ThresholdAmbiguity,
    TooLarge,
)

from conftest import (
    brute_commutant,
    cyclic_table,
    max_principal_angle,
    payload_table,
    random_unit,
    span_columns,
    symmetric_table,
)


def split_commutant(rep, **kwargs):
    return rs.split_symmetric_skew(rs.commutant_basis(rep, **kwargs))


def o2_double_rep():
    """The 2-plane rotation-reflection family acting twice, block-diagonally."""
    fam = rs.ContinuousFamily(kind="orthogonal", n=2)

    def stack_map(ms):
        out = np.zeros((ms.shape[0], 4, 4))
        out[:, :2, :2] = ms
        out[:, 2:, 2:] = ms
        return out

    return rs.Representation(dim=4, stack_map=stack_map, group=fam)


def dihedral_permutation_rep(n):
    """Rotation i -> i+1 and reflection i -> -i acting on n points."""
    spec = rs.GroupSpec(kind="permutation_generators", generators=(
        tuple((i + 1) % n for i in range(n)),
        tuple((-i) % n for i in range(n)),
    ))
    return rs.build_named_rep("sn_permutation", rs.enumerate_closure(spec))


def near_degenerate_fake_table():
    """Not a group: one honest rotation plus an almost-commuting perturbation."""
    almost = np.diag([1.0, 1.0 + 3e-8])
    rotation = rs.groups.rotation_matrix(2.0 * np.pi / 5.0)
    return payload_table(np.stack([np.eye(2), rotation, almost]), generators=[1, 2])


def rotation_plus_trivial_rep():
    """Order-3 rotation acting on a plane, direct sum with a fixed line."""
    gen = np.eye(3)
    gen[:2, :2] = rs.groups.rotation_matrix(2.0 * np.pi / 3.0)
    table = rs.enumerate_closure(rs.GroupSpec(kind="matrix_generators", generators=(gen,)))
    return rs.build_named_rep("defining_orthogonal", table)


def reynolds_project(rep, v):
    return rs.fixed_projector(rs.commutant_basis(rep).constraints) @ v


class TestReynolds:
    def test_permutation_average_is_coordinate_mean(self, s3_table):
        rep = rs.build_named_rep("sn_permutation", s3_table)
        out = reynolds_project(rep, np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(out, [2.0, 2.0, 2.0], atol=1e-12)

    def test_sum_zero_has_no_fixed_vectors(self, s3_table):
        rep = rs.build_named_rep("sn_sum_zero", s3_table)
        out = reynolds_project(rep, np.array([0.3, -1.2]))
        np.testing.assert_allclose(out, np.zeros(2), atol=1e-12)

    def test_rotations_average_to_zero(self):
        rep = rs.build_named_rep("cyclic_rotation", cyclic_table(4))
        out = reynolds_project(rep, np.array([1.0, 0.0]))
        np.testing.assert_allclose(out, np.zeros(2), atol=1e-12)

    def test_idempotent(self, s4_table):
        rep = rs.build_named_rep("sn_permutation", s4_table)
        v = rs.stream(0).standard_normal(4)
        once = reynolds_project(rep, v)
        twice = reynolds_project(rep, once)
        assert np.linalg.norm(once - twice) <= 1e-10

    def test_output_is_fixed_by_generators(self, s4_table):
        rep = rs.build_named_rep("sn_permutation", s4_table)
        v = rs.stream(1).standard_normal(4)
        out = reynolds_project(rep, v)
        for m in rep.generator_images():
            assert np.max(np.abs(m @ out - out)) <= 1e-7

    def test_monte_carlo_projection_vanishes_for_fixed_point_free(self):
        fam = rs.ContinuousFamily(kind="special_orthogonal", n=3)
        rep = rs.build_named_rep("so3_traceless_symmetric", fam)
        v = random_unit(rs.stream(2), 5)
        samples = rep.stack_map(rs.haar_matrices(fam, rs.stream(3), 4096)) @ v
        stderr = np.linalg.norm(samples.std(axis=0, ddof=1) / np.sqrt(len(samples)))
        assert np.linalg.norm(samples.mean(axis=0)) <= 4.0 * stderr


def cube_rotation_table():
    """The rotation group of the cube, order 24, from quarter turns about z and x."""
    quarter_z = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    quarter_x = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
    return rs.enumerate_closure(
        rs.GroupSpec(kind="matrix_generators", generators=(quarter_z, quarter_x))
    )


def intransitive_permutation_rep():
    """<(0 1 2), (3 4)> on 6 points: orbits {0,1,2}, {3,4}, {5}, so 3 fixed dimensions."""
    spec = rs.GroupSpec(kind="permutation_generators",
                        generators=((1, 2, 0, 3, 4, 5), (0, 1, 2, 4, 3, 5)))
    return rs.build_named_rep("sn_permutation", rs.enumerate_closure(spec))


def explicit_s3_rep():
    """S3 permuting coordinates, conjugated by diag(1, 2, 3) and symmetrized."""
    s3 = symmetric_table(3)
    d = np.diag([1.0, 2.0, 3.0])
    raw = d @ permutation_images(s3.payload[s3.generators]) @ np.linalg.inv(d)
    return rs.build_named_rep("explicit", s3, generator_images=list(raw))


class TestFixedProjector:
    @pytest.mark.parametrize("build", [
        lambda: rs.build_named_rep("sn_permutation", symmetric_table(5)),
        lambda: rs.build_named_rep("sn_sum_zero", symmetric_table(5)),
        lambda: rs.build_named_rep("cyclic_rotation", cyclic_table(7)),
        lambda: rs.build_named_rep(
            "q8_left", rs.enumerate_closure(rs.GroupSpec(kind="quaternion8"))
        ),
        lambda: rs.build_named_rep("so3_traceless_symmetric", cube_rotation_table()),
        lambda: rs.build_named_rep(
            "defining_orthogonal", rs.enumerate_closure(rs.GroupSpec(kind="dihedral", n=12))
        ),
        explicit_s3_rep,
        intransitive_permutation_rep,
        rotation_plus_trivial_rep,
    ], ids=["sn_permutation", "sn_sum_zero", "cyclic_rotation", "q8_left",
            "so3_traceless_symmetric", "defining_orthogonal", "explicit",
            "intransitive", "rotation_plus_trivial"])
    def test_generators_give_the_table_average(self, build):
        rep = build()
        average = rep.table_images().mean(axis=0)
        proj = rs.fixed_projector(rs.commutant_basis(rep).constraints)
        np.testing.assert_allclose(proj, average, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("kind,expected", [
        ("special_orthogonal", [[1.0]]), ("orthogonal", [[0.0]]),
    ])
    def test_one_dimensional_families_are_exact(self, kind, expected):
        rep = rs.build_named_rep("defining_orthogonal", rs.ContinuousFamily(kind=kind, n=1))
        # On O(1), stream(300, 999) draws +1 eight times; the commutant's
        # first draw is made a reflection, so its constraints fix nothing
        # all the same.
        for seed in (0, 1, 2, 3, 300):
            cb = rs.commutant_basis(rep, rng=rs.stream(seed, 999))
            assert np.array_equal(rs.fixed_projector(cb.constraints), expected)

    def test_cutoff_is_the_given_relative_threshold(self):
        # rho - I stacks to singular values sqrt(2), sqrt(2) and |2 sin(5e-8)|,
        # about 7e-8 relative: e_3 is fixed only under the looser cutoff.
        quarter = np.eye(3)
        quarter[:2, :2] = rs.groups.rotation_matrix(np.pi / 2.0)
        tilt = np.eye(3)
        tilt[1:, 1:] = rs.groups.rotation_matrix(1e-7)
        constraints = np.stack([quarter, tilt])
        assert np.max(np.abs(rs.fixed_projector(constraints, 1e-8))) == 0.0
        proj = rs.fixed_projector(constraints, 1e-6)
        assert np.trace(proj) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(proj, np.diag([0.0, 0.0, 1.0]), atol=1e-6)

    def test_traceless_symmetric_fixes_nothing(self):
        rep = rs.build_named_rep(
            "so3_traceless_symmetric", rs.ContinuousFamily(kind="special_orthogonal", n=3)
        )
        cb = rs.commutant_basis(rep, rng=rs.stream(5, 999))
        assert np.max(np.abs(rs.fixed_projector(cb.constraints))) == 0.0


class TestCommutantBasis:
    def test_trivial_group_commutant_is_everything(self):
        spec = rs.GroupSpec(kind="permutation_generators", generators=((0, 1, 2),))
        table = rs.enumerate_closure(spec)
        rep = rs.build_named_rep("sn_permutation", table)
        cb = rs.commutant_basis(rep)
        assert cb.dim == 9

    @pytest.mark.parametrize("builder,expected_dim", [
        (lambda: rs.build_named_rep("sn_permutation", rs.enumerate_closure(rs.GroupSpec(kind="symmetric", n=3))), 2),
        (lambda: rs.build_named_rep("sn_sum_zero", rs.enumerate_closure(rs.GroupSpec(kind="symmetric", n=4))), 1),
        (lambda: rs.build_named_rep("cyclic_rotation", cyclic_table(5)), 2),
        (lambda: rs.build_named_rep("q8_left", rs.enumerate_closure(rs.GroupSpec(kind="quaternion8"))), 4),
    ])
    def test_generators_match_brute_force_over_all_elements(self, builder, expected_dim):
        rep = builder()
        cb = rs.commutant_basis(rep)
        oracle = brute_commutant(list(rep.table_images()))
        assert cb.dim == expected_dim
        assert oracle.shape[1] == expected_dim
        angle = max_principal_angle(span_columns(cb.basis), oracle)
        assert angle <= 1e-7

    def test_all_element_oracle_agrees_with_generators(self, s4_table):
        rep = rs.build_named_rep("sn_permutation", s4_table)
        from_gens = rs.commutant_basis(rep)
        from_all = brute_commutant(list(rep.table_images()))
        assert from_gens.dim == from_all.shape[1] == 2
        assert max_principal_angle(span_columns(from_gens.basis), from_all) <= 1e-10

    def test_residual_and_identity_span(self, q8_table):
        rep = rs.build_named_rep("q8_left", q8_table)
        cb = rs.commutant_basis(rep)
        assert cb.residual <= 1e-7
        ident = np.eye(4) / 2.0  # I_n / sqrt(n), unit Frobenius norm
        assert np.linalg.norm(ident) == pytest.approx(1.0, abs=1e-12)
        assert rs.span_residual(cb.basis, ident) <= 1e-8

    def test_conjugation_fixes_basis_elements(self, q8_table):
        rep = rs.build_named_rep("q8_left", q8_table)
        cb = rs.commutant_basis(rep)
        images = rep.table_images()
        for i in rs.stream(4).integers(q8_table.order, size=50):
            m = images[i]
            for b in cb.basis:
                assert np.max(np.abs(m @ b @ m.T - b)) <= 1e-6

    def test_conjugation_fixes_basis_elements_continuous(self):
        fam = rs.ContinuousFamily(kind="special_orthogonal", n=3)
        rep = rs.build_named_rep("so3_traceless_symmetric", fam)
        cb = rs.commutant_basis(rep, rng=rs.stream(5))
        rng = rs.stream(6)
        mats = rs.haar_matrices(fam, rng, 50)
        for m in rep.stack_map(mats):
            for b in cb.basis:
                assert np.max(np.abs(m @ b @ m.T - b)) <= 1e-6

    def test_sampled_dimension_stabilizes(self):
        fam = rs.ContinuousFamily(kind="special_orthogonal", n=3)
        rep = rs.build_named_rep("so3_traceless_symmetric", fam)
        cb = rs.commutant_basis(rep, rng=rs.stream(7))
        assert cb.dim == 1

    def test_so2_defining_commutant_is_a_plane(self):
        fam = rs.ContinuousFamily(kind="special_orthogonal", n=2)
        rep = rs.build_named_rep("defining_orthogonal", fam)
        cb = split_commutant(rep, rng=rs.stream(8))
        assert (cb.dim, cb.sym_dim, cb.skew_dim) == (2, 1, 1)
        assert rs.classify_and_decide(cb).type == "C"

    def test_full_orthogonal_defining_commutant_is_scalar(self):
        fam = rs.ContinuousFamily(kind="orthogonal", n=3)
        rep = rs.build_named_rep("defining_orthogonal", fam)
        cb = split_commutant(rep, rng=rs.stream(9))
        assert rs.classify_and_decide(cb).type == "R"

    @pytest.mark.parametrize("seed", [53294, 66312, 99868, 157098])
    def test_orthogonal_draws_include_a_reflection(self, seed):
        # At these seeds the 16 Haar draws of the first two rounds all lie in
        # SO(2), whose commutant is a plane; the reflection rule keeps O(2)'s.
        rep = rs.build_named_rep("defining_orthogonal", rs.ContinuousFamily(kind="orthogonal", n=2))
        cb = rs.commutant_basis(rep, rng=rs.stream(seed, 1))
        assert cb.dim == 1
        assert np.linalg.det(cb.constraints[0]) == pytest.approx(-1.0)

    def test_non_stabilized_dimension_without_comparison_rounds(self, monkeypatch):
        fam = rs.ContinuousFamily(kind="special_orthogonal", n=3)
        rep = rs.build_named_rep("so3_traceless_symmetric", fam)
        monkeypatch.setattr("repspect.commutant.START_SAMPLES", 8)
        monkeypatch.setattr("repspect.commutant.MAX_SAMPLES", 8)
        with pytest.raises(NonStabilizedDimension):
            rs.commutant_basis(rep, rng=rs.stream(10))

    def test_threshold_ambiguity_detection(self):
        rows, threshold, ambiguous = trace_orthonormal_nullspace(np.diag([1.0, 5e-8, 1e-12]))
        assert threshold == pytest.approx(1e-8)
        assert ambiguous == pytest.approx(5e-8)
        assert len(rows) == 1

    def test_threshold_ambiguity_warning_on_near_degenerate_constraints(self):
        # The perturbation's singular values land within a decade of the cutoff.
        # A continuous family whose sampled images cycle through the fake
        # table's three images drives the sampled nullspace.
        images = near_degenerate_fake_table().payload
        rep = rs.Representation(
            dim=2,
            stack_map=lambda payload: images[np.arange(len(payload)) % len(images)],
            group=rs.ContinuousFamily(kind="orthogonal", n=2),
        )
        with pytest.warns(ThresholdAmbiguity):
            cb = rs.commutant_basis(rep, rng=rs.stream(13))
        assert cb.ambiguous_sigma is not None

    def test_non_group_table_fails_the_character_count(self):
        table = near_degenerate_fake_table()
        rep = rs.Representation(dim=2, stack_map=lambda payload: payload, group=table)
        with pytest.raises(InconsistentDimensions):
            rs.commutant_basis(rep)

    def test_dihedral_48_commutant_stays_small(self):
        rep = dihedral_permutation_rep(48)
        tracemalloc.start()
        try:
            cb = split_commutant(rep)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cb.dim == cb.sym_dim == 25
        assert peak < 150 * 2**20

    def test_sampled_o12_commutant_stays_small(self):
        # The sampled constraint stack is tall, (k * 144, 144); a full U
        # would take (k * 144)^2 floats.
        rep = rs.build_named_rep("defining_orthogonal", rs.ContinuousFamily(kind="orthogonal", n=12))
        tracemalloc.start()
        try:
            cb = rs.commutant_basis(rep, rng=np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cb.dim == 1
        assert peak < 16 * 2**20

    def test_oversized_range_rejected_before_allocation(self):
        spec = rs.GroupSpec(kind="permutation_generators", generators=(tuple(range(128)),))
        rep = rs.build_named_rep("sn_permutation", rs.enumerate_closure(spec))
        with pytest.raises(TooLarge):
            rs.commutant_basis(rep)

    def test_oversized_sampled_stack_rejected_before_drawing(self, monkeypatch):
        # O(128)'s first round would stack 8 images of 128^4 floats (17 GB).
        def no_draws(*args):
            raise AssertionError("drew Haar images before the budget check")

        monkeypatch.setattr("repspect.commutant.haar_matrices", no_draws)
        rep = rs.build_named_rep("defining_orthogonal", rs.ContinuousFamily(kind="orthogonal", n=128))
        with pytest.raises(TooLarge, match="byte budget"):
            rs.commutant_basis(rep, rng=np.random.default_rng(0))

    def test_o40_rounds_fit_the_sampled_stack_budget(self, monkeypatch):
        # O(32) and O(40) stabilize at 16 images; O(40)'s stack is 328 MB.
        # The first round gets past the guard to its draws, and the 16-image
        # round is within budget too.
        class Drew(Exception):
            pass

        def sentinel(*args):
            raise Drew

        monkeypatch.setattr("repspect.commutant.haar_matrices", sentinel)
        for n in (32, 40):
            rep = rs.build_named_rep("defining_orthogonal", rs.ContinuousFamily(kind="orthogonal", n=n))
            with pytest.raises(Drew):
                rs.commutant_basis(rep, rng=np.random.default_rng(0))
            assert 16 * n**4 * 8 <= rs.commutant.SAMPLED_STACK_BYTES

    def test_split_disagreeing_with_character_count_rejected(self, s4_table):
        cb = rs.commutant_basis(rs.build_named_rep("sn_permutation", s4_table))
        assert cb.sym_count == 2
        cb.sym_count = 1
        with pytest.raises(InconsistentDimensions):
            rs.split_symmetric_skew(cb)


class TestSplitAndClassify:
    @pytest.mark.parametrize("builder,expected", [
        (lambda: rs.build_named_rep("sn_sum_zero", rs.enumerate_closure(rs.GroupSpec(kind="symmetric", n=4))), (1, 0)),
        (lambda: rs.build_named_rep("cyclic_rotation", cyclic_table(5)), (1, 1)),
        (lambda: rs.build_named_rep("q8_left", rs.enumerate_closure(rs.GroupSpec(kind="quaternion8"))), (1, 3)),
    ])
    def test_symmetric_skew_dimensions(self, builder, expected):
        cb = split_commutant(builder())
        assert (cb.sym_dim, cb.skew_dim) == expected
        for b in cb.basis[: cb.sym_dim]:
            np.testing.assert_allclose(b, b.T, atol=1e-10)
        for b in cb.basis[cb.sym_dim :]:
            np.testing.assert_allclose(b, -b.T, atol=1e-10)

    def test_classify_requires_split(self, s3_table):
        rep = rs.build_named_rep("sn_permutation", s3_table)
        with pytest.raises(BadParams):
            rs.classify_and_decide(rs.commutant_basis(rep))

    def test_type_real(self):
        table = rs.enumerate_closure(rs.GroupSpec(kind="symmetric", n=5))
        cb = split_commutant(rs.build_named_rep("sn_sum_zero", table))
        v = rs.classify_and_decide(cb)
        assert v.irreducible and v.type == "R"

    def test_type_complex(self):
        cb = split_commutant(rs.build_named_rep("cyclic_rotation", cyclic_table(7)))
        v = rs.classify_and_decide(cb)
        assert v.irreducible and v.type == "C"

    def test_type_quaternionic(self, q8_table):
        cb = split_commutant(rs.build_named_rep("q8_left", q8_table))
        v = rs.classify_and_decide(cb)
        assert v.irreducible and v.type == "H"

    def test_reducible_permutation_rep(self, s3_table):
        cb = split_commutant(rs.build_named_rep("sn_permutation", s3_table))
        v = rs.classify_and_decide(cb)
        assert not v.irreducible and v.type == "not_applicable"
        assert v.sym_dim == 2

    def test_inconsistent_dimension_rejected(self, q8_table):
        rep = rs.build_named_rep("q8_left", q8_table)
        cb = split_commutant(rep)
        cb.dim = 3  # corrupt: scalar symmetric part with a 3-dim algebra
        with pytest.raises(InconsistentDimensions):
            rs.classify_and_decide(cb)

    def test_quaternionic_skew_elements_are_orthogonal(self, q8_table):
        cb = split_commutant(rs.build_named_rep("q8_left", q8_table))
        skew = cb.basis[cb.sym_dim :]
        assert len(skew) == 3
        ident = np.eye(4)
        for i, a in enumerate(skew):
            assert abs(rs.frobenius_inner(a, ident)) <= 1e-8
            for b in skew[i + 1 :]:
                assert abs(rs.frobenius_inner(a, b)) <= 1e-8

    @pytest.mark.parametrize("builder", [
        lambda: rs.build_named_rep("q8_left", rs.enumerate_closure(rs.GroupSpec(kind="quaternion8"))),
        lambda: rs.build_named_rep("cyclic_rotation", cyclic_table(5)),
    ])
    def test_skew_projection_of_squared_vectors_vanishes(self, builder):
        rep = builder()
        cb = split_commutant(rep)
        skew = cb.basis[cb.sym_dim :]
        rng = rs.stream(11)
        for _ in range(50):
            m = rs.diag_map(random_unit(rng, rep.dim))
            proj = sum(rs.frobenius_inner(b, m) ** 2 for b in skew)
            assert np.sqrt(proj) <= 1e-10


class TestWitness:
    def test_permutation_rep_recovers_diagonal_line(self, s3_table):
        rep = rs.build_named_rep("sn_permutation", s3_table)
        cb = split_commutant(rep)
        w = rs.witness_invariant_subspace(cb, rep)
        assert w.residual <= 1e-6
        diag_line = np.ones((3, 1)) / np.sqrt(3.0)
        if w.m == 1:
            assert max_principal_angle(w.basis, diag_line) <= 1e-8
        else:
            assert w.m == 2
            assert abs(float(diag_line.T @ w.basis @ w.basis.T @ diag_line)) <= 1e-12

    def test_rotation_plus_trivial_recovers_fixed_line(self):
        rep = rotation_plus_trivial_rep()
        cb = split_commutant(rep)
        assert not rs.classify_and_decide(cb).irreducible
        w = rs.witness_invariant_subspace(cb, rep)
        line = np.zeros((3, 1))
        line[2, 0] = 1.0
        assert w.residual <= 1e-6
        if w.m == 1:
            assert max_principal_angle(w.basis, line) <= 1e-8
        else:
            assert w.m == 2

    def test_doubled_plane_rep_gives_two_dimensional_witness(self):
        rep = o2_double_rep()
        cb = split_commutant(rep, rng=rs.stream(12))
        assert cb.dim == 4 and cb.sym_dim == 3
        w = rs.witness_invariant_subspace(cb, rep)
        assert w.m == 2
        assert w.residual <= 1e-6

    @pytest.mark.parametrize("build, m", [
        (lambda: dihedral_permutation_rep(40), 1),
        (lambda: rs.build_named_rep("sn_permutation", symmetric_table(7)), 1),
        (o2_double_rep, 2),
    ], ids=["dihedral-40", "s7", "o2-double"])
    def test_witness_does_not_depend_on_the_basis(self, build, m):
        # Master seeds 0-3 draw different commutant bases (the report passes
        # stream(seed, 1)); a random orthogonal mixing of the symmetric basis
        # is one more.  Every one must give the same invariant subspace, in
        # the same basis columns, signs included.
        rep = build()
        bases = [split_commutant(rep, rng=rs.stream(seed, 1)) for seed in range(4)]
        cb = bases[0]
        sym = np.stack(cb.basis[: cb.sym_dim])
        mixing, _ = np.linalg.qr(rs.stream(13).standard_normal((cb.sym_dim, cb.sym_dim)))
        mixed = list(np.einsum("ij,jkl->ikl", mixing, sym)) + cb.basis[cb.sym_dim :]
        bases.append(dataclasses.replace(cb, basis=mixed))
        witnesses = [rs.witness_invariant_subspace(b, rep) for b in bases]
        reference = witnesses[0].basis @ witnesses[0].basis.T
        for w in witnesses:
            assert w.m == m
            np.testing.assert_allclose(w.basis @ w.basis.T, reference, rtol=0, atol=1e-9)
            np.testing.assert_allclose(w.basis, witnesses[0].basis, rtol=0, atol=1e-9)

    def test_columns_outside_the_eigenspace_rejected(self, s3_table, monkeypatch):
        # The witness of S3 on 3 points is the all-ones line; a sum-zero
        # column projects onto it as zero and spans nothing.
        rep = rs.build_named_rep("sn_permutation", s3_table)
        cb = split_commutant(rep)
        weights = rs.groups.golden_weights
        monkeypatch.setattr(
            "repspect.commutant.golden_weights",
            lambda count: np.array([1.0, -1.0, 0.0]) if count == 3 else weights(count),
        )
        with pytest.raises(DegenerateSpectrum, match="do not span"):
            rs.witness_invariant_subspace(cb, rep)

    def test_irreducible_rejected(self, q8_table):
        rep = rs.build_named_rep("q8_left", q8_table)
        cb = split_commutant(rep)
        with pytest.raises(NotReducible):
            rs.witness_invariant_subspace(cb, rep)

    def test_witness_columns_are_orthonormal(self, s4_table):
        rep = rs.build_named_rep("sn_permutation", s4_table)
        cb = split_commutant(rep)
        w = rs.witness_invariant_subspace(cb, rep)
        np.testing.assert_allclose(w.basis.T @ w.basis, np.eye(w.m), atol=1e-12)
        assert 0 < w.m < 4

    def test_degenerate_spectrum_rejected(self, s3_table):
        # corrupted basis whose symmetric part is numerically scalar
        rep = rs.build_named_rep("sn_permutation", s3_table)
        cb = split_commutant(rep)
        scalar = np.eye(3) / np.sqrt(3.0)
        cb.basis = [scalar, scalar + 1e-9 * np.eye(3)]
        cb.dim = 2
        cb.sym_dim = 2
        cb.skew_dim = 0
        with pytest.raises(DegenerateSpectrum):
            rs.witness_invariant_subspace(cb, rep)
