import tracemalloc

import numpy as np
import pytest

import repspect as rs
from repspect.commutant import trace_orthonormal_nullspace
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
    return rs.reynolds_matrix(rep) @ v


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
        cb = rs.commutant_basis(rep, source="generators")
        oracle = brute_commutant(list(rep.table_images()))
        assert cb.dim == expected_dim
        assert oracle.shape[1] == expected_dim
        angle = max_principal_angle(span_columns(cb.basis), oracle)
        assert angle <= 1e-7

    def test_element_source_agrees_with_generators(self, s4_table):
        rep = rs.build_named_rep("sn_permutation", s4_table)
        from_gens = rs.commutant_basis(rep, source="generators")
        from_all = rs.commutant_basis(rep, source="elements")
        assert from_gens.dim == from_all.dim == 2
        angle = max_principal_angle(
            span_columns(from_gens.basis), span_columns(from_all.basis)
        )
        assert angle <= 1e-10

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
        for i in rs.groups.haar_indices(q8_table, rs.stream(4), 50):
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

    def test_non_stabilized_dimension_without_comparison_rounds(self):
        fam = rs.ContinuousFamily(kind="special_orthogonal", n=3)
        rep = rs.build_named_rep("so3_traceless_symmetric", fam)
        with pytest.raises(NonStabilizedDimension):
            rs.commutant_basis(rep, rng=rs.stream(10), start_samples=8, max_samples=8)

    def test_threshold_ambiguity_detection(self):
        rows, threshold, ambiguous = trace_orthonormal_nullspace(np.diag([1.0, 5e-8, 1e-12]))
        assert threshold == pytest.approx(1e-8)
        assert ambiguous == pytest.approx(5e-8)
        assert len(rows) == 1

    def test_threshold_ambiguity_warning_on_near_degenerate_constraints(self):
        # The perturbation's singular values land within a decade of the cutoff.
        table = near_degenerate_fake_table()
        rep = rs.Representation(dim=2, stack_map=lambda payload: payload, group=table)
        with pytest.warns(ThresholdAmbiguity):
            cb = rs.commutant_basis(rep, source="elements")
        assert cb.ambiguous_sigma is not None

    def test_non_group_table_fails_the_character_count(self):
        table = near_degenerate_fake_table()
        rep = rs.Representation(dim=2, stack_map=lambda payload: payload, group=table)
        with pytest.raises(InconsistentDimensions):
            rs.commutant_basis(rep, source="generators")

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

    def test_oversized_range_rejected_before_allocation(self):
        spec = rs.GroupSpec(kind="permutation_generators", generators=(tuple(range(128)),))
        rep = rs.build_named_rep("sn_permutation", rs.enumerate_closure(spec))
        with pytest.raises(TooLarge):
            rs.commutant_basis(rep)

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
