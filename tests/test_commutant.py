import inspect
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import repspect as rs
from repspect.commutant import trace_orthonormal_nullspace
from repspect.representations import permutation_images, sum_zero_basis
from repspect.errors import (
    DegenerateSpectrum,
    InconsistentDimensions,
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
    structured_permutation_generators,
    symmetric_table,
)


def o2_double_rep():
    """The 2-plane rotation-reflection family acting twice, block-diagonally."""
    fam = rs.ContinuousFamily(kind="orthogonal", n=2)

    def stack_map(ms):
        out = np.zeros((ms.shape[0], 4, 4))
        out[:, :2, :2] = ms
        out[:, 2:, 2:] = ms
        return out

    return rs.Representation(dim=4, stack_map=stack_map, group=fam)


def dihedral_generators(n):
    """Rotation i -> i+1 and reflection i -> -i of n points."""
    return (tuple((i + 1) % n for i in range(n)), tuple((-i) % n for i in range(n)))


def permutation_group_rep(generators, name="sn_permutation"):
    spec = rs.GroupSpec(kind="permutation_generators", generators=tuple(generators))
    return rs.build_named_rep(name, rs.enumerate_closure(spec))


def dihedral_permutation_rep(n):
    return permutation_group_rep(dihedral_generators(n))


def matrix_permutation_rep(generators):
    """The permutation matrices of the generators as a matrix group acting
    on column vectors: the permutation action, reached through a matrix
    payload and so through the eigenspace nullspace, not the orbitals."""
    matrices = tuple(permutation_images(np.array(generators)))
    spec = rs.GroupSpec(kind="matrix_generators", generators=matrices)
    return rs.build_named_rep("defining_orthogonal", rs.enumerate_closure(spec))


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


def assert_seed_free(rep):
    """``commutant_basis`` takes no stream, and two calls give the same bytes."""
    assert "rng" not in inspect.signature(rs.commutant_basis).parameters
    first, second = rs.commutant_basis(rep), rs.commutant_basis(rep)
    for field in ("basis", "constraints", "projector"):
        assert getattr(first, field).tobytes() == getattr(second, field).tobytes()
    assert (first.residual, first.threshold) == (second.residual, second.threshold)


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
        # SO(1)'s constraint is the identity and O(1)'s the reflection -1.
        cb = rs.commutant_basis(rep)
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
        cb = rs.commutant_basis(rep)
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
        cb = rs.commutant_basis(rep)
        rng = rs.stream(6)
        mats = rs.haar_matrices(fam, rng, 50)
        for m in rep.stack_map(mats):
            for b in cb.basis:
                assert np.max(np.abs(m @ b @ m.T - b)) <= 1e-6

    def test_so3_traceless_symmetric_commutant_is_scalar(self):
        fam = rs.ContinuousFamily(kind="special_orthogonal", n=3)
        rep = rs.build_named_rep("so3_traceless_symmetric", fam)
        cb = rs.commutant_basis(rep)
        assert cb.dim == 1

    def test_so2_defining_commutant_is_a_plane(self):
        fam = rs.ContinuousFamily(kind="special_orthogonal", n=2)
        rep = rs.build_named_rep("defining_orthogonal", fam)
        cb = rs.commutant_basis(rep)
        assert (cb.dim, cb.sym_dim, cb.skew_dim) == (2, 1, 1)
        assert rs.classify_and_decide(cb).type == "C"

    def test_full_orthogonal_defining_commutant_is_scalar(self):
        fam = rs.ContinuousFamily(kind="orthogonal", n=3)
        rep = rs.build_named_rep("defining_orthogonal", fam)
        cb = rs.commutant_basis(rep)
        assert rs.classify_and_decide(cb).type == "R"

    def test_orthogonal_draws_include_a_reflection(self):
        # The constraints are fixed, the reflection diag(-1, 1) first, so
        # O(2)'s commutant is the scalars, never the plane of SO(2)'s.
        rep = rs.build_named_rep("defining_orthogonal", rs.ContinuousFamily(kind="orthogonal", n=2))
        cb = rs.commutant_basis(rep)
        assert cb.dim == 1
        assert np.linalg.det(cb.constraints[0]) == pytest.approx(-1.0)

    @pytest.mark.parametrize("build", [
        dihedral_permutation_rep, lambda n: matrix_permutation_rep(dihedral_generators(n)),
    ], ids=["orbital", "reynolds"])
    def test_finite_commutants_are_seed_free(self, build):
        assert_seed_free(build(12))

    def test_threshold_ambiguity_detection(self):
        rows, threshold, ambiguous = trace_orthonormal_nullspace(np.diag([1.0, 5e-8, 1e-12]))
        assert threshold == pytest.approx(1e-8)
        assert ambiguous == pytest.approx(5e-8)
        assert len(rows) == 1

    def test_threshold_ambiguity_warning_on_near_degenerate_constraints(self):
        # A continuous family whose one constraint image is a rotation by
        # 2.5e-8, nearly the identity: the symmetric traceless matrices miss
        # commuting with it by singular values 2 sin(2.5e-8), within a decade
        # of the cutoff 1e-8.  They are cut, with a warning, and the span
        # left is the plane of the rotations.
        images = rs.groups.rotation_matrix(2.5e-8)[None]
        rep = rs.Representation(
            dim=2,
            stack_map=lambda payload: images,
            group=rs.ContinuousFamily(kind="special_orthogonal", n=2),
        )
        with pytest.warns(ThresholdAmbiguity, match="within a decade of cutoff"):
            cb = rs.commutant_basis(rep)
        assert (cb.dim, cb.sym_dim) == (2, 1)
        assert cb.ambiguous_sigma == pytest.approx(5e-8)

    def test_non_group_table_fails_the_character_count(self):
        table = near_degenerate_fake_table()
        rep = rs.Representation(dim=2, stack_map=lambda payload: payload, group=table)
        with pytest.raises(InconsistentDimensions):
            rs.commutant_basis(rep)

    def test_dihedral_48_commutant_stays_small(self):
        rep = matrix_permutation_rep(dihedral_generators(48))
        tracemalloc.start()
        try:
            cb = rs.commutant_basis(rep)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cb.dim == cb.sym_dim == 25
        assert peak < 150 * 2**20

    def test_dihedral_48_orbital_commutant_stays_small(self):
        # 25 orbitals of 2304 pairs: a 0.46 MB basis.
        rep = dihedral_permutation_rep(48)
        tracemalloc.start()
        try:
            cb = rs.commutant_basis(rep)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cb.dim == cb.sym_dim == 25
        assert peak < 4 * 2**20

    def test_o12_commutant_stays_small(self):
        # The column stack is tall, (3 * 144, 12); a full U would take
        # (3 * 144)^2 floats.
        rep = rs.build_named_rep("defining_orthogonal", rs.ContinuousFamily(kind="orthogonal", n=12))
        tracemalloc.start()
        try:
            cb = rs.commutant_basis(rep)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cb.dim == 1
        assert peak < 16 * 2**20

    def test_oversized_column_stack_rejected_before_allocation(self):
        # The trivial group on 128 points as permutation matrices: K = 2I is
        # one eigenspace, so all c = n^2 entries are unknowns, a 2 GiB stack.
        rep = matrix_permutation_rep([tuple(range(128))])
        tracemalloc.start()
        try:
            with pytest.raises(TooLarge, match="column stack.*byte budget"):
                rs.commutant_basis(rep)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("name", ["sn_permutation", "sn_sum_zero"])
    def test_oversized_orbital_basis_rejected_before_allocation(self, name):
        # The trivial group on 128 points has 16,384 orbitals: a 2 GiB basis.
        rep = permutation_group_rep([tuple(range(128))], name)
        tracemalloc.start()
        try:
            with pytest.raises(TooLarge, match="byte budget"):
                rs.commutant_basis(rep)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_orbital_basis_refused_by_the_group_order_before_labels(self):
        # C_1000 on 1000 points: 1000 orbitals of 1000 pairs each, an 8 GB
        # basis; n^2 / |G| = 1000 tells before the 64 MB of pair labels.
        group = rs.permutation_group(rs.GroupSpec(
            kind="permutation_generators", generators=(tuple((i + 1) % 1000 for i in range(1000)),)))
        rep = rs.build_named_rep("sn_permutation", group)
        tracemalloc.start()
        try:
            with pytest.raises(TooLarge, match="dimension at least 1000.*byte budget"):
                rs.commutant_basis(rep)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_o128_commutant_is_fast_and_small_and_draws_nothing(self, monkeypatch):
        # K over O(128)'s three constraint images has n distinct
        # eigenvalues, so only the c = n diagonal entries in its eigenbasis
        # are unknowns: a (3 n^2, n) stack of 48 MiB.
        def no_draws(*args):
            raise AssertionError("drew Haar images for a continuous commutant")

        monkeypatch.setattr("repspect.commutant.haar_matrices", no_draws)
        rep = rs.build_named_rep("defining_orthogonal", rs.ContinuousFamily(kind="orthogonal", n=128))
        start = time.perf_counter()
        tracemalloc.start()
        try:
            cb = rs.commutant_basis(rep)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        elapsed = time.perf_counter() - start
        assert (cb.dim, cb.sym_dim) == (1, 1)
        assert elapsed < 3.0
        assert peak < 600 * 2**20

    def test_split_disagreeing_with_character_count_rejected(self, monkeypatch):
        rep = matrix_permutation_rep([(1, 0, 2, 3), (1, 2, 3, 0)])
        assert rs.commutant_basis(rep).sym_dim == 2
        counts = rs.commutant.character_counts
        monkeypatch.setattr(
            "repspect.commutant.character_counts", lambda images: (counts(images)[0], 1)
        )
        with pytest.raises(InconsistentDimensions, match="symmetric part has dimension 2"):
            rs.commutant_basis(rep)

    def test_orbital_split_disagreeing_with_stabilizer_count_rejected(self, s4_table, monkeypatch):
        rep = rs.build_named_rep("sn_permutation", s4_table)
        assert rs.commutant_basis(rep).sym_dim == 2
        counts = rs.commutant._stabilizer_counts
        monkeypatch.setattr(
            "repspect.commutant._stabilizer_counts", lambda generators: (counts(generators)[0], 1)
        )
        with pytest.raises(InconsistentDimensions, match=r"\(2 symmetric\)"):
            rs.commutant_basis(rep)


PHI = (1.0 + 5.0**0.5) / 2.0
AXIS_CYCLE = np.eye(3)[[1, 2, 0]]
HALF_TURN_X = np.diag([1.0, -1.0, -1.0])
# Rotation groups of the tetrahedron, cube and icosahedron; the last adds a
# fifth-turn about (0, 1/phi, phi) to the tetrahedral generators.
POLYHEDRAL = {
    "tetrahedral": ((AXIS_CYCLE, HALF_TURN_X), 12),
    "octahedral": ((AXIS_CYCLE, np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])), 24),
    "icosahedral": ((AXIS_CYCLE, HALF_TURN_X, 0.5 * np.array([
        [1.0, -PHI, 1.0 / PHI], [PHI, 1.0 / PHI, -1.0], [1.0 / PHI, 1.0, PHI],
    ])), 60),
}


def doubled_explicit_rep(group_spec, name):
    """rho + rho of a catalog representation through ``explicit``, conjugated
    by a fixed orthogonal matrix."""
    table = rs.enumerate_closure(group_spec)
    images = rs.build_named_rep(name, table).generator_images()
    k, n, _ = images.shape
    doubled = np.zeros((k, 2 * n, 2 * n))
    doubled[:, :n, :n] = doubled[:, n:, n:] = images
    q, _ = np.linalg.qr(rs.stream(2300, n).standard_normal((2 * n, 2 * n)))
    return rs.build_named_rep("explicit", table, generator_images=list(q @ doubled @ q.T))


class TestReynoldsKnownAnswers:
    """Finite tables outside the permutation entries, against known answers."""

    @pytest.mark.parametrize("group,name,d,s,m", [
        ("tetrahedral", "so3_traceless_symmetric", 3, 2, 2),
        ("octahedral", "so3_traceless_symmetric", 2, 2, 2),
        ("icosahedral", "so3_traceless_symmetric", 1, 1, None),
        ("tetrahedral", "defining_orthogonal", 1, 1, None),
        ("octahedral", "defining_orthogonal", 1, 1, None),
        ("icosahedral", "defining_orthogonal", 1, 1, None),
    ])
    def test_polyhedral_groups(self, group, name, d, s, m):
        generators, order = POLYHEDRAL[group]
        table = rs.enumerate_closure(rs.GroupSpec(kind="matrix_generators", generators=generators))
        assert table.order == order
        rep = rs.build_named_rep(name, table)
        cb = rs.commutant_basis(rep)
        assert (cb.dim, cb.sym_dim) == (d, s)
        if m is None:
            assert rs.classify_and_decide(cb).type == "R"
        else:
            assert rs.witness_invariant_subspace(cb, rep).m == m

    @pytest.mark.parametrize("spec,name,d,s,m", [
        (rs.GroupSpec(kind="dihedral", n=5), "defining_orthogonal", 4, 3, 2),
        (rs.GroupSpec(kind="cyclic", n=5), "cyclic_rotation", 8, 4, 2),
        (rs.GroupSpec(kind="quaternion8"), "q8_left", 16, 6, 4),
    ], ids=["dihedral5", "cyclic5", "quaternion8"])
    def test_doubled_explicit_reps(self, spec, name, d, s, m):
        rep = doubled_explicit_rep(spec, name)
        cb = rs.commutant_basis(rep)
        assert (cb.dim, cb.sym_dim) == (d, s)
        assert rs.witness_invariant_subspace(cb, rep).m == m

    @pytest.mark.parametrize("n", [12, 40])
    def test_dihedral_matrices_match_the_orbitals(self, n):
        reynolds = matrix_permutation_rep(dihedral_generators(n))
        orbital = dihedral_permutation_rep(n)
        cb_r, cb_o = rs.commutant_basis(reynolds), rs.commutant_basis(orbital)
        assert (cb_r.dim, cb_r.sym_dim) == (cb_o.dim, cb_o.sym_dim)
        np.testing.assert_allclose(cb_r.projector, cb_o.projector, rtol=0, atol=1e-12)
        w_r = rs.witness_invariant_subspace(cb_r, reynolds)
        w_o = rs.witness_invariant_subspace(cb_o, orbital)
        assert w_r.m == w_o.m
        assert max_principal_angle(w_r.basis, w_o.basis) <= 1e-10

    @pytest.mark.parametrize("n", range(1, 13))
    def test_trivial_group_commutes_with_everything(self, n):
        # d = n^2: every entry is an unknown and every column is zero, clear
        # of the cutoff (a ThresholdAmbiguity warning fails the test).
        table = rs.enumerate_closure(rs.GroupSpec(kind="matrix_generators", generators=(np.eye(n),)))
        rep = rs.build_named_rep("explicit", table, generator_images=[np.eye(n)])
        cb = rs.commutant_basis(rep)
        assert (cb.dim, cb.sym_dim) == (n * n, n * (n + 1) // 2)


# The continuous catalog: (entry, family, n) and the textbook (d, s).
CONTINUOUS_CATALOG = [
    ("defining_orthogonal", kind, n, (2, 1) if (kind, n) == ("special_orthogonal", 2) else (1, 1))
    for n in (1, 2, 3, 4, 5, 6, 7, 8, 10, 16)
    for kind in ("special_orthogonal", "orthogonal")
] + [
    ("cyclic_rotation", "special_orthogonal", 2, (2, 1)),
    ("cyclic_rotation", "orthogonal", 2, (1, 1)),
    ("q8_left", "special_orthogonal", 4, (1, 1)),
    ("q8_left", "orthogonal", 4, (1, 1)),
    ("so3_traceless_symmetric", "special_orthogonal", 3, (1, 1)),
    ("so3_traceless_symmetric", "orthogonal", 3, (1, 1)),
]


class TestContinuousCommutant:
    @pytest.mark.parametrize("name,kind,n", [
        ("defining_orthogonal", "special_orthogonal", 2),
        ("defining_orthogonal", "orthogonal", 5),
        ("so3_traceless_symmetric", "orthogonal", 3),
    ])
    def test_seed_free(self, name, kind, n):
        assert_seed_free(rs.build_named_rep(name, rs.ContinuousFamily(kind=kind, n=n)))

    @pytest.mark.parametrize("name,kind,n,expected", CONTINUOUS_CATALOG,
                             ids=[f"{e[0]}-{e[1]}-{e[2]}" for e in CONTINUOUS_CATALOG])
    def test_catalog_matches_the_oracle_on_haar_images(self, name, kind, n, expected):
        fam = rs.ContinuousFamily(kind=kind, n=n)
        rep = rs.build_named_rep(name, fam)
        cb = rs.commutant_basis(rep)
        images = rep.stack_map(rs.haar_matrices(fam, rs.stream(2200, n), 16))
        oracle = brute_commutant(list(images)).T.reshape(-1, rep.dim, rep.dim)
        symmetric = (oracle + oracle.transpose(0, 2, 1)).reshape(len(oracle), -1)
        oracle_counts = (len(oracle), int(np.linalg.matrix_rank(symmetric, tol=1e-6)))
        assert (cb.dim, cb.sym_dim) == oracle_counts == expected

    def test_o24_commutant_stays_small(self):
        # Three constraint images give a (3 * 576, 24) column stack of 0.3 MB;
        # the bound leaves room for its SVD many times over.
        rep = rs.build_named_rep("defining_orthogonal", rs.ContinuousFamily(kind="orthogonal", n=24))
        tracemalloc.start()
        try:
            cb = rs.commutant_basis(rep)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cb.dim == 1
        assert peak < 40 * 2**20


def svd_split(rows):
    """Test-local oracle: the symmetric and skew rows of a span closed under
    transposition, from the SVDs of (B + B^T)/2 and (B - B^T)/2 over its
    orthonormal rows B, right singular vectors above 0.5."""
    d, n = len(rows), math.isqrt(rows.shape[1])
    transposed = rows.reshape(d, n, n).transpose(0, 2, 1).reshape(d, n * n)
    parts = []
    for part in (rows + transposed, rows - transposed):
        _, sigma, vh = np.linalg.svd(part / 2.0, full_matrices=False)
        parts.append(vh[sigma > 0.5])
    return parts


def mixed_rows(rows, seed):
    """The orthonormal rows times a fixed orthogonal matrix: the same span,
    with symmetric and skew parts mixed in every row."""
    q, _ = np.linalg.qr(rs.stream(seed).standard_normal((len(rows), len(rows))))
    return q @ rows


class TestSplitAndClassify:
    @pytest.mark.parametrize("builder,expected", [
        (lambda: rs.build_named_rep("sn_sum_zero", rs.enumerate_closure(rs.GroupSpec(kind="symmetric", n=4))), (1, 0)),
        (lambda: rs.build_named_rep("cyclic_rotation", cyclic_table(5)), (1, 1)),
        (lambda: rs.build_named_rep("q8_left", rs.enumerate_closure(rs.GroupSpec(kind="quaternion8"))), (1, 3)),
    ])
    def test_symmetric_skew_dimensions(self, builder, expected):
        cb = rs.commutant_basis(builder())
        assert (cb.sym_dim, cb.skew_dim) == expected
        for b in cb.basis[: cb.sym_dim]:
            np.testing.assert_allclose(b, b.T, atol=1e-10)
        for b in cb.basis[cb.sym_dim :]:
            np.testing.assert_allclose(b, -b.T, atol=1e-10)

    @pytest.mark.parametrize("case", ["d128"] + [f"trivial{n}" for n in range(1, 13)])
    def test_split_matches_the_svd_oracle(self, case):
        # D128 permutation matrices (d = 65, all symmetric), and the trivial
        # group in degree n, whose commutant is every n x n matrix
        # (n(n+1)/2 symmetric).
        if case == "d128":
            cb = rs.commutant_basis(dihedral_permutation_rep(128))
            rows = mixed_rows(cb.basis.reshape(cb.dim, -1), 60)
            counts = (65, 0)
        else:
            n = int(case.removeprefix("trivial"))
            rows = mixed_rows(np.eye(n * n), 61 + n)
            counts = (n * (n + 1) // 2, n * (n - 1) // 2)
        sym, skew = rs.split_symmetric_skew(rows)
        assert (len(sym), len(skew)) == counts
        n = math.isqrt(rows.shape[1])
        split = np.concatenate([sym, skew])
        np.testing.assert_allclose(split @ split.T, np.eye(len(rows)), rtol=0, atol=1e-12)
        np.testing.assert_allclose(split @ rows.T @ rows, split, rtol=0, atol=1e-12)
        for part, sign in ((sym, 1.0), (skew, -1.0)):
            mats = part.reshape(-1, n, n)
            np.testing.assert_allclose(mats, sign * mats.transpose(0, 2, 1), rtol=0, atol=1e-12)
        # Same subspaces as the oracle's: the cosines of their principal
        # angles are all 1.
        for part, oracle in zip((sym, skew), svd_split(rows)):
            assert part.shape == oracle.shape
            cosines = np.linalg.svd(part @ oracle.T, compute_uv=False)
            np.testing.assert_allclose(cosines, 1.0, rtol=0, atol=1e-12)

    def test_split_of_a_span_not_closed_under_transposition_is_rejected(self):
        # E_01 alone: transposition maps it to E_10, outside its span.
        with pytest.raises(InconsistentDimensions, match="not \\+-1 within 0.5"):
            rs.split_symmetric_skew(np.array([[0.0, 1.0, 0.0, 0.0]]))

    def test_type_real(self):
        table = rs.enumerate_closure(rs.GroupSpec(kind="symmetric", n=5))
        cb = rs.commutant_basis(rs.build_named_rep("sn_sum_zero", table))
        v = rs.classify_and_decide(cb)
        assert v.irreducible and v.type == "R"

    def test_type_complex(self):
        cb = rs.commutant_basis(rs.build_named_rep("cyclic_rotation", cyclic_table(7)))
        v = rs.classify_and_decide(cb)
        assert v.irreducible and v.type == "C"

    def test_type_quaternionic(self, q8_table):
        cb = rs.commutant_basis(rs.build_named_rep("q8_left", q8_table))
        v = rs.classify_and_decide(cb)
        assert v.irreducible and v.type == "H"

    def test_reducible_permutation_rep(self, s3_table):
        cb = rs.commutant_basis(rs.build_named_rep("sn_permutation", s3_table))
        v = rs.classify_and_decide(cb)
        assert not v.irreducible and v.type == "not_applicable"
        assert v.sym_dim == 2

    def test_inconsistent_dimension_rejected(self, q8_table):
        rep = rs.build_named_rep("q8_left", q8_table)
        cb = rs.commutant_basis(rep)
        cb = cb._replace(dim=3)  # corrupt: scalar symmetric part with a 3-dim algebra
        with pytest.raises(InconsistentDimensions):
            rs.classify_and_decide(cb)

    def test_quaternionic_skew_elements_are_orthogonal(self, q8_table):
        cb = rs.commutant_basis(rs.build_named_rep("q8_left", q8_table))
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
        cb = rs.commutant_basis(rep)
        skew = cb.basis[cb.sym_dim :]
        rng = rs.stream(11)
        for _ in range(50):
            m = rs.diag_map(random_unit(rng, rep.dim))
            proj = sum(rs.frobenius_inner(b, m) ** 2 for b in skew)
            assert np.sqrt(proj) <= 1e-10


class TestWitness:
    def test_permutation_rep_recovers_diagonal_line(self, s3_table):
        rep = rs.build_named_rep("sn_permutation", s3_table)
        cb = rs.commutant_basis(rep)
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
        cb = rs.commutant_basis(rep)
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
        cb = rs.commutant_basis(rep)
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
        # Random orthogonal mixings of the symmetric and of the skew basis
        # are other bases of the same span.  Every one must give the same
        # invariant subspace, in the same basis columns, signs included.
        rep = build()
        cb = rs.commutant_basis(rep)
        bases = [cb]
        for seed in range(4):
            rng = rs.stream(13, seed)
            parts = []
            for part in (cb.basis[: cb.sym_dim], cb.basis[cb.sym_dim :]):
                mixing, _ = np.linalg.qr(rng.standard_normal((len(part), len(part))))
                parts.append(np.einsum("ij,jkl->ikl", mixing, part))
            bases.append(cb._replace(basis=np.concatenate(parts)))
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
        cb = rs.commutant_basis(rep)
        weights = rs.groups.golden_weights
        monkeypatch.setattr(
            "repspect.commutant.golden_weights",
            lambda count: np.array([1.0, -1.0, 0.0]) if count == 3 else weights(count),
        )
        with pytest.raises(DegenerateSpectrum, match="do not span"):
            rs.witness_invariant_subspace(cb, rep)

    def test_irreducible_rejected(self, q8_table):
        rep = rs.build_named_rep("q8_left", q8_table)
        cb = rs.commutant_basis(rep)
        with pytest.raises(NotReducible):
            rs.witness_invariant_subspace(cb, rep)

    def test_witness_columns_are_orthonormal(self, s4_table):
        rep = rs.build_named_rep("sn_permutation", s4_table)
        cb = rs.commutant_basis(rep)
        w = rs.witness_invariant_subspace(cb, rep)
        np.testing.assert_allclose(w.basis.T @ w.basis, np.eye(w.m), atol=1e-12)
        assert 0 < w.m < 4

    def test_degenerate_spectrum_rejected(self, s3_table):
        # corrupted basis whose symmetric part is numerically scalar
        rep = rs.build_named_rep("sn_permutation", s3_table)
        cb = rs.commutant_basis(rep)
        scalar = np.eye(3) / np.sqrt(3.0)
        cb = cb._replace(
            basis=np.stack([scalar, scalar + 1e-9 * np.eye(3)]), dim=2, sym_dim=2, skew_dim=0
        )
        with pytest.raises(DegenerateSpectrum):
            rs.witness_invariant_subspace(cb, rep)


ORBITAL_GROUPS = {
    "s3": lambda: symmetric_table(3),
    "s4": lambda: symmetric_table(4),
    "c5": lambda: rs.enumerate_closure(rs.GroupSpec(
        kind="permutation_generators", generators=((1, 2, 3, 4, 0),))),
    "d6": lambda: rs.enumerate_closure(rs.GroupSpec(
        kind="permutation_generators", generators=dihedral_generators(6))),
    # <(0 1), (2 3 4)> on 6 points: orbits {0, 1}, {2, 3, 4} and the fixed point 5.
    "intransitive": lambda: rs.enumerate_closure(rs.GroupSpec(
        kind="permutation_generators", generators=((1, 0, 2, 3, 4, 5), (0, 1, 3, 4, 2, 5)))),
    # <(0 1 2), (3 4)> on 5 points: two orbits and no fixed point.
    "c3xc2": lambda: rs.enumerate_closure(rs.GroupSpec(
        kind="permutation_generators", generators=((1, 2, 0, 3, 4), (0, 1, 2, 4, 3)))),
}
ENTRIES = ["sn_permutation", "sn_sum_zero"]


class TestOrbitalCommutant:
    @pytest.mark.parametrize("name", ENTRIES)
    @pytest.mark.parametrize("group", sorted(ORBITAL_GROUPS))
    def test_matches_the_oracles(self, group, name):
        rep = rs.build_named_rep(name, ORBITAL_GROUPS[group]())
        cb = rs.commutant_basis(rep)
        images = rep.table_images()
        oracle = brute_commutant(list(images))
        assert (cb.dim, cb.sym_dim) == rs.commutant.character_counts(images)
        assert cb.dim == oracle.shape[1] == cb.sym_dim + cb.skew_dim
        assert max_principal_angle(span_columns(cb.basis), oracle) <= 1e-10
        rows = span_columns(cb.basis)
        np.testing.assert_allclose(rows.T @ rows, np.eye(cb.dim), rtol=0, atol=1e-12)
        for b in cb.basis[: cb.sym_dim]:
            np.testing.assert_allclose(b, b.T, rtol=0, atol=1e-15)
        for b in cb.basis[cb.sym_dim :]:
            np.testing.assert_allclose(b, -b.T, rtol=0, atol=1e-15)
        np.testing.assert_allclose(cb.projector, images.mean(axis=0), rtol=0, atol=1e-12)
        assert cb.residual <= 1e-12
        sym, skew = rs.split_symmetric_skew(cb.basis.reshape(cb.dim, -1))
        assert (len(sym), len(skew)) == (cb.sym_dim, cb.skew_dim)

    @pytest.mark.parametrize("name", ENTRIES)
    def test_trivial_group_on_seven_points_commutes_with_everything(self, name):
        # Every point is its own orbit (t = 7), the most constraints the
        # zero-row-sum cut can take.  The commutant is the whole matrix
        # space, the exact oracle here: the sum-zero image H H^T equals I
        # only up to rounding, and brute_commutant's cutoff, relative to
        # its largest singular value, keeps the commutant of that rounding.
        table = rs.enumerate_closure(rs.GroupSpec(
            kind="permutation_generators", generators=(tuple(range(7)),)))
        rep = rs.build_named_rep(name, table)
        cb = rs.commutant_basis(rep)
        n = rep.dim
        assert (cb.dim, cb.sym_dim) == rs.commutant.character_counts(rep.table_images())
        assert (cb.dim, cb.sym_dim) == (n * n, n * (n + 1) // 2)
        rows = span_columns(cb.basis)
        np.testing.assert_allclose(rows.T @ rows, np.eye(cb.dim), rtol=0, atol=1e-12)
        for b in cb.basis[: cb.sym_dim]:
            np.testing.assert_allclose(b, b.T, rtol=0, atol=1e-15)
        for b in cb.basis[cb.sym_dim :]:
            np.testing.assert_allclose(b, -b.T, rtol=0, atol=1e-15)
        np.testing.assert_allclose(cb.projector, np.eye(n), rtol=0, atol=1e-12)
        assert cb.residual <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(structured_permutation_generators())
    # s is (d + #self-paired) / 2, not #self-paired; the two differ on C5
    # (d = 5, only the diagonal self-paired) and on <(0 1 2), (3 4), (5 6)>.
    @example(((1, 2, 3, 4, 0),))
    @example(((1, 2, 0, 3, 4, 5, 6), (0, 1, 2, 4, 3, 5, 6), (0, 1, 2, 3, 4, 6, 5)))
    def test_stabilizer_counts_equal_the_pair_label_counts(self, generators):
        generators = np.array(generators)
        _, roots, transpose, _ = rs.groups.orbitals(generators)
        self_paired = int(np.count_nonzero(transpose == np.arange(len(roots))))
        assert rs.commutant._stabilizer_counts(generators) == (
            len(roots), (len(roots) + self_paired) // 2)

    @pytest.mark.parametrize("group", sorted(ORBITAL_GROUPS))
    def test_sum_zero_counts_follow_the_point_orbits(self, group):
        table = ORBITAL_GROUPS[group]()
        full = rs.commutant_basis(rs.build_named_rep("sn_permutation", table))
        sum_zero = rs.commutant_basis(rs.build_named_rep("sn_sum_zero", table))
        # Burnside: the number of point orbits is the mean number of fixed points.
        t = round(np.mean(np.count_nonzero(table.payload == np.arange(table.payload.shape[1]), axis=1)))
        assert (sum_zero.dim, sum_zero.sym_dim) == (full.dim - 2 * t + 1, full.sym_dim - t)

    @pytest.mark.parametrize("name", ENTRIES)
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_counts_match_the_characters_across_symmetric_groups(self, name, n):
        rep = rs.build_named_rep(name, symmetric_table(n))
        cb = rs.commutant_basis(rep)
        assert (cb.dim, cb.sym_dim) == rs.commutant.character_counts(rep.table_images())

    @pytest.mark.parametrize("name", ENTRIES)
    @pytest.mark.parametrize("table", [
        # the identity and a 3-cycle without its square: not closed
        lambda: payload_table([[0, 1, 2], [1, 2, 0]], generators=[1]),
        # all of S3, but listing only a transposition as its generator
        lambda: payload_table(symmetric_table(3).payload,
                              generators=[symmetric_table(3).indices_of([[1, 0, 2]])[0]]),
    ], ids=["not_closed", "wrong_generators"])
    def test_forged_table_is_rejected(self, name, table):
        rep = rs.build_named_rep(name, table())
        with pytest.raises(InconsistentDimensions):
            rs.commutant_basis(rep)

    @pytest.mark.parametrize("name", ENTRIES)
    def test_needs_no_svd_and_no_table_images(self, name, monkeypatch):
        table = symmetric_table(5)
        rep = rs.build_named_rep(name, table)
        average = rep.table_images().mean(axis=0)
        v = random_unit(rs.stream(60), rep.dim)
        moments = rs.exact_finite_orbit_moments(rep, v)
        rep = rs.build_named_rep(name, table)

        def refuse(*args, **kwargs):
            raise AssertionError("the orbital path called an SVD or built table images")

        monkeypatch.setattr(np.linalg, "svd", refuse)
        monkeypatch.setattr(rs.Representation, "table_images", refuse)
        cb = rs.commutant_basis(rep)
        assert (cb.dim, cb.sym_dim) == {"sn_permutation": (2, 2), "sn_sum_zero": (1, 1)}[name]
        np.testing.assert_allclose(cb.projector, average, rtol=0, atol=1e-12)
        again = rs.exact_finite_orbit_moments(rep, v)
        np.testing.assert_allclose(again.second_moment.entries, moments.second_moment.entries,
                                   rtol=0, atol=1e-15)


@st.composite
def permutation_generators(draw):
    """1-3 permutations of 3-8 points."""
    n = draw(st.integers(3, 8))
    return tuple(tuple(draw(st.permutations(range(n)))) for _ in range(draw(st.integers(1, 3))))


def assert_same_answer(rep_a, rep_b):
    """Two paths to one representation give the same d, s, verdict and P,
    and on a reducible one the same witness subspace."""
    cb_a, cb_b = rs.commutant_basis(rep_a), rs.commutant_basis(rep_b)
    assert (cb_a.dim, cb_a.sym_dim) == (cb_b.dim, cb_b.sym_dim)
    assert rs.classify_and_decide(cb_a) == rs.classify_and_decide(cb_b)
    np.testing.assert_allclose(cb_a.projector, cb_b.projector, rtol=0, atol=1e-12)
    if cb_a.sym_dim > 1:
        w_a = rs.witness_invariant_subspace(cb_a, rep_a)
        w_b = rs.witness_invariant_subspace(cb_b, rep_b)
        assert w_a.m == w_b.m
        assert max_principal_angle(w_a.basis, w_b.basis) <= 1e-10


class TestCrossPathSweep:
    """The orbitals against the eigenspace nullspace on random permutation groups."""

    @settings(max_examples=150, deadline=None)
    @given(permutation_generators())
    def test_orbitals_match_the_matrix_paths(self, generators):
        # sn_permutation against the same group as permutation matrices, and
        # sn_sum_zero against explicit images H P(g) H^T, H the Helmert rows.
        table = rs.enumerate_closure(
            rs.GroupSpec(kind="permutation_generators", generators=generators)
        )
        # A8 and S8 take about 0.6 s each to close as matrices, most of the
        # sweep's time; every other group on at most 8 points has order <= 5040.
        assume(table.order <= 5040)
        assert_same_answer(rs.build_named_rep("sn_permutation", table),
                           matrix_permutation_rep(generators))
        h = sum_zero_basis(len(generators[0]))
        images = h @ permutation_images(table.payload[table.generators]) @ h.T
        assert_same_answer(rs.build_named_rep("sn_sum_zero", table),
                           rs.build_named_rep("explicit", table, generator_images=list(images)))

    def test_explicit_images_of_a_permutation_table_take_the_nullspace(self, monkeypatch):
        # The entry picks the path, not the payload kind: explicit images
        # H P(g) H^T of S5, the reference of the sweep above, go through the
        # eigenspace nullspace although their group permutes points.
        table = symmetric_table(5)
        h = sum_zero_basis(5)
        images = h @ permutation_images(table.payload[table.generators]) @ h.T
        rep = rs.build_named_rep("explicit", table, generator_images=list(images))
        nullspace = rs.commutant._eigenspace_nullspace
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return nullspace(*args, **kwargs)

        def refuse(*args, **kwargs):
            raise AssertionError("explicit images took the orbitals")

        monkeypatch.setattr(rs.commutant, "_eigenspace_nullspace", counted)
        monkeypatch.setattr(rs.commutant, "_orbital_commutant", refuse)
        cb = rs.commutant_basis(rep)
        assert len(calls) == 1
        assert (cb.dim, cb.sym_dim) == (1, 1)

    @settings(max_examples=100, deadline=None)
    @given(structured_permutation_generators(), st.integers(0, 2**32 - 1))
    @example(((1, 2, 3, 4, 0),), 0)
    @example(((1, 2, 0, 3, 4, 5, 6), (0, 1, 2, 4, 3, 5, 6), (0, 1, 2, 3, 4, 6, 5)), 1)
    def test_table_free_group_matches_the_closed_table(self, generators, seed):
        # Both entries on a PermutationGroup, which lists no element, against
        # the closed table's images: permutation matrices for sn_permutation,
        # explicit H P(g) H^T for sn_sum_zero; their orbit moments come from
        # the table's orbit rows, M = O^T O / |G|.
        spec = rs.GroupSpec(kind="permutation_generators", generators=generators)
        table = rs.enumerate_closure(spec)
        assume(table.order <= 5040)  # as above
        group = rs.groups.permutation_group(spec)
        assert group.order == table.order
        n = len(generators[0])
        pairs = [(rs.build_named_rep("sn_permutation", group), matrix_permutation_rep(generators))]
        if n > 1:
            h = sum_zero_basis(n)
            images = h @ permutation_images(np.array(generators)) @ h.T
            pairs.append((rs.build_named_rep("sn_sum_zero", group),
                          rs.build_named_rep("explicit", table, generator_images=list(images))))
        rng = rs.stream(seed)
        for free, closed in pairs:
            assert_same_answer(free, closed)
            v = random_unit(rng, free.dim)
            got, want = rs.exact_finite_orbit_moments(free, v), rs.exact_finite_orbit_moments(closed, v)
            assert got.order == want.order == table.order
            for name in ("entries", "mean"):
                np.testing.assert_allclose(getattr(got.second_moment, name),
                                           getattr(want.second_moment, name), rtol=0, atol=1e-12)
            assert got.single_sum == pytest.approx(want.single_sum, rel=0, abs=1e-12)
            assert got.double_sum == pytest.approx(want.double_sum, rel=0, abs=1e-12)
            assert got.group_sum == pytest.approx(want.group_sum, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("build,counts", [
        (lambda: rs.build_named_rep("cyclic_rotation", cyclic_table(2)), (4, 3)),
        (lambda: rs.build_named_rep("explicit", cyclic_table(2), generator_images=[-np.eye(3)]),
         (9, 6)),
    ], ids=["rotation-pi", "minus-identity"])
    def test_images_of_minus_identity_commute_with_everything(self, build, counts):
        # rotation(pi) is -I up to 1.2e-16: every column of the stack is
        # rounding noise, cut as null under the cutoff's floor.
        cb = rs.commutant_basis(build())
        assert (cb.dim, cb.sym_dim) == counts
