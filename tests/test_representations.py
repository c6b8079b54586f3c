import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import repspect as rs
from repspect.errors import (
    BadParams,
    DimensionMismatch,
    NotUnitVector,
    SingularGram,
    UnknownName,
)
from repspect.representations import (
    TS_IMAGE_BLOCK,
    conjugation_on_traceless_symmetric,
    homomorphism_defect,
    permutation_images,
    traceless_symmetric_basis,
)
from repspect.groups import orthogonality_defect

from conftest import brute_ts_conjugation, cyclic_table, random_unit


def unit_vectors(n):
    return arrays(
        np.float64, (n,),
        elements=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
    ).map(lambda v: v if np.linalg.norm(v) > 1e-3 else v + 1.0).map(
        lambda v: v / np.linalg.norm(v)
    )


class TestCatalog:
    def test_sum_zero_dimension_and_reflection(self, s3_table):
        rep = rs.build_named_rep("sn_sum_zero", s3_table)
        assert rep.dim == 2
        swap = next(el for el in s3_table.elements if el.perm == (1, 0, 2))
        m = rep.evaluate(swap)
        np.testing.assert_allclose(m @ m, np.eye(2), atol=1e-12)  # involution
        assert np.linalg.det(m) == pytest.approx(-1.0, abs=1e-12)

    def test_cyclic_rotation_generator_is_quarter_turn(self):
        table = cyclic_table(4)
        rep = rs.build_named_rep("cyclic_rotation", table)
        m = rep.generator_images()[0]
        np.testing.assert_allclose(m, [[0.0, -1.0], [1.0, 0.0]], atol=1e-12)

    def test_traceless_symmetric_identity(self):
        fam = rs.ContinuousFamily(kind="special_orthogonal", n=3)
        rep = rs.build_named_rep("so3_traceless_symmetric", fam)
        ident = rs.GroupElement(matrix=np.eye(3))
        np.testing.assert_allclose(rep.evaluate(ident), np.eye(5), atol=1e-12)

    def test_sum_zero_basis_is_scipy_helmert_bit_for_bit(self):
        for n in range(2, 130):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                basis = rs.sum_zero_basis(n)
            assert basis.tobytes() == scipy.linalg.helmert(n).tobytes()

    def test_traceless_symmetric_basis_is_orthonormal(self):
        basis = traceless_symmetric_basis()
        for i, a in enumerate(basis):
            assert abs(np.trace(a)) < 1e-12
            np.testing.assert_allclose(a, a.T, atol=1e-15)
            for j, b in enumerate(basis):
                assert np.sum(a * b) == pytest.approx(float(i == j), abs=1e-12)

    def test_unknown_name(self, s3_table):
        with pytest.raises(UnknownName):
            rs.build_named_rep("regular", s3_table)

    def test_bad_group_for_name(self, s3_table, q8_table):
        with pytest.raises(BadParams):
            rs.build_named_rep("q8_left", s3_table)
        with pytest.raises(BadParams):
            rs.build_named_rep("sn_permutation", q8_table)

    @pytest.mark.parametrize("name,fixture_n", [
        ("sn_permutation", 4),
        ("sn_sum_zero", 4),
    ])
    def test_homomorphism_on_sampled_pairs(self, name, fixture_n):
        table = rs.enumerate_closure(rs.GroupSpec(kind="symmetric", n=fixture_n))
        rep = rs.build_named_rep(name, table)
        assert homomorphism_defect(rep, n_pairs=100) <= 1e-8

    def test_homomorphism_matrix_groups(self, q8_table):
        for rep in (
            rs.build_named_rep("q8_left", q8_table),
            rs.build_named_rep("cyclic_rotation", cyclic_table(5)),
        ):
            assert homomorphism_defect(rep, n_pairs=100) <= 1e-8

    def test_all_images_orthogonal(self, s4_table):
        rep = rs.build_named_rep("sn_sum_zero", s4_table)
        for m in rep.table_images():
            assert orthogonality_defect(m) <= 1e-8

    def test_continuous_homomorphism_spot_check(self):
        fam = rs.ContinuousFamily(kind="special_orthogonal", n=3)
        rep = rs.build_named_rep("so3_traceless_symmetric", fam)
        rng = rs.stream(31)
        for _ in range(100):
            a, b = rs.haar_matrices(fam, rng, 2)
            lhs = rep.evaluate(rs.GroupElement(matrix=a @ b))
            rhs = rep.evaluate(rs.GroupElement(matrix=a)) @ rep.evaluate(rs.GroupElement(matrix=b))
            assert np.max(np.abs(lhs - rhs)) <= 1e-8

    def test_scalar_product_invariance(self, s4_table):
        rep = rs.build_named_rep("sn_permutation", s4_table)
        rng = rs.stream(5)
        for i in rs.groups.haar_indices(s4_table, rng, 20):
            g = s4_table.elements[i]
            u = rng.standard_normal(4)
            v = rng.standard_normal(4)
            m = rep.evaluate(g)
            assert np.dot(m @ u, m @ v) == pytest.approx(np.dot(u, v), abs=1e-10)


SO3 = rs.ContinuousFamily(kind="special_orthogonal", n=3)


class TestTracelessSymmetricImages:
    def test_matches_the_two_einsum_oracle(self):
        # Several full Kronecker blocks and a ragged tail.
        rots = rs.haar_matrices(SO3, rs.stream(41), 20_000)
        assert 20_000 % TS_IMAGE_BLOCK
        images = conjugation_on_traceless_symmetric(rots)
        np.testing.assert_allclose(images, brute_ts_conjugation(rots), rtol=0, atol=1e-14)

    def test_homomorphism_and_orthogonal(self):
        rng = rs.stream(42)
        a = rs.haar_matrices(SO3, rng, 3000)
        b = rs.haar_matrices(SO3, rng, 3000)
        ia = conjugation_on_traceless_symmetric(a)
        ib = conjugation_on_traceless_symmetric(b)
        assert np.max(np.abs(conjugation_on_traceless_symmetric(a @ b) - ia @ ib)) <= 1e-12
        assert orthogonality_defect(ia) <= 1e-12

    def test_kronecker_rows_are_blocked(self):
        rots = rs.haar_matrices(SO3, rs.stream(43), 8192)
        tracemalloc.start()
        try:
            conjugation_on_traceless_symmetric(rots)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20  # an unblocked (8192, 81) Kronecker stack alone is 5.1 MiB


class TestOrbit:
    @pytest.mark.parametrize("kind", ["special_orthogonal", "orthogonal"])
    def test_traceless_symmetric_closed_form_matches_images(self, kind):
        fam = rs.ContinuousFamily(kind=kind, n=3)
        rep = rs.build_named_rep("so3_traceless_symmetric", fam)
        rng = rs.stream(44)
        payload = rs.haar_matrices(fam, rng, 5000)
        images = rep.stack_map(payload)
        rep.stack_map = None  # the closed form builds no image
        for _ in range(5):
            v = random_unit(rng, 5)
            np.testing.assert_allclose(rep.orbit(payload, v), images @ v, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("name, group", [
        ("defining_orthogonal", "o4"), ("sn_sum_zero", "s4"), ("q8_left", "q8"),
    ])
    def test_default_applies_the_images(self, name, group, s4_table, q8_table):
        # Without a closed form, orbit is the image stack applied to v, bit for bit.
        if group == "o4":
            source = rs.ContinuousFamily(kind="orthogonal", n=4)
            payload = rs.haar_matrices(source, rs.stream(45), 1000)
        else:
            source = {"s4": s4_table, "q8": q8_table}[group]
            payload = source.payload
        rep = rs.build_named_rep(name, source)
        v = random_unit(rs.stream(46), rep.dim)
        expected = np.einsum("kij,j->ki", rep.stack_map(payload), v)
        assert np.array_equal(rep.orbit(payload, v), expected)


class TestTableImages:
    def test_defining_images_equal_the_element_stack(self):
        table = rs.enumerate_closure(rs.GroupSpec(kind="dihedral", n=3000))
        rep = rs.build_named_rep("defining_orthogonal", table)
        per_element = np.stack([rep.evaluate(g) for g in table.elements])
        assert np.array_equal(rep.table_images(), per_element)

    def test_traceless_symmetric_images_of_a_finite_rotation_group(self):
        # The rotation group of the cube, order 24, from quarter turns about z and x.
        quarter_z = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        quarter_x = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
        table = rs.enumerate_closure(
            rs.GroupSpec(kind="matrix_generators", generators=(quarter_z, quarter_x))
        )
        assert table.order == 24
        rep = rs.build_named_rep("so3_traceless_symmetric", table)
        per_element = np.stack([rep.evaluate(g) for g in table.elements])
        np.testing.assert_allclose(rep.table_images(), per_element, rtol=0, atol=1e-15)


def raw_permutation_images(table, conjugator=None):
    """Permutation matrices of every table element, optionally conjugated
    by a fixed invertible matrix (which makes them non-orthogonal)."""
    images = permutation_images(table.payload)
    return images if conjugator is None else conjugator @ images @ np.linalg.inv(conjugator)


class TestGramSymmetrize:
    def test_already_orthogonal_is_unchanged(self, s3_table):
        rep = rs.gram_symmetrize(raw_permutation_images(s3_table), s3_table)
        np.testing.assert_allclose(rep.basis_change, np.eye(3), atol=1e-10)

    def test_one_dimensional_sign_rep(self):
        table = rs.enumerate_closure(
            rs.GroupSpec(kind="matrix_generators", generators=(np.array([[-1.0]]),))
        )
        rep = rs.gram_symmetrize(table.payload, table)
        np.testing.assert_allclose(rep.basis_change, np.eye(1), atol=1e-12)
        np.testing.assert_allclose(rep.generator_images()[0], [[-1.0]], atol=1e-12)

    def test_conjugated_permutation_rep_symmetrizes(self, s3_table):
        d = np.diag([1.0, 2.0, 3.0])
        rep = rs.gram_symmetrize(raw_permutation_images(s3_table, d), s3_table)
        for el, p in zip(s3_table.elements, raw_permutation_images(s3_table)):
            m = rep.evaluate(el)
            assert orthogonality_defect(m) <= 1e-10
            # conjugation preserves traces, so the result is similar to the original
            assert np.trace(m) == pytest.approx(np.trace(p), abs=1e-10)

    def test_singular_gram(self, s3_table):
        with pytest.raises(SingularGram):
            rs.gram_symmetrize(np.zeros((s3_table.order, 2, 2)), s3_table)

    def test_explicit_rep_through_config_machinery(self, s3_table):
        d = np.diag([1.0, 2.0, 3.0])
        images = raw_permutation_images(s3_table, d)[s3_table.generators]
        rep = rs.build_named_rep("explicit", s3_table, generator_images=list(images))
        assert homomorphism_defect(rep, n_pairs=36) <= 1e-8

    def test_explicit_table_images_need_no_lookup(self, monkeypatch):
        table = rs.enumerate_closure(rs.GroupSpec(kind="dihedral", n=12))
        d = np.diag([1.0, 3.0])
        raw = table.tree_product(d @ table.payload[table.generators] @ np.linalg.inv(d))
        rep = rs.gram_symmetrize(raw, table)
        by_lookup = rep.stack_map(table.payload)

        def no_lookup(self, stack):
            raise AssertionError("table_images looked payloads up")

        monkeypatch.setattr(rs.FiniteGroupTable, "indices_of", no_lookup)
        assert rep.table_images().tobytes() == by_lookup.tobytes()

    def test_explicit_rejects_non_homomorphism(self, s3_table):
        images = [np.eye(3), 2.0 * np.eye(3)]  # wrong scale breaks the relations
        with pytest.raises(BadParams):
            rs.build_named_rep("explicit", s3_table, generator_images=images)

    def test_tree_product_multiplies_along_the_word(self, s3_table):
        images = raw_permutation_images(s3_table)
        raw = s3_table.tree_product(images[s3_table.generators])
        np.testing.assert_allclose(raw, images, atol=1e-12)


class TestDiagMap:
    def test_basis_vector(self):
        out = rs.diag_map(np.array([1.0, 0.0, 0.0]))
        expected = np.zeros((3, 3))
        expected[0, 0] = 1.0
        np.testing.assert_allclose(out, expected)

    @settings(max_examples=50, deadline=None)
    @given(x=unit_vectors(4))
    def test_rank_one_symmetric_unit_trace(self, x):
        m = rs.diag_map(x)
        np.testing.assert_allclose(m, m.T, atol=1e-14)
        assert np.trace(m) == pytest.approx(1.0, abs=1e-12)
        eigs = np.linalg.eigvalsh(m)
        assert eigs.min() >= -1e-12            # positive semidefinite
        assert np.sum(eigs > 1e-10) == 1       # rank one
        assert np.linalg.norm(m) == pytest.approx(1.0, abs=1e-12)

    def test_equivariance_finite(self, s4_table):
        rep = rs.build_named_rep("sn_permutation", s4_table)
        rng = rs.stream(9)
        for i in rs.groups.haar_indices(s4_table, rng, 10):
            m = rep.evaluate(s4_table.elements[i])
            x = random_unit(rng, 4)
            lhs = rs.diag_map(m @ x)
            rhs = m @ rs.diag_map(x) @ m.T
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_equivariance_continuous(self):
        fam = rs.ContinuousFamily(kind="orthogonal", n=3)
        rep = rs.build_named_rep("defining_orthogonal", fam)
        rng = rs.stream(10)
        for _ in range(10):
            m = rep.evaluate(rs.GroupElement(matrix=rs.haar_matrices(fam, rng, 1)[0]))
            x = random_unit(rng, 3)
            lhs = rs.diag_map(m @ x)
            rhs = m @ rs.diag_map(x) @ m.T
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_rejects_non_unit(self):
        with pytest.raises(NotUnitVector):
            rs.diag_map(np.array([1.0, 1.0]))


class TestMatrixGeometry:
    def test_identity_inner_product(self):
        assert rs.frobenius_inner(np.eye(3), np.eye(3)) == pytest.approx(3.0)

    @settings(max_examples=50, deadline=None)
    @given(x=unit_vectors(3), y=unit_vectors(3))
    def test_squared_overlap_factors_through_diag_map(self, x, y):
        lhs = rs.frobenius_inner(rs.diag_map(x), rs.diag_map(y))
        assert lhs == pytest.approx(float(np.dot(x, y)) ** 2, abs=1e-12)

    def test_invariance_under_simultaneous_conjugation(self, s4_table):
        rep = rs.build_named_rep("sn_permutation", s4_table)
        rng = rs.stream(12)
        a = rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4))
        for i in rs.groups.haar_indices(s4_table, rng, 10):
            m = rep.evaluate(s4_table.elements[i])
            lhs = rs.frobenius_inner(m @ a @ m.T, m @ b @ m.T)
            assert lhs == pytest.approx(rs.frobenius_inner(a, b), abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            rs.frobenius_inner(np.eye(2), np.eye(3))


def conjugate(rep, g, a):
    """rho(g) a rho(g)^T; the images are orthogonal, so this is rho(g) a rho(g)^-1."""
    m = rep.evaluate(g)
    return m @ a @ m.T


class TestConjugationAction:
    def test_identity_matrix_is_fixed(self, s4_table):
        rep = rs.build_named_rep("sn_permutation", s4_table)
        g = s4_table.elements[5]
        np.testing.assert_allclose(conjugate(rep, g, np.eye(4)), np.eye(4))

    def test_identity_element_fixes_everything(self, s4_table):
        rep = rs.build_named_rep("sn_permutation", s4_table)
        rng = rs.stream(15)
        a = rng.standard_normal((4, 4))
        np.testing.assert_allclose(conjugate(rep, s4_table.elements[0], a), a, atol=1e-14)

    def test_frobenius_norm_preserved(self, s4_table):
        rep = rs.build_named_rep("sn_permutation", s4_table)
        rng = rs.stream(16)
        a = rng.standard_normal((4, 4))
        g = s4_table.elements[rs.groups.haar_indices(s4_table, rng, 1)[0]]
        assert np.linalg.norm(conjugate(rep, g, a)) == pytest.approx(
            np.linalg.norm(a), abs=1e-10
        )
