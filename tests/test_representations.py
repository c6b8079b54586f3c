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
    conjugation_on_traceless_symmetric,
    homomorphism_defect,
    permutation_images,
    traceless_symmetric_basis,
)
from repspect.groups import orthogonality_defect

from conftest import brute_ts_conjugation, cyclic_table, random_unit


def image_of(rep, payload):
    """The image of one element, from its payload."""
    return rep.stack_map(np.asarray(payload)[None])[0]


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
        swap = next(p for p in s3_table.payload if tuple(p) == (1, 0, 2))
        m = image_of(rep, swap)
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
        np.testing.assert_allclose(image_of(rep, np.eye(3)), np.eye(5), atol=1e-12)

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

    def test_permutation_entries_are_marked(self, s4_table, q8_table):
        # Only the two permutation entries are marked: sn_permutation's
        # images are P(g), sn_sum_zero's are H P(g) H^T with H its Helmert
        # rows; no other entry carries the mark or rows.
        perm = rs.build_named_rep("sn_permutation", s4_table)
        assert perm.permutation and perm.sum_zero_rows is None
        np.testing.assert_array_equal(perm.table_images(), permutation_images(s4_table.payload))
        sum_zero = rs.build_named_rep("sn_sum_zero", s4_table)
        h = sum_zero.sum_zero_rows
        assert sum_zero.permutation and h.tobytes() == rs.sum_zero_basis(4).tobytes()
        np.testing.assert_allclose(h @ permutation_images(s4_table.payload) @ h.T,
                                   sum_zero.table_images(), rtol=0, atol=1e-15)
        for rep in (rs.build_named_rep("q8_left", q8_table),
                    rs.build_named_rep("explicit", s4_table, generator_images=list(
                        permutation_images(s4_table.generator_payloads)))):
            assert not rep.permutation and rep.sum_zero_rows is None

    def test_unknown_name(self, s3_table):
        with pytest.raises(UnknownName):
            rs.build_named_rep("regular", s3_table)

    def test_bad_group_for_name(self, s3_table, q8_table):
        with pytest.raises(BadParams):
            rs.build_named_rep("q8_left", s3_table)
        with pytest.raises(BadParams):
            rs.build_named_rep("sn_permutation", q8_table)
        # A table-free permutation group has no table to multiply images along.
        s3 = rs.permutation_group(rs.GroupSpec(kind="symmetric", n=3))
        with pytest.raises(BadParams):
            rs.build_named_rep("explicit", s3, generator_images=[np.eye(2)] * 2)
        with pytest.raises(BadParams):
            rs.build_named_rep("sn_permutation", s3).table_images()

    @pytest.mark.parametrize("name,fixture_n", [
        ("sn_permutation", 4),
        ("sn_sum_zero", 4),
    ])
    def test_homomorphism_on_every_cayley_edge(self, name, fixture_n):
        table = rs.enumerate_closure(rs.GroupSpec(kind="symmetric", n=fixture_n))
        rep = rs.build_named_rep(name, table)
        assert homomorphism_defect(rep) <= 1e-8

    def test_a_wrong_image_of_any_element_is_caught(self, s4_table):
        # Every element of S4 is on a Cayley edge, so negating any one
        # image shows; 100 sampled pairs of the 576 could miss it.
        for element in range(s4_table.order):
            rep = rs.build_named_rep("sn_permutation", s4_table)
            rep.table_images()[element] *= -1.0
            assert homomorphism_defect(rep) >= 1.0

    def test_homomorphism_matrix_groups(self, q8_table):
        for rep in (
            rs.build_named_rep("q8_left", q8_table),
            rs.build_named_rep("cyclic_rotation", cyclic_table(5)),
        ):
            assert homomorphism_defect(rep) <= 1e-8

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
            lhs = image_of(rep, a @ b)
            rhs = image_of(rep, a) @ image_of(rep, b)
            assert np.max(np.abs(lhs - rhs)) <= 1e-8

    def test_scalar_product_invariance(self, s4_table):
        rep = rs.build_named_rep("sn_permutation", s4_table)
        rng = rs.stream(5)
        for i in rng.integers(s4_table.order, size=20):
            u = rng.standard_normal(4)
            v = rng.standard_normal(4)
            m = image_of(rep, s4_table.payload[i])
            assert np.dot(m @ u, m @ v) == pytest.approx(np.dot(u, v), abs=1e-10)


SO3 = rs.ContinuousFamily(kind="special_orthogonal", n=3)


class TestTracelessSymmetricImages:
    def test_matches_the_two_einsum_oracle(self):
        rots = rs.haar_matrices(SO3, rs.stream(41), 20_000)
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

    @pytest.mark.parametrize("layout", ["haar", "row_major"])
    @pytest.mark.parametrize("count", [1, 2, 5000])
    @pytest.mark.parametrize("kind", ["special_orthogonal", "orthogonal"])
    def test_traceless_symmetric_orbit_is_the_three_term_formula_bit_for_bit(
        self, kind, count, layout
    ):
        # The library sums each entry of S = R V R^T over three rows in one
        # einsum and writes the five coordinates in place; the bits are those
        # of the three-term products and the formulas below, entry by entry,
        # on Haar draws (one row per entry of R) and on a row-major stack.
        fam = rs.ContinuousFamily(kind=kind, n=3)
        rep = rs.build_named_rep("so3_traceless_symmetric", fam)
        rots = rs.haar_matrices(fam, rs.stream(48, count), count)
        if layout == "row_major":
            rots = np.ascontiguousarray(rots)
        v = random_unit(rs.stream(49), 5)
        r = np.moveaxis(rots, 0, 2)
        rv = np.matmul(np.einsum("a,aij->ij", v, traceless_symmetric_basis()), r)

        def entry(i, j):
            a, b = rv[i], r[j]
            return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]

        s00, s11, s22 = entry(0, 0), entry(1, 1), entry(2, 2)
        sqrt2, sqrt6 = np.sqrt(2.0), np.sqrt(6.0)
        expected = np.stack([
            sqrt2 * entry(0, 1),
            sqrt2 * entry(0, 2),
            sqrt2 * entry(1, 2),
            (s00 - s11) / sqrt2,
            (s00 + s11 - 2.0 * s22) / sqrt6,
        ], axis=1)
        assert rep.orbit(rots, v).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("name, group", [
        ("defining_orthogonal", "o4"), ("cyclic_rotation", "c6"), ("q8_left", "q8"),
    ])
    def test_default_applies_the_images(self, name, group, q8_table):
        # Without a closed form, orbit is the image stack applied to v, bit for bit.
        if group == "o4":
            source = rs.ContinuousFamily(kind="orthogonal", n=4)
            payload = rs.haar_matrices(source, rs.stream(45), 1000)
        else:
            source = {"c6": cyclic_table(6), "q8": q8_table}[group]
            payload = source.payload
        rep = rs.build_named_rep(name, source)
        v = random_unit(rs.stream(46), rep.dim)
        expected = np.einsum("kij,j->ki", rep.stack_map(payload), v)
        assert np.array_equal(rep.orbit(payload, v), expected)


class TestTableImages:
    def test_defining_images_equal_the_element_stack(self):
        table = rs.enumerate_closure(rs.GroupSpec(kind="dihedral", n=3000))
        rep = rs.build_named_rep("defining_orthogonal", table)
        per_element = np.stack([image_of(rep, p) for p in table.payload])
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
        per_element = np.stack([image_of(rep, p) for p in table.payload])
        np.testing.assert_allclose(rep.table_images(), per_element, rtol=0, atol=1e-15)


class TestGeneratorImages:
    @pytest.mark.parametrize("name,kind,n", [
        ("defining_orthogonal", "orthogonal", 4),
        ("defining_orthogonal", "special_orthogonal", 2),
        ("so3_traceless_symmetric", "special_orthogonal", 3),
    ])
    def test_continuous_images_map_the_topological_generators(self, name, kind, n):
        family = rs.ContinuousFamily(kind=kind, n=n)
        rep = rs.build_named_rep(name, family)
        expected = rep.stack_map(family.generator_payloads)
        assert rep.generator_images().tobytes() == expected.tobytes()
        assert rep.generator_images().shape == expected.shape


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
        for payload, p in zip(s3_table.payload, raw_permutation_images(s3_table)):
            m = image_of(rep, payload)
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
        assert homomorphism_defect(rep) <= 1e-8

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
        for i in rng.integers(s4_table.order, size=10):
            m = image_of(rep, s4_table.payload[i])
            x = random_unit(rng, 4)
            lhs = rs.diag_map(m @ x)
            rhs = m @ rs.diag_map(x) @ m.T
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_equivariance_continuous(self):
        fam = rs.ContinuousFamily(kind="orthogonal", n=3)
        rep = rs.build_named_rep("defining_orthogonal", fam)
        rng = rs.stream(10)
        for _ in range(10):
            m = image_of(rep, rs.haar_matrices(fam, rng, 1)[0])
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
        for i in rng.integers(s4_table.order, size=10):
            m = image_of(rep, s4_table.payload[i])
            lhs = rs.frobenius_inner(m @ a @ m.T, m @ b @ m.T)
            assert lhs == pytest.approx(rs.frobenius_inner(a, b), abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            rs.frobenius_inner(np.eye(2), np.eye(3))


def conjugate(rep, g, a):
    """rho(g) a rho(g)^T for the payload g; the images are orthogonal, so this
    is rho(g) a rho(g)^-1."""
    m = image_of(rep, g)
    return m @ a @ m.T


class TestConjugationAction:
    def test_identity_matrix_is_fixed(self, s4_table):
        rep = rs.build_named_rep("sn_permutation", s4_table)
        g = s4_table.payload[5]
        np.testing.assert_allclose(conjugate(rep, g, np.eye(4)), np.eye(4))

    def test_identity_element_fixes_everything(self, s4_table):
        rep = rs.build_named_rep("sn_permutation", s4_table)
        rng = rs.stream(15)
        a = rng.standard_normal((4, 4))
        np.testing.assert_allclose(conjugate(rep, s4_table.payload[0], a), a, atol=1e-14)

    def test_frobenius_norm_preserved(self, s4_table):
        rep = rs.build_named_rep("sn_permutation", s4_table)
        rng = rs.stream(16)
        a = rng.standard_normal((4, 4))
        g = s4_table.payload[rng.integers(s4_table.order, size=1)[0]]
        assert np.linalg.norm(conjugate(rep, g, a)) == pytest.approx(
            np.linalg.norm(a), abs=1e-10
        )
