"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `criterion NN PASS/FAIL` line; run with `pytest -s`
to see them inline.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np

import repspect as rs
from repspect.cli import main as cli_main

from conftest import (
    brute_commutant,
    cyclic_table,
    max_principal_angle,
    random_unit,
    span_columns,
    symmetric_table,
)


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d} FAIL - {desc}")
        raise
    print(f"criterion {num:02d} PASS - {desc}")


def sum_zero_rep(n):
    return rs.build_named_rep("sn_sum_zero", symmetric_table(n))


def finite_catalog_cases():
    """(label, representation, stated commutant dim) for the finite catalog."""
    cases = [("sn_permutation(3)", rs.build_named_rep("sn_permutation", symmetric_table(3)), 2)]
    for n in range(3, 7):
        cases.append((f"sn_sum_zero({n})", sum_zero_rep(n), 1))
    for n in range(3, 9):
        cases.append((f"cyclic_rotation({n})", rs.build_named_rep("cyclic_rotation", cyclic_table(n)), 2))
    q8 = rs.enumerate_closure(rs.GroupSpec(kind="quaternion8"))
    cases.append(("q8_left", rs.build_named_rep("q8_left", q8), 4))
    return cases


def orbit_sum_cases():
    """Representations and base vectors for the exact orbit-sum identities."""
    rng = rs.stream(2024)
    cases = []
    for n in range(3, 7):
        rep = sum_zero_rep(n)
        bases = [random_unit(rng, rep.dim) for _ in range(10)]
        if n == 3:  # base point with a nontrivial stabilizer
            ambient = np.array([1.0, 1.0, -2.0]) / np.sqrt(6.0)
            bases.append(rs.sum_zero_basis(3) @ ambient)
        cases.append((f"sn_sum_zero({n})", rep, bases))
    for n in range(3, 9):
        rep = rs.build_named_rep("cyclic_rotation", cyclic_table(n))
        cases.append((f"cyclic_rotation({n})", rep, [random_unit(rng, 2) for _ in range(10)]))
    q8 = rs.enumerate_closure(rs.GroupSpec(kind="quaternion8"))
    rep = rs.build_named_rep("q8_left", q8)
    cases.append(("q8_left", rep, [random_unit(rng, 4) for _ in range(10)]))
    return cases


def test_criterion_01_factorial_cosine_identity():
    with criterion(1, "sum-zero cosine power sums equal n!/(n-1) for n=3..7"):
        rng = rs.stream(1)
        start = time.monotonic()
        for n in range(3, 8):
            expected = math.factorial(n) / (n - 1)
            for _ in range(20):
                x = rng.standard_normal(n)
                x -= x.mean()
                assert abs(rs.sn_cosine_identity(x) - expected) <= 1e-9
        assert time.monotonic() - start <= 30.0


def test_criterion_02_exact_group_sums():
    with criterion(2, "orbit group sums equal |G|/n across the finite catalog"):
        for label, rep, bases in orbit_sum_cases():
            expected = rep.group.order / rep.dim
            for v in bases:
                om = rs.exact_finite_orbit_moments(rep, v)
                assert abs(om.group_sum - expected) <= 1e-9, label


def test_criterion_03_double_sum_equals_single_sum():
    with criterion(3, "pair-averaged orbit sums collapse to single averages"):
        for label, rep, bases in orbit_sum_cases():
            for v in bases:
                om = rs.exact_finite_orbit_moments(rep, v)
                assert om.double_sum is not None
                assert abs(om.double_sum - om.single_sum) <= 1e-10, label


def test_criterion_04_monte_carlo_sphere_and_orbit_moments():
    with criterion(4, "sampled E<x,y>^2 matches 1/n at N=200000 within 4 stderr"):
        n_pairs = 200_000
        for n in range(2, 7):
            fam = rs.ContinuousFamily(kind="orthogonal", n=n)
            rep = rs.build_named_rep("defining_orthogonal", fam)
            sampler = rs.make_sampler(rs.uniform_sphere(), rep)
            start = time.monotonic()
            est = rs.estimate_squared_overlap(sampler, n_pairs, seed=rs.substream(400, n))
            assert time.monotonic() - start <= 60.0
            assert abs(est.value - 1.0 / n) <= 4.0 * est.stderr, f"sphere R^{n}"
        fam = rs.ContinuousFamily(kind="special_orthogonal", n=3)
        rep = rs.build_named_rep("so3_traceless_symmetric", fam)
        for tag, base in (("axis", np.eye(5)[4]), ("generic", random_unit(rs.stream(401), 5))):
            sampler = rs.make_sampler(rs.orbit_measure(base), rep)
            start = time.monotonic()
            est = rs.estimate_squared_overlap(sampler, n_pairs, seed=rs.substream(402, hash(tag) % 100))
            assert time.monotonic() - start <= 60.0
            assert abs(est.value - 0.2) <= 4.0 * est.stderr, tag


def test_criterion_05_invariant_subsphere_pushes_the_moment_up():
    with criterion(5, "subspheres of invariant subspaces exceed 1/n as predicted"):
        for n in range(3, 6):
            rep = rs.build_named_rep("sn_permutation", symmetric_table(n))
            diag = np.ones((n, 1)) / np.sqrt(n)
            est = rs.estimate_squared_overlap(
                rs.make_sampler(rs.uniform_subsphere(diag), rep), 20_000,
                seed=rs.substream(500, n),
            )
            assert abs(est.value - 1.0) <= 1e-12
            assert est.value > 1.0 / n
            zero_sum = rs.sum_zero_basis(n).T
            est2 = rs.estimate_squared_overlap(
                rs.make_sampler(rs.uniform_subsphere(zero_sum), rep), 200_000,
                seed=rs.substream(501, n),
            )
            assert abs(est2.value - 1.0 / (n - 1)) <= 4.0 * est2.stderr
            assert est2.value > 1.0 / n


def test_criterion_06_discrete_lower_bound_and_brute_force():
    with criterion(6, "200 random discrete measures: exact overlap = 1/n + gap >= 0"):
        rng = rs.stream(600)
        for trial in range(200):
            n = 2 + trial % 4
            k = int(rng.integers(1, 9))
            pts = np.stack([random_unit(rng, n) for _ in range(k)])
            pr = rng.dirichlet(np.ones(k))
            pr = pr / pr.sum()
            spec = rs.discrete_measure(pts, pr)
            est, m = rs.exact_discrete_overlap(spec)
            brute = sum(
                float(pr[i]) * float(pr[j]) * float(np.dot(pts[i], pts[j])) ** 2
                for i in range(k)
                for j in range(k)
            )
            assert abs(est.value - brute) <= 1e-12
            check = rs.lower_bound_check(m)
            assert check.gap >= -1e-12
            assert abs(est.value - (1.0 / n + check.gap)) <= 1e-12


def test_criterion_07_commutant_oracle_equivalence():
    with criterion(7, "generator nullspaces match full-element brute force"):
        for label, rep, stated_dim in finite_catalog_cases():
            cb = rs.commutant_basis(rep, source="generators")
            oracle = brute_commutant(list(rep.table_images()))
            assert cb.dim == stated_dim, label
            assert oracle.shape[1] == stated_dim, label
            assert max_principal_angle(span_columns(cb.basis), oracle) <= 1e-7, label


def test_criterion_08_type_classification_and_witness():
    with criterion(8, "R/C/H classification and reducibility witness"):
        verdicts = {}
        for label, rep in (
            ("sn_sum_zero(5)", sum_zero_rep(5)),
            ("cyclic_rotation(7)", rs.build_named_rep("cyclic_rotation", cyclic_table(7))),
            ("q8_left", rs.build_named_rep(
                "q8_left", rs.enumerate_closure(rs.GroupSpec(kind="quaternion8")))),
        ):
            cb = rs.split_symmetric_skew(rs.commutant_basis(rep))
            verdicts[label] = rs.classify_and_decide(cb).type
        assert verdicts == {
            "sn_sum_zero(5)": "R",
            "cyclic_rotation(7)": "C",
            "q8_left": "H",
        }
        rep = rs.build_named_rep("sn_permutation", symmetric_table(4))
        cb = rs.split_symmetric_skew(rs.commutant_basis(rep))
        assert not rs.classify_and_decide(cb).irreducible
        w = rs.witness_invariant_subspace(cb, rep)
        assert w.residual <= 1e-6
        diag = np.ones((4, 1)) / 2.0
        if w.m == 1:
            assert max_principal_angle(w.basis, diag) <= 1e-6
        else:
            assert w.m == 3
            assert np.linalg.norm(w.basis.T @ diag) <= 1e-6


def test_criterion_09_sphere_coordinate_moments():
    with criterion(9, "uniform-sphere coordinate moments are isotropic in R^4"):
        fam = rs.ContinuousFamily(kind="orthogonal", n=4)
        rep = rs.build_named_rep("defining_orthogonal", fam)
        smm = rs.coordinate_second_moments(
            rs.make_sampler(rs.uniform_sphere(), rep), 200_000, seed=900
        )
        diag = np.diag_indices(4)
        off = ~np.eye(4, dtype=bool)
        assert np.all(np.abs(smm.entries[diag] - 0.25) <= 4.0 * smm.stderr[diag])
        assert np.all(np.abs(smm.entries[off]) <= 4.0 * smm.stderr[off])


def test_criterion_10_expectation_projector_identity():
    with criterion(10, "E(x) equals E(P x) for orbit measures of the catalog"):
        rng = rs.stream(1000)
        # exact table averages for the finite catalog
        fixed_point_free = []
        for n in (3, 4):
            fixed_point_free.append((f"sn_sum_zero({n})", sum_zero_rep(n), False))
        for n in (3, 4, 5):
            rep = rs.build_named_rep("sn_permutation", symmetric_table(n))
            fixed_point_free.append((f"sn_permutation({n})", rep, None))
        for n in (3, 5, 8):
            rep = rs.build_named_rep("cyclic_rotation", cyclic_table(n))
            fixed_point_free.append((f"cyclic_rotation({n})", rep, False))
        q8 = rs.enumerate_closure(rs.GroupSpec(kind="quaternion8"))
        fixed_point_free.append(("q8_left", rs.build_named_rep("q8_left", q8), False))
        for label, rep, has_fixed in fixed_point_free:
            spec = rs.orbit_measure(random_unit(rng, rep.dim))
            chk = rs.expectation_identity_check(rep, spec)
            assert chk.exact, label
            assert chk.residual <= 1e-10, label
            if has_fixed is False:
                assert chk.mean_norm <= 1e-10, label
        # sampled averages for the continuous catalog
        continuous = [
            ("so3_traceless_symmetric", rs.build_named_rep(
                "so3_traceless_symmetric", rs.ContinuousFamily(kind="special_orthogonal", n=3))),
            ("defining_orthogonal(2)", rs.build_named_rep(
                "defining_orthogonal", rs.ContinuousFamily(kind="orthogonal", n=2))),
            ("defining_orthogonal(3)", rs.build_named_rep(
                "defining_orthogonal", rs.ContinuousFamily(kind="orthogonal", n=3))),
        ]
        for i, (label, rep) in enumerate(continuous):
            spec = rs.orbit_measure(random_unit(rng, rep.dim))
            chk = rs.expectation_identity_check(
                rep, spec, n_samples=50_000, seed=rs.substream(1001, i)
            )
            assert chk.residual <= chk.residual_band, label
            assert chk.mean_norm <= chk.mean_norm_band, label


def test_criterion_11_skew_projection_vanishes():
    with criterion(11, "squared unit vectors have no skew commutant component"):
        reps = [
            rs.build_named_rep("q8_left", rs.enumerate_closure(rs.GroupSpec(kind="quaternion8"))),
            rs.build_named_rep("cyclic_rotation", cyclic_table(5)),
        ]
        rng = rs.stream(1100)
        for rep in reps:
            cb = rs.split_symmetric_skew(rs.commutant_basis(rep))
            skew = cb.basis[cb.sym_dim:]
            assert skew, rep.catalog_id
            for _ in range(50):
                m = rs.diag_map(random_unit(rng, rep.dim))
                proj = math.sqrt(sum(rs.frobenius_inner(b, m) ** 2 for b in skew))
                assert proj <= 1e-10


def test_criterion_12_report_determinism(tmp_path):
    with criterion(12, "identical config and seed produce byte-identical reports"):
        doc = {
            "group": {"kind": "symmetric", "n": 4},
            "representation": {"name": "sn_sum_zero"},
            "measures": [
                {"kind": "orbit", "base": [1.0, 1.0, -2.0, 0.0]},
                {"kind": "uniform_sphere"},
            ],
            "samples": 4096,
            "seed": 20_240_601,
            "workers": 2,
        }
        paths = []
        for run in (1, 2):
            doc_run = dict(doc, outputs={"report": str(tmp_path / f"report{run}.json")})
            cfg_path = tmp_path / f"config{run}.json"
            cfg_path.write_text(json.dumps(doc_run))
            assert cli_main(["analyze", "--config", str(cfg_path)]) == 0
            paths.append(tmp_path / f"report{run}.json")
        b1, b2 = paths[0].read_bytes(), paths[1].read_bytes()
        assert b1 == b2
        assert len(b1) > 0
