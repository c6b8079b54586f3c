import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import repspect as rs
from repspect.cli import main as cli_main
from repspect.errors import BadParams, ParseError, TooLarge, UnknownName, ValidationError, VerdictConflict
from repspect.groups import orthogonality_defect
from repspect.moments import MomentEstimate, SecondMomentMatrix
from repspect.report import (
    Tolerances,
    _cross_check,
    MeasureResult,
    report_document,
    render_text,
    validate_config,
)
from repspect.representations import CATALOG


def minimal_config(**overrides):
    doc = {
        "group": {"kind": "symmetric", "n": 3},
        "representation": {"name": "sn_sum_zero"},
    }
    doc.update(overrides)
    return json.dumps(doc)


class TestParseConfig:
    def test_minimal_defaults(self):
        cfg = rs.parse_config(minimal_config())
        assert cfg.samples == 100_000
        assert cfg.workers == 1
        assert cfg.seed == 0
        assert cfg.format == "json"
        assert [m.kind for m in cfg.measures] == ["uniform_sphere"]

    def test_a_path_is_read_and_a_str_is_json_text(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(minimal_config(seed=5))
        assert rs.parse_config(path) == rs.parse_config(minimal_config(seed=5))
        with pytest.raises(ParseError, match="not valid JSON"):
            rs.parse_config(str(path))
        missing = tmp_path / "missing.json"
        with pytest.raises(ParseError, match=re.escape(f"cannot read config '{missing}'")):
            rs.parse_config(missing)

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_non_finite_numbers_rejected(self, token):
        text = minimal_config(samples=2000).replace("2000", token)
        with pytest.raises(ParseError, match=f"non-finite number {token}"):
            rs.parse_config(text)

    @pytest.mark.parametrize("fields, where", [
        ({"tolerances": {"band_sigma": math.inf, "conflict_sigma": math.nan},
          "measures": [{"kind": "orbit", "base": [math.nan, 1.0]}]}, "base"),
        ({"tolerances": {"band_sigma": math.inf}}, "band_sigma"),
        ({"tolerances": {"conflict_sigma": math.nan}}, "conflict_sigma"),
        ({"tolerances": {"nullspace_rel": math.inf}}, "nullspace_rel"),
        ({"measures": [{"kind": "uniform_subsphere", "basis": [[1.0, math.inf]]}]}, "basis"),
        ({"measures": [{"kind": "discrete", "points": [[1.0, -math.inf]], "probs": [1.0]}]},
         "points"),
        ({"measures": [{"kind": "discrete", "points": [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]],
                        "probs": [math.nan, 0.5, 0.5]}]}, "probs"),
        ({"representation": {"name": "explicit", "generator_images": [[[math.nan]], [[1.0]]]}},
         "generator_images"),
        ({"group": {"kind": "matrix_generators", "matrices": [[[1.0, 0.0], [0.0, math.nan]]]},
          "representation": {"name": "defining_orthogonal"}}, "group.matrices"),
    ], ids=["orbit_base_and_tolerances", "band_sigma", "conflict_sigma", "nullspace_rel",
            "subsphere_basis", "points", "probs", "explicit_image", "group_matrices"])
    def test_validate_config_names_the_non_finite_field(self, fields, where):
        # The dict entry point reads no JSON, so it checks finiteness itself.
        doc = dict({"group": {"kind": "symmetric", "n": 3},
                    "representation": {"name": "sn_sum_zero"}}, **fields)
        with pytest.raises(ValidationError, match=f"{re.escape(where)}.*finite"):
            validate_config(doc)

    def test_parse_error_reports_position(self):
        with pytest.raises(ParseError, match=r"line 1"):
            rs.parse_config("{not json")

    def test_probabilities_must_sum_to_one(self):
        cfg_text = minimal_config(
            measures=[{"kind": "discrete", "points": [[1.0, 0.0]], "probs": [0.9]}]
        )
        with pytest.raises(ValidationError, match="measures"):
            rs.parse_config(cfg_text)

    def test_unknown_representation(self):
        with pytest.raises(ValidationError, match="representation"):
            rs.parse_config(json.dumps({
                "group": {"kind": "symmetric", "n": 3},
                "representation": {"name": "spin_7"},
            }))

    def test_unknown_top_level_field(self):
        with pytest.raises(ValidationError, match="bogus"):
            rs.parse_config(minimal_config(bogus=1))

    def test_unknown_group_kind(self):
        with pytest.raises(ValidationError, match="kind"):
            rs.parse_config(json.dumps({
                "group": {"kind": "unitary", "n": 3},
                "representation": {"name": "defining_orthogonal"},
            }))

    def test_measure_dimension_checked(self):
        cfg_text = minimal_config(measure={"kind": "orbit", "base": [1.0, 0.0, 0.0, 0.0]})
        with pytest.raises(ValidationError, match="base"):
            rs.parse_config(cfg_text)

    def test_ambient_sum_zero_base_is_mapped(self):
        cfg = rs.parse_config(minimal_config(
            measure={"kind": "orbit", "base": [1.0, 1.0, -2.0]}
        ))
        base = cfg.measures[0].base
        assert base.shape == (2,)
        assert np.linalg.norm(base) == pytest.approx(1.0, abs=1e-12)

    def test_orbit_base_normalized_on_load(self):
        cfg = rs.parse_config(json.dumps({
            "group": {"kind": "cyclic", "n": 4},
            "representation": {"name": "cyclic_rotation"},
            "measure": {"kind": "orbit", "base": [3.0, 0.0]},
        }))
        np.testing.assert_allclose(cfg.measures[0].base, [1.0, 0.0])

    def test_one_based_permutations_accepted(self):
        cfg = rs.parse_config(json.dumps({
            "group": {"kind": "permutation_generators", "generators": [[2, 1, 3]]},
            "representation": {"name": "sn_permutation"},
        }))
        assert cfg.group.generators == ((1, 0, 2),)

    def test_env_seed_is_lowest_priority(self, monkeypatch):
        monkeypatch.setenv("REPSPECT_SEED", "77")
        assert rs.parse_config(minimal_config()).seed == 77
        assert rs.parse_config(minimal_config(seed=5)).seed == 5
        monkeypatch.setenv("REPSPECT_SEED", "not-a-number")
        with pytest.raises(ValidationError, match="REPSPECT_SEED"):
            rs.parse_config(minimal_config())

    def test_tolerance_overrides(self):
        cfg = rs.parse_config(minimal_config(tolerances={"band_sigma": 5.0}))
        assert cfg.tolerances.band_sigma == 5.0
        with pytest.raises(ValidationError, match="tolerance"):
            rs.parse_config(minimal_config(tolerances={"sigma": 1.0}))

    def test_samples_validation(self):
        with pytest.raises(ValidationError, match="samples"):
            rs.parse_config(minimal_config(samples=1))

    @pytest.mark.parametrize("overrides", [
        {"seed": True},
        {"workers": True},
        {"samples": True},
        {"group": {"kind": "symmetric", "n": True}},
        {"group": {"kind": "permutation_generators", "generators": [[True, False]]}},
        {"tolerances": {"closure_cap": True}},
        {"tolerances": {"closure_cap": 2.7}},
        {"tolerances": {"closure_cap": 100.0}},
        {"tolerances": {"band_sigma": True}},
    ])
    def test_booleans_and_fractions_are_not_integers(self, overrides, tmp_path, capsys):
        doc = {"group": {"kind": "symmetric", "n": 3}, "representation": {"name": "sn_permutation"}}
        doc.update(overrides)
        with pytest.raises(ValidationError):
            rs.parse_config(json.dumps(doc))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        assert cli_main(["analyze", "--config", str(path)]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("group,rep", [
        ({"kind": "symmetric", "n": 3}, {"name": "sn_permutation", "n": 4}),
        ({"kind": "symmetric", "n": 3}, {"name": "sn_permutation", "n": "3"}),
        ({"kind": "dihedral", "n": 3}, {"name": "defining_orthogonal", "n": 5}),
        ({"kind": "cyclic", "n": 4}, {"name": "cyclic_rotation", "n": 4}),
        ({"kind": "quaternion8"}, {"name": "q8_left", "n": 8}),
        ({"kind": "special_orthogonal", "n": 3}, {"name": "so3_traceless_symmetric", "n": 5}),
    ])
    def test_representation_n_must_match_payload_degree(self, group, rep):
        with pytest.raises(ValidationError, match="n="):
            rs.parse_config(json.dumps({"group": group, "representation": rep}))

    def test_representation_n_equal_to_payload_degree(self):
        for group, rep in (
            ({"kind": "dihedral", "n": 3}, {"name": "defining_orthogonal", "n": 2}),
            ({"kind": "symmetric", "n": 3}, {"name": "sn_sum_zero", "n": 3}),
        ):
            cfg = rs.parse_config(json.dumps({"group": group, "representation": rep}))
            assert cfg.rep_n == rep["n"]

    def test_group_matrices_must_be_matrices(self):
        with pytest.raises(ValidationError, match="square"):
            rs.parse_config(json.dumps({
                "group": {"kind": "matrix_generators", "matrices": [5]},
                "representation": {"name": "defining_orthogonal"},
            }))

    def test_parsing_is_deterministic(self):
        text = minimal_config(measure={"kind": "orbit", "base": [1.0, 1.0, -2.0]})
        a, b = rs.parse_config(text), rs.parse_config(text)
        assert a.samples == b.samples and a.seed == b.seed
        np.testing.assert_array_equal(a.measures[0].base, b.measures[0].base)


AGREEMENT_GROUPS = {
    "symmetric-3": {"kind": "symmetric", "n": 3},
    "symmetric-1": {"kind": "symmetric", "n": 1},
    "cyclic-4": {"kind": "cyclic", "n": 4},
    "dihedral-3": {"kind": "dihedral", "n": 3},
    "quaternion8": {"kind": "quaternion8"},
    "orthogonal-3": {"kind": "orthogonal", "n": 3},
    "special_orthogonal-2": {"kind": "special_orthogonal", "n": 2},
    "special_orthogonal-3": {"kind": "special_orthogonal", "n": 3},
    "permutation_generators": {
        "kind": "permutation_generators", "generators": [[1, 2, 3, 0], [1, 0, 2, 3]],
    },
    "matrix_generators-1": {"kind": "matrix_generators", "matrices": [[[-1.0]]]},
    "matrix_generators-2": {
        "kind": "matrix_generators", "matrices": [[[0.0, -1.0], [1.0, 0.0]]],
    },
    "matrix_generators-3": {
        "kind": "matrix_generators",
        "matrices": [[[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]],
    },
}


def agreement_group(node):
    kind = node["kind"]
    if kind in ("orthogonal", "special_orthogonal"):
        return rs.ContinuousFamily(kind=kind, n=node["n"])
    gens = tuple(node.get("generators", node.get("matrices", ())))
    return rs.enumerate_closure(rs.GroupSpec(kind=kind, n=node.get("n"), generators=gens))


@pytest.mark.parametrize("group_label", sorted(AGREEMENT_GROUPS))
@pytest.mark.parametrize("name", sorted(CATALOG))
def test_validation_accepts_what_construction_accepts(name, group_label):
    """Parse-time checks and build_named_rep agree on every catalog pair."""
    node = AGREEMENT_GROUPS[group_label]
    group = agreement_group(node)
    images = None
    rep_node = {"name": name}
    if name == "explicit":
        # the trivial representation, one 1x1 image per generator
        n_gens = len(group.generators) if isinstance(group, rs.FiniteGroupTable) else 1
        images = [[[1.0]]] * n_gens
        rep_node["generator_images"] = images
    try:
        rep = rs.build_named_rep(name, group, generator_images=images)
    except (BadParams, UnknownName):
        with pytest.raises(ValidationError):
            validate_config({"group": node, "representation": rep_node})
        return
    # the parsed dimension is the one a discrete point must have
    for length, accepted in ((rep.dim, True), (rep.dim + 1, False)):
        point = [1.0] + [0.0] * (length - 1)
        doc = {
            "group": node,
            "representation": rep_node,
            "measure": {"kind": "discrete", "points": [point], "probs": [1.0]},
        }
        if accepted:
            validate_config(doc)
        else:
            with pytest.raises(ValidationError, match="points"):
                validate_config(doc)


class TestRunAnalysis:
    @pytest.mark.parametrize("group,rep", [
        ({"kind": "symmetric", "n": 3}, "sn_permutation"),
        ({"kind": "orthogonal", "n": 3}, "defining_orthogonal"),
    ])
    def test_unknown_rep_name_raises_unknown_name(self, group, rep):
        # The group is chosen before the representation is built; a name
        # outside the catalog reaches build_named_rep and is refused there.
        cfg = rs.parse_config(json.dumps({"group": group, "representation": {"name": rep}}))
        with pytest.raises(UnknownName):
            rs.run_analysis(cfg._replace(rep_name="no_such_entry"))

    def test_large_degree_permutation_refused_before_any_square_array(self):
        # One transposition on 3000 points: order 2, so the orbital basis
        # has dimension at least 4.5e6.  Building the group and the
        # representation holds nothing of size n^2 (an n x n identity alone
        # is 72 MB), so the refusal comes at a few MB.
        transposition = [1, 0] + list(range(2, 3000))
        cfg = rs.parse_config(json.dumps({
            "group": {"kind": "permutation_generators", "generators": [transposition]},
            "representation": {"name": "sn_permutation"},
        }))
        tracemalloc.start()
        try:
            with pytest.raises(TooLarge, match="dimension at least"):
                rs.run_analysis(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    @pytest.mark.parametrize("seed", [53294, 66312, 99868, 157098])
    def test_orthogonal_2_is_real_type_at_seeds_drawing_only_rotations(self, seed):
        cfg = rs.parse_config(json.dumps({
            "group": {"kind": "orthogonal", "n": 2},
            "representation": {"name": "defining_orthogonal"},
            "measures": [{"kind": "uniform_sphere"}],
            "samples": 2000,
            "seed": seed,
        }))
        report = rs.run_analysis(cfg)
        verdict = report.verdict
        assert (verdict.irreducible, verdict.type, verdict.commutant_dim) == (True, "R", 1)
        assert np.linalg.det(report.commutant.constraints[0]) == pytest.approx(-1.0)

    def test_o64_end_to_end_is_fast_and_small(self):
        # The commutant is one (3 n^2, n) column stack, 24 MiB at n = 64.
        cfg = rs.parse_config(json.dumps({
            "group": {"kind": "orthogonal", "n": 64},
            "representation": {"name": "defining_orthogonal"},
            "measures": [{"kind": "orbit", "base": np.cos(np.arange(64.0)).tolist()},
                         {"kind": "uniform_sphere"}],
            "samples": 1000,
            "seed": 1,
        }))
        start = time.perf_counter()
        tracemalloc.start()
        try:
            report = rs.run_analysis(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        elapsed = time.perf_counter() - start
        assert (report.verdict.irreducible, report.verdict.type) == (True, "R")
        assert all(m.matches_reference for m in report.measures)
        assert elapsed < 5.0
        assert peak < 600 * 2**20

    def test_symmetric_sum_zero_closes_no_table(self, monkeypatch):
        # S12 on its sum-zero space: 479,001,600 elements, none listed.
        def refuse(*args, **kwargs):
            raise AssertionError("closed a table for a permutation entry")

        monkeypatch.setattr("repspect.report.enumerate_closure", refuse)
        base = np.cos(1.3 * np.arange(12.0))
        cfg = rs.parse_config(json.dumps({
            "group": {"kind": "symmetric", "n": 12},
            "representation": {"name": "sn_sum_zero"},
            "measures": [{"kind": "orbit", "base": (base - base.mean()).tolist()}],
            "samples": 1000,
        }))
        start = time.perf_counter()
        tracemalloc.start()
        try:
            report = rs.run_analysis(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 1.0
        assert peak < 16 * 2**20
        assert (report.verdict.irreducible, report.verdict.type) == (True, "R")
        assert report.provenance["group"]["order"] == math.factorial(12)
        orbit = report.identities["orbit_exact"][0]
        assert orbit["order"] == math.factorial(12)
        assert orbit["single_residual"] <= 1e-12 and orbit["double_vs_single"] <= 1e-12
        assert report.measures[0].matches_reference

    @pytest.mark.parametrize("n", [20, 21])
    def test_symmetric_orders_past_int64_stay_exact(self, n):
        cfg = rs.parse_config(json.dumps({
            "group": {"kind": "symmetric", "n": n},
            "representation": {"name": "sn_permutation"},
            "measures": [{"kind": "orbit", "base": np.cos(np.arange(float(n))).tolist()}],
            "samples": 1000,
        }))
        doc = json.loads(json.dumps(report_document(rs.run_analysis(cfg))))
        assert doc["provenance"]["group"]["order"] == math.factorial(n)
        assert doc["identities"]["orbit_exact"][0]["order"] == math.factorial(n)
        assert doc["verdict"]["sym_dim"] == 2

    @pytest.mark.parametrize("group,rep,measures", [
        ({"kind": "permutation_generators", "generators": [[1, 2, 3, 4, 0]]}, "sn_sum_zero",
         [{"kind": "orbit", "base": [1.0, -0.5, 0.25, 0.0]}, {"kind": "uniform_sphere"}]),
        ({"kind": "matrix_generators", "matrices": [np.eye(5)[[1, 2, 3, 4, 0]].tolist()]},
         "defining_orthogonal",
         [{"kind": "orbit", "base": [1.0, -0.5, 0.25, 0.0, 2.0]},
          {"kind": "discrete", "points": np.eye(5).tolist(), "probs": [0.2] * 5},
          {"kind": "uniform_sphere"}]),
        ({"kind": "special_orthogonal", "n": 2}, "defining_orthogonal",
         [{"kind": "orbit", "base": [0.6, 0.8]}, {"kind": "uniform_sphere"}]),
    ], ids=["orbital", "reynolds", "continuous"])
    def test_only_monte_carlo_reads_the_seed(self, group, rep, measures):
        exact_identities = (
            "orbit_exact", "discrete_invariance", "sum_zero_cosine",
            "skew_projection_max", "identity_span_residual",
        )

        def seed_free_part(seed):
            doc = report_document(rs.run_analysis(rs.parse_config(json.dumps({
                "group": group, "representation": {"name": rep},
                "measures": measures, "samples": 200, "seed": seed,
            }))))
            assert doc["identities"]["skew_projection_max"] is not None
            return json.dumps([
                doc["verdict"], doc["commutant"], doc["witness"],
                [doc["identities"][key] for key in exact_identities],
                [m for m in doc["measures"] if m["exact"]],
            ])

        first = seed_free_part(1)
        assert all(seed_free_part(seed) == first for seed in (2, 3))

    def test_fixed_projector_takes_the_configured_cutoff(self, monkeypatch):
        calls = []

        def recording(constraints, rel_threshold):
            calls.append(rel_threshold)
            return rs.fixed_projector(constraints, rel_threshold)

        monkeypatch.setattr("repspect.commutant.fixed_projector", recording)
        rs.run_analysis(rs.parse_config(minimal_config(
            group={"kind": "dihedral", "n": 5},
            representation={"name": "defining_orthogonal"},
            samples=2000,
            tolerances={"nullspace_rel": 1e-9},
        )))
        assert calls == [1e-9]

    def test_permutation_entries_take_the_orbital_projector(self, monkeypatch):
        def refuse(constraints, rel_threshold):
            raise AssertionError("the orbitals give P; no nullspace is taken")

        monkeypatch.setattr("repspect.commutant.fixed_projector", refuse)
        report = rs.run_analysis(rs.parse_config(json.dumps({
            "group": {"kind": "permutation_generators",
                      "generators": [[1, 0, 2, 3, 4], [0, 1, 3, 4, 2]]},
            "representation": {"name": "sn_sum_zero"},
            "measure": {"kind": "orbit", "base": [0.4, -0.1, 0.3, 0.2, -0.8]},
        })))
        # Orbits {0, 1} and {2, 3, 4}: P fixes one line of the sum-zero space,
        # and the orbit mean lies on it.
        assert np.trace(report.commutant.projector) == pytest.approx(1.0, abs=1e-12)
        entry = report.identities["expectation"][0]
        assert entry["exact"] and entry["residual"] <= 1e-12 < entry["mean_norm"]

    def test_sum_zero_with_orbit_measure(self):
        cfg = rs.parse_config(json.dumps({
            "group": {"kind": "symmetric", "n": 4},
            "representation": {"name": "sn_sum_zero"},
            "measure": {"kind": "orbit", "base": [1.0, 0.0, 0.0, -1.0]},
            "samples": 2000,
        }))
        report = rs.run_analysis(cfg)
        assert report.verdict.irreducible and report.verdict.type == "R"
        m = report.measures[0]
        assert m.estimate.exact
        assert m.estimate.value == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert m.matches_reference
        entry = report.identities["orbit_exact"][0]
        assert entry["group_sum"] == pytest.approx(8.0, abs=1e-9)
        assert entry["double_vs_single"] <= 1e-10
        cz = report.identities["sum_zero_cosine"]
        assert cz["residual"] <= 1e-9

    def test_finite_orbit_lower_bound_gap(self):
        cfg = rs.parse_config(json.dumps({
            "group": {"kind": "symmetric", "n": 4},
            "representation": {"name": "sn_permutation"},
            "measure": {"kind": "orbit", "base": [0.9, 0.3, -0.2, 0.1]},
            "samples": 2000,
        }))
        report = rs.run_analysis(cfg)
        double_sum = report.identities["orbit_exact"][0]["double_sum"]
        gap = report.measures[0].lower_bound_gap
        assert gap > 1e-3  # the permutation representation is reducible
        assert gap == pytest.approx(double_sum - 0.25, abs=1e-12)

    def test_near_orthogonal_orbit_reports_its_gap(self):
        # An involution conjugated by I + eta u u^T passes the representation's
        # entrywise orthogonality check (defect < 1e-8), yet along the top
        # eigenvector of g^T g - I the orbit's trace misses 1 by more than
        # lower_bound_check's default tolerance of 1e-8.
        n = 20
        swap = np.eye(n)[[i ^ 1 for i in range(n)]]
        u = rs.stream(41).standard_normal(n)

        def conjugated(eta):
            s = np.eye(n) + eta * np.outer(u, u)
            return s @ swap @ np.linalg.inv(s)

        g = conjugated(1e-10)
        g = conjugated(1e-10 * 0.98e-8 / orthogonality_defect(g))
        v = np.linalg.eigh(g.T @ g)[1][:, -1]
        assert orthogonality_defect(g) < 1e-8
        assert abs((1.0 + v @ g.T @ g @ v) / 2.0 - 1.0) > 1e-8
        cfg = rs.parse_config(json.dumps({
            "group": {"kind": "matrix_generators", "matrices": [g.tolist()]},
            "representation": {"name": "defining_orthogonal"},
            "measure": {"kind": "orbit", "base": v.tolist()},
            "samples": 2000,
        }))
        report = rs.run_analysis(cfg)
        assert report.measures[0].lower_bound_gap > 0.0

    def test_near_orthogonal_orbit_coordinate_moments_within_band(self):
        # D8 generators conjugated by I + eta N pass the orthogonality check
        # (defect < 1e-8), and the exact orbit M of e_2 misses I/2 by ~5e-9.
        r = np.array([[0.0, -1.0], [1.0, 0.0]])
        s = np.array([[1.0, 0.0], [0.0, -1.0]])
        n_mat = rs.stream(42).standard_normal((2, 2))

        def conjugated(eta):
            c = np.eye(2) + eta * n_mat
            return [c @ g @ np.linalg.inv(c) for g in (r, s)]

        gens = conjugated(1e-9)
        gens = conjugated(1e-9 * 0.98e-8 / max(orthogonality_defect(g) for g in gens))
        assert max(orthogonality_defect(g) for g in gens) < 1e-8
        cfg = rs.parse_config(json.dumps({
            "group": {"kind": "matrix_generators", "matrices": [g.tolist() for g in gens]},
            "representation": {"name": "defining_orthogonal"},
            "measure": {"kind": "orbit", "base": [0.0, 1.0]},
            "samples": 2000,
        }))
        report = rs.run_analysis(cfg)
        assert report.verdict.irreducible
        cm = report.identities["coordinate_moments"][0]
        assert cm["max_diagonal_deviation"] > 1e-9
        assert cm["diagonal_within_band"] and cm["offdiagonal_within_band"]

    def test_exact_measures_draw_no_coordinate_samples(self, monkeypatch):
        def no_sampling(*args, **kwargs):
            raise AssertionError("exact measures must not reach a sampler")

        monkeypatch.setattr("repspect.report.make_sampler", no_sampling)
        axes = np.eye(3).tolist()
        cfg = rs.parse_config(json.dumps({
            "group": {"kind": "symmetric", "n": 3},
            "representation": {"name": "sn_permutation"},
            "measures": [
                {"kind": "orbit", "base": [0.8, -0.6, 0.0]},
                {"kind": "discrete", "points": axes, "probs": [0.2, 0.3, 0.5]},
                {"kind": "discrete", "points": axes, "probs": [1 / 3, 1 / 3, 1 / 3]},
            ],
            "samples": 2000,
        }))
        report = rs.run_analysis(cfg)
        moments = report.identities["coordinate_moments"]
        assert [e["measure_index"] for e in moments] == [0, 2]
        assert moments[1]["max_diagonal_deviation"] <= 1e-15
        assert moments[1]["diagonal_within_band"] and moments[1]["offdiagonal_within_band"]

    @pytest.mark.parametrize("case", ["s7_discrete_and_orbit", "dihedral40_orbit", "s3_fixed_line"])
    def test_expectation_residual_within_its_band(self, case):
        # Exact records, and a sampled record whose draws are all +-v for a
        # fixed v, leave a rounding-level residual |Q E[x]|: their bands
        # carry the same slack as the coordinate-moment bands.
        n = 40
        doc = {
            "s7_discrete_and_orbit": {
                "group": {"kind": "symmetric", "n": 7},
                "representation": {"name": "sn_permutation"},
                "measures": [
                    {"kind": "discrete", "points": np.eye(7)[[3, 0, 6, 1, 5, 2, 4]].tolist(),
                     "probs": [1 / 7] * 7},
                    {"kind": "orbit", "base": rs.stream(61).standard_normal(7).tolist()},
                ],
            },
            "dihedral40_orbit": {
                "group": {"kind": "permutation_generators",
                          "generators": [[(i + 1) % n for i in range(n)], [(-i) % n for i in range(n)]]},
                "representation": {"name": "sn_permutation"},
                "measure": {"kind": "orbit", "base": rs.stream(62).standard_normal(n).tolist()},
            },
            "s3_fixed_line": {
                "group": {"kind": "symmetric", "n": 3},
                "representation": {"name": "sn_permutation"},
                "measure": {"kind": "uniform_subsphere", "basis": [(np.ones(3) / np.sqrt(3.0)).tolist()]},
            },
        }[case]
        report = rs.run_analysis(rs.parse_config(json.dumps(dict(doc, samples=2000, seed=1))))
        entries = report.identities["expectation"]
        assert len(entries) == len(report.measures)
        for e in entries:
            assert e["residual"] > 0.0
            assert e["residual"] <= e["residual_band"] <= 1e-6

    @pytest.mark.parametrize("kind,n", [("dihedral", 3000), ("cyclic", 997)])
    def test_plane_group_orbit_moments_do_not_drift(self, kind, n):
        # Closed-form table payloads: the exact orbit M is I/2 to rounding.
        cfg = rs.parse_config(json.dumps({
            "group": {"kind": kind, "n": n},
            "representation": {"name": "defining_orthogonal"},
            "measure": {"kind": "orbit", "base": [0.6, 0.8]},
            "samples": 2000,
        }))
        moments = rs.run_analysis(cfg).identities["coordinate_moments"]
        assert moments[0]["max_diagonal_deviation"] <= 1e-15

    def test_permutation_rep_with_diagonal_subsphere(self):
        cfg = rs.parse_config(json.dumps({
            "group": {"kind": "symmetric", "n": 4},
            "representation": {"name": "sn_permutation"},
            "measure": {"kind": "uniform_subsphere", "basis": [[0.5, 0.5, 0.5, 0.5]]},
            "samples": 2000,
        }))
        report = rs.run_analysis(cfg)
        assert not report.verdict.irreducible
        assert report.witness is not None
        w = np.asarray(report.witness.basis)
        diag = np.ones(4) / 2.0
        # witness recovers the diagonal line or its complement
        if report.witness.m == 1:
            assert abs(abs(float(diag @ w[:, 0])) - 1.0) <= 1e-10
        else:
            assert report.witness.m == 3
            assert np.linalg.norm(w.T @ diag) <= 1e-10
        m = report.measures[0]
        assert m.estimate.value == pytest.approx(1.0, abs=1e-12)
        assert m.exceeds_reference

    def test_discrete_measure_reports_gap_and_invariance(self):
        w = float(1.0 / np.sqrt(3.0))
        cfg = rs.parse_config(json.dumps({
            "group": {"kind": "symmetric", "n": 3},
            "representation": {"name": "sn_permutation"},
            "measure": {
                "kind": "discrete",
                "points": [[w, w, w], [-w, -w, -w]],
                "probs": [0.5, 0.5],
            },
            "samples": 2000,
        }))
        report = rs.run_analysis(cfg)
        m = report.measures[0]
        assert m.invariant_verified is True
        assert m.estimate.exact
        assert m.estimate.value == pytest.approx(1.0)
        # antipodal pair: second moment is rank one, excess over 1/3 is 2/3
        assert m.lower_bound_gap == pytest.approx(2.0 / 3.0)
        assert m.exceeds_reference  # consistent: the rep is reducible

    @pytest.mark.parametrize("kind,n,points,invariant", [
        # The generic rotation among SO(3)'s topological generators moves the axes.
        ("special_orthogonal", 3, np.concatenate([np.eye(3), -np.eye(3)]).tolist(), False),
        # O(1)'s reflection swaps +1 and -1, which carry equal mass.
        ("orthogonal", 1, [[1.0], [-1.0]], True),
    ])
    def test_discrete_measure_on_a_continuous_group_checks_invariance(
        self, kind, n, points, invariant
    ):
        report = rs.run_analysis(rs.parse_config(json.dumps({
            "group": {"kind": kind, "n": n},
            "representation": {"name": "defining_orthogonal"},
            "measure": {"kind": "discrete", "points": points, "probs": [1.0 / len(points)] * len(points)},
            "seed": 1,
        })))
        m = report.measures[0]
        assert m.invariant_verified is invariant
        assert m.conflict_eligible is invariant
        assert report.identities["discrete_invariance"] == [{"measure_index": 0, "invariant": invariant}]
        assert report.verdict.irreducible
        assert m.estimate.exact and m.matches_reference  # 1/3 on the axes, 1 on {+1, -1}
        assert len(report.identities["expectation"]) == int(invariant)

    def test_quaternion_orbit(self):
        cfg = rs.parse_config(json.dumps({
            "group": {"kind": "quaternion8"},
            "representation": {"name": "q8_left"},
            "measure": {"kind": "orbit", "base": [1.0, 0.0, 0.0, 0.0]},
            "samples": 2000,
        }))
        report = rs.run_analysis(cfg)
        assert report.verdict.type == "H"
        assert report.measures[0].estimate.value == pytest.approx(0.25, abs=1e-12)

    def test_exact_overlap_band_covers_the_accepted_image_defect(self):
        # D8 generators conjugated by I + eta N: not quite orthogonal, table
        # defect 9.8e-9, accepted below ORTHOGONALITY_TOL.  The exact orbit
        # overlaps miss 1/2 by up to ~1e-9 either way, within the
        # 2 * ORTHOGONALITY_TOL defect the images were accepted with.
        conj = np.eye(2) + 9.8e-9 * np.array([[0.3, 0.7], [-0.2, 0.5]])
        rotation = rs.groups.rotation_matrix(np.pi / 4.0)
        gens = [conj @ g @ np.linalg.inv(conj) for g in (rotation, np.diag([1.0, -1.0]))]
        table = rs.enumerate_closure(rs.GroupSpec(kind="matrix_generators", generators=tuple(gens)))
        assert table.order == 16
        assert 9e-9 < orthogonality_defect(table.payload) < 1e-8
        for angle in np.linspace(0.0, np.pi, 37):
            report = rs.run_analysis(rs.parse_config(json.dumps({
                "group": {"kind": "matrix_generators", "matrices": [g.tolist() for g in gens]},
                "representation": {"name": "defining_orthogonal"},
                "measure": {"kind": "orbit", "base": [np.cos(angle), np.sin(angle)]},
                "seed": 1,
            })))
            assert report.verdict.irreducible, angle
            assert report.measures[0].estimate.exact, angle
            assert report.measures[0].matches_reference, angle

    def test_cross_check_raises_on_inflated_invariant_estimate(self):
        verdict = rs.TypeVerdict(irreducible=True, type="R", commutant_dim=1, sym_dim=1)
        inflated = MeasureResult(
            kind="uniform_sphere",
            estimate=MomentEstimate(value=0.6, stderr=0.001, n_samples=1000, exact=False),
            reference=0.25,
            band=0.004,
            matches_reference=False,
            exceeds_reference=True,
            below_lower_bound=False,
            conflict_eligible=True,
        )
        with pytest.raises(VerdictConflict):
            _cross_check(verdict, [inflated], Tolerances(), dim=4)

    def test_cross_check_ignores_subsphere(self):
        verdict = rs.TypeVerdict(irreducible=True, type="R", commutant_dim=1, sym_dim=1)
        res = MeasureResult(
            kind="uniform_subsphere",
            estimate=MomentEstimate(value=1.0, stderr=0.0, n_samples=1000, exact=False),
            reference=0.25,
            band=1e-9,
            matches_reference=False,
            exceeds_reference=True,
            below_lower_bound=False,
            conflict_eligible=False,
        )
        _cross_check(verdict, [res], Tolerances(), dim=4)  # no exception

    def test_convergence_trace_shares_the_estimate_draw(self, tmp_path, monkeypatch):
        draws = []

        def counting_haar_matrices(family, rng, size):
            draws.append(size)
            return rs.haar_matrices(family, rng, size)

        monkeypatch.setattr("repspect.moments.haar_matrices", counting_haar_matrices)
        text = json.dumps({
            "group": {"kind": "special_orthogonal", "n": 3},
            "representation": {"name": "so3_traceless_symmetric"},
            "measures": [
                {"kind": "orbit", "base": [0.3, -0.1, 0.5, 0.2, 0.7]},
                {"kind": "uniform_sphere"},
            ],
            "samples": 3000,
            "workers": 2,
            "seed": 11,
        })
        counts, documents = [], []
        for trace_path in (None, str(tmp_path / "trace.csv")):
            cfg = rs.parse_config(text)._replace(trace_path=trace_path)
            draws.clear()
            report = rs.run_analysis(cfg)
            counts.append(sum(draws))
            documents.append(report_document(report))
        assert counts[0] == counts[1] > 0
        assert documents[0] == documents[1]
        assert report.trace_rows[-1][0] == 3000
        assert report.trace_rows[-1][1] == pytest.approx(report.measures[0].estimate.value)


    def test_sampled_measure_draws_overlap_and_moment_streams_only(self, monkeypatch):
        # Per sampled orbit: one Haar draw per chained pair for the overlap,
        # plus one per worker chunk, whose draws are also its moment record
        # (coordinate moments and expectation check), and no more.  The
        # commutant's constraints are fixed topological generators, and P
        # reads them: neither draws.
        draws = {"moments": 0, "commutant": 0}

        def counting(module):
            def haar(family, rng, size):
                draws[module] += size
                return rs.haar_matrices(family, rng, size)
            return haar

        for module in draws:
            monkeypatch.setattr(f"repspect.{module}.haar_matrices", counting(module))
        cfg = rs.parse_config(json.dumps({
            "group": {"kind": "special_orthogonal", "n": 3},
            "representation": {"name": "so3_traceless_symmetric"},
            "measures": [{"kind": "orbit", "base": [0.3, -0.1, 0.5, 0.2, 0.7]}],
            "samples": 3000,
            "seed": 12,
        }))
        report = rs.run_analysis(cfg)
        assert report.identities["expectation"][0]["exact"] is False
        assert draws["moments"] == 3000 + 1
        assert draws["commutant"] == 0


class TestEmission:
    def test_json_top_level_keys_and_determinism(self, tmp_path):
        cfg = rs.parse_config(minimal_config(samples=2000, seed=3))
        report = rs.run_analysis(cfg)
        out = rs.emit_outputs(report, cfg)
        doc = json.loads(out["report_text"])
        assert list(doc.keys()) == [
            "verdict", "commutant", "measures", "identities", "witness", "provenance",
        ]
        report2 = rs.run_analysis(cfg)
        out2 = rs.emit_outputs(report2, cfg)
        assert out["report_text"] == out2["report_text"]

    def test_missing_report_directories_are_made(self, tmp_path):
        report_path = tmp_path / "a" / "b" / "report.json"
        trace_path = tmp_path / "c" / "trace.csv"
        cfg = rs.parse_config(minimal_config(
            samples=2000,
            measures=[{"kind": "uniform_sphere"}],
            outputs={"report": str(report_path), "trace": str(trace_path)},
        ))
        out = rs.emit_outputs(rs.run_analysis(cfg), cfg)
        assert report_path.read_text() == out["report_text"]
        assert trace_path.read_text().startswith("n_samples,estimate,stderr,reference\n")
        rs.emit_outputs(rs.run_analysis(cfg), cfg)  # the directories now exist
        assert report_path.read_text() == out["report_text"]

    def test_text_format(self):
        cfg = rs.parse_config(minimal_config(samples=2000))._replace(format="text")
        report = rs.run_analysis(cfg)
        text = rs.emit_outputs(report, cfg)["report_text"]
        assert "verdict: irreducible, type R" in text

    def test_written_files_and_trace(self, tmp_path):
        report_path = tmp_path / "report.json"
        trace_path = tmp_path / "trace.csv"
        cfg = rs.parse_config(json.dumps({
            "group": {"kind": "orthogonal", "n": 3},
            "representation": {"name": "defining_orthogonal"},
            "measure": {"kind": "uniform_sphere"},
            "samples": 4096,
            "seed": 5,
            "outputs": {"report": str(report_path), "trace": str(trace_path)},
        }))
        report = rs.run_analysis(cfg)
        out = rs.emit_outputs(report, cfg)
        assert out["report_path"] == str(report_path)
        lines = trace_path.read_text().splitlines()
        assert lines[0] == "n_samples,estimate,stderr,reference"
        final = lines[-1].split(",")
        assert int(final[0]) == 4096
        est, err, ref = float(final[1]), float(final[2]), float(final[3])
        assert ref == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert abs(est - ref) <= 4.0 * err

    def test_float_formatting_is_twelve_significant_digits(self):
        doc = report_document(rs.run_analysis(rs.parse_config(minimal_config(samples=2000))))
        ref = doc["measures"][0]["reference"]
        assert ref == 0.5  # dim 2 for the sum-zero action of three points

    def test_render_text_covers_witness(self):
        cfg = rs.parse_config(json.dumps({
            "group": {"kind": "symmetric", "n": 3},
            "representation": {"name": "sn_permutation"},
            "samples": 2000,
        }))
        report = rs.run_analysis(cfg)
        text = render_text(report)
        assert "witness invariant subspace" in text
        assert "reducible" in text


class TestCli:
    def write_config(self, tmp_path, doc):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_analyze_stdout_and_exit_zero(self, tmp_path, capsys):
        path = self.write_config(tmp_path, {
            "group": {"kind": "symmetric", "n": 3},
            "representation": {"name": "sn_sum_zero"},
            "samples": 2000,
        })
        code = cli_main(["analyze", "--config", path])
        assert code == 0
        out = capsys.readouterr().out
        assert json.loads(out)["verdict"]["irreducible"] is True

    def test_flag_overrides_config(self, tmp_path, capsys):
        path = self.write_config(tmp_path, {
            "group": {"kind": "symmetric", "n": 3},
            "representation": {"name": "sn_sum_zero"},
            "samples": 2000,
            "seed": 1,
        })
        code = cli_main(["analyze", "--config", path, "--seed", "2", "--format", "text"])
        assert code == 0
        assert "provenance: seed=2" in capsys.readouterr().out

    @pytest.mark.parametrize("flag,value", [
        ("--samples", "1"), ("--workers", "0"), ("--seed", "-1"), ("--seed", str(2**64)),
    ])
    def test_override_out_of_bounds_exit_one(self, flag, value, tmp_path, capsys):
        path = self.write_config(tmp_path, {
            "group": {"kind": "symmetric", "n": 3},
            "representation": {"name": "sn_sum_zero"},
            "samples": 2000,
        })
        assert cli_main(["analyze", "--config", path, flag, value]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["directory", "under_a_file"])
    def test_unwritable_report_path_exit_one(self, where, tmp_path, capsys):
        # A report path that is a directory, or that lies under a file, ends
        # in one line naming the path, not a traceback.
        taken = tmp_path / "taken"
        if where == "directory":
            taken.mkdir()
            report_path = taken
        else:
            taken.write_text("")
            report_path = taken / "report.json"
        path = self.write_config(tmp_path, {
            "group": {"kind": "symmetric", "n": 3},
            "representation": {"name": "sn_sum_zero"},
            "outputs": {"report": str(report_path)},
        })
        assert cli_main(["analyze", "--config", path]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("output error: ")
        assert str(taken) in captured.err and captured.err.count("\n") == 1
        assert "written" not in captured.out

    @pytest.mark.parametrize("to_file", [True, False], ids=["report_file", "report_stdout"])
    def test_unwritable_trace_path_exit_one(self, to_file, tmp_path, capsys):
        # The report goes out first: its file is written and announced, or
        # its text printed, before the trace path fails.
        taken = tmp_path / "taken"
        taken.mkdir()
        report_path = tmp_path / "report.txt"
        outputs = {"trace": str(taken), "format": "text"}
        if to_file:
            outputs["report"] = str(report_path)
        path = self.write_config(tmp_path, {
            "group": {"kind": "symmetric", "n": 3},
            "representation": {"name": "sn_sum_zero"},
            "samples": 2000,
            "outputs": outputs,
        })
        assert cli_main(["analyze", "--config", path]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("output error: ")
        assert str(taken) in captured.err and captured.err.count("\n") == 1
        assert "trace written" not in captured.out
        if to_file:
            assert report_path.read_text().startswith("verdict: irreducible")
            assert captured.out == f"report written to {report_path}\n"
        else:
            assert captured.out.startswith("verdict: irreducible")

    @pytest.mark.parametrize("via", ["config", "flag"])
    def test_trace_without_a_sampled_measure_is_announced(self, via, tmp_path, capsys):
        # An orbit of cyclic(5) has exact moments and nothing is sampled, so
        # no trace exists: the run says so on stderr and still succeeds.
        trace_path = tmp_path / "trace.csv"
        doc = {
            "group": {"kind": "cyclic", "n": 5},
            "representation": {"name": "cyclic_rotation"},
            "measures": [{"kind": "orbit", "base": [1.0, 0.0]}],
        }
        flags = []
        if via == "config":
            doc["outputs"] = {"trace": str(trace_path)}
        else:
            flags = ["--trace", str(trace_path)]
        assert cli_main(["analyze", "--config", self.write_config(tmp_path, doc), *flags]) == 0
        captured = capsys.readouterr()
        assert captured.err == "no trace written: no measure is sampled\n"
        assert json.loads(captured.out)["verdict"]["irreducible"] is True
        assert not trace_path.exists()

    def test_more_workers_than_samples_exit_one(self, tmp_path, capsys):
        path = self.write_config(tmp_path, {
            "group": {"kind": "orthogonal", "n": 3},
            "representation": {"name": "defining_orthogonal"},
            "measures": [{"kind": "uniform_sphere"}],
            "samples": 2,
            "workers": 3,
        })
        assert cli_main(["analyze", "--config", path]) == 1
        assert "config error" in capsys.readouterr().err

    def test_flags_update_the_outputs_object(self, tmp_path, capsys):
        report_path, trace_path = tmp_path / "report.txt", tmp_path / "trace.csv"
        path = self.write_config(tmp_path, {
            "group": {"kind": "symmetric", "n": 3},
            "representation": {"name": "sn_sum_zero"},
            "samples": 2000,
            "outputs": {"report": str(report_path), "format": "json"},
        })
        code = cli_main(["analyze", "--config", path, "--format", "text", "--trace", str(trace_path)])
        assert code == 0
        assert report_path.read_text().startswith("verdict: irreducible")
        assert trace_path.read_text().startswith("n_samples,estimate,stderr,reference")

    def test_flag_value_after_equals_sign(self, tmp_path, capsys):
        path = self.write_config(tmp_path, {
            "group": {"kind": "symmetric", "n": 3},
            "representation": {"name": "sn_sum_zero"},
            "samples": 2000,
        })
        assert cli_main(["analyze", f"--config={path}", "--format=text"]) == 0
        assert capsys.readouterr().out.startswith("verdict: irreducible")

    def test_unique_prefix_names_its_flag(self, tmp_path, capsys):
        path = self.write_config(tmp_path, {
            "group": {"kind": "symmetric", "n": 3},
            "representation": {"name": "sn_sum_zero"},
            "samples": 2000,
        })
        assert cli_main(["analyze", "--conf", path, "--sam", "5", "--fo", "text"]) == 0
        assert "samples=5 " in capsys.readouterr().out

    @pytest.mark.parametrize("argv,reason", [
        (["analyze", "--config", "{path}", "--s", "5"], "option --s not a unique prefix"),
        (["analyze", "--config", "{path}", "--bogus", "1"], "option --bogus not recognized"),
        (["analyze", "--config", "{path}", "extra"], "unexpected argument 'extra'"),
        (["analyze", "--samples", "5"], "analyze needs --config PATH"),
        (["analyse", "--config", "{path}"], "unknown command 'analyse': use analyze or catalog"),
        (["analyze", "--config"], "option --config requires argument"),
        ([], "a command is required: analyze or catalog"),
    ], ids=["ambiguous_prefix", "unknown_flag", "stray_argument", "missing_config",
            "unknown_command", "missing_value", "no_command"])
    def test_malformed_command_line_exit_one(self, argv, reason, tmp_path, capsys):
        path = self.write_config(tmp_path, {
            "group": {"kind": "symmetric", "n": 3},
            "representation": {"name": "sn_sum_zero"},
        })
        assert cli_main([arg.format(path=path) for arg in argv]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("usage: repspect analyze --config PATH")
        assert err.endswith(f"\nrepspect: error: {reason}\n")

    def test_non_integer_samples_refused_by_validation(self, tmp_path, capsys):
        path = self.write_config(tmp_path, {
            "group": {"kind": "symmetric", "n": 3},
            "representation": {"name": "sn_sum_zero"},
        })
        assert cli_main(["analyze", "--config", path, "--samples", "abc"]) == 1
        assert capsys.readouterr().err == "config error: 'samples' must be an integer >= 2\n"

    @pytest.mark.parametrize("argv", [
        ["--help"], ["-h"], ["analyze", "--help"], ["analyze", "--config", "c.json", "-h"],
        ["catalog", "--he"],
    ])
    def test_help_prints_the_usage_and_exits_zero(self, argv, capsys):
        assert cli_main(argv) == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: repspect analyze --config PATH") and err == ""
        assert "--format json|text" in out and "repspect catalog" in out

    def test_readme_shows_the_usage(self, capsys):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        match = re.search(r"```text\n\$ repspect --help\n(.*?)```", readme, re.S)
        assert cli_main(["--help"]) == 0
        assert match.group(1) == capsys.readouterr().out

    @pytest.mark.parametrize("fields", [
        # Each of these ran at one time: the NaN base to a report with bare
        # NaN tokens, the probabilities to an accepted measure, the image to
        # an uncaught ValueError, and the tolerances to a disabled
        # cross-check and a band that holds every estimate.
        {"measures": [{"kind": "orbit", "base": [float("nan"), 1.0]}]},
        {"measures": [{"kind": "discrete", "points": [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]],
                       "probs": [float("nan"), 0.5, 0.5]}]},
        {"representation": {"name": "explicit", "generator_images": [[[float("nan")]], [[1.0]]]}},
        {"tolerances": {"conflict_sigma": float("nan")}},
        {"tolerances": {"band_sigma": float("inf")}},
    ], ids=["orbit_base", "probs", "explicit_image", "conflict_sigma", "band_sigma"])
    def test_non_finite_numbers_exit_one(self, fields, tmp_path, capsys):
        doc = dict({
            "group": {"kind": "symmetric", "n": 3},
            "representation": {"name": "sn_sum_zero"},
            "samples": 2000,
        }, **fields)
        assert cli_main(["analyze", "--config", self.write_config(tmp_path, doc)]) == 1
        assert "config error: config holds the non-finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("fields", [
        {"outputs": {"report": 3}},
        {"outputs": {"trace": ["trace.csv"]}},
        {"measures": [{"kind": "discrete", "points": [[1.0, 0.0]], "probs": [[1.0]]}]},
    ], ids=["report_path", "trace_path", "probs_2d"])
    def test_malformed_outputs_and_probabilities_exit_one(self, fields, tmp_path, capsys):
        doc = dict({
            "group": {"kind": "symmetric", "n": 3},
            "representation": {"name": "sn_sum_zero"},
            "samples": 2000,
        }, **fields)
        assert cli_main(["analyze", "--config", self.write_config(tmp_path, doc)]) == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("group,name,cutoff", [
        ({"kind": "special_orthogonal", "n": 3}, "so3_traceless_symmetric", 1.5),
        ({"kind": "special_orthogonal", "n": 3}, "so3_traceless_symmetric", 1.0),
        ({"kind": "dihedral", "n": 5}, "defining_orthogonal", 1.5),
    ])
    def test_nullspace_cutoff_of_one_or_more_exit_one(self, group, name, cutoff, tmp_path, capsys):
        # A cutoff at or above the largest singular value calls every
        # direction null; these ran on to a numerical failure (exit 2).
        path = self.write_config(tmp_path, {
            "group": group,
            "representation": {"name": name},
            "samples": 2000,
            "tolerances": {"nullspace_rel": cutoff},
        })
        assert cli_main(["analyze", "--config", path]) == 1
        assert "config error: tolerance 'nullspace_rel' must be below 1" in capsys.readouterr().err

    def test_config_error_exit_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        assert cli_main(["analyze", "--config", str(path)]) == 1
        assert "config error" in capsys.readouterr().err

    def test_missing_config_exit_one(self, capsys):
        assert cli_main(["analyze", "--config", "/nonexistent/cfg.json"]) == 1
        assert "config error: cannot read config '/nonexistent/cfg.json'" in capsys.readouterr().err

    def test_directory_config_exit_one(self, tmp_path, capsys):
        assert cli_main(["analyze", "--config", str(tmp_path)]) == 1
        assert f"config error: cannot read config '{tmp_path}'" in capsys.readouterr().err

    def test_validation_error_exit_one(self, tmp_path, capsys):
        path = self.write_config(tmp_path, {
            "group": {"kind": "symmetric", "n": 3},
            "representation": {"name": "nope"},
        })
        assert cli_main(["analyze", "--config", path]) == 1

    def test_explicit_on_a_permutation_group(self, tmp_path, capsys):
        path = self.write_config(tmp_path, {
            "group": {"kind": "symmetric", "n": 3},
            "representation": {"name": "explicit", "generator_images": [[[-1.0]], [[1.0]]]},
            "samples": 2000,
        })
        assert cli_main(["analyze", "--config", path]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"]["commutant_dim"] == 1

    def test_explicit_image_count_checked_at_parse(self, tmp_path, capsys):
        doc = {
            "group": {"kind": "symmetric", "n": 3},
            "representation": {"name": "explicit", "generator_images": [[[1.0]]]},
        }
        with pytest.raises(ValidationError, match="got 1 generator images for 2 generators"):
            validate_config(doc)
        assert cli_main(["analyze", "--config", self.write_config(tmp_path, doc)]) == 1
        assert "config error" in capsys.readouterr().err

    def test_verdict_conflict_exit_two(self, tmp_path, capsys, monkeypatch):
        # force an inflated estimate on an invariant measure
        def fake_estimate(sampler, n_pairs, seed=0, workers=1):
            d = sampler.dim
            record = SecondMomentMatrix(
                entries=np.eye(d) / d, n_samples=2 * n_pairs, exact=False,
                stderr=np.zeros((d, d)), mean=np.zeros(d),
            )
            return MomentEstimate(value=0.9, stderr=1e-6, n_samples=n_pairs, exact=False), record

        monkeypatch.setattr("repspect.report.estimate_squared_overlap", fake_estimate)
        path = self.write_config(tmp_path, {
            "group": {"kind": "symmetric", "n": 4},
            "representation": {"name": "sn_sum_zero"},
            "samples": 2000,
        })
        assert cli_main(["analyze", "--config", path]) == 2
        assert "numerical failure" in capsys.readouterr().err

    def test_size_refusal_exit_one(self, tmp_path, capsys):
        # The trivial group on 128 points as a matrix group: every one of the
        # n^2 entries is an unknown, and the 2 GiB column stack is refused.
        path = self.write_config(tmp_path, {
            "group": {"kind": "matrix_generators", "matrices": [np.eye(128).tolist()]},
            "representation": {"name": "defining_orthogonal"},
            "samples": 2000,
        })
        assert cli_main(["analyze", "--config", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("too large: ") and "byte budget" in err

    def test_s128_permutation_refused_by_the_stabilizer_chain(self, tmp_path, capsys):
        path = self.write_config(tmp_path, {
            "group": {"kind": "symmetric", "n": 128},
            "representation": {"name": "sn_permutation"},
            "samples": 2000,
        })
        start = time.perf_counter()
        assert cli_main(["analyze", "--config", path]) == 1
        assert time.perf_counter() - start < 5.0
        err = capsys.readouterr().err
        assert err.startswith("too large: stabilizer chain on 128 points")

    def test_permutation_analyses_leave_numpy_ma_unimported(self, tmp_path):
        # A plain np.unique imports numpy.ma (13 ms on first use); the
        # permutation paths call only its return_index/return_inverse forms.
        d40 = [[(i + 1) % 40 for i in range(40)], [(-i) % 40 for i in range(40)]]
        docs = {
            "s7.json": {
                "group": {"kind": "symmetric", "n": 7},
                "representation": {"name": "sn_permutation"},
                "measures": [
                    {"kind": "discrete", "points": np.eye(7).tolist(), "probs": [1.0 / 7] * 7},
                    {"kind": "orbit", "base": np.cos(np.arange(7.0)).tolist()},
                ],
            },
            "d40.json": {
                "group": {"kind": "permutation_generators", "generators": d40},
                "representation": {"name": "sn_permutation"},
                "measures": [{"kind": "orbit", "base": np.cos(np.arange(40.0)).tolist()},
                             {"kind": "uniform_sphere"}],
            },
        }
        paths = []
        for name, doc in docs.items():
            doc.update(samples=2000, outputs={"report": str(tmp_path / f"report-{name}")})
            (tmp_path / name).write_text(json.dumps(doc))
            paths.append(str(tmp_path / name))
        code = (
            "import sys\n"
            "from repspect.cli import main\n"
            "codes = [main(['analyze', '--config', path]) for path in sys.argv[1:]]\n"
            "sys.exit(0 if codes == [0, 0] and 'numpy.ma' not in sys.modules else 1)\n"
        )
        src = str(Path(rs.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", code, *paths], env=env, capture_output=True)
        assert done.returncode == 0, done.stderr

    def test_readme_example_config_runs(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        match = re.search(r"Example config:\s*```json\n(.*?)```", readme, re.S)
        doc = json.loads(match.group(1))
        doc["outputs"].update(report=str(tmp_path / "report.json"),
                              trace=str(tmp_path / "trace.csv"))
        assert cli_main(["analyze", "--config", self.write_config(tmp_path, doc)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["verdict"]["irreducible"] is True
        trace = (tmp_path / "trace.csv").read_text().splitlines()
        assert trace[0] == "n_samples,estimate,stderr,reference" and len(trace) > 1

    def test_readme_library_block_runs(self, capsys):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        match = re.search(r"## Library\s*```python\n(.*?)```", readme, re.S)
        exec(compile(match.group(1), "README.md", "exec"), {})
        verdict, group_sum, overlap = capsys.readouterr().out.splitlines()
        assert "irreducible=True" in verdict and "type='R'" in verdict
        assert float(group_sum) == pytest.approx(30.0, abs=1e-9)
        value, stderr = map(float, overlap.split())
        assert abs(value - 0.25) <= 4.0 * stderr

    @pytest.mark.parametrize(
        "module", ["scipy", "importlib.metadata", "dataclasses", "argparse", "csv"]
    )
    def test_import_leaves_scipy_out(self, module):
        src = str(Path(rs.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        code = f"import sys, repspect.cli; sys.exit({module!r} in sys.modules)"
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0

    def test_catalog_lists_names(self, capsys):
        assert cli_main(["catalog"]) == 0
        out = capsys.readouterr().out
        assert "sn_sum_zero" in out and "quaternion8" in out

    def test_byte_identical_reports(self, tmp_path):
        doc = {
            "group": {"kind": "symmetric", "n": 4},
            "representation": {"name": "sn_sum_zero"},
            "measures": [
                {"kind": "orbit", "base": [1.0, 0.0, 0.0, -1.0]},
                {"kind": "uniform_sphere"},
            ],
            "samples": 4096,
            "seed": 123,
            "outputs": {"report": str(tmp_path / "r1.json")},
        }
        p1 = self.write_config(tmp_path, doc)
        assert cli_main(["analyze", "--config", p1]) == 0
        doc["outputs"]["report"] = str(tmp_path / "r2.json")
        (tmp_path / "config.json").write_text(json.dumps(doc))
        assert cli_main(["analyze", "--config", p1]) == 0
        b1 = (tmp_path / "r1.json").read_bytes()
        b2 = (tmp_path / "r2.json").read_bytes()
        assert b1 == b2
