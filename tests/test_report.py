import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repspect as rs
from repspect.cli import main as cli_main
from repspect.errors import BadParams, ParseError, UnknownName, ValidationError, VerdictConflict
from repspect.groups import orthogonality_defect
from repspect.moments import MomentEstimate
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
            raise AssertionError("exact measures must not sample coordinate moments")

        monkeypatch.setattr("repspect.report.coordinate_second_moments", no_sampling)
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
            _cross_check(verdict, [inflated], Tolerances())

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
        _cross_check(verdict, [res], Tolerances())  # no exception

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
            cfg = rs.parse_config(text)
            cfg.trace_path = trace_path
            draws.clear()
            report = rs.run_analysis(cfg)
            counts.append(sum(draws))
            documents.append(report_document(report))
        assert counts[0] == counts[1] > 0
        assert documents[0] == documents[1]
        assert report.trace_rows[-1][0] == 3000
        assert report.trace_rows[-1][1] == pytest.approx(report.measures[0].estimate.value)


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

    def test_text_format(self):
        cfg = rs.parse_config(minimal_config(samples=2000))
        cfg.format = "text"
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

    def test_config_error_exit_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        assert cli_main(["analyze", "--config", str(path)]) == 1
        assert "config error" in capsys.readouterr().err

    def test_missing_config_exit_one(self, capsys):
        assert cli_main(["analyze", "--config", "/nonexistent/cfg.json"]) == 1

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
            return MomentEstimate(value=0.9, stderr=1e-6, n_samples=n_pairs, exact=False)

        monkeypatch.setattr("repspect.report.estimate_squared_overlap", fake_estimate)
        path = self.write_config(tmp_path, {
            "group": {"kind": "symmetric", "n": 4},
            "representation": {"name": "sn_sum_zero"},
            "samples": 2000,
        })
        assert cli_main(["analyze", "--config", path]) == 2
        assert "numerical failure" in capsys.readouterr().err

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

    def test_import_leaves_scipy_out(self):
        src = str(Path(rs.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        code = "import sys, repspect.cli; sys.exit('scipy' in sys.modules)"
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
