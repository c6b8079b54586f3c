"""The benchmark tracer's contract with the package.

``perfbench/tracing.py`` wraps the functions ``repspect.cli`` and
``repspect.report`` look up by name and reads some of their arguments and
result fields.  A rename there breaks the traced benchmark run; these tests
run the tracer on two small analyses so the break shows up here first.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TRACED_RUN = """
import json, sys
sys.path.insert(0, sys.argv[1])
import repspect.cli as cli
from tracing import Tracer
tracer = Tracer(memory=False)
tracer.install()
codes = [cli.main(["analyze", "--config", path]) for path in sys.argv[2:]]
print(json.dumps({
    "codes": codes,
    "spans": sorted({span["name"] for span in tracer.spans}),
    "counts": tracer.counts,
}))
"""


def traced_analyses(tmp_path, docs):
    paths = []
    for i, doc in enumerate(docs):
        path = tmp_path / f"config{i}.json"
        path.write_text(json.dumps(doc))
        paths.append(str(path))
    # No bytecode: the run leaves nothing behind in perfbench/.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(ROOT / "perfbench"), *paths],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_tracer_records_finite_law_and_sampled_spans(tmp_path):
    # S4 as its permutation matrices: a matrix payload, so table images are built.
    s4 = {
        "group": {"kind": "matrix_generators", "matrices": [
            [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
            [[0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]],
        ]},
        "representation": {"name": "defining_orthogonal"},
        "measures": [
            {"kind": "orbit", "base": [0.5, -0.1, 0.3, 0.8]},
            {"kind": "discrete", "points": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
             "probs": [0.25, 0.25, 0.25, 0.25]},
            {"kind": "uniform_sphere"},
        ],
        "samples": 2000,
        "seed": 3,
        "outputs": {"report": str(tmp_path / "s4.json")},
    }
    so3 = {
        "group": {"kind": "special_orthogonal", "n": 3},
        "representation": {"name": "so3_traceless_symmetric"},
        "measures": [{"kind": "orbit", "base": [0.3, -0.1, 0.5, 0.2, 0.7]}],
        "samples": 2000,
        "workers": 2,
        "seed": 4,
        "outputs": {"report": str(tmp_path / "so3.json"), "trace": str(tmp_path / "so3.csv")},
    }
    out = traced_analyses(tmp_path, [s4, so3])
    assert out["codes"] == [0, 0]
    spans = set(out["spans"])
    assert {
        "report.parse_config",
        "report.run_analysis",
        "report.emit_outputs",
        "groups.enumerate_closure",
        "representations.table_images",
        "commutant.commutant_basis",
        # finite laws, exact
        "moments.exact_finite_orbit_moments",
        "moments.exact_discrete_overlap",
        "moments.check_discrete_invariance",
        # sampled measures
        "moments.make_sampler",
        "moments.estimate_squared_overlap",
        "moments.overlap_convergence_trace",
        "moments.expectation_identity_check",
        "groups.haar_matrices",
    } <= spans
    counts = out["counts"]
    assert counts["groups.order"] == 24
    assert counts["moments.pairs"] == 4000  # the S4 sphere and the SO(3) orbit
    assert "moments.coordinate_second_moments" not in spans  # their records share those draws
    assert counts["commutant.constraint_images"] > 0
    assert counts["report.bytes"] > 0
    assert (tmp_path / "so3.csv").read_text().startswith("n_samples,estimate,stderr,reference")


def test_permutation_entries_build_no_table_images(tmp_path):
    docs = [
        {
            "group": {"kind": "symmetric", "n": 5},
            "representation": {"name": name},
            "measures": [{"kind": "orbit", "base": [0.5, -0.1, 0.3, 0.8, 0.2][: 5 - i]}],
            "samples": 2000,
            "outputs": {"report": str(tmp_path / f"{name}.json")},
        }
        for i, name in enumerate(["sn_permutation", "sn_sum_zero"])
    ]
    out = traced_analyses(tmp_path, docs)
    assert out["codes"] == [0, 0]
    assert "representations.table_images" not in out["spans"]
    assert "moments.exact_finite_orbit_moments" in out["spans"]
    assert out["counts"]["representations.table_image_bytes"] == 0
