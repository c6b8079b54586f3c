"""Config parsing, pipeline orchestration, and report emission.

The pipeline builds the group, builds the representation, computes the
commuting algebra and its verdict, extracts a witness subspace when the
representation is reducible, evaluates the exact finite-group identities
that apply, estimates the squared-overlap moment for every configured
measure, and cross-checks the algebraic verdict against the moment
statistics.  A measure with a finite law (discrete, or an orbit of a
finite group) gets one exact second moment M = E[x x^T], which gives its
overlap |M|_F^2, its lower-bound gap and its coordinate-moment summary;
its expectation check is an exact table average.  Only the other
measures are sampled.  Reports are a pure function of (config, seed):
repeated runs produce byte-identical output.
"""

from __future__ import annotations

import csv
import dataclasses
import importlib.metadata
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .commutant import (
    NULLSPACE_REL_THRESHOLD,
    CommutantBasis,
    TypeVerdict,
    WitnessSubspace,
    _subspace_invariance_residual,
    classify_and_decide,
    commutant_basis,
    span_residual,
    split_symmetric_skew,
    witness_invariant_subspace,
)
from .errors import (
    ParseError,
    RepspectError,
    ValidationError,
    VerdictConflict,
)
from .groups import (
    CONTINUOUS_FAMILIES,
    DEFAULT_CLOSURE_CAP,
    FINITE_FAMILIES,
    ContinuousFamily,
    FiniteGroupTable,
    GroupSpec,
    enumerate_closure,
    stream,
    substream,
)
from .moments import (
    MeasureSpec,
    MomentEstimate,
    check_discrete_invariance,
    coordinate_second_moments,
    discrete_measure,
    estimate_squared_overlap,
    exact_discrete_overlap,
    exact_finite_orbit_moments,
    expectation_identity_check,
    lower_bound_check,
    make_sampler,
    orbit_measure,
    overlap_convergence_trace,
    sn_cosine_identity,
    uniform_sphere,
    uniform_subsphere,
)
from .representations import (
    ORTHOGONALITY_TOL,
    build_named_rep,
    catalog_dim,
    diag_map,
    sum_zero_basis,
)

DEFAULT_SAMPLES = 100_000
SEED_ENV_VAR = "REPSPECT_SEED"
EXACT_SLACK = 1e-9  # absolute slack applied alongside stderr bands

GROUP_KINDS = FINITE_FAMILIES + CONTINUOUS_FAMILIES + (
    "permutation_generators",
    "matrix_generators",
)


@dataclass
class Tolerances:
    band_sigma: float = 4.0        # consistency band in sampling stderrs
    conflict_sigma: float = 6.0    # escalation band for the verdict cross-check
    nullspace_rel: float = NULLSPACE_REL_THRESHOLD  # singular-value cutoff, relative to largest
    closure_cap: int = DEFAULT_CLOSURE_CAP          # finite enumeration guard

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class AnalysisConfig:
    group: GroupSpec
    rep_name: str
    rep_n: int | None = None
    generator_images: list | None = None
    measures: list[MeasureSpec] = field(default_factory=list)
    samples: int = DEFAULT_SAMPLES
    seed: int = 0
    workers: int = 1
    tolerances: Tolerances = field(default_factory=Tolerances)
    report_path: str | None = None
    format: str = "json"
    trace_path: str | None = None


@dataclass
class MeasureResult:
    kind: str
    estimate: MomentEstimate
    reference: float
    band: float
    matches_reference: bool
    exceeds_reference: bool
    below_lower_bound: bool
    conflict_eligible: bool
    invariant_verified: bool | None = None  # discrete measures only
    lower_bound_gap: float | None = None    # measures with an exact second moment only


@dataclass
class Report:
    verdict: TypeVerdict
    commutant: CommutantBasis
    witness: WitnessSubspace | None
    measures: list[MeasureResult]
    identities: dict
    trace_rows: list[tuple[int, float, float]] | None
    reference: float
    provenance: dict


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def parse_config(source) -> AnalysisConfig:
    """Parse a JSON config from a path or from literal JSON text.

    Fills defaults (samples, workers, seed from the REPSPECT_SEED
    environment variable when the config omits it) and validates every
    field, including dimension consistency between the representation
    and the measures.
    """
    if isinstance(source, Path) or (isinstance(source, str) and os.path.exists(source)):
        text = Path(source).read_text()
    else:
        text = source
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"config is not valid JSON: {e.msg} (line {e.lineno}, column {e.colno})")
    if not isinstance(doc, dict):
        raise ValidationError("config root must be a JSON object")
    return validate_config(doc)


def validate_config(doc: dict) -> AnalysisConfig:
    allowed = {
        "group", "representation", "measures", "measure",
        "samples", "seed", "workers", "tolerances", "outputs",
    }
    for key in doc:
        if key not in allowed:
            raise ValidationError(f"unknown config field {key!r}")

    group = _validate_group(doc.get("group"))
    rep_name, rep_n, gen_images, dim = _validate_representation(doc.get("representation"), group)
    measures = _validate_measures(doc, dim, rep_name)

    samples = _int_field(doc, "samples", DEFAULT_SAMPLES, minimum=2)
    workers = _int_field(doc, "workers", 1, minimum=1)
    seed = _validate_seed(doc)
    tolerances = _validate_tolerances(doc.get("tolerances"))
    report_path, fmt, trace_path = _validate_outputs(doc.get("outputs"))

    return AnalysisConfig(
        group=group,
        rep_name=rep_name,
        rep_n=rep_n,
        generator_images=gen_images,
        measures=measures,
        samples=samples,
        seed=seed,
        workers=workers,
        tolerances=tolerances,
        report_path=report_path,
        format=fmt,
        trace_path=trace_path,
    )


def _validate_group(node) -> GroupSpec:
    if not isinstance(node, dict):
        raise ValidationError("config needs a 'group' object")
    kind = str(node.get("kind", "")).replace("-", "_")
    if kind not in GROUP_KINDS:
        raise ValidationError(f"group.kind {node.get('kind')!r} not in {sorted(GROUP_KINDS)}")
    if kind == "permutation_generators":
        gens = node.get("generators")
        if not gens:
            raise ValidationError("group.generators is required for permutation_generators")
        return GroupSpec(kind=kind, generators=tuple(_normalize_permutation(p) for p in gens))
    if kind == "matrix_generators":
        mats = node.get("matrices")
        if not mats:
            raise ValidationError("group.matrices is required for matrix_generators")
        try:
            arrays = tuple(np.asarray(m, dtype=float) for m in mats)
        except (TypeError, ValueError):
            raise ValidationError("group.matrices must be nested numeric arrays")
        return GroupSpec(kind=kind, generators=arrays)
    if kind == "quaternion8":
        return GroupSpec(kind=kind)
    n = node.get("n")
    if not _is_int(n) or n < 1:
        raise ValidationError(f"group.n must be a positive integer for {kind!r}")
    return GroupSpec(kind=kind, n=n)


def _normalize_permutation(p) -> tuple[int, ...]:
    """Accept one-line images 0-based or 1-based; store 0-based."""
    if not isinstance(p, (list, tuple)) or not all(_is_int(i) for i in p):
        raise ValidationError(f"permutation must be a list of integers, got {p!r}")
    vals = sorted(p)
    if vals == list(range(len(p))):
        return tuple(p)
    if vals == list(range(1, len(p) + 1)):
        return tuple(i - 1 for i in p)
    raise ValidationError(f"not a permutation of 0..{len(p) - 1} or 1..{len(p)}: {p!r}")


def _validate_representation(node, group: GroupSpec):
    if not isinstance(node, dict):
        raise ValidationError("config needs a 'representation' object")
    name = node.get("name")
    rep_n = node.get("n")
    gen_images = node.get("generator_images")
    if gen_images is not None:
        try:
            gen_images = [np.asarray(m, dtype=float) for m in gen_images]
        except (TypeError, ValueError):
            raise ValidationError("generator_images must be nested numeric arrays")
    try:
        dim = catalog_dim(name, group, rep_n, gen_images)
    except RepspectError as e:
        raise ValidationError(str(e)) from e
    return name, rep_n, gen_images, dim


def _validate_measures(doc, dim: int, rep_name: str) -> list[MeasureSpec]:
    if "measures" in doc and "measure" in doc:
        raise ValidationError("give either 'measures' or 'measure', not both")
    nodes = doc.get("measures", doc.get("measure"))
    if nodes is None:
        nodes = [{"kind": "uniform_sphere"}]
    if isinstance(nodes, dict):
        nodes = [nodes]
    if not isinstance(nodes, list) or not nodes:
        raise ValidationError("'measures' must be a non-empty list")
    return [_validate_one_measure(node, i, dim, rep_name) for i, node in enumerate(nodes)]


def _validate_one_measure(node, i, dim, rep_name: str) -> MeasureSpec:
    if not isinstance(node, dict):
        raise ValidationError(f"measures[{i}] must be an object")
    kind = str(node.get("kind", "")).replace("-", "_")
    try:
        if kind == "uniform_sphere":
            return uniform_sphere()
        if kind == "orbit":
            base = np.asarray(node.get("base"), dtype=float)
            if base.ndim != 1:
                raise ValidationError(f"measures[{i}].base must be a vector")
            if rep_name == "sn_sum_zero" and base.shape[0] == dim + 1:
                # ambient sum-zero coordinates; express in the subspace basis
                if abs(base.sum()) > 1e-8 * max(1.0, float(np.abs(base).max())):
                    raise ValidationError(
                        f"measures[{i}].base in ambient coordinates must sum to zero"
                    )
                base = sum_zero_basis(dim + 1) @ base
            if base.shape[0] != dim:
                raise ValidationError(
                    f"measures[{i}].base has length {base.shape[0]}, representation dim {dim}"
                )
            nrm = float(np.linalg.norm(base))
            if nrm < 1e-12:
                raise ValidationError(f"measures[{i}].base is zero")
            return orbit_measure(base / nrm)
        if kind == "uniform_subsphere":
            vectors = np.asarray(node.get("basis"), dtype=float)
            if vectors.ndim != 2 or vectors.shape[1] != dim:
                raise ValidationError(
                    f"measures[{i}].basis must be a list of vectors of length {dim}"
                )
            return uniform_subsphere(vectors.T)
        if kind == "discrete":
            points = np.asarray(node.get("points"), dtype=float)
            probs = np.asarray(node.get("probs"), dtype=float)
            if points.ndim != 2 or points.shape[1] != dim:
                raise ValidationError(
                    f"measures[{i}].points must be vectors of length {dim}"
                )
            norms = np.linalg.norm(points, axis=1)
            if (norms < 1e-12).any():
                raise ValidationError(f"measures[{i}].points contains a zero vector")
            return discrete_measure(points / norms[:, None], probs)
    except RepspectError as e:
        raise ValidationError(f"measures[{i}]: {e}") from e
    except (TypeError, ValueError) as e:
        raise ValidationError(f"measures[{i}]: {e}") from e
    raise ValidationError(f"measures[{i}].kind {node.get('kind')!r} is unknown")


def _is_int(val) -> bool:
    """An integer JSON value; booleans are not integers here."""
    return isinstance(val, int) and not isinstance(val, bool)


def _int_field(doc, name, default, minimum):
    val = doc.get(name, default)
    if not _is_int(val) or val < minimum:
        raise ValidationError(f"{name!r} must be an integer >= {minimum}")
    return val


def _validate_seed(doc) -> int:
    if "seed" in doc:
        seed = doc["seed"]
        if not _is_int(seed):
            raise ValidationError("'seed' must be an integer")
    else:
        env = os.environ.get(SEED_ENV_VAR)
        if env is None:
            seed = 0
        else:
            try:
                seed = int(env)
            except ValueError:
                raise ValidationError(f"{SEED_ENV_VAR}={env!r} is not an integer")
    if not 0 <= seed < 2**64:
        raise ValidationError("'seed' must fit in an unsigned 64-bit integer")
    return seed


def _validate_tolerances(node) -> Tolerances:
    tol = Tolerances()
    if node is None:
        return tol
    if not isinstance(node, dict):
        raise ValidationError("'tolerances' must be an object")
    for key, val in node.items():
        if key not in ("band_sigma", "conflict_sigma", "nullspace_rel", "closure_cap"):
            raise ValidationError(f"unknown tolerance {key!r}")
        if key == "closure_cap":
            if not _is_int(val) or val <= 0:
                raise ValidationError("tolerance 'closure_cap' must be a positive integer")
        elif isinstance(val, bool) or not isinstance(val, (int, float)) or val <= 0:
            raise ValidationError(f"tolerance {key!r} must be positive")
        setattr(tol, key, val if key == "closure_cap" else float(val))
    return tol


def _validate_outputs(node):
    if node is None:
        return None, "json", None
    if not isinstance(node, dict):
        raise ValidationError("'outputs' must be an object")
    for key in node:
        if key not in ("report", "format", "trace"):
            raise ValidationError(f"unknown outputs field {key!r}")
    fmt = node.get("format", "json")
    if fmt not in ("json", "text"):
        raise ValidationError(f"outputs.format must be 'json' or 'text', got {fmt!r}")
    return node.get("report"), fmt, node.get("trace")


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

def build_group(cfg: AnalysisConfig):
    if cfg.group.kind in CONTINUOUS_FAMILIES:
        return ContinuousFamily(kind=cfg.group.kind, n=cfg.group.n)
    return enumerate_closure(cfg.group, cap=cfg.tolerances.closure_cap)


def run_analysis(cfg: AnalysisConfig) -> Report:
    """Execute the full pipeline for one config; see the module docstring.

    Raises VerdictConflict when the commutant says irreducible but an
    invariant measure's squared-overlap estimate exceeds 1/dim by more
    than ``conflict_sigma`` standard errors.
    """
    tol = cfg.tolerances
    group = build_group(cfg)
    rep = build_named_rep(cfg.rep_name, group, n=cfg.rep_n, generator_images=cfg.generator_images)
    reference = 1.0 / rep.dim

    cb = commutant_basis(rep, rng=stream(cfg.seed, 1), rel_threshold=tol.nullspace_rel)
    cb = split_symmetric_skew(cb)
    verdict = classify_and_decide(cb)
    witness = None if verdict.irreducible else witness_invariant_subspace(cb, rep)

    finite = isinstance(group, FiniteGroupTable)
    measures: list[MeasureResult] = []
    identities: dict = {
        "orbit_exact": [],
        "expectation": [],
        "coordinate_moments": [],
        "discrete_invariance": [],
        "sum_zero_cosine": None,
        "skew_projection_max": None,
        "identity_span_residual": span_residual(cb.basis, np.eye(rep.dim) / math.sqrt(rep.dim)),
    }
    trace_rows = None

    for i, spec in enumerate(cfg.measures):
        invariant_verified = None
        lower_bound_gap = None
        exact_m = None  # E[x x^T] of a measure with a finite law
        if spec.kind == "discrete":
            est, exact_m = exact_discrete_overlap(spec)
            lower_bound_gap = lower_bound_check(exact_m).gap
            if finite:
                inv = check_discrete_invariance(spec, rep)
                invariant_verified = inv.invariant
                identities["discrete_invariance"].append(
                    {"measure_index": i, "invariant": inv.invariant}
                )
        elif spec.kind == "orbit" and finite:
            om = exact_finite_orbit_moments(rep, spec.base)
            est = MomentEstimate(value=om.double_sum, stderr=0.0, n_samples=om.order, exact=True)
            exact_m = om.second_moment
            # Images are accepted with |g^T g - I|_2 up to dim * ORTHOGONALITY_TOL,
            # so orbit points, and the trace of M, may miss unit norm by that much.
            lower_bound_gap = lower_bound_check(exact_m, trace_tol=rep.dim * ORTHOGONALITY_TOL).gap
            identities["orbit_exact"].append({
                "measure_index": i,
                "order": om.order,
                "single_sum": om.single_sum,
                "double_sum": om.double_sum,
                "group_sum": om.group_sum,
                "single_reference": reference,
                "group_reference": om.order * reference,
                "single_residual": abs(om.single_sum - reference),
                "double_vs_single": abs(om.double_sum - om.single_sum),
                "group_residual": abs(om.group_sum - om.order * reference),
            })
        else:
            # The first sampled measure's estimate comes with its convergence trace.
            sampler = make_sampler(spec, rep)
            draw = (sampler, cfg.samples, substream(cfg.seed, 10, i, 0), cfg.workers)
            if cfg.trace_path is not None and trace_rows is None:
                est, trace_rows = overlap_convergence_trace(*draw)
            else:
                est = estimate_squared_overlap(*draw)

        band = tol.band_sigma * est.stderr + EXACT_SLACK
        eligible = spec.kind in ("orbit", "uniform_sphere") or invariant_verified is True
        measures.append(MeasureResult(
            kind=spec.kind,
            estimate=est,
            reference=reference,
            band=band,
            matches_reference=abs(est.value - reference) <= band,
            exceeds_reference=est.value - reference > band,
            below_lower_bound=bool(eligible and (reference - est.value > band)),
            conflict_eligible=eligible,
            invariant_verified=invariant_verified,
            lower_bound_gap=lower_bound_gap,
        ))

        if eligible or _subsphere_is_invariant(spec, cb):
            chk = expectation_identity_check(
                rep, spec,
                n_samples=cfg.samples,
                seed=substream(cfg.seed, 10, i, 1),
                workers=cfg.workers,
                band_sigma=tol.band_sigma,
            )
            identities["expectation"].append({
                "measure_index": i,
                "residual": chk.residual,
                "residual_band": chk.residual_band,
                "mean_norm": chk.mean_norm,
                "mean_norm_band": chk.mean_norm_band,
                "exact": chk.exact,
            })
            identities["coordinate_moments"].append(
                _coordinate_moment_summary(cfg, rep, spec, i, reference, exact_m)
            )

    identities["sum_zero_cosine"] = _sum_zero_cosine_summary(cfg, rep)
    identities["skew_projection_max"] = _skew_projection_summary(cfg, rep, cb)

    _cross_check(verdict, measures, tol)

    provenance = {
        "seed": cfg.seed,
        "samples": cfg.samples,
        "workers": cfg.workers,
        "tolerances": tol.as_dict(),
        "group": {"kind": cfg.group.kind, "n": cfg.group.n,
                  "order": group.order if finite else None},
        "representation": {"name": cfg.rep_name, "dim": rep.dim},
        "versions": {
            "repspect": __version__,
            "numpy": np.__version__,
            "scipy": importlib.metadata.version("scipy"),
        },
    }
    return Report(
        verdict=verdict,
        commutant=cb,
        witness=witness,
        measures=measures,
        identities=identities,
        trace_rows=trace_rows,
        reference=reference,
        provenance=provenance,
    )


def _subsphere_is_invariant(spec: MeasureSpec, cb: CommutantBasis) -> bool:
    if spec.kind != "uniform_subsphere":
        return False
    return _subspace_invariance_residual(spec.subspace, cb.constraints) <= 1e-8


def _coordinate_moment_summary(cfg, rep, spec, i, reference, exact_m) -> dict:
    """E[x x^T] against I/n: the exact M when the measure has one, else sampled.

    An exact M has zero stderr; its bands are the defect its inputs were
    accepted with, ``dim * ORTHOGONALITY_TOL`` (images within
    ``ORTHOGONALITY_TOL`` entrywise, discrete points matched to 1e-8).
    """
    smm, slack = exact_m, rep.dim * ORTHOGONALITY_TOL
    if smm is None:
        smm = coordinate_second_moments(
            make_sampler(spec, rep), cfg.samples,
            seed=substream(cfg.seed, 10, i, 2), workers=cfg.workers,
        )
        slack = EXACT_SLACK
    n = rep.dim
    diag = np.diag_indices(n)
    off = ~np.eye(n, dtype=bool)
    sigma = cfg.tolerances.band_sigma
    diag_dev = np.abs(smm.entries[diag] - reference)
    diag_band = sigma * smm.stderr[diag] + slack
    off_dev = np.abs(smm.entries[off])
    off_band = sigma * smm.stderr[off] + slack
    return {
        "measure_index": i,
        "max_diagonal_deviation": float(diag_dev.max()),
        "diagonal_within_band": bool((diag_dev <= diag_band).all()),
        "max_offdiagonal": float(off_dev.max()) if off.any() else 0.0,
        "offdiagonal_within_band": bool((off_dev <= off_band).all()) if off.any() else True,
        "reference_diagonal": reference,
    }


def _sum_zero_cosine_summary(cfg, rep) -> dict | None:
    if rep.catalog_id != "sn_sum_zero":
        return None
    degree = rep.dim + 1
    if degree > 8:
        return None
    rng = stream(cfg.seed, 3)
    x = rng.standard_normal(degree)
    x -= x.mean()
    value = sn_cosine_identity(x)
    ref = math.factorial(degree) / (degree - 1)
    return {"degree": degree, "value": value, "reference": ref, "residual": abs(value - ref)}


def _skew_projection_summary(cfg, rep, cb: CommutantBasis) -> float | None:
    if not cb.skew_dim:
        return None
    skew = cb.basis[cb.sym_dim:]
    rng = stream(cfg.seed, 4)
    worst = 0.0
    for _ in range(50):
        x = rng.standard_normal(rep.dim)
        x /= np.linalg.norm(x)
        m = diag_map(x)
        worst = max(worst, max(abs(float(np.sum(b * m))) for b in skew))
    return worst


def _cross_check(verdict: TypeVerdict, measures: list[MeasureResult], tol: Tolerances):
    if not verdict.irreducible:
        return
    for i, res in enumerate(measures):
        if not res.conflict_eligible:
            continue
        slack = tol.conflict_sigma * res.estimate.stderr + EXACT_SLACK
        if res.estimate.value - res.reference > slack:
            raise VerdictConflict(
                f"measure[{i}] ({res.kind}) estimates {res.estimate.value:.6g} "
                f"> 1/n + {slack:.2g} although the commutant is scalar; "
                "this signals a bug or a non-invariant measure"
            )


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def _round12(x):
    """Recursively format floats to 12 significant decimal digits."""
    if isinstance(x, bool) or x is None or isinstance(x, (int, str)):
        return x
    if isinstance(x, float):
        return float(f"{x:.12g}")
    if isinstance(x, np.floating):
        return float(f"{float(x):.12g}")
    if isinstance(x, np.integer):
        return int(x)
    if isinstance(x, np.ndarray):
        return _round12(x.tolist())
    if isinstance(x, (list, tuple)):
        return [_round12(v) for v in x]
    if isinstance(x, dict):
        return {k: _round12(v) for k, v in x.items()}
    raise TypeError(f"cannot serialize {type(x)!r}")


def report_document(report: Report) -> dict:
    """The report as a JSON-ready dict with a stable key order."""
    cb = report.commutant
    doc = {
        "verdict": {
            "irreducible": report.verdict.irreducible,
            "type": report.verdict.type,
            "commutant_dim": report.verdict.commutant_dim,
            "sym_dim": report.verdict.sym_dim,
        },
        "commutant": {
            "dim": cb.dim,
            "sym_dim": cb.sym_dim,
            "skew_dim": cb.skew_dim,
            "residual": cb.residual,
            "threshold": cb.threshold,
            "ambiguous_sigma": cb.ambiguous_sigma,
        },
        "measures": [
            {
                "kind": r.kind,
                "estimate": r.estimate.value,
                "stderr": r.estimate.stderr,
                "exact": r.estimate.exact,
                "n_samples": r.estimate.n_samples,
                "reference": r.reference,
                "band": r.band,
                "matches_reference": r.matches_reference,
                "exceeds_reference": r.exceeds_reference,
                "below_lower_bound": r.below_lower_bound,
                "invariant_verified": r.invariant_verified,
                "lower_bound_gap": r.lower_bound_gap,
            }
            for r in report.measures
        ],
        "identities": report.identities,
        "witness": None if report.witness is None else {
            "dim": report.witness.m,
            "residual": report.witness.residual,
            "basis_columns": report.witness.basis.T.tolist(),
        },
        "provenance": report.provenance,
    }
    return _round12(doc)


def render_text(report: Report) -> str:
    """Human-readable one-screen summary of a report."""
    lines = []
    v = report.verdict
    if v.irreducible:
        lines.append(f"verdict: irreducible, type {v.type} (commutant dim {v.commutant_dim})")
    else:
        lines.append(f"verdict: reducible (symmetric commutant dim {v.sym_dim})")
    cb = report.commutant
    lines.append(
        f"commutant: dim {cb.dim} = {cb.sym_dim} symmetric + {cb.skew_dim} skew; "
        f"residual {cb.residual:.3e}; cutoff {cb.threshold:.3e}"
    )
    if cb.ambiguous_sigma is not None:
        lines.append(f"  WARNING: singular value {cb.ambiguous_sigma:.3e} near the cutoff")
    lines.append(f"reference moment 1/n = {report.reference:.12g}")
    for i, r in enumerate(report.measures):
        kindtag = "exact" if r.estimate.exact else f"stderr {r.estimate.stderr:.3e}"
        status = "consistent with 1/n" if r.matches_reference else (
            "EXCEEDS 1/n" if r.exceeds_reference else "below band"
        )
        lines.append(
            f"measure[{i}] {r.kind}: E<x,y>^2 = {r.estimate.value:.12g} ({kindtag}); {status}"
            f" (band {r.band:.3e})"
        )
    for entry in report.identities["orbit_exact"]:
        lines.append(
            f"orbit sums[{entry['measure_index']}]: group_sum {entry['group_sum']:.12g} "
            f"vs |G|/n {entry['group_reference']:.12g} "
            f"(residual {entry['group_residual']:.3e}); "
            f"double vs single residual {entry['double_vs_single']:.3e}"
        )
    for entry in report.identities["expectation"]:
        lines.append(
            f"mean-vs-projected-mean[{entry['measure_index']}]: residual {entry['residual']:.3e}"
            f" (band {entry['residual_band']:.3e}, exact={entry['exact']})"
        )
    for entry in report.identities["coordinate_moments"]:
        lines.append(
            f"coordinate moments[{entry['measure_index']}]: max diag dev "
            f"{entry['max_diagonal_deviation']:.3e} (in band: {entry['diagonal_within_band']}), "
            f"max offdiag {entry['max_offdiagonal']:.3e} (in band: {entry['offdiagonal_within_band']})"
        )
    cz = report.identities["sum_zero_cosine"]
    if cz is not None:
        lines.append(
            f"sum-zero cosine power sum: {cz['value']:.12g} vs n!/(n-1) = {cz['reference']:.12g}"
            f" (residual {cz['residual']:.3e})"
        )
    sk = report.identities["skew_projection_max"]
    if sk is not None:
        lines.append(f"largest projection of x x^T onto skew commutant: {sk:.3e}")
    if report.witness is not None:
        w = report.witness
        lines.append(f"witness invariant subspace: dim {w.m}, residual {w.residual:.3e}")
    p = report.provenance
    lines.append(
        f"provenance: seed={p['seed']} samples={p['samples']} workers={p['workers']} "
        f"repspect={p['versions']['repspect']}"
    )
    return "\n".join(lines) + "\n"


def emit_outputs(report: Report, cfg: AnalysisConfig) -> dict:
    """Write the report (and optional convergence CSV); return the texts.

    JSON reports use a stable key order and decimals with 12 significant
    digits, so identical (config, seed) runs are byte-identical.
    """
    if cfg.format == "json":
        text = json.dumps(report_document(report), indent=2) + "\n"
    else:
        text = render_text(report)
    written = {"report_text": text, "report_path": None, "trace_path": None}
    if cfg.report_path:
        path = Path(cfg.report_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="\n") as fh:
            fh.write(text)
        written["report_path"] = str(path)
    if cfg.trace_path and report.trace_rows:
        path = Path(cfg.trace_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["n_samples", "estimate", "stderr", "reference"])
            for n, est, err in report.trace_rows:
                writer.writerow([n, f"{est:.12g}", f"{err:.12g}", f"{report.reference:.12g}"])
        written["trace_path"] = str(path)
    return written
