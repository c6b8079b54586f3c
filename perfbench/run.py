"""Benchmark of ``repspect analyze`` on four certification workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Load model: closed loop, one client.  Analyses run one after another, each
in a fresh Python process (``child.py``) that imports ``repspect.cli`` from
the checkout's ``src/`` and calls ``repspect.cli.main(["analyze", ...])``,
so import time and peak RSS are per analysis, as a CLI user pays them.
The workload seed generates the config (see ``workloads.py``); the program
only sees the generated JSON, and every analysis of a run uses the same
config.  A new analysis starts only while the median duration so far still
fits in ``--seconds`` (counted from the start of the run), after a minimum
of three, or of one untraced-plus-traced pair with ``--trace 1``.

``--trace 0`` reports the end-to-end metrics, medians over the analyses:
``analyze_s`` (wall time of ``cli.main``: parse, pipeline, report written),
``setup_s`` (wall time of ``import repspect.cli`` in a fresh process, over
six import-only processes and every analysis) and ``peak_rss_mb``
(``ru_maxrss`` of the analysis process).

``--trace 1`` reports per-layer metrics from spans recorded around the calls
into each layer (see ``tracing.py``): one analysis under tracemalloc for
``<span>.peak_mb``, then alternating untraced and timed-span analyses for
self times ``<span>.s`` and ``trace.overhead_s`` (traced minus untraced
median ``analyze_s``).  Work counts are computed at the wrappers and repeat
exactly.  The spans are written to ``.bench_out/``.

Every analysis passes the correctness gate or counts as failed: exit code
0, verdict, type, commutant and symmetric dims and group order equal to the
workload's truth, ``matches_reference`` on every ``uniform_sphere`` measure,
the same report bytes (sha256) on every repeat, and a complete convergence
CSV where the workload asks for one.  ``failed / attempted`` is the error
rate; the line before the result repeats it with the environment record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import COUNT_FORMULAS
from workloads import WORKLOADS, Workload, make_config

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_ANALYSES = 3
IMPORT_PROBES = 6  # import timing is noisy; extra fresh processes steady setup_s
LAST_START_S = 100.0  # no analysis starts later than this into a run
RUN_LIMIT_S = 170.0  # children still running then are killed; runs end within 180 s
# The roadmap's target machine has 2 cores; never more BLAS threads than cores.
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))

LAYER_SPANS = (
    "groups.enumerate_closure",
    "groups.haar_matrices",
    "representations.build_named_rep",
    "representations.table_images",
    "commutant.commutant_basis",
    "commutant.split_symmetric_skew",
    "commutant.witness_invariant_subspace",
    "moments.estimate_squared_overlap",
    "moments.overlap_convergence_trace",
    "moments.expectation_identity_check",
    "moments.coordinate_second_moments",
    "moments.exact_finite_orbit_moments",
    "moments.check_discrete_invariance",
    "moments.exact_discrete_overlap",
    "report.parse_config",
    "report.run_analysis",
    "report.emit_outputs",
)
TRACE_HEADER = "n_samples,estimate,stderr,reference"


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("REPSPECT_SEED", None)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


class Run:
    """One benchmark run: a config, its analyses and their verdicts."""

    def __init__(self, workload: Workload, seed: int, workdir: Path):
        self.workload = workload
        self.workdir = workdir
        self.report = workdir / "report.json"
        self.trace_csv = workdir / "trace.csv"
        self.config = make_config(workload, seed, str(self.report), str(self.trace_csv))
        self.config_path = workdir / "config.json"
        self.config_path.write_text(json.dumps(self.config, indent=2))
        self.env = child_env()
        self.results: list[dict] = []
        self.attempted = 0
        self.failures: list[str] = []  # at most one entry per analysis
        self.first_sha: str | None = None
        self.import_probes: list[float] = []
        self.started = time.perf_counter()

    def _child(self, mode: str) -> subprocess.CompletedProcess:
        remaining = RUN_LIMIT_S - (time.perf_counter() - self.started)
        return subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(self.config_path), mode],
            env=self.env, cwd=self.workdir, capture_output=True, text=True,
            timeout=max(1.0, remaining),
        )

    def warm_up(self, probes: int) -> None:
        """Import once untimed, so bytecode caches exist as for any installed
        CLI, then time ``probes`` more imports in fresh processes."""
        for i in range(probes + 1):
            proc = self._child("import")
            proc.check_returncode()
            if i:
                self.import_probes.append(json.loads(proc.stdout.splitlines()[-1])["import_s"])

    def analyze(self, mode: str) -> dict | None:
        """Run one analysis in a fresh process; gate it; return its measurements."""
        self.attempted += 1
        for path in (self.report, self.trace_csv):
            path.unlink(missing_ok=True)
        started = time.perf_counter()
        try:
            proc = self._child(mode)
        except subprocess.TimeoutExpired:
            self.failures.append(f"{mode}: killed at the {RUN_LIMIT_S} s run limit")
            return None
        wall = time.perf_counter() - started
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            result = None
        if proc.returncode != 0 or not isinstance(result, dict):
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            self.failures.append(f"{mode}: child exited {proc.returncode}: {tail[0]}")
            return None
        result["mode"], result["wall_s"] = mode, wall
        self.results.append(result)
        problems = self.check(result)
        if problems:
            self.failures.append(f"{mode}: " + "; ".join(problems))
        return result

    def check(self, result: dict) -> list[str]:
        if result["exit_code"] != 0:
            return [f"analyze exited {result['exit_code']}"]
        if not Path(result["repspect_file"]).resolve().is_relative_to(SRC):
            return [f"imported repspect from {result['repspect_file']}, not the checkout"]
        if not self.report.exists():
            return ["no report written"]
        data = self.report.read_bytes()
        try:
            problems = self.check_document(json.loads(data))
        except (ValueError, KeyError, TypeError) as e:
            problems = [f"report is not the expected JSON document: {e!r}"]
        sha = hashlib.sha256(data).hexdigest()
        self.first_sha = self.first_sha or sha
        if sha != self.first_sha:
            problems.append("report bytes differ from the first repeat")
        if self.workload.convergence_trace:
            lines = self.trace_csv.read_text().splitlines() if self.trace_csv.exists() else []
            if not lines or lines[0] != TRACE_HEADER:
                problems.append("convergence CSV missing or without its header")
            elif int(lines[-1].split(",")[0]) != self.config["samples"]:
                problems.append("convergence CSV does not end at the sample count")
        return problems

    def check_document(self, doc: dict) -> list[str]:
        truth = self.workload.truth
        problems = [
            f"{key} is {doc['verdict'][key]!r}, expected {getattr(truth, key)!r}"
            for key in ("irreducible", "type", "commutant_dim", "sym_dim")
            if doc["verdict"][key] != getattr(truth, key)
        ]
        order = doc["provenance"]["group"]["order"]
        if order != truth.order:
            problems.append(f"group order is {order!r}, expected {truth.order!r}")
        for i, m in enumerate(doc["measures"]):
            if m["kind"] == "uniform_sphere" and not m["matches_reference"]:
                problems.append(f"measure {i} (uniform_sphere) misses 1/n")
        return problems


def median_of(results: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in results)


def keep_going(run: Run, durations: list[float], seconds: int, minimum: int) -> bool:
    elapsed = time.perf_counter() - run.started
    if elapsed > LAST_START_S:
        return False
    if len(durations) < minimum:
        return True
    return elapsed + statistics.median(durations) <= seconds


def measure_end_to_end(run: Run, seconds: int) -> dict:
    durations: list[float] = []
    while keep_going(run, durations, seconds, MIN_ANALYSES):
        result = run.analyze("plain")
        if result is None:
            break
        durations.append(result["wall_s"])
    plain = [r for r in run.results if r["mode"] == "plain"]
    if not plain:
        return {}
    return {
        "analyze_s": {"value": median_of(plain, "analyze_s"), "unit": "s"},
        "setup_s": {
            "value": statistics.median(run.import_probes + [r["import_s"] for r in plain]),
            "unit": "s",
        },
        "peak_rss_mb": {"value": median_of(plain, "maxrss_mb"), "unit": "MB"},
    }


def measure_layers(run: Run, seconds: int, spans_out: Path) -> dict:
    memory = run.analyze("memory")
    durations: list[float] = []
    while keep_going(run, durations, seconds, 1):
        plain, spans = run.analyze("plain"), run.analyze("spans")
        if plain is None or spans is None:
            break
        durations.append(plain["wall_s"] + spans["wall_s"])
    plain = [r for r in run.results if r["mode"] == "plain"]
    traced = [r for r in run.results if r["mode"] == "spans"]
    if memory is None or not plain or not traced:
        return {}
    metrics = {}
    for name in LAYER_SPANS:
        key = f"{name}.self_s" if name == "report.run_analysis" else f"{name}.s"
        value = statistics.median(r["self_s"].get(name, 0.0) for r in traced)
        metrics[key] = {"value": value, "unit": "s"}
    for name in COUNT_FORMULAS:
        unit = "B" if name.endswith("bytes") else "count"
        metrics[name] = {"value": traced[0]["counts"][name], "unit": unit}
    for name in LAYER_SPANS:
        metrics[f"{name}.peak_mb"] = {"value": memory["peak_mb"].get(name, 0.0), "unit": "MB"}
    overhead = median_of(traced, "analyze_s") - median_of(plain, "analyze_s")
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    spans_out.parent.mkdir(parents=True, exist_ok=True)
    spans_out.write_text(json.dumps(
        {"timed": traced[-1]["spans"], "memory": memory["spans"], "counts": traced[0]["counts"]},
        indent=1,
    ))
    return metrics


def environment(run: Run) -> dict:
    versions = run.results[0]["versions"] if run.results else {}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        **versions,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repspect" / "cli.py").is_file():
        print(f"no repspect sources under {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    workdir = ROOT / ".bench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        run = Run(workload, args.seed, workdir)
        if args.trace:
            run.warm_up(probes=0)
            spans_out = ROOT / ".bench_out" / f"{workload.name}-seed{args.seed}-spans.json"
            metrics = measure_layers(run, args.seconds, spans_out)
        else:
            run.warm_up(probes=IMPORT_PROBES)
            metrics = measure_end_to_end(run, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not metrics:
        print("no analysis produced measurements: " + " | ".join(run.failures), file=sys.stderr)
        return 1

    detail = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "load_model": "closed loop, one client, one fresh process per analysis",
        "analyses": {mode: sum(r["mode"] == mode for r in run.results)
                     for mode in ("plain", "spans", "memory")},
        "analyze_s_samples": [r["analyze_s"] for r in run.results if r["mode"] == "plain"],
        "import_s_samples": run.import_probes + [r["import_s"] for r in run.results],
        "error_rate": len(run.failures) / run.attempted,
        "failures": run.failures,
        "environment": environment(run),
    }
    if args.trace:
        detail["traced_analyze_s_samples"] = [
            r["analyze_s"] for r in run.results if r["mode"] == "spans"
        ]
        detail["computed_counts"] = COUNT_FORMULAS
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
