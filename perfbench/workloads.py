"""The four benchmark workloads: seeded config generators and known truths.

Each workload is one ``repspect analyze`` config.  The workload seed picks
the orbit base vectors and the config's master ``seed``; the program only
ever sees the generated JSON.  ``truth`` holds what a correct analysis must
report, whatever the seed; ``why`` records which layer the workload is
there to stress, so later changes can see what each one is for.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Truth:
    irreducible: bool
    type: str
    commutant_dim: int
    sym_dim: int
    order: int | None  # None for continuous families


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    truth: Truth
    build: Callable[[random.Random], dict]
    convergence_trace: bool = False


def _base_vector(rnd: random.Random, n: int) -> list[float]:
    # The program normalizes orbit bases; rounding keeps the JSON short.
    return [round(rnd.gauss(0.0, 1.0), 6) for _ in range(n)]


def _commutant_wide40(rnd: random.Random) -> dict:
    n = 40
    return {
        "group": {
            "kind": "permutation_generators",
            "generators": [
                [(i + 1) % n for i in range(n)],
                [(-i) % n for i in range(n)],
            ],
        },
        "representation": {"name": "sn_permutation"},
        "measures": [
            {"kind": "orbit", "base": _base_vector(rnd, n)},
            {"kind": "uniform_sphere"},
        ],
        "samples": 20000,
        "workers": 1,
    }


def _perm_s7_discrete(rnd: random.Random) -> dict:
    n = 7
    axes = [[1.0 if j == i else 0.0 for j in range(n)] for i in range(n)]
    rnd.shuffle(axes)
    return {
        "group": {"kind": "symmetric", "n": n},
        "representation": {"name": "sn_permutation"},
        "measures": [
            {"kind": "discrete", "points": axes, "probs": [1.0 / n] * n},
            {"kind": "orbit", "base": _base_vector(rnd, n)},
        ],
        "samples": 100000,
        "workers": 1,
    }


def _dihedral_3000(rnd: random.Random) -> dict:
    return {
        "group": {"kind": "dihedral", "n": 3000},
        "representation": {"name": "defining_orthogonal"},
        "measures": [
            {"kind": "orbit", "base": _base_vector(rnd, 2)},
            {"kind": "uniform_sphere"},
        ],
        "samples": 100000,
        "workers": 1,
    }


def _so3_sampled(rnd: random.Random) -> dict:
    return {
        "group": {"kind": "special_orthogonal", "n": 3},
        "representation": {"name": "so3_traceless_symmetric"},
        "measures": [
            {"kind": "orbit", "base": _base_vector(rnd, 5)},
            {"kind": "uniform_sphere"},
        ],
        "samples": 100000,
        "workers": 2,
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "commutant-wide40",
            "O(n^6) commutant SVD on a dim-40 dihedral permutation rep; "
            "the (block,n,n) coordinate-moment tensor sets peak memory",
            Truth(irreducible=False, type="not_applicable", commutant_dim=21, sym_dim=21, order=80),
            _commutant_wide40,
        ),
        Workload(
            "perm-s7-discrete",
            "Python O(|G| P^2) discrete-invariance check over S7; "
            "exact orbit pair sums (5040^2 pairs) set peak memory",
            Truth(irreducible=False, type="not_applicable", commutant_dim=2, sym_dim=2, order=5040),
            _perm_s7_discrete,
        ),
        Workload(
            "dihedral-3000",
            "quadratic matrix closure of dihedral(3000); "
            "the only workload where group closure is not ~0",
            Truth(irreducible=True, type="R", commutant_dim=1, sym_dim=1, order=6000),
            _dihedral_3000,
        ),
        Workload(
            "so3-sampled",
            "Monte Carlo moments and Haar draws on SO(3), dim 5, "
            "sampled commutant, two worker chunks, convergence trace on",
            Truth(irreducible=True, type="R", commutant_dim=1, sym_dim=1, order=None),
            _so3_sampled,
            convergence_trace=True,
        ),
    )
}


def make_config(workload: Workload, seed: int, report_path: str, trace_path: str) -> dict:
    """The config for one workload seed; same seed, same config."""
    rnd = random.Random(f"{workload.name}/{seed}")
    doc = workload.build(rnd)
    doc["seed"] = rnd.randrange(2**32)
    doc["outputs"] = {"report": report_path, "format": "json"}
    if workload.convergence_trace:
        doc["outputs"]["trace"] = trace_path
    return doc
