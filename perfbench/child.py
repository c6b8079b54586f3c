"""One ``repspect analyze`` in a fresh interpreter, as a CLI user runs it.

Usage: python3 child.py CONFIG MODE, with MODE one of ``plain``, ``spans``
(timed layer spans), ``memory`` (tracemalloc peaks per span) or ``import``
(time the import and stop).  Prints one JSON object as its last line of
standard output.

``import repspect.cli`` is timed before anything else is imported, so the
figure is what every CLI call pays.
"""

import sys
import time

t0 = time.perf_counter()
import repspect.cli  # noqa: E402

import_s = time.perf_counter() - t0

import json  # noqa: E402
import resource  # noqa: E402
import tracemalloc  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

from tracing import Tracer  # noqa: E402


def blas_vendor() -> str:
    try:
        return numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        return "unknown"


def main() -> int:
    config, mode = sys.argv[1], sys.argv[2]
    if mode == "import":
        print(json.dumps({"import_s": import_s}))
        return 0
    tracer = None
    if mode != "plain":
        tracer = Tracer(memory=mode == "memory")
        tracer.install()
        if tracer.memory:
            tracemalloc.start()
    t1 = time.perf_counter()
    exit_code = repspect.cli.main(["analyze", "--config", config])
    analyze_s = time.perf_counter() - t1
    if tracer is not None and tracer.memory:
        tracemalloc.stop()
    out = {
        "exit_code": exit_code,
        "import_s": import_s,
        "analyze_s": analyze_s,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "repspect_file": repspect.cli.__file__,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": blas_vendor(),
        },
    }
    if tracer is not None:
        out["spans"] = tracer.spans
        out["counts"] = tracer.counts
        if tracer.memory:
            out["peak_mb"] = tracer.peak_megabytes()
        else:
            out["self_s"] = tracer.self_seconds()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
