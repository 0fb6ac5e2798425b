"""One pass of a workload in a fresh interpreter.

Reads a pass spec (JSON, path in argv[1]), times `import sftbounds` plus
loading the inputs (set-up), then calls `sftbounds.cli.main(argv)` in-process
once per invocation with `--out` under the spec's output directory, and
prints one JSON line: per-invocation exit status and seconds, set-up
seconds, peak resident memory, and with tracing the per-function spans.
Output checks run in the parent, outside the timed region.
"""

import contextlib
import io as _stdio
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter


def _blas_threads():
    """Threads of the OpenBLAS that numpy loaded, or None if not found."""
    import ctypes
    import glob
    import os

    import numpy

    site = os.path.dirname(os.path.dirname(numpy.__file__))
    for lib in glob.glob(os.path.join(site, "numpy.libs", "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())

    t0 = perf_counter()
    import sftbounds.cli
    import sftbounds.io

    for path in spec["matrix_files"]:
        sftbounds.io.load_matrix(path)
    for path in spec["model_files"]:
        sftbounds.io.load_model(path)
    setup_s = perf_counter() - t0

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    out_dir = Path(spec["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    runs = []
    for name, argv in spec["invocations"]:
        sink = _stdio.StringIO()
        t = perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                status = sftbounds.cli.main(argv + ["--out", str(out_dir / f"{name}.json")])
        except Exception:  # a crash is a failed invocation, reported by the parent
            traceback.print_exc()
            status = None
        runs.append({"name": name, "status": status, "seconds": perf_counter() - t})
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    import numpy
    import scipy

    result = {
        "setup_s": setup_s,
        "runs": runs,
        "peak_rss_mib": peak_kib / 1024.0,
        "env": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "openblas": numpy.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version"),
            "blas_threads": _blas_threads(),
        },
    }
    if tracer is not None:
        result["trace"] = tracer.report()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
