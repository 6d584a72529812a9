"""One agrec child process of the benchmark.

    child.py [--trace SPANS.json --stage ID] cli ARGS...   run `agrec ARGS...`
    child.py [--trace SPANS.json --stage ID] setup DATA ATTRS

`setup` is what every train/evaluate/recommend call pays before its own
work: a fresh interpreter imports agrec.cli and loads the prepared dataset.
It prints an environment stamp as one JSON line. With --trace the agrec
functions are wrapped (see tracing.py) and the spans are written to
SPANS.json when the command ends.
"""

from __future__ import annotations

import sys


def _blas_threads():
    import ctypes
    import glob
    import os

    import numpy as np
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "libscipy_openblas*")):
        fn = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return fn()
    return None


def _stamp():
    import importlib.util
    import json
    import platform

    import numpy as np

    from agrec import kernels
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return json.dumps({
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy_version,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "kernel_backend": kernels.active_backend(),
        "blas_threads": _blas_threads()}, sort_keys=True)


def main(argv) -> int:
    spans_path = tracer = None
    if argv[0] == "--trace":
        spans_path, stage, argv = argv[1], argv[3], argv[4:]
    import agrec.cli
    if spans_path:
        from tracing import Tracer
        tracer = Tracer(stage)
        tracer.install()
    try:
        if argv[0] == "cli":
            return agrec.cli.main(argv[1:])
        agrec.pipeline.load_dataset(argv[1], argv[2])
        print(_stamp())
        return 0
    finally:
        if tracer is not None:
            tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
