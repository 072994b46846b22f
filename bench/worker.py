"""One pass of a benchmark workload, in a fresh interpreter.

    python3 bench/worker.py --workload NAME --seed N [--trace] [--tiny]

Imports `gaincover` from the checkout's `src/`, writes the workload's inputs
to a private directory under the checkout, and times each invocation of
`gaincover.cli.main`. The calibration loop (bench/calibration.py) is timed
after set-up and after every invocation, so each invocation has a loop time
just before and just after it. Outputs are checked after the clock stops.
Prints one JSON object: set-up and run seconds, the loop times, peak RSS,
per-invocation digests and problems, and with `--trace` the per-layer
statistics. Exits 1 when the package cannot be imported from the checkout.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import calibration  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def import_package():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import gaincover.cli
    except ImportError as exc:
        sys.exit(f"cannot import gaincover from {src}: {exc}")
    if not Path(gaincover.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"gaincover was imported from {gaincover.__file__}, not {src}")
    return gaincover.cli


def provenance():
    import ctypes
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            try:
                fn = getattr(ctypes.CDLL(str(lib)), sym)
            except (OSError, AttributeError):
                continue
            fn.restype = ctypes.c_int
            threads = fn()
            break
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
    }


def run_pass(cli, invocations, calib_s):
    """Time every invocation and check its output; one record per invocation.

    `calib_s` is the calibration loop's time just before the first one.
    """
    records = []
    for inv in invocations:
        buf = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(inv.argv)
        except Exception:  # a crash is a failed invocation, not a failed pass
            code = None
            traceback.print_exc()
        wall_s = time.perf_counter() - start
        after = calibration.measure()
        rec = {"label": inv.label, "wall_s": wall_s, "calib_s": (calib_s + after) / 2,
               "seeded": inv.seeded, "digest": None, "problems": []}
        calib_s = after
        if code != 0:
            rec["problems"].append(f"exit code {code}")
        else:
            try:
                out = json.loads(buf.getvalue())
                rec["problems"] += inv.check(out)
                rec["digest"] = workloads.digest(out)
            except (ValueError, KeyError, TypeError) as exc:
                rec["problems"].append(f"unreadable output: {exc!r}")
        records.append(rec)
    return records


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()

    # on SIGTERM, unwind so that the input directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    cli = import_package()
    workdir = tempfile.mkdtemp(prefix=".bench-tmp-", dir=ROOT)
    try:
        invocations = workloads.build(args.workload, args.seed, workdir, args.tiny)
        setup_s = time.perf_counter() - T0
        calibration.work()  # warm-up: first-call costs are not the host's speed
        setup_calib_s = calibration.measure()
        tracer = None
        if args.trace:
            tracer = spans.Tracer()
            tracer.install()
        records = run_pass(cli, invocations, setup_calib_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "setup_s": setup_s,
        "setup_calib_s": setup_calib_s,
        "run_s": sum(rec["wall_s"] for rec in records),
        "assignments": sum(inv.assignments for inv in invocations),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "invocations": records,
        "layers": tracer.metrics() if tracer else None,
        "provenance": provenance(),
    }))


if __name__ == "__main__":
    main()
