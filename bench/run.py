"""gaincover benchmark: the `gaincover` CLI on three closed-loop workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. One client sends the next CLI call only
when the previous one has returned. The run repeats passes of the workload
for about S seconds; each pass is one fresh interpreter (bench/worker.py),
so the package's caches start empty, as they do for a CLI user. Inputs
depend only on the workload and the seed.

Workloads (see BENCHMARK.json for why each was chosen):
  search-exhaustive  `search --mode exhaustive` on seven base/group pairs,
                     2602 assignments of 12-20-vertex covers; no seed.
  walkreg-random     `verify walk-regularity` on the criterion-10 set, one
                     call per base/group pair, 20 samples per pair (400
                     covers), `--seed N`.
  classify-large     `classify` on a ladder of single covers: Huang Q5/z2
                     (64 vertices), random Q5/z3 (96), random K(8,2)/z4
                     (112), Huang Q6/z2 (128); random gains from the seed.

With `--trace 0` the end-to-end metrics are medians over the passes. Times
are taken relative to the calibration loop (bench/calibration.py), timed
around every invocation and after set-up: the host's speed drifts by up to
1.5x for seconds at a time, and the ratio cancels the drift. `run_s` sums
over the invocations each one's median ratio of wall time to loop time, in
seconds at the loop's reference time; `setup_s` is the median set-up time
taken the same way. A line before the result gives both uncalibrated, with
the loop's median time. With `--trace 1` every second pass is traced
(bench/spans.py) and the run prints the per-layer medians over the traced
passes, in uncalibrated seconds, plus the calibrated traced run time against
the untraced one as `trace_overhead_frac`.

Correctness: every invocation must exit 0 and meet its invariants
(bench/workloads.py); its output digest must be the same in every pass, and
at the default seed, or for an invocation that does not use the seed, equal
the one in bench/reference.json. An invocation that fails any of these is
counted in `failed`, and `failed / attempted` is printed as `failed_frac`.

The last line of standard output is the JSON result. Earlier lines give the
provenance and each metric with its unit. Exits 1 without a result when a
pass cannot run, for instance when the checkout has no `src/gaincover`.
"""

import argparse
import json
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from calibration import REFERENCE_S  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "assignments_per_s": "1/s",
    "peak_rss_mb": "MB",
}

_MATRIX = ("spectral.char_poly_int_matrix", "spectral.jacobi_eigenvalues")
PER_LAYER = {
    **{f"{m}.{stat}": unit for m in _MATRIX
       for stat, unit in (("calls", "count"), ("self_s", "s"), ("rows", "count"))},
    **{f"{m}.self_s.n{n}": "s" for m in _MATRIX for n in (64, 96, 112, 128)},
    "spectral.hermitian_spectrum.self_s": "s",
    "spectral.character_block_check.self_s": "s",
    "spectral.classify_two_ev.calls": "count",
    "spectral.classify_two_ev.self_s": "s",
    "spectral.classify_two_ev.hit_ratio": "ratio",
    "spectral.spectral_difference_poly.self_s": "s",
    "spectral.char_poly.calls": "count",
    "spectral.char_poly.cache_hit_ratio": "ratio",
    "search.enumerate_gains.yielded": "count",
    "search.enumerate_gains.self_s": "s",
    "gains.lift.calls": "count",
    "gains.lift.self_s": "s",
    "gains.lift.cover_vertices": "count",
    "gains.components.self_s": "s",
    "graphs.connected_components.calls": "count",
    "graphs.connected_components.self_s": "s",
    "intpoly.squarefree_part.calls": "count",
    "intpoly.squarefree_part.self_s": "s",
    "intpoly.integer_roots.self_s": "s",
    **{f"regularity.{f}.{stat}": unit
       for f in ("regularity_certificate", "is_walk_regular", "is_distance_regular",
                 "is_antipodal", "drackn_parameters")
       for stat, unit in (("calls", "count"), ("self_s", "s"))},
    "graphs.girth.self_s": "s",
    "graphs.distances.self_s": "s",
    "cli.gain_report.self_s": "s",
    "cli.graph_report.self_s": "s",
    "gains.parse_gain_file.self_s": "s",
    "trace_overhead_frac": "ratio",
}

WORKER_TIMEOUT_S = 170


def git_sha():
    """HEAD of the checkout's git metadata, read from files; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_worker(args, traced, started):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed)]
    if traced:
        cmd.append("--trace")
    if args.tiny:
        cmd.append("--tiny")
    timeout = WORKER_TIMEOUT_S - (time.monotonic() - started)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        sys.exit("a pass did not finish in time")
    if proc.returncode != 0:
        sys.exit(f"a pass exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_passes(args):
    """Passes until the next one would end after `--seconds`; at least one,
    and with tracing at least one untraced and one traced."""
    started = time.monotonic()
    passes = []
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        t = time.monotonic()
        p = run_worker(args, traced, started)
        p["traced"] = traced
        p["wall_s"] = time.monotonic() - t
        passes.append(p)
        print(f"pass {len(passes)}{' traced' if traced else ''}: run_s {p['run_s']:.4f} "
              f"setup_s {p['setup_s']:.4f}", file=sys.stderr)
        elapsed = time.monotonic() - started
        typical = statistics.median(q["wall_s"] for q in passes)
        if elapsed + typical > args.seconds and len(passes) >= (2 if args.trace else 1):
            return passes


def count_failures(passes, seed):
    """(attempted, failed, problem lines) over every invocation of every pass."""
    reference = json.loads((HERE / "reference.json").read_text())
    expected = reference["digests"]
    at_reference_seed = seed == reference["seed"]
    first = {}
    attempted = failed = 0
    problems = []
    for i, p in enumerate(passes):
        for rec in p["invocations"]:
            attempted += 1
            label, got = rec["label"], rec["digest"]
            bad = list(rec["problems"])
            if got is not None:
                first.setdefault(label, got)
                if got != first[label]:
                    bad.append("digest differs from the first pass")
                want = expected.get(label)
                if want is not None and (at_reference_seed or not rec["seeded"]) \
                        and got != want:
                    bad.append(f"digest {got[:12]} != reference {want[:12]}")
            if bad:
                failed += 1
                problems += [f"pass {i} {label}: {b}" for b in bad]
    return attempted, failed, problems


def run_seconds(passes, calibrated=True):
    """Sum over the invocations of a pass of each one's median wall time,
    taken relative to the calibration loop around it unless `calibrated` is
    false.

    A median per invocation, rather than of whole passes, drops a burst of
    load from other processes that slows one call of a pass.
    """
    walls = defaultdict(list)
    for p in passes:
        for rec in p["invocations"]:
            scale = REFERENCE_S / rec["calib_s"] if calibrated else 1.0
            walls[rec["label"]].append(rec["wall_s"] * scale)
    return sum(statistics.median(w) for w in walls.values())


def setup_seconds(passes, calibrated=True):
    return statistics.median(
        p["setup_s"] * (REFERENCE_S / p["setup_calib_s"] if calibrated else 1.0)
        for p in passes)


def end_to_end(passes):
    plain = [p for p in passes if not p["traced"]]
    run_s = run_seconds(plain)
    return {
        "setup_s": setup_seconds(passes),
        "run_s": run_s,
        "assignments_per_s": plain[0]["assignments"] / run_s,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
    }


def per_layer(passes):
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    out = {name: statistics.median(p["layers"].get(name, 0.0) for p in traced)
           for name in PER_LAYER if name != "trace_overhead_frac"}
    out["trace_overhead_frac"] = run_seconds(traced) / run_seconds(plain) - 1.0
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="self-test sizes; the numbers mean nothing")
    args = ap.parse_args()
    # on SIGTERM, unwind so that subprocess.run kills and reaps the pass
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    passes = run_passes(args)
    attempted, failed, problems = count_failures(passes, args.seed)
    for line in problems:
        print("FAILED", line, file=sys.stderr)
    if args.trace:
        values, units = per_layer(passes), PER_LAYER
    else:
        values, units = end_to_end(passes), END_TO_END

    print("provenance", json.dumps({
        **passes[0]["provenance"], "git_sha": git_sha(), "workload": args.workload,
        "seed": args.seed, "trace": bool(args.trace), "tiny": args.tiny,
        "passes": len(passes), "traced_passes": sum(p["traced"] for p in passes)}))
    plain = [p for p in passes if not p["traced"]]
    print("uncalibrated", json.dumps({
        "setup_s": setup_seconds(passes, False), "run_s": run_seconds(plain, False),
        "calibration_s": statistics.median(r["calib_s"] for p in plain
                                           for r in p["invocations"])}))
    for name, value in values.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(f"failed_frac {failed / attempted:.6g} ratio ({failed}/{attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))


if __name__ == "__main__":
    main()
