"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest bench -q

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that a wrong reference digest is counted as a failure, and that a directory
without the package gives no result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(bench_dir, workload, trace, seed=20240817):
    proc = subprocess.run(
        [sys.executable, str(bench_dir / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=bench_dir.parent, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=120)
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def results():
    return {(w, t): result(run(HERE, w, t)) for w in WORKLOADS for t in (0, 1)}


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_is_emitted_with_its_unit(results, trace, key):
    want = {m["name"]: m["unit"] for m in SPEC[key]}
    for w in WORKLOADS:
        res = results[(w, trace)]
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
        got = {name: m["unit"] for name, m in res["metrics"].items()}
        assert got == want, w
        for name, m in res["metrics"].items():
            assert isinstance(m["value"], float), (w, name)
            if trace == 0:
                assert m["value"] > 0, (w, name)


def test_every_layer_metric_is_measured_somewhere(results):
    # the per-size buckets need the full-size classify-large ladder
    for m in SPEC["per_layer"]:
        if ".self_s.n" in m["name"]:
            continue
        assert any(results[(w, 1)]["metrics"][m["name"]]["value"] != 0
                   for w in WORKLOADS), m["name"]


def test_jacobi_is_not_called_by_the_search(results):
    metrics = results[("search-exhaustive", 1)]["metrics"]
    assert metrics["spectral.jacobi_eigenvalues.calls"]["value"] == 0
    assert metrics["spectral.char_poly_int_matrix.calls"]["value"] > 0


def copy_bench(tmp_path):
    dest = tmp_path / "bench"
    shutil.copytree(HERE, dest, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    return dest


def test_wrong_reference_digest_counts_as_failed(tmp_path):
    bench = copy_bench(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    ref = json.loads((bench / "reference.json").read_text())
    ref["digests"] = {label: "0" * 64 for label in ref["digests"]}
    (bench / "reference.json").write_text(json.dumps(ref))
    proc = run(bench, "search-exhaustive", 0)
    res = result(proc)
    assert res["correct"] is False
    assert 0 < res["failed"] <= res["attempted"]
    frac = next(line for line in proc.stdout.splitlines() if line.startswith("failed_frac"))
    assert float(frac.split()[1]) > 0


def test_checkout_without_the_package_gives_no_result(tmp_path):
    bench = copy_bench(tmp_path)
    proc = run(bench, "search-exhaustive", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
