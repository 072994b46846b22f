"""Write bench/reference.json: the output digest of every invocation of every
workload, at full and self-test sizes, at the default seed.

    python3 bench/record_reference.py

Run it only when the CLI's JSON output outside `meta` changes on purpose.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def main():
    digests = {}
    for workload in workloads.WORKLOADS:
        for size in ([], ["--tiny"]):
            out = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), "--workload", workload,
                 "--seed", str(workloads.DEFAULT_SEED), *size],
                cwd=HERE.parent, stdout=subprocess.PIPE, text=True, check=True).stdout
            for rec in json.loads(out.strip().splitlines()[-1])["invocations"]:
                if rec["problems"]:
                    sys.exit(f"{rec['label']}: {rec['problems']}")
                digests[rec["label"]] = rec["digest"]
    text = json.dumps({"seed": workloads.DEFAULT_SEED, "digests": digests},
                      indent=2, sort_keys=True)
    (HERE / "reference.json").write_text(text + "\n")


if __name__ == "__main__":
    main()
