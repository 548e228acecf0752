"""Digest every operation of the benchmark workloads, one line per run.

    PYTHONPATH=src python3 tests/digest_runs.py --seed 1 > digests.txt

runs each operation of `chain10_noisy`, `mc_outliers` and `formation_logs`
(`benchmarks/workloads.py`) at the given benchmark seed and prints its
label, then one sha256 over every `RunResult` field (metrics included, in
the `test_golden._feed` encoding), then one over every file `write_run`
writes.  The config enters as its canonical JSON, the form `config_hash`
is taken over, so a change to the config classes that keeps every key and
value keeps the digest.  Running it on two commits and diffing the outputs
checks that a change keeps every logged byte.  A run that raises prints
its exception in place of the digests.  pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "benchmarks"), str(HERE.parent / "src")]

from test_golden import _feed  # noqa: E402
from uwbio.harness import write_run  # noqa: E402
import workloads  # noqa: E402


def result_digest(res) -> str:
    h = hashlib.sha256()
    _feed(h, replace(res, config=res.config.canonical_json()))
    return h.hexdigest()


def files_digest(outdir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(outdir.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1, help="benchmark seed")
    args = ap.parse_args(argv)
    for name in workloads.WORKLOADS:
        for op in workloads.build(name, args.seed):
            with tempfile.TemporaryDirectory() as tmp:
                outdir = Path(tmp)
                try:
                    res = op.execute(outdir)
                    if not op.writes_logs:
                        write_run(res, outdir)
                except Exception as exc:   # reported in the digest line
                    print(f"{op.label} raised {exc!r}", flush=True)
                    continue
                print(f"{op.label} {result_digest(res)} {files_digest(outdir)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
