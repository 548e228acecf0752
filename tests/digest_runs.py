"""Digest every operation of the benchmark workloads, one line per run.

    PYTHONPATH=src python3 tests/digest_runs.py --seed 1 > digests.txt

runs each operation of `chain10_noisy`, `mc_outliers` and `formation_logs`
(`benchmarks/workloads.py`) at the given benchmark seed and prints its
label, then four sha256 digests:

- `config`: the config's canonical JSON, the form `config_hash` is taken
  over;
- `result`: every `RunResult` field but `config` (metrics included, in the
  `test_golden._feed` encoding);
- `logs`: every file `write_run` writes except `manifest.json` and
  `summary.csv`;
- `header`: those two files, which carry the config and its hash.

Running it on two commits and diffing the outputs checks that a change
keeps every logged byte; a change to the config schema that keeps every
logged value moves only the `config` and `header` columns.  A run that
raises prints its exception in place of the digests.  pytest does not
collect this file.
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


# The files that carry the config or its hash.
HEADER_FILES = ("manifest.json", "summary.csv")


def result_digest(res) -> str:
    h = hashlib.sha256()
    _feed(h, replace(res, config=None))
    return h.hexdigest()


def files_digest(paths) -> str:
    h = hashlib.sha256()
    for path in sorted(paths):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def digests(res, outdir: Path) -> list[str]:
    """The `config`, `result`, `logs` and `header` digests of one run."""
    files = list(outdir.iterdir())
    return [hashlib.sha256(res.config.canonical_json().encode()).hexdigest(),
            result_digest(res),
            files_digest(f for f in files if f.name not in HEADER_FILES),
            files_digest(f for f in files if f.name in HEADER_FILES)]


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
                print(op.label, *digests(res, outdir), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
