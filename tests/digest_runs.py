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
raises prints its exception in place of the digests.

    PYTHONPATH=src python3 tests/digest_runs.py --seed 1 --against digests.txt

does the diff: it prints the digest lines as above and, on stderr, each
operation whose digests differ from those in the file, with the columns
that differ, and each operation present on one side only; it exits 1 if
there is any such operation.

    PYTHONPATH=src python3 tests/digest_runs.py --workload mc_outliers --against digests.txt

digests only the named workload's operations (`--workload` repeats; all
three by default) and compares only the file's lines of those workloads:
the lines whose label starts with the same `/`-separated tag as the
workload's own labels (`chain10`, `mc`, `formation`).  pytest does not
collect this file; `tests/test_digest_runs.py` tests its comparison.
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

# uwbio before test_golden, which imports numpy: the package's BLAS thread
# pin acts only ahead of numpy, as it does in the uwbio entry points.
from uwbio.harness import write_run  # noqa: E402
from test_golden import _feed  # noqa: E402
import workloads  # noqa: E402


# The files that carry the config or its hash.
HEADER_FILES = ("manifest.json", "summary.csv")
COLUMNS = ("config", "result", "logs", "header")


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


def operation_line(op) -> str:
    """The digest line of one operation: its label, then its four digests
    or the exception it raised."""
    with tempfile.TemporaryDirectory() as tmp:
        outdir = Path(tmp)
        try:
            res = op.execute(outdir)
            if not op.writes_logs:
                write_run(res, outdir)
        except Exception as exc:   # reported in the digest line
            return f"{op.label} raised {exc!r}"
        return " ".join([op.label, *digests(res, outdir)])


def parse(lines) -> dict[str, list[str]]:
    """Label -> the four digests of each digest line, or [the exception
    text] for an operation that raised."""
    out = {}
    for line in lines:
        label, _, rest = line.strip().partition(" ")
        if label:
            out[label] = [rest] if rest.startswith("raised ") else rest.split()
    return out


def select(digested: dict, labels) -> dict:
    """The entries of `digested` whose label starts with the same workload
    tag as one of `labels`: `mc` of `mc/p=0.1/on/seed=3`."""
    tags = {label.partition("/")[0] for label in labels}
    return {label: d for label, d in digested.items() if label.partition("/")[0] in tags}


def differences(want: dict, got: dict) -> list[str]:
    """One line per operation whose digests differ, naming the columns
    (or `raised` where one side raised), and per operation present on one
    side only."""
    out = [f"{label}: missing" for label in want.keys() - got.keys()]
    out += [f"{label}: extra" for label in got.keys() - want.keys()]
    for label in want.keys() & got.keys():
        a, b = want[label], got[label]
        if a == b:
            continue
        if len(a) == len(b) == len(COLUMNS):
            cols = [c for c, x, y in zip(COLUMNS, a, b) if x != y]
        else:
            cols = ["raised"]
        out.append(f"{label}: {', '.join(cols)} differ")
    return sorted(out)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1, help="benchmark seed")
    ap.add_argument("--workload", action="append", choices=workloads.WORKLOADS,
                    help="digest only this workload's operations (repeatable; default all)")
    ap.add_argument("--against", type=Path, default=None,
                    help="digest file to compare with, as this script printed it")
    args = ap.parse_args(argv)
    want = parse(args.against.read_text().splitlines()) if args.against else None
    lines = []
    for name in args.workload or workloads.WORKLOADS:
        for op in workloads.build(name, args.seed):
            lines.append(operation_line(op))
            print(lines[-1], flush=True)
    if want is None:
        return 0
    got = parse(lines)
    want = select(want, got)
    diff = differences(want, got)
    for line in diff:
        print(line, file=sys.stderr)
    print(f"{len(diff)} of {len(want.keys() | got.keys())} operations differ from "
          f"{args.against}", file=sys.stderr)
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
