"""Command line interface: run one scenario, sweep a parameter axis, or
summarize a finished output directory.

The output directory may also be set through the UWBIO_OUT environment
variable; an explicit --out wins.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import ConfigError, load_config
from .harness import SWEEP_AXES, report, run_to_dir, sweep
from . import scenarios

SCENARIOS = {
    "two_robot_benchmark": scenarios.two_robot_benchmark,
    "four_robot_formation": scenarios.four_robot_formation,
    "chain_swarm_5": lambda: scenarios.chain_swarm(5),
}


def _outdir(args) -> str:
    out = args.out or os.environ.get("UWBIO_OUT")
    if not out:
        raise SystemExit("no output directory: pass --out or set UWBIO_OUT")
    return out


def _axis_values(text: str) -> list[float]:
    """`--values`: comma-separated numbers, no field empty."""
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}") from None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="uwbio",
                                     description="relative localization and formation "
                                                 "control simulation harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario and write its logs")
    p_run.add_argument("--config", required=True, help="scenario JSON file")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--out", default=None, help="output directory")

    p_sweep = sub.add_parser("sweep", help="run a (value x seed) grid along one axis")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p_sweep.add_argument("--values", required=True, type=_axis_values,
                         help="comma-separated axis values, e.g. 0.01,0.05,0.1")
    p_sweep.add_argument("--seeds", type=int, default=20, help="seeds per value")
    p_sweep.add_argument("--out", default=None)

    p_report = sub.add_parser("report", help="summarize a run or sweep directory")
    p_report.add_argument("outdir")
    p_report.add_argument("--max-track-pos", type=float, default=None,
                          help="fail when the final tracking error exceeds this bound")
    p_report.add_argument("--allow-unconverged", action="store_true")

    p_scn = sub.add_parser("scenario", help="write a canned scenario config file")
    p_scn.add_argument("name", choices=sorted(SCENARIOS))
    p_scn.add_argument("path", help="destination JSON file")

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except (ConfigError, OSError) as exc:
        # Bad input, a missing or unwritable file included (MissingLogs is a
        # FileNotFoundError), is a usage error, as argparse reports its own.
        parser.exit(2, f"{parser.prog}: error: {exc}\n")


def _dispatch(args) -> int:
    if args.command == "scenario":
        SCENARIOS[args.name]().save(args.path)
        print(f"wrote {args.name} to {args.path}")
        return 0

    if args.command == "run":
        config = load_config(args.config)
        res = run_to_dir(config, _outdir(args), seed=args.seed)
        row = res.summary_row()
        print(f"run complete: {row['n_ticks']} ticks, "
              f"stage-2 from tick {row['transition_tick']}, "
              f"final estimation error {row['final_theta_err_mean']}")
        print(f"logs in {_outdir(args)}")
        return 0

    if args.command == "sweep":
        config = load_config(args.config)
        result = sweep(config, args.axis, args.values, args.seeds, _outdir(args))
        print(f"sweep over {args.axis} complete: {len(result.rows)} runs, "
              f"{len(result.failures)} failures; logs in {_outdir(args)}")
        return 1 if result.failures else 0

    if args.command == "report":
        return report(args.outdir, max_track_pos=args.max_track_pos,
                      require_convergence=not args.allow_unconverged)

    return 2


if __name__ == "__main__":
    sys.exit(main())
