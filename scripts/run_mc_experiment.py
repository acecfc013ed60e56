#!/usr/bin/env python3
"""Monte Carlo detectability sweep: copy-number decay versus assembly index
under drifting, jittered per-step error rates. Writes the CSV and SVG that
`chemvm mc` writes for the same config and seed, and prints the detection
horizon at the instrument floor `--phi`. Errors and exit codes are those
of `chemvm`, and a bad config, seed or floor writes no file."""

import argparse
import dataclasses
import sys
from pathlib import Path

from chemvm.assembly import (
    MonteCarloConfig,
    detection_horizon,
    loads_mc_config,
    mc_to_csv,
    mc_to_svg,
    monte_carlo,
)
from chemvm.cli import Files, exit_code


def experiment(args) -> None:
    config = Files().load(loads_mc_config, args.config) if args.config else MonteCarloConfig()
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    result = monte_carlo(config)
    horizon = detection_horizon(result, args.phi)

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "mc.csv").write_text(mc_to_csv(result), encoding="utf-8")
    (out / "mc.svg").write_text(mc_to_svg(result), encoding="utf-8")
    print(f"wrote {out / 'mc.csv'} and {out / 'mc.svg'}")

    print(f"detection horizon at phi = {args.phi:g} copies:")
    for eps0, ai in sorted(horizon.items()):
        where = "never falls below" if ai is None else f"undetectable past a = {ai}"
        print(f"  eps0 = {eps0:<6g} {where}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", help="JSON file of MonteCarloConfig overrides")
    ap.add_argument("--seed", type=int, help="override the config seed")
    ap.add_argument("--phi", type=float, default=1e6,
                    help="instrument detection floor in copies, for the horizon")
    ap.add_argument("--out-dir", default="mc_out")
    args = ap.parse_args()
    return exit_code(args, lambda: experiment(args))


if __name__ == "__main__":
    sys.exit(main())
