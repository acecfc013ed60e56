#!/usr/bin/env python3
"""Monte Carlo detectability sweep: copy-number decay versus assembly index
under drifting, jittered per-step error rates. Writes the CSV table and an
SVG plot, and prints the detection horizon for a chosen instrument floor.
A bad config, seed or floor exits 2 with one `error:` line and writes no file."""

import argparse
import dataclasses
import sys
from pathlib import Path

from chemvm.assembly import (
    MonteCarloConfig,
    detection_horizon,
    load_mc_config,
    mc_to_csv,
    mc_to_svg,
    monte_carlo,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", help="JSON file of MonteCarloConfig overrides")
    ap.add_argument("--seed", type=int, help="override the config seed")
    ap.add_argument("--phi", type=float, default=1e6,
                    help="instrument detection floor in copies")
    ap.add_argument("--out-dir", default="mc_out")
    args = ap.parse_args()

    try:
        config = load_mc_config(args.config) if args.config else MonteCarloConfig()
        if args.seed is not None:
            config = dataclasses.replace(config, seed=args.seed)
        result = monte_carlo(config)
        horizon = detection_horizon(result, args.phi)
    except (OSError, ValueError) as exc:    # exit codes as `chemvm`'s
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "mc.csv").write_text(mc_to_csv(result), encoding="utf-8")
    (out / "mc.svg").write_text(mc_to_svg(result, args.phi), encoding="utf-8")
    print(f"wrote {out / 'mc.csv'} and {out / 'mc.svg'}")

    print(f"detection horizon at phi = {args.phi:g} copies:")
    for eps0, ai in sorted(horizon.items()):
        where = "never falls below" if ai is None else f"undetectable past a = {ai}"
        print(f"  eps0 = {eps0:<6g} {where}")


if __name__ == "__main__":
    main()
