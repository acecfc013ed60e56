#!/usr/bin/env python3
"""Paired correction-on versus correction-off comparison over a sweep of
injected error rates. Both arms of a seed run on its same draws. An arm's
state is a function of its draws' classes (each injection's mode, each
sensing's severity), so each arm walks an outcome tree of those classes
and runs the machine once per distinct class path, per arm, per eps, not
once per seed (see `evaluate_correction`). The exact sign test on the
discordant pairs says whether closing the loop helps."""

import argparse
import csv
import sys
from pathlib import Path

from chemvm.chemlang import ParseError, parse_program
from chemvm.dec import DEFAULT_POLICY, evaluate_correction, load_policy
from chemvm.rules import load_rules


def _eps_values(text: str) -> list[float]:
    """The sweep's error rates. Raises ValueError unless `text` names at
    least one and each is a number in [0, 1]."""
    values = []
    for tok in filter(None, map(str.strip, text.split(","))):
        try:
            eps = float(tok)
        except ValueError:
            raise ValueError(f"--eps: {tok!r} is not a number") from None
        if not 0.0 <= eps <= 1.0:
            raise ValueError(f"--eps: {tok} is not in [0, 1]")
        values.append(eps)
    if not values:
        raise ValueError("--eps names no error rate")
    return values


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("program", help=".chem program to stress")
    ap.add_argument("rules", help="rule database")
    ap.add_argument("--eps", default="0.0,0.1,0.2,0.3",
                    help="comma-separated injected error rates")
    ap.add_argument("--n-seeds", type=int, default=200)
    ap.add_argument("--policy", help="correction policy JSON")
    ap.add_argument("--out", help="write the sweep as CSV")
    args = ap.parse_args()

    try:
        eps_values = _eps_values(args.eps)
        if args.n_seeds < 1:
            raise ValueError(f"--n-seeds must be at least 1, not {args.n_seeds}")
        prog = parse_program(Path(args.program).read_text(encoding="utf-8"))
        db = load_rules(args.rules)
        policy = load_policy(args.policy) if args.policy else DEFAULT_POLICY
    except ParseError as exc:            # exit codes as `chemvm`'s
        print(f"parse error: {exc}", file=sys.stderr)
        sys.exit(1)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)

    rows = []
    print(f"{'eps':>6} {'corrected':>10} {'baseline':>10} {'b':>4} {'c':>4} {'p':>12}")
    for eps in eps_values:
        r = evaluate_correction(prog, db, policy=policy, eps=eps,
                                n_seeds=args.n_seeds)
        rows.append({"eps": eps, **r})
        print(f"{eps:>6g} {r['rate_corrected']:>10.3f} {r['rate_baseline']:>10.3f} "
              f"{r['discordant_better']:>4d} {r['discordant_worse']:>4d} "
              f"{r['p_value']:>12.3e}")

    if args.out:
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {args.out}", file=sys.stderr)


if __name__ == "__main__":
    main()
