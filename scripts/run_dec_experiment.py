#!/usr/bin/env python3
"""Paired correction-on versus correction-off comparison over a sweep of
injected error rates, one `evaluate_correction` row per eps (its docstring
and README's "Error correction" describe the pairing and the sign test).
Errors and exit codes are those of `chemvm`."""

import argparse
import csv
import sys

from chemvm.chemlang import parse_program
from chemvm.cli import Files, exit_code
from chemvm.dec import DEFAULT_POLICY, evaluate_correction, loads_policy
from chemvm.rules import loads_rules


def _eps_values(text: str) -> list[float]:
    """The sweep's error rates: the numbers `text` lists, at least one."""
    values = []
    for tok in filter(None, map(str.strip, text.split(","))):
        try:
            values.append(float(tok))
        except ValueError:
            raise ValueError(f"--eps: {tok!r} is not a number") from None
    if not values:
        raise ValueError("--eps names no error rate")
    return values


def sweep(args) -> None:
    eps_values = _eps_values(args.eps)
    if args.n_seeds < 1:
        raise ValueError(f"--n-seeds must be at least 1, not {args.n_seeds}")
    files = Files()
    prog = parse_program(files.text(args.program))
    db = files.load(loads_rules, args.rules)
    policy = files.load(loads_policy, args.policy) if args.policy else DEFAULT_POLICY
    rows = [{"eps": eps, **evaluate_correction(prog, db, policy=policy, eps=eps,
                                               n_seeds=args.n_seeds)}
            for eps in eps_values]

    print(f"{'eps':>6} {'corrected':>10} {'baseline':>10} {'b':>4} {'c':>4} {'p':>12}")
    for r in rows:
        print(f"{r['eps']:>6g} {r['rate_corrected']:>10.3f} {r['rate_baseline']:>10.3f} "
              f"{r['discordant_better']:>4d} {r['discordant_worse']:>4d} "
              f"{r['p_value']:>12.3e}")
    if args.out:
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {args.out}", file=sys.stderr)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("program", help=".chem program to stress")
    ap.add_argument("rules", help="rule database")
    ap.add_argument("--eps", default="0.0,0.1,0.2,0.3",
                    help="comma-separated injected error rates")
    ap.add_argument("--n-seeds", type=int, default=200)
    ap.add_argument("--policy", help="correction policy JSON")
    ap.add_argument("--out", help="write the sweep as CSV")
    args = ap.parse_args()
    return exit_code(args, lambda: sweep(args))


if __name__ == "__main__":
    sys.exit(main())
