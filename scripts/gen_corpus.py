#!/usr/bin/env python3
"""Write the synthetic scaling corpus: one program per chain length, each
reaction step exactly `ops-per-step` operations, so op counts grow linearly
with chain length by construction. Errors and exit codes are those of
`chemvm`: a bad count writes no file."""

import argparse
import sys
from pathlib import Path

from chemvm.chemlang import format_program, synthetic_program
from chemvm.cli import exit_code


def write_corpus(args) -> None:
    out = Path(args.out_dir)
    texts = {out / f"synthetic_{k:02d}.chem":
             format_program(synthetic_program(k, args.ops_per_step))
             for k in range(1, args.max_steps + 1)}
    out.mkdir(parents=True, exist_ok=True)
    for path, text in texts.items():
        path.write_text(text, encoding="utf-8")
        print(path)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="corpus", help="directory to write into")
    ap.add_argument("--max-steps", type=int, default=10)
    ap.add_argument("--ops-per-step", type=int, default=15)
    args = ap.parse_args()
    return exit_code(args, lambda: write_corpus(args))


if __name__ == "__main__":
    sys.exit(main())
