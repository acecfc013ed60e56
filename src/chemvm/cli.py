"""Command-line entry point for the toolchain.

One executable, eight subcommands: parse | validate | run | plan |
compile | stats | mc | dec-run. Every command is deterministic: with
fixed inputs and a fixed --seed, stdout and every file it writes are
byte-identical across runs. Any input path may be `-`, for stdin (read
once, however many inputs name it), and any output path `-`, for stdout.
Stdout carries one document, written once the command returns: the output
sent there (two are an error), else the summary of run, dec-run or stats,
which goes to stderr when an output took stdout.
Next to the first file output of a command goes a `<name>.manifest.json`
recording the command line, the sha256 of each input file as it was read
(not of stdin), the seed, the tool version and the sha256 of every
output, so a result can be traced back to exactly what produced it.

Exit codes:
    0       success (for run and dec-run: the machine halted q_out)
    10      halted q_uout (unexpected product)
    11      halted q_nout (expected product missing)
    12      halted q_fail
    1       parse errors; compile onto a rig that cannot host the program
    2       I/O, validation and configuration errors, among them a
            malformed rule, rig, policy or config file, an option out of
            its range (a --budget or --depth below 1, a --seed below 0),
            and a program `validate` finds infeasible (any finding,
            `no_route` included)
    3       planning found no pathway (unreachable or unstable target)
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import math
import shlex
import sys
from pathlib import Path
from typing import Callable

from . import __version__
from .assembly import (
    MonteCarloConfig, loads_mc_config, mc_to_csv, mc_to_svg, monte_carlo,
)
from .chemlang import (
    CATEGORIES,
    ParseError,
    classify_steps,
    format_program,
    parse_program,
    validate_program,
)
from .chempiler import build_default_graph, chempile, execute_plan, loads_graph
from .cstm import DEFAULT_BUDGET, run
from .dec import DEFAULT_POLICY, evaluate_correction, loads_policy, run_with_dec
from .jsonio import dumps_stable, sha256_bytes, sha256_file, write_text_atomic
from .rules import (
    Unreachable,
    UnstableTarget,
    apply_rule_events,
    dumps_rules,
    loads_rules,
    pathway_to_program,
    plan_pathway,
)

__all__ = ["main", "HALT_EXIT", "Files", "exit_code"]

HALT_EXIT = {"q_out": 0, "q_uout": 10, "q_nout": 11, "q_fail": 12}

# The lowest value of each integer option, on every entry point that has it
# (`max_steps` is `scripts/gen_corpus.py`'s).
_LOWEST = {"budget": 1, "depth": 1, "seed": 0, "max_steps": 1}


def exit_code(args: argparse.Namespace, body: Callable[[], int | None]) -> int:
    """The exit code of `body()` (0 for None) under the error contract of
    `main` and the scripts: each integer option `_LOWEST` names is checked
    first, and an error prints one line to stderr and gives its exit code."""
    try:
        for name, lowest in _LOWEST.items():
            value = getattr(args, name, None)
            if value is not None and value < lowest:
                raise ValueError(f"{name} must be an integer >= {lowest}")
        return body() or 0
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 1
    except (UnstableTarget, Unreachable) as e:
        print(f"no pathway: {e}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


@dataclasses.dataclass
class Files:
    """The files one command reads and writes, for its manifest. `text` reads
    an input path (stdin for `-`, read once and handed back on each later
    `-`), decodes it as `Path.read_text(encoding="utf-8")` does and keeps
    the sha256 of the bytes it decoded; `load` hands the text to a loader
    such as `loads_rules`; `write` lists each output, and holds the one
    document for stdout until the command returns."""

    seed: int | None = None
    inputs: dict[str, str] = dataclasses.field(default_factory=dict)  # path -> sha256 read
    outputs: list[Path] = dataclasses.field(default_factory=list)
    stdin: str | None = None
    stdout: str | None = None

    def text(self, path: str) -> str:
        if path == "-":
            if self.stdin is None:
                self.stdin = sys.stdin.read()
            return self.stdin
        data = Path(path).read_bytes()
        self.inputs[path] = sha256_bytes(data)
        return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()

    def load(self, loads: Callable, path: str):
        return loads(self.text(path), where=str(Path(path)))

    def write(self, path: str | None, text: str) -> None:
        """`text` to the output file `path`, or, when it is None or `-`,
        the stdout document, which only one output may be."""
        if path is None or path == "-":
            if self.stdout is not None:
                raise ValueError("two outputs go to stdout; give one of them a file")
            self.stdout = text
        else:
            write_text_atomic(path, text)
            self.outputs.append(Path(path))

    def summary(self, doc: dict) -> None:
        """A command's summary: to stdout, or to stderr once an output took it."""
        text = dumps_stable(doc, indent=2) + "\n"
        if self.stdout is None:
            self.stdout = text
        else:
            sys.stderr.write(text)

    def write_manifest(self, command: str, argv: list[str]) -> None:
        if not self.outputs:
            return
        payload = {
            "command": shlex.join(["chemvm", *argv]),
            "subcommand": command,
            "version": __version__,
            "seed": self.seed,
            "inputs": self.inputs,
            "outputs": {str(p): sha256_file(p) for p in self.outputs},
        }
        anchor = self.outputs[0]
        write_text_atomic(anchor.with_name(anchor.name + ".manifest.json"),
                          dumps_stable(payload, indent=2) + "\n")


# ---------------------------------------------------------------------------
# Subcommands

def cmd_parse(args, files: Files) -> int:
    files.write(args.out, format_program(parse_program(files.text(args.path))))
    return 0


def cmd_validate(args, files: Files) -> int:
    prog = parse_program(files.text(args.path))
    graph = files.load(loads_graph, args.graph) if args.graph else build_default_graph()
    report = validate_program(prog, graph)
    files.write(args.out, report.to_json())
    return 0 if report.ok else 2


def cmd_run(args, files: Files) -> int:
    if args.persist_rules and args.rules == "-":
        raise ValueError("--persist-rules needs a --rules file to write back to, not stdin")
    db = files.load(loads_rules, args.rules)
    prog = parse_program(files.text(args.path))
    if args.graph:
        plan = chempile(prog, files.load(loads_graph, args.graph))
        if not plan.feasible:
            for f in plan.report.findings:
                print(f"infeasible: {f.code}: {f.message} ({f.where})", file=sys.stderr)
            return 2
        trace = execute_plan(plan, db, seed=args.seed, budget=args.budget,
                             explore=args.explore)
    else:
        trace = run(prog, db, seed=args.seed, budget=args.budget,
                    explore=args.explore)

    if args.trace:
        files.write(args.trace, trace.to_jsonl())
    if args.persist_rules:
        files.write(args.rules, dumps_rules(apply_rule_events(db, trace.rule_events)))
    files.summary({"halt": trace.halt, "ledger": trace.ledger._asdict()})
    return HALT_EXIT[trace.halt]


def cmd_plan(args, files: Files) -> int:
    db = files.load(loads_rules, args.rules)
    stock = {s.strip() for s in (args.stock or "").split(",") if s.strip()}
    pathway = plan_pathway(db, args.target, stock, max_depth=args.depth)
    files.write(args.out, pathway.to_json())
    if args.program:
        files.write(args.program, format_program(pathway_to_program(pathway, db)))
    return 0


def cmd_compile(args, files: Files) -> int:
    prog = parse_program(files.text(args.path))
    graph = files.load(loads_graph, args.graph) if args.graph else build_default_graph()
    plan = chempile(prog, graph)
    files.write(args.out, plan.to_json())
    return 0 if plan.feasible else 1


def _linear_fit(xs: list[float], ys: list[float]) -> tuple[float | None, float | None]:
    """Least-squares slope and R^2; (None, None) when under-determined."""
    n = len(xs)
    if n < 2:
        return None, None
    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    sxx = math.fsum((x - mx) ** 2 for x in xs)
    if sxx == 0.0:
        return None, None
    sxy = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    syy = math.fsum((y - my) ** 2 for y in ys)
    slope = sxy / sxx
    r2 = 1.0 if syy == 0.0 else (sxy * sxy) / (sxx * syy)
    return slope, r2


def cmd_stats(args, files: Files) -> int:
    rows: list[str] = ["program,reaction_step," + ",".join(CATEGORIES)
                       + ",ops,cumulative"]
    summary = []
    for path in args.paths:
        prog = parse_program(files.text(path))
        hist = classify_steps(prog)
        for (marker, counts), prev, cum in zip(hist.per_reaction_step,
                                               [0, *hist.cumulative], hist.cumulative):
            cat_text = ",".join(str(counts[c]) for c in CATEGORIES)
            rows.append(f"{prog.name},{marker},{cat_text},{cum - prev},{cum}")
        slope, r2 = _linear_fit(
            [float(m) for m, _ in hist.per_reaction_step],
            [float(c) for c in hist.cumulative])
        summary.append({
            "program": prog.name,
            "path": path,
            "reaction_steps": len(hist.per_reaction_step),
            "total_ops": hist.total_ops,
            "cumulative": hist.cumulative,
            "slope": slope,
            "r2": r2,
        })

    result: dict = {"programs": summary}
    if len(args.paths) > 1:
        slope, r2 = _linear_fit([float(s["reaction_steps"]) for s in summary],
                                [float(s["total_ops"]) for s in summary])
        result["aggregate"] = {"n": len(summary), "slope": slope, "r2": r2}
    files.write(args.out, "\n".join(rows) + "\n")
    files.summary(result)
    return 0


def cmd_mc(args, files: Files) -> int:
    config = files.load(loads_mc_config, args.config) if args.config else MonteCarloConfig()
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    files.seed = config.seed
    result = monte_carlo(config)
    files.write(args.out, mc_to_csv(result))
    if args.svg:
        files.write(args.svg, mc_to_svg(result))
    return 0


def cmd_dec_run(args, files: Files) -> int:
    db = files.load(loads_rules, args.rules)
    prog = parse_program(files.text(args.path))
    policy = files.load(loads_policy, args.policy) if args.policy else DEFAULT_POLICY

    if args.compare:
        table = evaluate_correction(prog, db, policy=policy,
                                    eps=args.inject_eps, n_seeds=args.seeds,
                                    seed0=args.seed, budget=args.budget)
        files.write(args.out, dumps_stable(table, indent=2) + "\n")
        return 0

    result = run_with_dec(prog, db, policy=policy, seed=args.seed,
                          eps=args.inject_eps, budget=args.budget)
    if args.out:
        files.write(args.out, result.trace.to_jsonl())
    files.summary(result.summary())
    return HALT_EXIT[result.halt]


# ---------------------------------------------------------------------------
# Wiring

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chemvm",
        description="Deterministic toolchain for vessel-tape synthesis programs.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def seed_flag(p):
        p.add_argument("--seed", type=int, default=0,
                       help="root seed for all randomness (default 0)")

    def budget_flag(p):
        p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                       help=f"machine steps a run may take (default {DEFAULT_BUDGET})")

    p = sub.add_parser("parse", help="parse a program and print it canonically")
    p.add_argument("path", help="program file, or - for stdin")
    p.add_argument("--out", help="write canonical text here instead of stdout")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("validate", help="check a program against a rig")
    p.add_argument("path")
    p.add_argument("--graph", help="hardware graph JSON (default: built-in rig)")
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("run", help="execute a program; exit code encodes the halt")
    p.add_argument("path")
    p.add_argument("--rules", required=True, help="rule database file")
    p.add_argument("--graph", help="compile onto this rig and execute the plan")
    budget_flag(p)
    seed_flag(p)
    p.add_argument("--trace", "--out", dest="trace", metavar="OUT",
                   help="write the JSON-lines trace here")
    p.add_argument("--explore", action="store_true",
                   help="allow discovery of latent rules on no-match")
    p.add_argument("--persist-rules", action="store_true",
                   help="write promotions and discoveries back to --rules")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("plan", help="find a pathway to a target species")
    p.add_argument("--rules", required=True)
    p.add_argument("--target", required=True, help="species id to make")
    p.add_argument("--stock", default="",
                   help="comma-separated species available from stock")
    p.add_argument("--depth", type=int, default=12, help="max pathway length")
    p.add_argument("--out", help="write the pathway JSON here instead of stdout")
    p.add_argument("--program",
                   help="also encode the pathway as a program file here")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("compile", help="bind a program onto a hardware graph")
    p.add_argument("path")
    p.add_argument("--graph", help="hardware graph JSON (default: built-in rig)")
    p.add_argument("--out", help="write the plan JSON here instead of stdout")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("stats", help="per-step operation histograms and linear fit")
    p.add_argument("paths", nargs="+", help="program files")
    p.add_argument("--out", help="write the histogram CSV here instead of stdout")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("mc", help="Monte Carlo copy-number decay experiment")
    p.add_argument("--config", help="JSON file overriding the default model")
    p.add_argument("--seed", type=int, default=None,
                   help="override the config seed")
    p.add_argument("--out", help="write the CSV here instead of stdout")
    p.add_argument("--svg", help="also render the decay curves to this SVG file")
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser("dec-run",
                       help="execute under closed-loop error correction")
    p.add_argument("path")
    p.add_argument("--rules", required=True)
    p.add_argument("--policy", help="correction policy JSON (default policy if omitted)")
    p.add_argument("--inject-eps", type=float, default=None,
                   help="override every rule's error rate for injection")
    budget_flag(p)
    seed_flag(p)
    p.add_argument("--compare", action="store_true",
                   help="paired with/without-correction success table")
    p.add_argument("--seeds", type=int, default=200,
                   help="number of paired seeds for --compare (default 200)")
    p.add_argument("--trace", "--out", dest="out", metavar="OUT",
                   help="write the JSON-lines trace here, or with --compare the table")
    p.set_defaults(func=cmd_dec_run)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    files = Files(seed=getattr(args, "seed", None))    # mc sets its config's

    def command() -> int:
        code = args.func(args, files)
        files.write_manifest(args.subcommand, argv)
        sys.stdout.write(files.stdout or "")
        return code

    return exit_code(args, command)


if __name__ == "__main__":
    sys.exit(main())
