"""Command-line entry point for the toolchain.

One executable, eight subcommands: parse | validate | run | plan |
compile | stats | mc | dec-run. Every command is deterministic: with
fixed inputs and a fixed --seed, stdout and every file it writes are
byte-identical across runs. Next to the first file output of a command
goes a `<name>.manifest.json` recording the command line, content hashes
of the inputs, the seed, the tool version and the content hash of every
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
import math
import shlex
import sys
from pathlib import Path

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
from .chempiler import build_default_graph, chempile, execute_plan, load_graph
from .cstm import DEFAULT_BUDGET, run
from .dec import DEFAULT_POLICY, evaluate_correction, load_policy, run_with_dec
from .jsonio import dumps_stable, sha256_file, write_text_atomic
from .rules import (
    Unreachable,
    UnstableTarget,
    load_rules,
    pathway_to_program,
    plan_pathway,
    save_rules,
)

__all__ = ["main", "HALT_EXIT"]

HALT_EXIT = {"q_out": 0, "q_uout": 10, "q_nout": 11, "q_fail": 12}

# The lowest value of each integer option, on every subcommand that has it.
_LOWEST = {"budget": 1, "depth": 1, "seed": 0}


def _check_ranges(args) -> None:
    for name, lowest in _LOWEST.items():
        value = getattr(args, name, None)
        if value is not None and value < lowest:
            raise ValueError(f"{name} must be an integer >= {lowest}")


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text(encoding="utf-8")


def _emit(text: str, out: str | None) -> list[Path]:
    """Write `text` to the --out file, or to stdout when none was asked for.
    Returns the written paths for the manifest."""
    if out is None:
        sys.stdout.write(text)
        return []
    write_text_atomic(out, text)
    return [Path(out)]


def _write_manifest(command: str, argv: list[str], inputs: list[str],
                    seed: int | None, outputs: list[Path]) -> None:
    if not outputs:
        return
    payload = {
        "command": shlex.join(["chemvm", *argv]),
        "subcommand": command,
        "version": __version__,
        "seed": seed,
        "inputs": {p: sha256_file(p) for p in inputs if p != "-"},
        "outputs": {str(p): sha256_file(p) for p in outputs},
    }
    anchor = outputs[0]
    path = anchor.with_name(anchor.name + ".manifest.json")
    write_text_atomic(path, dumps_stable(payload, indent=2) + "\n")


def _print_json(obj) -> None:
    sys.stdout.write(dumps_stable(obj, indent=2) + "\n")


# ---------------------------------------------------------------------------
# Subcommands

def cmd_parse(args, argv: list[str]) -> int:
    prog = parse_program(_read_text(args.path))
    outputs = _emit(format_program(prog), args.out)
    _write_manifest("parse", argv, [args.path], None, outputs)
    return 0


def cmd_validate(args, argv: list[str]) -> int:
    prog = parse_program(_read_text(args.path))
    graph = load_graph(args.graph) if args.graph else build_default_graph()
    report = validate_program(prog, graph)
    outputs = _emit(report.to_json(), args.out)
    inputs = [args.path] + ([args.graph] if args.graph else [])
    _write_manifest("validate", argv, inputs, None, outputs)
    return 0 if report.ok else 2


def cmd_run(args, argv: list[str]) -> int:
    db = load_rules(args.rules)
    prog = parse_program(_read_text(args.path))
    if args.graph:
        graph = load_graph(args.graph)
        plan = chempile(prog, graph)
        if not plan.feasible:
            for f in plan.report.findings:
                print(f"infeasible: {f.code}: {f.message} ({f.where})",
                      file=sys.stderr)
            return 2
        trace = execute_plan(plan, db, seed=args.seed, budget=args.budget,
                             explore=args.explore)
    else:
        trace = run(prog, db, seed=args.seed, budget=args.budget,
                    explore=args.explore)

    outputs: list[Path] = []
    if args.trace:
        write_text_atomic(args.trace, trace.to_jsonl())
        outputs.append(Path(args.trace))
    _print_json({"halt": trace.halt, "ledger": trace.ledger._asdict()})

    if args.persist_rules:
        save_rules(trace.db, args.rules)
    inputs = [args.path, args.rules] + ([args.graph] if args.graph else [])
    _write_manifest("run", argv, inputs, args.seed, outputs)
    return HALT_EXIT[trace.halt]


def cmd_plan(args, argv: list[str]) -> int:
    db = load_rules(args.rules)
    stock = {s.strip() for s in (args.stock or "").split(",") if s.strip()}
    pathway = plan_pathway(db, args.target, stock, max_depth=args.depth)
    outputs = _emit(pathway.to_json(), args.out)
    if args.program:
        prog = pathway_to_program(pathway, db)
        write_text_atomic(args.program, format_program(prog))
        outputs.append(Path(args.program))
    _write_manifest("plan", argv, [args.rules], None, outputs)
    return 0


def cmd_compile(args, argv: list[str]) -> int:
    prog = parse_program(_read_text(args.path))
    graph = load_graph(args.graph) if args.graph else build_default_graph()
    plan = chempile(prog, graph)
    outputs = _emit(plan.to_json(), args.out)
    inputs = [args.path] + ([args.graph] if args.graph else [])
    _write_manifest("compile", argv, inputs, None, outputs)
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


def cmd_stats(args, argv: list[str]) -> int:
    rows: list[str] = ["program,reaction_step," + ",".join(CATEGORIES)
                       + ",ops,cumulative"]
    summary = []
    agg_x: list[float] = []
    agg_y: list[float] = []
    for path in args.paths:
        prog = parse_program(_read_text(path))
        hist = classify_steps(prog)
        prev = 0
        for (marker, counts), cum in zip(hist.per_reaction_step, hist.cumulative):
            cat_text = ",".join(str(counts[c]) for c in CATEGORIES)
            rows.append(f"{prog.name},{marker},{cat_text},{cum - prev},{cum}")
            prev = cum
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
        agg_x.append(float(len(hist.per_reaction_step)))
        agg_y.append(float(hist.total_ops))

    result: dict = {"programs": summary}
    if len(args.paths) > 1:
        slope, r2 = _linear_fit(agg_x, agg_y)
        result["aggregate"] = {"n": len(agg_x), "slope": slope, "r2": r2}
    outputs = _emit("\n".join(rows) + "\n", args.out)
    _print_json(result)
    _write_manifest("stats", argv, list(args.paths), None, outputs)
    return 0


def cmd_mc(args, argv: list[str]) -> int:
    config = loads_mc_config(_read_text(args.config), where=args.config) \
        if args.config else MonteCarloConfig()
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    result = monte_carlo(config)
    outputs = _emit(mc_to_csv(result), args.out)
    if args.svg:
        write_text_atomic(args.svg, mc_to_svg(result))
        outputs.append(Path(args.svg))
    inputs = [args.config] if args.config else []
    _write_manifest("mc", argv, inputs, config.seed, outputs)
    return 0


def cmd_dec_run(args, argv: list[str]) -> int:
    db = load_rules(args.rules)
    prog = parse_program(_read_text(args.path))
    policy = load_policy(args.policy) if args.policy else DEFAULT_POLICY
    inputs = [args.path, args.rules] + ([args.policy] if args.policy else [])

    if args.compare:
        if args.trace:
            raise ValueError("--trace writes a single run's trace; --compare makes none")
        table = evaluate_correction(prog, db, policy=policy,
                                    eps=args.inject_eps, n_seeds=args.seeds,
                                    seed0=args.seed, budget=args.budget)
        text = dumps_stable(table, indent=2) + "\n"
        outputs = _emit(text, args.out)
        _write_manifest("dec-run", argv, inputs, args.seed, outputs)
        return 0

    result = run_with_dec(prog, db, policy=policy, seed=args.seed,
                          eps=args.inject_eps, budget=args.budget)
    outputs = []
    if args.trace:
        write_text_atomic(args.trace, result.trace.to_jsonl())
        outputs.append(Path(args.trace))
    _print_json(result.summary())
    _write_manifest("dec-run", argv, inputs, args.seed, outputs)
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
    p.add_argument("--trace", metavar="OUT",
                   help="write the JSON-lines trace here (single-run mode)")
    p.add_argument("--out", metavar="OUT",
                   help="write the comparison table here (--compare mode)")
    p.set_defaults(func=cmd_dec_run)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_ranges(args)
        return args.func(args, argv)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 1
    except (UnstableTarget, Unreachable) as e:
        print(f"no pathway: {e}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
