#!/usr/bin/env python3
"""Print `name sha256` for a fixed set of program outputs, one line each
(`name ParseError[code] line:col: message` for a text that does not parse).

A change that must keep outputs byte-identical is checked by running this
script against the `chemvm` of each checkout and comparing the listings:

    PYTHONPATH=src python3 scripts/digest_outputs.py > after.txt
    PYTHONPATH=../parent/src python3 scripts/digest_outputs.py > before.txt
    cmp before.txt after.txt

The listing of this checkout is committed as tests/data/digest_outputs.txt,
which tests/test_digest.py checks it against.

The outputs:
- `parse` of every fixture program and of 2,000 seeded mutations of
  program texts (the scanner tests' generator, seed 1): the canonical text,
  or the `ParseError` itself, with its code and `line:col`, printed as is;
- `fixture`: the seed-0 JSONL trace of every fixture program in each
  execution arm, with the rule database `FIXTURE_RUNS` names, and the plan
  JSON of every fixture program on the built-in rig and of one infeasible
  plan on a small rig (tests/test_golden_traces.py checks each against its
  line);
- with fixtures/tiny.rules, the criterion-05 corpus (`random_program`
  seeds 0-999 on the built-in rig): validate and compile JSON, and the
  JSONL traces of the abstract, compiled and corrected (eps 0.2) runs at
  budgets of 10,000 and 7 machine steps (primitives applied, not records
  written);
- seeded renamed-vessel pairs that validate accepts, from the binding
  tests' generator (seeds 0-9,999), each program once on its random rig
  and once on the built-in rig: compile JSON, and the JSONL traces of the
  abstract and, where the plan is feasible, the compiled runs at both
  budgets;
- `mc`: the CSV and SVG of `monte_carlo` on the kernel tests' configs
  (the default at seeds 0-2, fixtures/mc_small.json, `jitter_sd=0`, eps0
  0, 1 and 0.5 under a drift that overflows `exp`, and one trajectory of
  two steps).

The script takes no options. It imports the generators from
tests/_support.py next to it and `chemvm` from the environment.
"""

import hashlib
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from chemvm.assembly import mc_to_csv, mc_to_svg, monte_carlo  # noqa: E402
from chemvm.chemlang import (  # noqa: E402
    ParseError, format_program, parse_program, validate_program,
)
from chemvm.chemlang.corpus import random_program  # noqa: E402
from chemvm.chempiler import build_default_graph, chempile, execute_plan  # noqa: E402
from chemvm.cstm import run  # noqa: E402
from chemvm.dec import run_with_dec  # noqa: E402
from chemvm.rules import load_rules  # noqa: E402

from _support import (  # noqa: E402
    FIXTURE_ARMS, FIXTURE_PLANS, FIXTURE_RUNS, FIXTURES, fixture_plan, fixture_trace,
    mc_configs, mutated_texts, random_binding_case,
)

BUDGETS = (10000, 7)
CORPUS_SEEDS = range(1000)
PAIR_SEEDS = range(10000)
PARSE_MUTANTS = 2000


def digest(name: str, text: str) -> None:
    print(name, hashlib.sha256(text.encode()).hexdigest())


def digest_parse(name: str, text: str) -> None:
    try:
        digest(name, format_program(parse_program(text)))
    except ParseError as exc:
        print(name, f"ParseError[{exc.code}] {exc}")


def main() -> None:
    for path in sorted(FIXTURES.glob("*.chem")):
        digest_parse(f"parse/{path.name}", path.read_text(encoding="utf-8"))
    for i, text in enumerate(mutated_texts(seed=1, count=PARSE_MUTANTS)):
        digest_parse(f"parse/mutant/{i}", text)
    for name in sorted(FIXTURE_RUNS):
        for arm in FIXTURE_ARMS:
            digest(f"fixture/{name}/{arm}", fixture_trace(name, arm).to_jsonl())
    for name, rig in FIXTURE_PLANS:
        digest(f"fixture/{name}/plan/{rig}", fixture_plan(name, rig).to_json())
    db = load_rules(FIXTURES / "tiny.rules")
    graph = build_default_graph()
    for seed in CORPUS_SEEDS:
        prog = random_program(random.Random(seed))
        digest(f"c05/{seed}/validate", validate_program(prog, graph).to_json())
        plan = chempile(prog, graph)
        digest(f"c05/{seed}/compile", plan.to_json())
        for budget in BUDGETS:
            digest(f"c05/{seed}/run/{budget}",
                   run(prog, db, seed=seed, budget=budget).to_jsonl())
            digest(f"c05/{seed}/execute_plan/{budget}",
                   execute_plan(plan, db, seed=seed, budget=budget).to_jsonl())
            digest(f"c05/{seed}/dec/{budget}",
                   run_with_dec(prog, db, eps=0.2, seed=seed,
                                budget=budget).trace.to_jsonl())
    for seed in PAIR_SEEDS:
        prog, rig = random_binding_case(seed)
        accepted = [(where, on) for where, on in (("rig", rig), ("default", graph))
                    if validate_program(prog, on).ok]
        if accepted:
            for budget in BUDGETS:
                digest(f"pair/{seed}/run/{budget}",
                       run(prog, db, seed=seed, budget=budget).to_jsonl())
        for where, on in accepted:
            name = f"pair/{seed}/{where}"
            plan = chempile(prog, on)
            digest(f"{name}/compile", plan.to_json())
            if not plan.feasible:
                continue
            for budget in BUDGETS:
                digest(f"{name}/execute_plan/{budget}",
                       execute_plan(plan, db, seed=seed, budget=budget).to_jsonl())
    for name, config in mc_configs():
        result = monte_carlo(config)
        digest(f"mc/{name}/csv", mc_to_csv(result))
        digest(f"mc/{name}/svg", mc_to_svg(result))


if __name__ == "__main__":
    main()
