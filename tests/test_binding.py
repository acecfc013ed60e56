"""The validator and the compiler decide feasibility with one static pass
(`chemlang.validate.check_program`), so they report the same findings:
checked on seeded random (program, rig) pairs, on programs they once
disagreed on, and on a hardware kind word that names no node kind. A
compiled plan runs the program as written through its bindings, so vessels
bound to nodes of other names run as they do in the abstract machine."""

import random

import pytest

from chemvm.chemlang import parse_program, validate_program
from chemvm.chempiler import build_default_graph, chempile, execute_plan, lowering_view
from chemvm.cstm import run
from chemvm.rules import load_rules

from _support import FIXTURES, random_binding_case, random_program_text


def test_validate_agrees_with_compile_on_random_pairs():
    codes: set[str] = set()
    feasible = 0
    n = 240
    for seed in range(n):
        prog, rig = random_binding_case(seed)
        report = validate_program(prog, rig)
        assert report.findings == chempile(prog, rig).report.findings, seed
        codes |= {f.code for f in report.findings}
        feasible += report.ok
    # the pairs reach every parameter, binding, routing and capacity finding
    # but a missing parameter, and both verdicts
    assert codes == {"param_out_of_range", "vessel_class_exhausted",
                     "missing_capability", "no_reservoir", "no_route",
                     "capacity_exceeded"}
    assert 0 < feasible < n


REPROS = {
    # the greedy binder gives RX1 to A and then finds no node for B
    "heat_stir_then_react_cold": (
        'procedure "r1" {\n  reagents {\n    x: sp:x 1 mol @R1 reagent\n  }\n'
        '  steps {\n    heat_stir(vessel=A, temp=80 C, time=60 s)\n'
        '    heat_stir(vessel=B, temp=80 C, time=60 s)\n'
        '    react_cold(vessel=B, reagent=x, temp=0 C, time=60 s)\n  }\n}\n',
        [("missing_capability", "B")]),
    "heat_stir_then_distil": (
        'procedure "r2" {\n  steps {\n    heat_stir(vessel=A, temp=80 C, time=60 s)\n'
        '    distil(vessel=B, species=x, temp=80 C, to=product)\n  }\n}\n',
        []),
    "solvent_in_the_reservoir": (
        'procedure "r3" {\n  reagents {\n'
        + "".join(f"    r{i}: sp:r{i} 1 mol @R{i} reagent\n" for i in range(1, 5))
        + '    s: sp:s 1 mol @SOLV solvent\n  }\n'
        '  steps {\n    add(vessel=RX1, reagent=r1, amount=1 mol)\n  }\n}\n',
        [("vessel_class_exhausted", "SOLV")]),
    # a step without a required parameter (compiling it once raised KeyError)
    "missing_param": (
        'procedure "r5" {\n  steps {\n    heat_stir(vessel=RX1, temp=80 C)\n'
        '    filter(vessel=F1, to=product)\n  }\n}\n',
        [("missing_param", "step 1 (heat_stir, line 3)"),
         ("missing_param", "step 2 (filter, line 4)")]),
    # a kind word that names no node kind matches no node (it once bound as any)
    "unknown_kind_word": (
        'procedure "r4" {\n  hardware {\n    X: oven\n  }\n'
        '  steps {\n    heat_stir(vessel=X, temp=80 C, time=60 s)\n  }\n}\n',
        [("vessel_class_exhausted", "X")]),
}


@pytest.mark.parametrize("name", sorted(REPROS))
def test_validate_and_compile_agree_on_former_disagreements(name, default_graph):
    text, expected = REPROS[name]
    prog = parse_program(text)
    report = validate_program(prog, default_graph)
    plan = chempile(prog, default_graph)
    assert [(f.code, f.where) for f in report.findings] == expected
    assert report.findings == plan.report.findings
    assert report.ok == plan.feasible == (not expected)


def test_renamed_vessels_lower_as_written():
    graph = build_default_graph()
    db = load_rules(FIXTURES / "tiny.rules")
    equal = renamed = 0
    for seed in range(600):
        prog = parse_program(random_program_text(random.Random(seed), f"p{seed}"))
        plan = chempile(prog, graph)
        if not plan.feasible:
            continue
        renamed += any(v != node for v, node in plan.bindings.items()
                       if v not in ("waste", "product"))
        abstract = run(prog, db, seed=seed)
        compiled = execute_plan(plan, db, seed=seed)
        assert compiled.halt == abstract.halt, seed
        assert lowering_view(compiled, plan.bindings) == lowering_view(abstract), seed
        equal += 1
    assert equal > 50 and renamed > 50
