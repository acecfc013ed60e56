"""The validator and the compiler decide feasibility with one static pass
(`chempiler.check_program`), so they report the same findings:
checked on seeded random (program, rig) pairs, in either order, on
programs they once disagreed on, and on a hardware kind word that names no
node kind. The pass runs once per (program, rig object), and what a caller
does to its answer does not reach the next one. A compiled plan runs the
program as written through its bindings, so vessels bound to nodes of
other names run as they do in the abstract machine."""

import dataclasses
import random

import pytest

from chemvm import chempiler
from chemvm.chemlang import parse_program, validate, validate_program
from chemvm.chempiler import (
    HardwareGraph, build_default_graph, check_program, chempile, execute_plan,
    lowering_view,
)
from chemvm.cstm import run
from chemvm.rules import load_rules

from _support import FIXTURES, fixture_text, random_binding_case, random_program_text


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


def test_compile_then_validate_agrees_on_random_pairs():
    for seed in range(240):
        prog, rig = random_binding_case(seed)
        plan = chempile(prog, rig)
        assert validate_program(prog, rig).findings == plan.report.findings, seed
        # and both equal the pass on a program and rig never checked before
        assert validate_program(*random_binding_case(seed)).findings \
            == plan.report.findings, seed


def _count_calls(monkeypatch, name: str) -> list:
    calls = []
    inner = getattr(chempiler, name)
    monkeypatch.setattr(chempiler, name, lambda *args: calls.append(args) or inner(*args))
    return calls


@pytest.mark.parametrize("first", ["validate", "compile"])
def test_validate_and_compile_share_one_pass(monkeypatch, first):
    binds = _count_calls(monkeypatch, "bind_vessels")
    routed = _count_calls(monkeypatch, "route")
    prog = parse_program(fixture_text("alkynol_1step.chem"))
    graph = build_default_graph()
    if first == "validate":
        report = validate_program(prog, graph)
        plan = chempile(prog, graph)
    else:
        plan = chempile(prog, graph)
        report = validate_program(prog, graph)
    assert report.ok and report.findings == plan.report.findings
    assert len(binds) == 1
    assert len(routed) == len(plan.routes) > 1


def test_edits_to_an_answer_do_not_reach_the_next(default_graph):
    prog = parse_program(fixture_text("tiny.chem"))
    report, bindings, routes = check_program(prog, default_graph)
    assert report.ok and len(routes) > 1
    plan_json = chempile(prog, default_graph).to_json()
    expected = (report.findings, dict(bindings), dict(routes))
    first, second = sorted(routes)[:2]
    plan = chempile(prog, default_graph)
    edits = [
        lambda: report.findings.append(validate.Finding("no_route", "made up", "X->Y")),
        lambda: bindings.__setitem__("waste", "X"),
        lambda: routes[first].append("X"),
        lambda: routes.__delitem__(second),
        lambda: plan.report.findings.clear(),
        lambda: plan.bindings.clear(),
        lambda: plan.routes.__delitem__(first),
    ]
    for edit in edits:
        with pytest.raises((TypeError, AttributeError)):
            edit()
    again, bindings, routes = check_program(prog, default_graph)
    assert (again.findings, bindings, routes) == expected
    assert chempile(prog, default_graph).to_json() == plan_json

    # a finding cannot be edited in place either
    bad = parse_program(REPROS["missing_param"][0])
    report = validate_program(bad, default_graph)
    findings = report.findings
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.findings[0].message = "made up"
    with pytest.raises(AttributeError):
        report.findings.clear()
    assert validate_program(bad, default_graph).findings == findings
    assert chempile(bad, default_graph).report.findings == findings


def test_each_rig_object_gets_its_own_pass(monkeypatch):
    binds = _count_calls(monkeypatch, "bind_vessels")
    prog = parse_program(fixture_text("tiny.chem"))
    graph, twin = build_default_graph(), build_default_graph()
    no_waste = HardwareGraph({k: n for k, n in graph.nodes.items() if k != "W"},
                             [e for e in graph.edges if "W" not in e])
    assert validate_program(prog, graph).ok
    lacking = validate_program(prog, no_waste).findings
    assert [(f.code, f.where) for f in lacking] == [("vessel_class_exhausted", "waste")]
    assert chempile(prog, no_waste).report.findings == lacking
    assert len(binds) == 2
    # the memo holds one rig: going back runs the pass again, and so does
    # an equal rig that is another object
    assert chempile(prog, graph).feasible
    assert twin == graph and twin is not graph
    assert validate_program(prog, twin).ok
    assert chempile(prog, twin).feasible
    assert len(binds) == 4


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
