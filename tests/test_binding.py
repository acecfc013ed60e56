"""The validator and the compiler bind vessels with one function, so they
agree on every binding and capacity finding: checked on seeded random
(program, rig) pairs, on three programs their binders once disagreed on, and
on a hardware kind word that names no node kind."""

import random

import pytest

from chemvm.chemlang import parse_program, validate_program
from chemvm.chempiler import HardwareGraph, build_default_graph, chempile

PARAM_CODES = {"missing_param", "param_out_of_range"}

# Vessel names the steps use: free names, and names of default-rig nodes.
VESSELS = ("A", "B", "C", "D", "RX1", "RV1", "SEP1", "F1", "CH1", "S1", "R1", "W")
SOURCES = ("R1", "R2", "R3", "R4", "R5", "SOLV", "X1")
KIND_WORDS = ("any", "reactor", "separator", "rotavap", "filter", "storage",
              "flask", "chromatograph", "Reactor", "Valve", "oven")
SINKS = ("product", "waste", "S1", "B", "F1")


def random_rig(rng: random.Random) -> HardwareGraph:
    """A random subset of the default rig's nodes and the edges among them."""
    full = build_default_graph()
    share = rng.choice((0.6, 0.9, 1.0))
    keep = {nid for nid in full.nodes if rng.random() < share}
    return HardwareGraph({nid: full.nodes[nid] for nid in sorted(keep)},
                         [(a, b) for a, b in full.edges if a in keep and b in keep])


def random_program_text(rng: random.Random, name: str) -> str:
    """A program whose vessels are partly declared, partly undeclared (the
    parser registers those as `any`), partly named after rig nodes, and
    which calls for station capabilities, wash solvent and flask charges."""
    reagents = [f"r{i}" for i in range(rng.randint(0, 6))]
    lines = [f'procedure "{name}" {{']
    if reagents:
        lines.append("  reagents {")
        for r in reagents:
            amount = rng.choice((0.5, 1, 200, 450))
            role = rng.choice(("reagent", "reagent", "solvent"))
            lines.append(f"    {r}: sp:{r} {amount} mol @{rng.choice(SOURCES)} {role}")
        lines.append("  }")
    declared = rng.sample(VESSELS, rng.randint(0, 4))
    if declared:
        lines.append("  hardware {")
        lines += [f"    {v}: {rng.choice(KIND_WORDS)}" for v in declared]
        lines.append("  }")
    lines.append("  steps {")
    for _ in range(rng.randint(1, 6)):
        v, to = rng.choice(VESSELS), rng.choice(SINKS)
        temp = rng.choice(("80 C", "80 C", "500 C"))
        ops = [
            f"heat_stir(vessel={v}, temp={temp}, time=60 s)",
            f"chill(vessel={v}, temp=0 C, time=60 s)",
            f"dry(vessel={v}, time=60 s)",
            f"evaporate(vessel={v}, temp=50 C, time=60 s)",
            f"distil(vessel={v}, species=x, temp=80 C, to={to})",
            f"sublime(vessel={v}, species=x, temp=80 C, to={to})",
            f"filter(vessel={v}, species=x, to={to})",
            f"crystallise(vessel={v}, temp=80 C, cool_to=0 C, species=x, to={to})",
            f"separate(vessel={v}, species=x, to={to})",
            f"clean(vessel={v})",
            f"transfer(from={v}, to={to})",
        ]
        if reagents:
            r = rng.choice(reagents)
            ops += [
                f"add(vessel={v}, reagent={r}, amount=0.1 mol)",
                f"react_hot(vessel={v}, reagent={r}, temp={temp}, time=60 s)",
                f"react_cold(vessel={v}, reagent={r}, temp=0 C, time=60 s)",
                f"separate(vessel={v}, species=x, to={to}, solvent={r})",
                f"clean(vessel={v}, solvent={r})",
            ]
        lines.append(f"    {rng.choice(ops)}")
    lines += ["  }", "}"]
    return "\n".join(lines) + "\n"


def random_binding_case(seed: int):
    rng = random.Random(seed)
    return parse_program(random_program_text(rng, f"p{seed}")), random_rig(rng)


def _validate_findings(prog, rig) -> list[dict]:
    return [f.as_dict() for f in validate_program(prog, rig).findings
            if f.code not in PARAM_CODES]


def _compile_findings(prog, rig) -> list[dict]:
    return [f.as_dict() for f in chempile(prog, rig).report.findings
            if f.code != "no_route"]


def test_validate_agrees_with_compile_on_random_pairs():
    codes: set[str] = set()
    feasible = 0
    n = 240
    for seed in range(n):
        prog, rig = random_binding_case(seed)
        findings = _validate_findings(prog, rig)
        assert findings == _compile_findings(prog, rig), seed
        codes |= {f["code"] for f in findings}
        feasible += not findings
    # the pairs reach every binding and capacity finding, and both verdicts
    assert codes == {"vessel_class_exhausted", "missing_capability",
                     "no_reservoir", "capacity_exceeded"}
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
