"""Hardware graphs, routing, compilation findings, stroked transfers,
runtime capacity enforcement, and the lowering view."""

import collections
import contextlib
import dataclasses
import io
import itertools
import json
import random

import pytest

from chemvm.chemlang import ChemProgram, OpKind, UnitOperation, parse_program, validate_program
from chemvm.chempiler import (
    FLOW_KINDS,
    NODE_KINDS,
    RESERVOIR_ATTACHMENT,
    GraphError,
    HardwareGraph,
    HardwareNode,
    RouteError,
    build_default_graph,
    chempile,
    execute_plan,
    loads_graph,
    lowering_view,
    route,
)
from chemvm.cli import main
from chemvm.cstm import DEFAULT_BUDGET, run
from chemvm.rules import load_rules, loads_rules, pathway_to_program, plan_pathway

from _support import DEFAULT_RIG, FIXTURES, fixture_text, random_program_text, random_rig

CAPACITIES = {
    "SOLV": 1000.0, "R1": 500.0, "R2": 500.0, "R3": 500.0, "R4": 500.0,
    "V1": None, "V2": None, "V3": None, "P1": 25.0,
    "RX1": 250.0, "SEP1": 200.0, "RV1": 250.0, "F1": 100.0, "CH1": 100.0,
    "S1": 500.0, "W": 5000.0, "OUT": 500.0,
}


def _simple_rig(extra_nodes=(), edges=None) -> str:
    nodes = [
        {"id": "R1", "kind": "ReagentFlask", "capacity": 500.0},
        {"id": "V1", "kind": "Valve", "ports": 8},
        {"id": "RX1", "kind": "Reactor",
         "capabilities": ["react_hot", "heat_stir"], "capacity": 250.0},
        {"id": "W", "kind": "Waste", "capacity": 5000.0},
        {"id": "OUT", "kind": "Product", "capacity": 500.0},
    ] + list(extra_nodes)
    if edges is None:
        edges = [["R1", "V1"], ["V1", "RX1"], ["RX1", "V1"],
                 ["V1", "W"], ["V1", "OUT"]]
    return json.dumps({"nodes": nodes, "edges": edges})


def _simple_graph(extra_nodes=(), edges=None):
    return loads_graph(_simple_rig(extra_nodes, edges))


def test_default_graph_shape(default_graph):
    assert {n: node.capacity for n, node in default_graph.nodes.items()} == CAPACITIES
    assert default_graph.nodes["RX1"].kind == "Reactor"
    assert "react_hot" in default_graph.nodes["RX1"].capabilities
    assert default_graph.nodes["P1"].kind == "Pump"


def test_default_graph_matches_fixture(default_graph):
    assert loads_graph(DEFAULT_RIG.read_text(encoding="utf-8")) == default_graph


def test_rig_tables_match_sorted_scans(default_graph):
    # a rig's kind lists and reservoir are derived once; they must equal the
    # scans over the sorted node ids they replace, whatever the node order
    spare = HardwareNode("AUX", "ReagentFlask", attachments=(RESERVOIR_ATTACHMENT,))
    rigs = [default_graph, _simple_graph(),
            HardwareGraph({**default_graph.nodes, "AUX": spare}, default_graph.edges)]
    for seed in range(60):
        rng = random.Random(seed)
        rig = random_rig(rng)
        nodes = list(rig.nodes.items())
        rng.shuffle(nodes)
        rigs.append(HardwareGraph(dict(nodes), rig.edges))
    reservoirs = set()
    for g in rigs:
        for kind in sorted(NODE_KINDS) + ["Oven"]:
            expected = [g.nodes[i] for i in sorted(g.nodes) if g.nodes[i].kind == kind]
            got = g.by_kind(kind)
            assert list(got) == expected, kind
            with contextlib.suppress(AttributeError, TypeError):
                got.clear()
            assert list(g.by_kind(kind)) == expected, kind
        expected = None
        for i in sorted(g.nodes):
            if g.nodes[i].reserved:
                expected = g.nodes[i]
                break
        assert g.reservoir() is expected
        reservoirs.add(None if expected is None else expected.id)
    assert reservoirs == {None, "SOLV", "AUX"}


def test_graph_rejects_dangling_edge():
    doc = {"nodes": [{"id": "A", "kind": "Reactor"}], "edges": [["A", "B"]]}
    with pytest.raises(GraphError, match=r"edge \('A', 'B'\) references unknown node"):
        loads_graph(json.dumps(doc))


def test_graph_rejects_self_edge():
    with pytest.raises(GraphError, match="self-edge on 'V1'"):
        _simple_graph(edges=[["R1", "V1"], ["V1", "V1"]])


def test_graph_rejects_more_tube_partners_than_ports():
    # R1 -> V1 and V1 -> R1 share one tube; a third partner overflows 2 ports
    nodes = [{"id": "R1", "kind": "ReagentFlask", "ports": 2},
             {"id": "V1", "kind": "Valve"}, {"id": "V2", "kind": "Valve"},
             {"id": "W", "kind": "Waste"}]
    edges = [["R1", "V1"], ["V1", "R1"], ["R1", "V2"]]
    loads_graph(json.dumps({"nodes": nodes, "edges": edges}))
    with pytest.raises(GraphError, match="node 'R1' has 3 connections, 2 ports"):
        loads_graph(json.dumps({"nodes": nodes, "edges": edges + [["W", "R1"]]}))


def test_pinned_route(default_graph):
    assert route(default_graph, "R1", "RX1") == ("R1", "V1", "P1", "V2", "RX1")


def test_route_errors(default_graph):
    with pytest.raises(ValueError):
        route(default_graph, "RX1", "RX1")
    with pytest.raises(RouteError):
        route(default_graph, "R1", "XX9")
    cut = _simple_graph(edges=[["R1", "V1"], ["V1", "RX1"], ["V1", "W"]])
    with pytest.raises(RouteError):
        route(cut, "RX1", "W")


def test_route_expands_each_node_once(monkeypatch):
    # a diamond of valves: V3 is reached along two paths of one length, and
    # only the first, the smaller, goes on from it
    graph = _simple_graph(
        [{"id": "V2", "kind": "Valve"}, {"id": "V3", "kind": "Valve"}],
        [["R1", "V1"], ["R1", "V2"], ["V1", "V3"], ["V2", "V3"], ["V3", "RX1"]])
    expanded = []
    neighbors = HardwareGraph.neighbors
    monkeypatch.setattr(HardwareGraph, "neighbors",
                        lambda self, node: expanded.append(node) or neighbors(self, node))
    assert route(graph, "R1", "RX1") == ("R1", "V1", "V3", "RX1")
    assert expanded == ["R1", "V1", "V2", "V3"]


def test_an_infeasible_plan_does_not_run():
    plan = chempile(parse_program(fixture_text("tiny.chem")), _simple_graph())
    assert not plan.feasible
    with pytest.raises(GraphError, match="^plan is not feasible:\n") as info:
        execute_plan(plan, load_rules(FIXTURES / "tiny.rules"))
    assert str(info.value).splitlines()[1:] == [
        f"  [{f.code}] {f.message}" for f in plan.report.findings]


def test_route_interiors_are_flow_hardware(default_graph):
    stations = [n for n, node in default_graph.nodes.items()
                if node.kind not in FLOW_KINDS]
    for src, dst in itertools.permutations(stations, 2):
        try:
            path = route(default_graph, src, dst)
        except RouteError:
            continue
        for interior in path[1:-1]:
            assert default_graph.nodes[interior].kind in FLOW_KINDS


def test_compile_tiny(default_graph):
    prog = parse_program(fixture_text("tiny.chem"))
    plan = chempile(prog, default_graph)
    assert plan.feasible
    assert plan.bindings == {"waste": "W", "product": "OUT", "R1": "R1",
                             "R2": "R2", "RX1": "RX1", "F1": "F1"}
    assert plan.routes["R1->RX1"] == ("R1", "V1", "P1", "V2", "RX1")
    assert plan.allocations == {1: ("RX1", "F1", "OUT")}
    parsed = json.loads(plan.to_json())
    assert sorted(parsed) == ["allocations", "bindings", "cleaning",
                              "feasible", "findings", "routes", "source"]


def _finding_codes(plan):
    return [f.code for f in plan.report.findings]


def test_finding_vessel_class_exhausted(default_graph):
    decls = "".join(f"    r{i}: sp:r{i} 1 mol @RF{i} reagent\n" for i in range(1, 6))
    prog = parse_program(
        'procedure "x" {\n  reagents {\n' + decls + '  }\n'
        '  steps {\n    add(vessel=RX1, reagent=r1, amount=1 mol)\n  }\n}\n')
    plan = chempile(prog, default_graph)
    assert not plan.feasible
    assert "vessel_class_exhausted" in _finding_codes(plan)


def test_unbound_source_flask_gets_no_route_finding(default_graph):
    decls = "".join(f"    r{i}: sp:r{i} 1 mol @F{i} reagent\n" for i in range(1, 6))
    adds = "".join(f"    add(vessel=RX1, reagent=r{i}, amount=1 mol)\n"
                   for i in range(1, 6))
    prog = parse_program(
        'procedure "x" {\n  reagents {\n' + decls + '  }\n'
        '  hardware {\n    RX1: reactor\n  }\n  steps {\n' + adds + '  }\n}\n')
    plan = chempile(prog, default_graph)
    assert _finding_codes(plan) == ["vessel_class_exhausted"]
    assert "F5" in plan.report.findings[0].message


def test_finding_missing_capability_and_no_route():
    g = _simple_graph()
    prog = parse_program(
        'procedure "x" {\n  steps {\n'
        '    sublime(vessel=RV1, species=a, to=F1, temp=120 C, cool_to=20 C)\n'
        '  }\n}\n')
    plan = chempile(prog, g)
    assert not plan.feasible
    assert "missing_capability" in _finding_codes(plan)


def test_finding_no_route(tmp_path):
    # validate reports the compiler's no_route finding, and the CLI exits 2
    cut_edges = [["R1", "V1"], ["V1", "RX1"], ["RX1", "V1"], ["V1", "W"]]
    text = ('procedure "x" {\n  reagents {\n    a: sp:a 1 mol @R1 reagent\n  }\n'
            '  steps {\n    add(vessel=RX1, reagent=a, amount=1 mol)\n'
            '    transfer(from=RX1, to=product)\n  }\n}\n')
    finding = {"code": "no_route", "message": "no path RX1 -> OUT (operation 2, transfer)",
               "where": "RX1->OUT"}
    prog, cut = parse_program(text), _simple_graph(edges=cut_edges)
    plan = chempile(prog, cut)
    assert not plan.feasible
    assert [f.as_dict() for f in plan.report.findings] == [finding]
    assert validate_program(prog, cut).findings == plan.report.findings
    prog_path, rig_path = tmp_path / "cut.chem", tmp_path / "cut.json"
    prog_path.write_text(text)
    rig_path.write_text(_simple_rig(edges=cut_edges))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["validate", str(prog_path), "--graph", str(rig_path)])
    assert code == 2
    assert json.loads(out.getvalue()) == {"ok": False, "findings": [finding]}


def test_finding_static_capacity(default_graph):
    prog = parse_program(
        'procedure "x" {\n  reagents {\n    a: sp:a 600 mol @R1 reagent\n  }\n'
        '  steps {\n    add(vessel=RX1, reagent=a, amount=600 mol)\n  }\n}\n')
    plan = chempile(prog, default_graph)
    assert not plan.feasible
    assert _finding_codes(plan) == ["capacity_exceeded"]
    assert "R1 charged with 600" in plan.report.findings[0].message


def test_finding_no_reservoir():
    g = _simple_graph()
    prog = parse_program(
        'procedure "x" {\n  steps {\n'
        '    heat_stir(vessel=RX1, temp=60 C, time=600 s)\n'
        '    clean(vessel=RX1)\n  }\n}\n')
    plan = chempile(prog, g)
    assert not plan.feasible
    assert "no_reservoir" in _finding_codes(plan)


def test_unnamed_wash_solvent_needs_a_reservoir(default_graph):
    # a clean built in Python with solvent=None draws from the reservoir,
    # as its lowering says, so a rig without one cannot run it
    prog = parse_program(
        'procedure "x" {\n  hardware {\n    RX1: reactor\n  }\n  steps {\n'
        '    heat_stir(vessel=RX1, temp=60 C, time=600 s)\n  }\n}\n')
    clean = UnitOperation(OpKind.CLEAN, {"vessel": "RX1", "solvent": None})
    prog = ChemProgram(prog.name, prog.reagents, prog.hardware, [*prog.steps, clean],
                       prog.metadata)
    rig = HardwareGraph({nid: n for nid, n in default_graph.nodes.items() if nid != "SOLV"},
                        [e for e in default_graph.edges if "SOLV" not in e])
    assert [f.code for f in validate_program(prog, rig).findings] == ["no_reservoir"]
    assert _finding_codes(chempile(prog, rig)) == ["no_reservoir"]


_NO_RULES = loads_rules(json.dumps({"species": [], "rules": []}))
_MONO_DB = loads_rules(json.dumps({
    "species": [{"id": "a", "name": "a", "molar_mass": 10.0,
                 "element_counts": {"C": 1}}],
    "rules": [],
}))


def test_transfer_is_stroked_by_pump_capacity(default_graph):
    prog = parse_program(
        'procedure "x" {\n  reagents {\n    a: sp:a 60 mol @R1 reagent\n  }\n'
        '  hardware {\n    RX1: reactor\n  }\n'
        '  steps {\n    add(vessel=RX1, reagent=a, amount=60 mol)\n  }\n}\n')
    plan = chempile(prog, default_graph)
    trace = execute_plan(plan, _MONO_DB, seed=0)
    assert trace.halt == "q_out"
    moves = [r for r in trace.records
             if r.get("kind") == "transfer" and r["op_index"] == 0]
    assert [m["stroke"] for m in moves] == [1, 2, 3]
    assert all(m["strokes"] == 3 for m in moves)
    assert all(m["route"] == ("R1", "V1", "P1", "V2", "RX1") for m in moves)
    assert sum(m["moved"] for m in moves) == pytest.approx(60.0)
    assert all(m["total"] == pytest.approx(60.0) for m in moves)


# 1 a (C2) -> 2 b (C1): a reaction that doubles the mol its cell holds
_DOUBLING_DB = loads_rules(json.dumps({
    "species": [{"id": "a", "name": "a", "molar_mass": 20.0, "element_counts": {"C": 2}},
                {"id": "b", "name": "b", "molar_mass": 10.0, "element_counts": {"C": 1}}],
    "rules": [{"id": "r1", "reagent_pattern": {"a": 1.0}, "products": {"b": 2.0},
               "process_window": {"temp_min": 60.0, "temp_max": 100.0,
                                  "duration_min": 300.0, "duration_max": 3600.0},
               "yield": 1.0, "epsilon": 0.0, "status": "characterised"}],
}))


def _doubling_program(steps: str):
    return parse_program(
        'procedure "x" {\n  reagents {\n    a: sp:a 200 mol @R1 reagent\n  }\n'
        '  hardware {\n    RX1: reactor\n    F1: filter\n  }\n'
        '  steps {\n' + steps + '  }\n}\n')


def test_runtime_capacity_enforced(default_graph):
    # the screen moves 60 mol of a into F1 (capacity 100); the run moves
    # the 120 mol of b the reaction made of it
    prog = _doubling_program(
        '    react_hot(vessel=RX1, reagent=a, amount=60 mol, temp=80 C, time=600 s)\n'
        '    transfer(from=RX1, to=F1)\n')
    plan = chempile(prog, default_graph)
    assert plan.feasible
    trace = execute_plan(plan, _DOUBLING_DB, seed=0)
    assert trace.halt == "q_fail"
    assert trace.records[-1]["reason"] == "F1 overfilled: 120 over capacity 100"
    deviations = [r for r in trace.records if r.get("kind") == "deviation"]
    assert deviations == [{
        "kind": "deviation", "code": "capacity_exceeded", "step": 4,
        "op_index": 1, "cell": "F1", "held": 120.0, "capacity": 100.0,
    }]
    strokes = [r for r in trace.records
               if r.get("kind") == "transfer" and r["op_index"] == 1]
    assert [r["stroke"] for r in strokes] == [1, 2, 3, 4, 5]
    assert all(r["route"] == ("RX1", "V2", "P1", "V1", "F1") for r in strokes)


@pytest.mark.parametrize("steps, after, overfill", [
    # evaporate's SM fills F1 while the head stays on RX1
    ('    add(vessel=RX1, reagent=a, amount=60 mol)\n'
     '    evaporate(vessel=RX1, species=b, to=F1, temp=80 C, time=600 s)\n', "primitive",
     {"step": 3, "op_index": 1, "cell": "F1", "held": 120.0, "capacity": 100.0}),
    # the reaction books 400 mol of b in RX1, checked after it runs
    ('    react_hot(vessel=RX1, reagent=a, amount=200 mol, temp=80 C, time=600 s)\n',
     "transition",
     {"step": 2, "op_index": 0, "cell": "RX1", "held": 400.0, "capacity": 250.0}),
], ids=["named_destination", "reaction_cell"])
def test_runtime_capacity_checks_the_filled_cell(default_graph, steps, after, overfill):
    plan = chempile(_doubling_program(steps), default_graph)
    assert plan.feasible
    trace = execute_plan(plan, _DOUBLING_DB, seed=0)
    assert trace.halt == "q_fail"
    assert trace.records[-1]["reason"] == (f"{overfill['cell']} overfilled: "
                                           f"{overfill['held']:g} over capacity "
                                           f"{overfill['capacity']:g}")
    assert trace.records[-3]["kind"] == after and trace.records[-3]["cell"] == "RX1"
    assert trace.records[-2] == {"kind": "deviation", "code": "capacity_exceeded",
                                 **overfill}


@pytest.mark.parametrize("budget", range(1, 13))
def test_overfill_at_the_budget_edge(default_graph, budget):
    # the 200 mol charge takes 8 strokes of the 25 mL pump: below 8 the
    # budget stops the run before the first of them; from 8 on the charge,
    # the heat and the reaction run, and the overfill writes its deviation
    plan = chempile(_doubling_program(
        '    react_hot(vessel=RX1, reagent=a, amount=200 mol, temp=80 C, time=600 s)\n'),
        default_graph)
    trace = execute_plan(plan, _DOUBLING_DB, seed=0, budget=budget)
    assert trace.halt == "q_fail"
    kinds = [r["kind"] for r in trace.records]
    if budget < 8:
        assert trace.records[-1]["reason"] == "budget exhausted"
        assert kinds == ["halt"]
    else:
        assert trace.records[-1]["reason"] == "RX1 overfilled: 400 over capacity 250"
        assert kinds == ["transfer"] * 8 + ["primitive", "primitive", "transition",
                                            "deviation", "halt"]


def test_a_tiny_pump_stops_the_run_within_its_record_bound(default_graph):
    # a rig file may name a 1e-4 mL pump, whose strokes the budget caps as it
    # caps steps: tiny.chem's first charge alone takes 10,000 strokes
    nodes = dict(default_graph.nodes)
    nodes["P1"] = dataclasses.replace(nodes["P1"], capacity=1e-4)
    plan = chempile(parse_program(fixture_text("tiny.chem")),
                    HardwareGraph(nodes, default_graph.edges))
    assert plan.feasible
    trace = execute_plan(plan, load_rules(FIXTURES / "tiny.rules"), seed=0)
    assert trace.halt == "q_fail"
    assert trace.records[-1]["reason"] == "budget exhausted"
    kinds = collections.Counter(r["kind"] for r in trace.records)
    assert kinds == {"transfer": DEFAULT_BUDGET, "primitive": 1, "halt": 1}
    # the bound the cstm docstring states for a run of budget B: 9B + 3
    assert len(trace.records) <= 9 * DEFAULT_BUDGET + 3


def test_compile_refuses_a_movement_overfill(default_graph):
    # six 90 mol charges filtered on to S1 (capacity 500), each within
    # F1's 100: only following the matter finds the 540 mol in S1
    steps = "".join(f"    add(vessel=F1, reagent={r}, amount=90 mol)\n"
                    "    filter(vessel=F1, species=a, to=S1)\n"
                    for r in ("a1", "a2") * 3)
    prog = parse_program(
        'procedure "x" {\n  reagents {\n    a1: sp:a 270 mol @R1 reagent\n'
        '    a2: sp:a 270 mol @R2 reagent\n  }\n'
        '  hardware {\n    F1: filter\n    S1: storage\n  }\n'
        '  steps {\n' + steps + '  }\n}\n')
    plan = chempile(prog, default_graph)
    assert [f.as_dict() for f in plan.report.findings] == [{
        "code": "capacity_exceeded", "where": "S1",
        "message": "S1 filled with 540 mL against capacity 500 (operation 12, filter)",
    }]
    assert validate_program(prog, default_graph).findings == plan.report.findings


# Programs whose flask charges fit but that overfill RX1 once run: a
# react_cold without an amount draws its whole 450 mol flask.
FORMER_RUNTIME_OVERFILLS = {111: 1, 229: 2, 347: 1, 349: 2, 468: 1, 579: 2}


def test_screen_finds_the_former_runtime_overfills(default_graph):
    for seed, operation in FORMER_RUNTIME_OVERFILLS.items():
        prog = parse_program(random_program_text(random.Random(seed), f"p{seed}"))
        assert [f.as_dict() for f in chempile(prog, default_graph).report.findings] == [{
            "code": "capacity_exceeded", "where": "RX1",
            "message": f"RX1 filled with 450 mL against capacity 250 "
                       f"(operation {operation}, react_cold)",
        }], seed


@pytest.mark.parametrize("rules_name", [None, "tiny.rules"])
def test_feasible_plans_run_without_a_capacity_halt(default_graph, rules_name):
    db = _NO_RULES if rules_name is None else load_rules(FIXTURES / rules_name)
    feasible = 0
    for seed in range(600):
        prog = parse_program(random_program_text(random.Random(seed), f"p{seed}"))
        plan = chempile(prog, default_graph)
        if not plan.feasible:
            continue
        feasible += 1
        trace = execute_plan(plan, db, seed=seed)
        assert not any(r["kind"] == "deviation" for r in trace.records), seed
    assert feasible == 86


def _strokes_by_op(trace):
    groups = {}
    for r in trace.records:
        if r["kind"] == "transfer":
            groups.setdefault(r["op_index"], []).append(r)
    return groups


def test_transit_movement_is_one_stroke_group(default_graph):
    prog = parse_program(
        'procedure "x" {\n  reagents {\n    a: sp:a 45 mol @R1 reagent\n  }\n'
        '  hardware {\n    RX1: reactor\n    S1: storage\n  }\n'
        '  steps {\n    add(vessel=RX1, reagent=a, amount=45 mol)\n'
        '    transfer(from=RX1, to=S1)\n  }\n}\n')
    plan = chempile(prog, default_graph)
    trace = execute_plan(plan, _MONO_DB, seed=0)
    assert trace.halt == "q_out"
    moves = _strokes_by_op(trace)[1]
    assert [(m["stroke"], m["strokes"]) for m in moves] == [(1, 2), (2, 2)]
    assert all(m["route"] == ("RX1", "V2", "P1", "V1", "S1") for m in moves)
    assert plan.routes["RX1->S1"] == moves[0]["route"]
    assert sum(m["moved"] for m in moves) == pytest.approx(45.0)
    # booked ahead of the SM that fills the transit line
    first = trace.records.index(moves[0])
    assert trace.records[first + 2]["code"] == "SM"


def test_rig_without_pump_books_one_stroke_per_movement():
    prog = parse_program(
        'procedure "x" {\n  reagents {\n    a: sp:a 60 mol @R1 reagent\n  }\n'
        '  hardware {\n    RX1: reactor\n  }\n'
        '  steps {\n    add(vessel=RX1, reagent=a, amount=60 mol)\n'
        '    transfer(from=RX1, to=product)\n  }\n}\n')
    plan = chempile(prog, _simple_graph())
    assert plan.feasible
    trace = execute_plan(plan, _MONO_DB, seed=0)
    assert trace.halt == "q_out"
    groups = _strokes_by_op(trace)
    assert [g[0]["route"] for g in groups.values()] == [("R1", "V1", "RX1"),
                                                        ("RX1", "V1", "OUT")]
    assert all(len(g) == 1 and g[0]["moved"] == 60.0 for g in groups.values())


def test_missing_route_halts_the_run(default_graph):
    plan = chempile(parse_program(fixture_text("tiny.chem")), default_graph)
    plan = dataclasses.replace(plan, routes={k: v for k, v in plan.routes.items()
                                             if k != "RX1->F1"})
    trace = execute_plan(plan, load_rules(FIXTURES / "tiny.rules"), seed=0)
    assert trace.halt == "q_fail"
    assert trace.records[-1]["reason"] == "no route RX1->F1 in the plan"
    assert [r["op_index"] for r in trace.records if r["kind"] == "primitive"] == [0, 1, 1]


def test_overdraw_names_the_bound_flask(default_graph):
    prog = parse_program('procedure "x" {\n  reagents {\n'
                         '    a: sp:a 1 mol @A reagent\n  }\n'
                         '  steps {\n    add(vessel=RX1, reagent=a, amount=2 mol)\n'
                         '  }\n}\n')
    db = load_rules(FIXTURES / "tiny.rules")
    plan = chempile(prog, default_graph)
    assert plan.feasible and plan.bindings["A"] == "R1"
    compiled = execute_plan(plan, db)
    assert compiled.halt == "q_fail"
    assert compiled.records[-1]["reason"] == "a: need 2 a, flask R1 holds 1"
    assert run(prog, db).records[-1]["reason"] == "a: need 2 a, flask A holds 1"


def test_cleaning_schedule(default_graph):
    plan = chempile(parse_program(fixture_text("alkynol_1step.chem")), default_graph)
    assert plan.cleaning == ((6, "SEP1"), (10, "RV1"), (12, "F1"))


@pytest.mark.parametrize("prog_name, rules_name", [
    ("tiny.chem", "tiny.rules"),
    ("atropine_3step.chem", "default.rules"),
])
def test_lowering_matches_abstract_run(default_graph, prog_name, rules_name):
    prog = parse_program(fixture_text(prog_name))
    db = load_rules(FIXTURES / rules_name)
    abstract = run(prog, db, seed=0)
    plan = chempile(prog, default_graph)
    assert plan.feasible
    lowered = execute_plan(plan, db, seed=0)
    assert lowered.halt == abstract.halt
    assert lowering_view(lowered, plan.bindings) == lowering_view(abstract)
    assert lowered.ledger.residual <= 1e-9


def test_compile_pathway_requires_db(default_graph):
    db = load_rules(FIXTURES / "default.rules")
    pathway = plan_pathway(db, "atr", {"tro", "pha", "fml", "hyd"})
    plan = chempile(pathway_to_program(pathway, db), default_graph)
    assert plan.feasible
    trace = execute_plan(plan, db, seed=0)
    assert trace.halt == "q_out"
    assert trace.ledger.product_by_species.get("atr", 0.0) > 0.0
