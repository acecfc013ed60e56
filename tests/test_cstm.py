"""Vessel-tape machine: macro-expansion, execution, ledgers, halting,
checkpointing, and trace serialization."""

import dataclasses
import itertools
import json
import random

import pytest

from chemvm import chempiler, cstm
from chemvm.chemlang import (
    OP_SPECS, ChemProgram, OpKind, Quantity, ReagentDecl, UnitOperation,
    parse_program,
)
from chemvm.chemlang.validate import ValidationReport
from chemvm.chemlang.corpus import random_program
from chemvm.chempiler import build_default_graph, check_program, chempile, execute_plan
from chemvm.cstm import (
    DEFAULT_BUDGET,
    Machine,
    MachineError,
    apply_extent,
    expand_unit_op,
    init_machine,
    lower_program,
    read_trace_jsonl,
    run,
    worst_halt,
)
from chemvm.dec import ScriptedInjector, run_with_dec
from chemvm.jsonio import dumps_stable
from chemvm.rules import load_rules, loads_rules

from _support import (
    FIXTURE_ARMS, FIXTURE_RUNS, FIXTURES, fixture_plan, fixture_text, fixture_trace,
    random_program_text, reference_expand_unit_op, undeclared_reagent_program,
)

EXPANSIONS = {
    "add": ["AM"],
    "transfer": ["SM", "AM"],
    "heat_stir": ["AE"],
    "chill": ["SE"],
    "react_hot": ["AM", "AE"],
    "react_cold": ["AM", "SE"],
    "separate": ["AM", "AE", "SM"],
    "dry": ["AE", "SM"],
    "crystallise": ["AE", "SE", "SM"],
    "distil": ["AE", "SM", "SE", "AM"],
    "sublime": ["SM", "AE", "SE", "AM"],
    "filter": ["SM"],
    "evaporate": ["AE", "SM"],
    "clean": ["AM", "SM"],
}


@pytest.mark.parametrize("kind, codes", sorted(EXPANSIONS.items()))
def test_expansion_table(kind, codes):
    assert list(OP_SPECS[OpKind(kind)].primitives) == codes


SAMPLE_PARAMS = {
    "vessel": "A", "from": "A", "to": "B", "reagent": "r", "solvent": "s",
    "species": "x", "amount": Quantity(0.5, "mol"), "temp": Quantity(80.0, "C"),
    "cool_to": Quantity(20.0, "C"), "time": Quantity(60.0, "s"),
}
SAMPLE_DECLS = {name: ReagentDecl(name, name, Quantity(1.0, "mol"), "R1")
                for name in ("r", "s")}


@pytest.mark.parametrize("optional", [False, True])
@pytest.mark.parametrize("kind", list(OpKind))
def test_lowering_follows_expansion_table(kind, optional):
    spec = OP_SPECS[kind]
    keys = spec.required | (spec.optional if optional else set())
    op = UnitOperation(kind, {k: SAMPLE_PARAMS[k] for k in keys})
    assert [p.code for p in expand_unit_op(op, 0, SAMPLE_DECLS)] == EXPANSIONS[kind.value]


def _lowered(lower, op, op_index, decls):
    """A lowering's primitives, or the text of the MachineError it raised."""
    try:
        return lower(op, op_index, decls)
    except MachineError as exc:
        return f"MachineError: {exc}"


def _check_lowering(op, op_index, decls):
    want = _lowered(reference_expand_unit_op, op, op_index, decls)
    got = _lowered(expand_unit_op, op, op_index, decls)
    # repr as well: equal tuples could still differ in a field's type
    assert (got, repr(got)) == (want, repr(want))
    return got


def test_lowering_matches_reference_on_random_programs():
    kinds = set()
    for seed in range(1000):
        prog = parse_program(random_program_text(random.Random(seed), f"p{seed}"))
        decls = {d.name: d for d in prog.reagents}
        for i, op in enumerate(prog.steps):
            _check_lowering(op, i, decls)
            kinds.add(op.kind)
    assert kinds == set(OpKind)


@pytest.mark.parametrize("kind", list(OpKind))
def test_lowering_matches_reference_on_every_optional_subset(kind):
    spec = OP_SPECS[kind]
    for n in range(len(spec.optional) + 1):
        for extra in itertools.combinations(sorted(spec.optional), n):
            op = UnitOperation(kind, {k: SAMPLE_PARAMS[k] for k in (*spec.required, *extra)},
                               line=7)
            assert not isinstance(_check_lowering(op, 2, SAMPLE_DECLS), str)


@pytest.mark.parametrize("kind", list(OpKind))
def test_lowering_error_text_matches_reference(kind):
    spec = OP_SPECS[kind]
    full = {k: SAMPLE_PARAMS[k] for k in spec.required | spec.optional}
    for dropped in [*({k} for k in spec.required), spec.required]:
        op = UnitOperation(kind, {k: v for k, v in full.items() if k not in dropped}, line=7)
        assert _check_lowering(op, 2, SAMPLE_DECLS) == (
            f"MachineError: step 3 ({kind.value}, line 7): {kind.value} requires "
            f"parameter {min(dropped)!r}")
    for key in ("reagent", "solvent"):
        if key in full:
            op = UnitOperation(kind, {**full, key: "zz"}, line=7)
            assert _check_lowering(op, 2, SAMPLE_DECLS) == (
                f"MachineError: step 3 ({kind.value}, line 7): no reagent declaration 'zz'")


@pytest.fixture(scope="module")
def tiny_trace():
    prog = parse_program(fixture_text("tiny.chem"))
    db = load_rules(FIXTURES / "tiny.rules")
    return run(prog, db, seed=0)


def test_tiny_run_outcome(tiny_trace):
    tr = tiny_trace
    assert tr.halt == "q_out"
    assert tr.ledger.product_by_species == {"x": pytest.approx(0.9)}
    by_name = {c.name: c.contents for c in tr.state.cells}
    # yield shortfall stays behind as unreacted feed, caught on the filter
    assert by_name["F1"]["a"] == pytest.approx(0.1)
    assert by_name["F1"]["b"] == pytest.approx(0.1)
    assert by_name["RX1"] == {}
    assert tr.ledger.residual <= 1e-9
    # one heat ramp 25->80 plus a 600 s hold at 0.01/s
    assert tr.ledger.energy_in == pytest.approx(61.0)
    assert tr.rule_events == [
        {"kind": "applied", "rule_id": "r1", "occurrences": 1,
         "status_after": "characterised"},
    ]


def test_trace_jsonl_roundtrip(tiny_trace):
    text = tiny_trace.to_jsonl()
    assert read_trace_jsonl(text) == tiny_trace.records
    assert tiny_trace.records[-1]["kind"] == "halt"
    assert tiny_trace.records[-1]["halt"] == "q_out"


@pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\u0085"],
                         ids=["U+2028", "U+2029", "U+0085"])
def test_trace_jsonl_roundtrip_with_line_separators_in_strings(separator):
    # a rule id need not be an identifier; the trace holds it raw
    doc = json.loads(fixture_text("tiny.rules"))
    doc["rules"][0]["id"] = f"r{separator}1"
    db = loads_rules(json.dumps(doc))
    tr = run(parse_program(fixture_text("tiny.chem")), db, seed=0)
    text = tr.to_jsonl()
    assert separator in text
    assert read_trace_jsonl(text) == json.loads(json.dumps(tr.records))


def test_budget_exhaustion_fails():
    prog = parse_program(fixture_text("tiny.chem"))
    db = load_rules(FIXTURES / "tiny.rules")
    tr = run(prog, db, seed=0, budget=3)
    assert tr.halt == "q_fail"
    assert tr.records[-1]["reason"] == "budget exhausted"
    assert DEFAULT_BUDGET == 10_000


def test_insufficient_material_fails():
    src = """procedure "x" {
  reagents {
    a: sp:a 1 mol @R1 reagent
  }
  hardware {
    RX1: reactor
  }
  steps {
    add(vessel=RX1, reagent=a, amount=2 mol)
  }
}
"""
    tr = run(parse_program(src), load_rules(FIXTURES / "tiny.rules"), seed=0)
    assert tr.halt == "q_fail"
    assert "need 2 a" in tr.records[-1]["reason"]
    assert tr.records[-1]["step"] == 0      # the overdraw never ran


@pytest.mark.parametrize("arm", ["run", "execute_plan", "run_with_dec"])
def test_undeclared_reagent_halts_before_the_first_primitive(arm):
    # the step cannot be lowered, so no arm starts the run
    prog = undeclared_reagent_program()
    db = load_rules(FIXTURES / "tiny.rules")
    if arm == "run":
        tr = run(prog, db, seed=0)
    elif arm == "execute_plan":
        plan = chempile(prog, build_default_graph())
        assert [f.code for f in plan.report.findings] == ["undeclared_reference"]
        # a plan run regardless halts as the other arms do
        tr = execute_plan(dataclasses.replace(plan, report=ValidationReport()), db, seed=0)
    else:
        tr = run_with_dec(prog, db, seed=0).trace
    assert tr.halt == "q_fail"
    assert tr.records[-1]["reason"] == "step 2 (add, line 0): no reagent declaration 'zz'"
    assert tr.records[-1]["step"] == 0
    assert not any(r["kind"] == "primitive" for r in tr.records)


@pytest.mark.parametrize("arm", ["run", "execute_plan", "redose"])
@pytest.mark.parametrize("budget", range(1, 14))
def test_budget_trace_records_every_executed_step(arm, budget):
    prog = parse_program(fixture_text("tiny.chem"))
    db = load_rules(FIXTURES / "tiny.rules")
    if arm == "run":
        tr = run(prog, db, seed=0, budget=budget)
    elif arm == "execute_plan":
        tr = execute_plan(chempile(prog, build_default_graph()), db, seed=0,
                          budget=budget)
    else:   # the first reaction falls short and is redosed
        tr = run_with_dec(parse_program(fixture_text("dec_3step.chem")),
                          load_rules(FIXTURES / "dec_chain.rules"), seed=0,
                          budget=budget,
                          injector=ScriptedInjector(["intermediate"])).trace
    primitives = [r for r in tr.records if r["kind"] == "primitive"]
    assert tr.records[-1]["step"] == len(primitives)
    if arm != "redose":     # a revert rolls rule events back, not records
        applied = [e for e in tr.rule_events if e["kind"] == "applied"]
        reactions = [r for r in tr.records if r["kind"] == "transition" and r["rule"]]
        assert len(applied) == len(reactions)


@pytest.mark.parametrize("name", sorted(FIXTURE_RUNS))
def test_arms_halt_alike_at_every_budget(name):
    # from budget 1 to the compiled run's record count, which is past every
    # fixture's step count: the budget counts steps, so no arm's records
    # make it stop sooner than another
    rules_name, explore = FIXTURE_RUNS[name]
    prog = parse_program(fixture_text(name))
    db = load_rules(FIXTURES / rules_name)
    plan = fixture_plan(name, "default")
    records = len(execute_plan(plan, db, seed=0, explore=explore).records)
    for budget in range(1, records + 1):
        halts = {(r["halt"], r.get("reason"), r["step"]) for r in (
            run(prog, db, seed=0, budget=budget, explore=explore).records[-1],
            execute_plan(plan, db, seed=0, budget=budget, explore=explore).records[-1],
            run_with_dec(prog, db, eps=0.0, seed=0, budget=budget,
                         explore=explore).trace.records[-1])}
        assert len(halts) == 1, (budget, halts)


@pytest.mark.parametrize("arm", ["run", "execute_plan", "run_with_dec"])
def test_partial_transfer_moves_its_amount(arm):
    # 30 of RX1's 40 mol move, split over its species as they are held
    prog = parse_program(
        'procedure "x" {\n  reagents {\n    a: sp:a 30 mol @R1 reagent\n'
        '    b: sp:b 10 mol @R2 reagent\n  }\n'
        '  hardware {\n    RX1: reactor\n    S1: storage\n  }\n'
        '  steps {\n    add(vessel=RX1, reagent=a, amount=30 mol)\n'
        '    add(vessel=RX1, reagent=b, amount=10 mol)\n'
        '    transfer(from=RX1, to=S1, amount=30 mol)\n  }\n}\n')
    db = loads_rules(json.dumps({"species": [], "rules": []}))
    names = {}
    if arm == "run":
        tr = run(prog, db, seed=0)
    elif arm == "execute_plan":
        plan = chempile(prog, build_default_graph())
        names = plan.bindings
        tr = execute_plan(plan, db, seed=0)
        strokes = [r for r in tr.records if r["kind"] == "transfer" and r["op_index"] == 2]
        # 30 mol through the 25 mL pump
        assert [(r["stroke"], r["strokes"]) for r in strokes] == [(1, 2), (2, 2)]
        assert [r["moved"] for r in strokes] == pytest.approx([15.0, 15.0])
        assert all(r["total"] == pytest.approx(30.0) for r in strokes)
    else:
        tr = run_with_dec(prog, db, seed=0).trace
    assert tr.halt == "q_out"
    moved = tr.state.cell_named(names.get("S1", "S1")).contents
    left = tr.state.cell_named(names.get("RX1", "RX1")).contents
    assert moved == pytest.approx({"a": 22.5, "b": 7.5})
    assert left == pytest.approx({"a": 7.5, "b": 2.5})
    assert tr.ledger.residual <= 1e-9


@pytest.mark.parametrize("arm", ["run", "execute_plan", "run_with_dec"])
def test_vessels_missing_from_hardware_take_first_use_order(arm):
    # RX1 and S1 are named only by steps: their cells follow the listed F1
    # in the order the steps first use them, as if the hardware listed them
    text = fixture_text("dec_3step.chem").replace(
        "    RX1: reactor\n    F1: filter\n",
        "    F1: filter\n    RX1: reactor\n    S1: storage\n").replace(
        "transfer(from=RX1, to=F1)", "transfer(from=RX1, to=S1)\n"
        "    transfer(from=S1, to=F1)")
    listed = parse_program(text)
    unlisted = ChemProgram(listed.name, listed.reagents, listed.hardware[:1],
                           listed.steps, listed.metadata)
    db = load_rules(FIXTURES / "dec_chain.rules")
    traces = []
    for prog in (listed, unlisted):
        if arm == "run":
            tr = run(prog, db, seed=0)
        elif arm == "execute_plan":     # unlisted vessels run under their node's id
            tr = execute_plan(chempile(prog, build_default_graph()), db, seed=0)
        else:   # the first reaction fails, reverting to before RX1 was first used
            tr = run_with_dec(prog, db, seed=0, injector=ScriptedInjector(["major"])).trace
            assert [r["to_pc"] for r in tr.records if r["kind"] == "revert"] == [0]
        assert tr.halt == "q_out"
        traces.append(tr)
    assert [c.name for c in traces[1].state.cells][-3:] == ["F1", "RX1", "S1"]
    assert traces[1].to_jsonl() == traces[0].to_jsonl()


def test_apply_extent_books_no_zero_amounts():
    db = loads_rules(json.dumps({
        "species": [{"id": s, "name": s, "molar_mass": 1.0,
                     "element_counts": {"C": 1}} for s in ("a", "b", "k")],
        "rules": [{"id": "r", "reagent_pattern": {"a": 1.0}, "products": {"b": 1.0},
                   "catalysts": ["k"], "yield": 1.0, "epsilon": 0.0,
                   "status": "characterised",
                   "process_window": {"temp_min": 0.0, "temp_max": 100.0,
                                      "duration_min": 0.0, "duration_max": 1e9}}],
    }))
    rule = db.rules["r"]
    state = init_machine(parse_program(
        'procedure "x" {\n  reagents {\n    a: sp:a 1 mol @R1 reagent\n'
        '    k: sp:k 1 mol @R1 reagent\n  }\n'
        '  steps {\n    add(vessel=RX1, reagent=a)\n  }\n}\n'))
    cell = state.cell_named("R1")
    apply_extent(state, cell, rule, 0.0)
    assert (state.consumed, state.produced) == ({}, {})
    assert cell.contents == {"a": 1.0, "k": 1.0}
    apply_extent(state, cell, rule, 0.25)
    assert state.consumed == {"a": 0.25, "k": 0.25}
    assert state.produced == {"b": 0.25, "k": 0.25}
    assert cell.contents == {"a": 0.75, "b": 0.25, "k": 1.0}


def test_worst_halt_ordering():
    assert worst_halt([]) == "q_out"
    assert worst_halt(["q_out"]) == "q_out"
    assert worst_halt(["q_out", "q_uout"]) == "q_uout"
    assert worst_halt(["q_uout", "q_nout", "q_out"]) == "q_nout"
    assert worst_halt(["q_nout", "q_fail", "q_out"]) == "q_fail"


def test_byproduct_booked_to_waste():
    prog = parse_program(fixture_text("atropine_3step.chem"))
    db = load_rules(FIXTURES / "default.rules")
    tr = run(prog, db, seed=0)
    assert tr.halt == "q_out"
    assert tr.ledger.waste_by_species["r_est.byproduct"] == pytest.approx(0.95)
    assert tr.ledger.residual <= 1e-9


def test_3step_chain_product():
    prog = parse_program(fixture_text("dec_3step.chem"))
    db = load_rules(FIXTURES / "dec_chain.rules")
    tr = run(prog, db, seed=0)
    assert tr.halt == "q_out"
    assert tr.ledger.product_by_species["tgt"] == pytest.approx(0.729)


def test_checkpoint_restore_is_bit_identical():
    prog = parse_program(fixture_text("tiny.chem"))
    db = load_rules(FIXTURES / "tiny.rules")
    m = Machine(prog, db, seed=0)
    m.execute_op(0)
    m.execute_op(1)
    ck = m.checkpoint()
    events = list(m.rule_events)
    m.execute_op(2)
    m.execute_op(3)
    m.restore(ck)
    ck2 = m.checkpoint()
    for key in ("pc", "head", "controller", "transit", "cells", "rule_events_len"):
        assert dumps_stable(ck[key]) == dumps_stable(ck2[key]), key
    assert ck2["db"] is ck["db"]
    assert m.rule_events == events


def test_a_fork_of_a_traced_run_keeps_its_own_records():
    # the paired experiment forks machines that keep no trace; a fork of one
    # that keeps a trace runs on with a copy of it
    prog = parse_program(fixture_text("tiny.chem"))
    db = load_rules(FIXTURES / "tiny.rules")
    m = Machine(prog, db, seed=0)
    m.execute_op(0)
    twin = m.fork()
    assert twin.records == m.records and twin.records is not m.records
    expected = run(prog, db, seed=0).to_jsonl()
    assert m.execute().to_jsonl() == twin.execute().to_jsonl() == expected


def test_after_op_runs_once_after_each_op_in_order():
    prog = parse_program(fixture_text("dec_3step.chem"))
    db = load_rules(FIXTURES / "dec_chain.rules")
    machine = Machine(prog, db, seed=0)
    calls = []
    machine.execute(lambda op_index, events: calls.append(op_index))
    assert calls == list(range(len(machine.ops)))
    # the correction loop takes its op -1 checkpoint itself, before the first op
    assert run_with_dec(prog, db).trace.records[0] == \
        {"kind": "checkpoint", "op_index": -1, "pc": 0, "step": 0}


def test_restore_with_matter_in_the_transit_line():
    # a checkpoint between a transfer's SM and AM holds a in the line; by
    # the restore, the line holds the b a later SM moved into it
    prog = parse_program(
        'procedure "p" {\n  reagents {\n    a: sp:a 1 mol @R1 reagent\n'
        '    b: sp:b 1 mol @R2 reagent\n  }\n  steps {\n'
        '    add(vessel=RX1, reagent=a, amount=1 mol)\n'
        '    add(vessel=RX2, reagent=b, amount=1 mol)\n'
        '    transfer(from=RX1, to=F1)\n    transfer(from=RX2, to=F1)\n  }\n}\n')
    m = Machine(prog, load_rules(FIXTURES / "tiny.rules"), seed=0)
    (add_a,), (add_b,), (sm_a, am_a), (sm_b, _) = m.ops
    for prim in (add_a, add_b, sm_a):
        m.step(prim)
    ck = m.checkpoint()
    assert ck["transit"] == {"a": 1.0}
    m.step(am_a)
    m.step(sm_b)
    assert m.state.transit == {"b": 1.0}
    m.restore(ck)
    assert [(c.contents, c.temp) for c in m.state.cells[1:]] == ck["cells"]
    assert m.state.transit == ck["transit"]
    assert m.state.waste_cell.contents == {"a": 1.0, "b": 1.0}
    assert m.finalize().ledger.residual <= 1e-9


def test_restore_keeps_ledger_closed():
    prog = parse_program(fixture_text("tiny.chem"))
    db = load_rules(FIXTURES / "tiny.rules")
    m = Machine(prog, db, seed=0)
    m.execute_op(0)
    ck = m.checkpoint()
    m.execute_op(1)
    m.restore(ck)
    for i in range(1, len(prog.steps)):
        m.execute_op(i)
    tr = m.finalize()
    assert tr.halt == "q_out"
    assert tr.ledger.residual <= 1e-9
    # the rolled-back reaction output was discarded, not vanished
    assert tr.ledger.waste_by_species["x"] == pytest.approx(0.9)
    assert tr.ledger.product_by_species["x"] == pytest.approx(0.9)


def test_predicted_rule_first_run_unoptimised():
    prog = parse_program(fixture_text("predicted.chem"))
    db = load_rules(FIXTURES / "predicted.rules")
    tr = run(prog, db, seed=0)
    assert tr.halt == "q_uout"
    assert tr.ledger.product_by_species["w"] == pytest.approx(0.75)


def test_norule_fails():
    prog = parse_program(fixture_text("norule.chem"))
    db = load_rules(FIXTURES / "tiny.rules")
    tr = run(prog, db, seed=0)
    assert tr.halt == "q_fail"


def test_explore_discovers_latent_rule():
    prog = parse_program(fixture_text("explore.chem"))
    db = load_rules(FIXTURES / "explore.rules")
    plain = run(prog, db, seed=0)
    assert plain.halt == "q_fail"
    probed = run(prog, db, seed=0, explore=True)
    assert probed.halt == "q_nout"
    assert probed.ledger.product_by_species["en"] == pytest.approx(0.7)
    kinds = [e["kind"] for e in probed.rule_events]
    assert kinds == ["discovered", "applied"]


# ---------------------------------------------------------------------------
# Species order and the shared layout

def _in_species_order(d: dict) -> bool:
    return list(d) == sorted(d)


@pytest.fixture()
def order_checks(monkeypatch):
    """Check, after every primitive any machine runs, that each cell, the
    transit line and the books hold their species in species order, as does
    the primitive's record. Returns the list of states checked."""
    checked = []
    inner = cstm.apply_primitive

    def checked_apply(state, prim, move):
        record, filled = inner(state, prim, move)
        for d in (*(c.contents for c in state.cells), state.transit,
                  state.stock_in, state.consumed, state.produced):
            assert _in_species_order(d), (prim, d)
        assert _in_species_order(record["contents"]), record
        checked.append(state)
        return record, filled

    monkeypatch.setattr(cstm, "apply_primitive", checked_apply)
    return checked


def _assert_trace_in_species_order(tr) -> None:
    for r in tr.records:
        if "contents" in r:
            assert list(r["contents"].items()) == sorted(r["contents"].items()), r
    halt = tr.records[-1]
    assert halt["kind"] == "halt"
    for key, value in halt["ledger"].items():
        if isinstance(value, dict):
            assert _in_species_order(value), key
    for cell in tr.state.cells:
        assert _in_species_order(cell.contents)


@pytest.mark.parametrize("arm", FIXTURE_ARMS)
@pytest.mark.parametrize("name", sorted(FIXTURE_RUNS))
def test_fixture_runs_keep_species_order(order_checks, name, arm):
    tr = fixture_trace(name, arm)
    _assert_trace_in_species_order(tr)
    assert order_checks


def test_random_programs_keep_species_order(order_checks):
    db = load_rules(FIXTURES / "tiny.rules")
    graph = build_default_graph()
    for seed in range(200):
        prog = random_program(random.Random(seed))
        plan = chempile(prog, graph)
        assert plan.feasible, seed
        for tr in (run(prog, db, seed=seed), execute_plan(plan, db, seed=seed),
                   run_with_dec(prog, db, eps=0.2, seed=seed).trace):
            _assert_trace_in_species_order(tr)
    assert len(order_checks) > 1000


def test_revert_keeps_species_order(order_checks):
    prog = parse_program(fixture_text("dec_3step.chem"))
    db = load_rules(FIXTURES / "dec_chain.rules")
    result = run_with_dec(prog, db, seed=0, injector=ScriptedInjector(["major"]))
    assert result.reverts == 1 and result.halt == "q_out"
    _assert_trace_in_species_order(result.trace)
    # the revert dumped the workspace into waste, out of arrival order
    assert len(result.trace.ledger.waste_by_species) > 1


def _layout_snapshot(prog):
    layout = lower_program(prog).layout
    return layout.names, dict(layout.index), dict(layout.slot)


def test_machines_share_the_programs_layout():
    prog = parse_program(fixture_text("tiny.chem"))
    db = load_rules(FIXTURES / "tiny.rules")
    one, two = Machine(prog, db), Machine(prog, db)
    layout = lower_program(prog).layout
    assert one.state.index is two.state.index is layout.index
    assert one.state.slot is two.state.slot is layout.slot
    assert [c.name for c in one.state.cells] == list(layout.names)
    for a, b in zip(one.state.cells, two.state.cells):
        assert a is not b and a.contents is not b.contents
    one.execute()
    assert two.state.cells[two.state.slot["RX1"]].contents == {}
    assert one.state.cells[one.state.slot["RX1"]].contents == {}
    assert one.state.product_cell.contents != two.state.product_cell.contents


def test_runs_leave_the_layout_unchanged():
    prog = parse_program(fixture_text("dec_3step.chem"))
    db = load_rules(FIXTURES / "dec_chain.rules")
    before = _layout_snapshot(prog)
    assert run(prog, db).state.slot is lower_program(prog).layout.slot
    result = run_with_dec(prog, db, seed=0, injector=ScriptedInjector(["major"]))
    assert result.reverts == 1
    run_with_dec(prog, db, eps=0.5, seed=3)
    assert _layout_snapshot(prog) == before


def test_bindings_lay_out_node_named_cells(monkeypatch):
    prog = parse_program(fixture_text("tiny.chem"))
    db = load_rules(FIXTURES / "tiny.rules")
    before = _layout_snapshot(prog)
    states = []
    inner = cstm.init_machine
    for module in (cstm, chempiler):
        monkeypatch.setattr(module, "init_machine",
                            lambda *args: states.append(inner(*args)) or states[-1])
    graph = build_default_graph()
    report, bindings, _ = check_program(prog, graph)
    plan = chempile(prog, graph)
    tr = execute_plan(plan, db, seed=0)
    assert report.ok and bindings == plan.bindings
    assert bindings["waste"] != "waste" and bindings["product"] != "product"
    assert len(states) >= 2 and states[-1] is tr.state
    vessels = lower_program(prog).vessels
    for state in states:
        names = [c.name for c in state.cells]
        assert names == list(dict.fromkeys(bindings.get(v, v) for v in vessels))
        assert all(names[state.slot[v]] == bindings.get(v, v) for v in vessels)
        assert state.index == {name: i for i, name in enumerate(names)}
        assert state.index is not lower_program(prog).layout.index
    assert _layout_snapshot(prog) == before
