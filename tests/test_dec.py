"""Closed-loop error correction: severity classes, scripted fault scenarios,
revert budgets, the paired sign test, the paired arms' outcome trees
against both arms run from scratch, the machine runs they make and the
traces and ledgers they do not, the paired rates against their closed
forms, the experiment script's input errors, and policy I/O."""

import contextlib
import csv
import gc
import io
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from chemvm import cstm
from chemvm import dec as dec_module
from chemvm.chemlang import parse_program, validate_program
from chemvm.cli import main
from chemvm.chemlang.corpus import random_program
from chemvm.chempiler import build_default_graph, chempile, execute_plan
from chemvm.cstm import DEFAULT_BUDGET, Machine, run
from chemvm.dec import (
    MODE_FACTORS,
    BernoulliInjector,
    CorrectionPolicy,
    PolicyError,
    ScriptedInjector,
    classify_severity,
    evaluate_correction,
    loads_policy,
    run_with_dec,
    sign_test,
)
from chemvm.rules import (
    Unreachable, apply_rule_events, load_rules, pathway_to_program, plan_pathway,
)

from _support import FIXTURES, fixture_text, random_db, reference_evaluate_correction


TINY_DB = load_rules(FIXTURES / "tiny.rules")


def _tiny_program(steps: str, b_mol: int = 1):
    """A program over tiny.rules' r1 (a + b -> x, 60-100 C): 1 mol of a in
    R1, `b_mol` of b in R2, a charged into RX1, then `steps`."""
    return parse_program(
        'procedure "p" {\n  reagents {\n    a: sp:a 1 mol @R1 reagent\n'
        f'    b: sp:b {b_mol} mol @R2 reagent\n  }}\n  steps {{\n'
        '    add(vessel=RX1, reagent=a, amount=1 mol)\n' + steps + '  }\n}\n')


def _react_b(temp: int) -> str:
    return f'    react_hot(vessel=RX1, reagent=b, amount=1 mol, temp={temp} C, time=600 s)\n'


def _transitions(res) -> list[dict]:
    return [r for r in res.trace.records if r["kind"] == "transition"]


@pytest.fixture(scope="module")
def chain():
    prog = parse_program(fixture_text("dec_3step.chem"))
    db = load_rules(FIXTURES / "dec_chain.rules")
    return prog, db


def test_restore_recounts_a_reverted_characterising_application():
    # a predicted rule seen once before: the run's reaction is its second
    # occurrence and characterises it; the revert must undo the count, and
    # the re-run count it again from the database's one occurrence
    prog = parse_program(fixture_text("predicted.chem"))
    base = load_rules(FIXTURES / "predicted.rules")
    db = apply_rule_events(base, run(prog, base).rule_events)
    assert (db.rules["rp"].occurrences, db.rules["rp"].status) == (1, "predicted")
    m = Machine(prog, db, seed=0)
    m.execute_op(0)
    ck = m.checkpoint()
    assert [e["outcome"] for e in m.execute_op(1)] == ["q_out"]
    assert m.occurrences == {"rp": 2}
    m.restore(ck)
    assert (m.occurrences, m.rule_events, m.halt()) == ({}, [], "q_out")
    assert [e["outcome"] for e in m.execute_op(1)] == ["q_out"]
    assert m.occurrences == {"rp": 2}
    assert m.rule_events == [{"kind": "applied", "rule_id": "rp", "occurrences": 2,
                              "status_after": "characterised"}]
    # the run counts; the database it ran on is left as it was
    assert m.db is db and db.rules["rp"].occurrences == 1


def test_mode_factors():
    assert MODE_FACTORS == {"minor": 0.9, "intermediate": 0.75, "major": 0.0}


def test_classify_severity_thresholds():
    policy = CorrectionPolicy()
    assert classify_severity(0.01, policy) is None
    assert classify_severity(0.05, policy) == "minor"
    assert classify_severity(0.15, policy) == "intermediate"
    assert classify_severity(0.35, policy) == "major"
    assert classify_severity(1.0, policy) == "major"


def test_no_faults_matches_plain_run(chain):
    prog, db = chain
    res = run_with_dec(prog, db, eps=0.0, seed=3)
    plain = run(prog, db, seed=3)
    assert res.halt == plain.halt == "q_out"
    assert res.product_total == pytest.approx(0.729)
    assert res.summary()["deviations"] == 0
    assert res.summary()["actions"] == 0


def test_minor_fault_tuned_in_place(chain):
    prog, db = chain
    res = run_with_dec(prog, db, injector=ScriptedInjector(["minor"]), seed=0)
    assert res.summary() == {
        "halt": "q_out", "success": True,
        "product_total": pytest.approx(0.729),
        "sensings": 3, "deviations": 1, "actions": 1,
        "redoses": 0, "reverts": 0, "corrections_enabled": True,
    }


@pytest.mark.parametrize("temp, delta, energy", [
    (65, 10.0, (40 + 6 + 10, 0)),     # heat to 65, hold 600 s, tune up
    (95, -10.0, (70 + 6, 10)),        # heat to 95, hold 600 s, tune down
])
def test_tune_moves_the_temperature_toward_the_window_midpoint(temp, delta, energy):
    # r1's window midpoint is 80 C; a tune moves at most 10 C toward it
    res = run_with_dec(_tiny_program(_react_b(temp)), TINY_DB,
                       injector=ScriptedInjector(["minor"]))
    [tune] = res.actions
    assert (tune["action"], tune["temp_delta"], tune["temp"]) == ("tune", delta, temp + delta)
    assert tune["extent_added"] == pytest.approx(0.09)
    rx1 = res.trace.state.cell_named("RX1")
    assert (rx1.temp, rx1.energy_in, rx1.energy_out) == (temp + delta, *energy)
    assert res.trace.ledger.produced == {"x": pytest.approx(0.9)}
    assert res.halt == "q_out" and res.trace.ledger.residual <= 1e-9


def test_redose_draws_from_a_flask_that_holds_more_than_its_dose():
    # R2 holds two doses of b: the redose charges half a dose and holds the
    # conditions again, which runs r1 a second time
    res = run_with_dec(_tiny_program(_react_b(80), b_mol=2), TINY_DB,
                       injector=ScriptedInjector(["intermediate"]))
    first, second = _transitions(res)
    assert (first["injected"], "injected" in second) == ("intermediate", False)
    assert (second["op_index"], second["step"]) == (1, first["step"] + 2)
    assert second["extent"] == pytest.approx(0.9 * 0.325)
    assert (res.redoses, res.reverts, len(res.sensings)) == (1, 0, 2)
    assert res.trace.state.cell_named("R2").contents == {"b": pytest.approx(0.5)}
    assert res.halt == "q_out" and res.trace.ledger.residual <= 1e-9


def test_redose_of_a_heat_stir_reaction_escalates_to_a_revert():
    # a heat_stir charges nothing, so it has no dose to repeat
    res = run_with_dec(
        _tiny_program('    add(vessel=RX1, reagent=b, amount=1 mol)\n'
                      '    heat_stir(vessel=RX1, temp=80 C, time=600 s)\n'),
        TINY_DB, injector=ScriptedInjector(["intermediate"]))
    assert [a["action"] for a in res.actions] == ["redose_extend", "revert_replan"]
    assert [t.get("injected") for t in _transitions(res)] == ["intermediate", None]
    assert res.trace.state.cell_named("R2").contents == {}
    assert res.halt == "q_out" and res.trace.ledger.residual <= 1e-9


def test_a_scripted_none_is_a_clean_reaction(chain):
    prog, db = chain
    res = run_with_dec(prog, db, injector=ScriptedInjector([None, "minor", None]), seed=0)
    assert [t.get("injected") for t in _transitions(res)] == [None, "minor", None]
    assert [(d["op_index"], d["severity"]) for d in res.deviations] == [(2, "minor")]
    assert res.halt == "q_out" and res.trace.ledger.residual <= 1e-9


def test_intermediate_fault_redosed(chain):
    prog, db = chain
    res = run_with_dec(prog, db, injector=ScriptedInjector(["intermediate"]), seed=0)
    summary = res.summary()
    assert summary["halt"] == "q_out"
    assert summary["redoses"] == 1
    assert summary["product_total"] == pytest.approx(0.729)


def test_major_fault_reverted_and_replayed(chain):
    prog, db = chain
    res = run_with_dec(prog, db, injector=ScriptedInjector(["major"]), seed=0)
    summary = res.summary()
    assert summary["halt"] == "q_out"
    assert summary["reverts"] == 1
    assert summary["product_total"] == pytest.approx(0.729)
    assert res.actions[0]["action"] == "revert_replan"


def test_one_lowering_per_program(monkeypatch):
    # twenty runs with reverts and redoses lower each step once in all
    lowered = []
    lower = cstm.expand_unit_op
    monkeypatch.setattr(cstm, "expand_unit_op",
                        lambda op, i, decls: lowered.append(i) or lower(op, i, decls))
    prog = parse_program(fixture_text("dec_3step.chem"))
    db = load_rules(FIXTURES / "dec_chain.rules")
    out = evaluate_correction(prog, db, eps=0.5, n_seeds=10)
    assert out["n"] == 10
    assert lowered == list(range(len(prog.steps)))

    # and so does a job that parses, validates, compiles and runs all three arms
    lowered.clear()
    graph = build_default_graph()
    prog = parse_program(fixture_text("tiny.chem"))
    db = load_rules(FIXTURES / "tiny.rules")
    assert validate_program(prog, graph).ok
    plan = chempile(prog, graph)
    traces = [run(prog, db, seed=1), execute_plan(plan, db, seed=1),
              run_with_dec(prog, db, eps=0.2, seed=1).trace]
    assert [t.halt for t in traces] == ["q_out"] * 3
    assert lowered == list(range(len(prog.steps)))


def test_explore_stream_drawn_on_first_use(chain, monkeypatch):
    drawn = []
    draw = cstm.substream

    def counted(seed, *names):
        drawn.append(names)
        return draw(seed, *names)

    monkeypatch.setattr(cstm, "substream", counted)
    monkeypatch.setattr(dec_module, "substream", counted)
    prog, db = chain
    run_with_dec(prog, db, eps=0.5, seed=3)
    assert drawn == [("inject",), ("sense",)]

    # a run that explores draws its stream once, when it first explores
    drawn.clear()
    res = run_with_dec(parse_program(fixture_text("explore.chem")),
                       load_rules(FIXTURES / "explore.rules"), seed=0, explore=True)
    assert res.halt == "q_nout"
    assert drawn == [("inject",), ("sense",), ("explore",)]


def test_revert_budget_exhaustion(chain):
    prog, db = chain
    res = run_with_dec(prog, db, injector=ScriptedInjector(["major"] * 10), seed=0)
    assert res.halt == "q_fail"
    assert not res.summary()["success"]
    assert res.reverts == 3
    assert res.trace.records[-1]["reason"] == "revert budget exhausted"


@pytest.mark.parametrize("mode", ["minor", "intermediate", "major"])
@pytest.mark.parametrize("budget", range(1, 21))
def test_budget_trace_records_every_correction(mode, budget):
    # the run takes 6 steps after a tune and 9 after a redose or revert, whose
    # re-run steps count; the budgets past that check finished runs
    res = run_with_dec(parse_program(fixture_text("tiny.chem")),
                       load_rules(FIXTURES / "tiny.rules"), seed=0,
                       budget=budget, injector=ScriptedInjector([mode]))
    records = res.trace.records
    finish = 6 if mode == "minor" else 9

    def count(kind, action=None):
        return sum(r["kind"] == kind and r.get("action") == action for r in records)

    assert len(res.sensings) == count("sensing")
    assert len(res.deviations) == count("deviation")
    assert len(res.actions) == sum(r["kind"] == "action" for r in records)
    assert res.redoses == count("action", "redose_extend")
    assert res.reverts == count("action", "revert_replan") == count("revert")
    assert records[-1]["step"] == count("primitive") == min(budget, finish)
    assert (records[-1].get("reason") == "budget exhausted") == (budget < finish)


def test_corrections_disabled_lets_faults_through(chain):
    prog, db = chain
    res = run_with_dec(prog, db, injector=ScriptedInjector(["major"]),
                       corrections_enabled=False, seed=0)
    assert res.summary()["actions"] == 0
    assert res.product_total < 0.729


def test_bernoulli_injector_is_seeded(chain):
    prog, db = chain
    first = run_with_dec(prog, db, eps=0.3, seed=11)
    second = run_with_dec(prog, db, eps=0.3, seed=11)
    assert first.summary() == second.summary()


def test_calls_without_a_policy_build_none(chain, monkeypatch):
    # a policy checks all eight fields when built; the default is built once
    built = []
    check = CorrectionPolicy.__post_init__
    monkeypatch.setattr(CorrectionPolicy, "__post_init__",
                        lambda policy: built.append(policy) or check(policy))
    prog, db = chain
    run_with_dec(prog, db, eps=0.3, seed=1)
    evaluate_correction(prog, db, eps=0.3, n_seeds=3)
    assert built == []
    CorrectionPolicy()
    assert len(built) == 1


def test_sign_test_exact_values():
    assert sign_test(8, 2) == pytest.approx(56 / 1024)
    assert sign_test(0, 0) == 1.0
    assert sign_test(5, 0) == pytest.approx(1 / 32)
    assert sign_test(0, 5) == pytest.approx(1.0)


@pytest.mark.parametrize("b, c", [(700, 400), (1024, 0), (1289, 84), (20, 1100)])
def test_sign_test_past_a_float_power_of_two(b, c):
    # 2.0 ** n overflows once b + c passes 1023; the tail is exact either way
    n = b + c
    exact = Fraction(sum(math.comb(n, k) for k in range(b, n + 1)), 2 ** n)
    assert sign_test(b, c) == float(exact)


def test_policy_io(tmp_path):
    assert loads_policy(fixture_text("policy_default.json")) == CorrectionPolicy()
    with pytest.raises(PolicyError, match=r"unknown field\(s\) \['bogus'\]"):
        loads_policy('{"bogus": 1}')
    custom = loads_policy('{"max_reverts": 5}')
    assert custom.max_reverts == 5
    assert custom.minor_threshold == 0.05


@pytest.mark.parametrize("text, message", [
    ('{"max_reverts": 2.5}', "max_reverts must be an integer"),
    ('{"max_redoses": true}', "max_redoses must be an integer"),
    ('{"redose_fraction": true}', "redose_fraction must be a number"),
    ('{"sensor_noise_sd": "0.1"}', "sensor_noise_sd must be a number"),
])
def test_policy_field_types(text, message):
    with pytest.raises(PolicyError, match=f"<string>: {message}"):
        loads_policy(text)


def test_evaluate_correction_small_sample(chain):
    prog, db = chain
    out = evaluate_correction(prog, db, eps=0.3, n_seeds=12, seed0=0)
    assert out == {
        "n": 12,
        "rate_corrected": pytest.approx(1.0),
        "rate_baseline": pytest.approx(7 / 12),
        "discordant_better": 5,
        "discordant_worse": 0,
        "p_value": pytest.approx(1 / 32),
    }


# the default policy; a noiseless sensor; one that tunes every reading the
# noise puts below 1; no revert or one; and no redose, so that an
# intermediate gap escalates at once
ORACLE_POLICIES = {
    "default": CorrectionPolicy(),
    "noiseless": CorrectionPolicy(sensor_noise_sd=0),
    "tune_all": CorrectionPolicy(minor_threshold=1e-9),
    "no_reverts": CorrectionPolicy(max_reverts=0),
    "one_revert": CorrectionPolicy(max_reverts=1),
    "no_redoses": CorrectionPolicy(max_redoses=0),
}


@pytest.mark.parametrize("eps", [0.0, 0.1, 0.2, 0.3, 0.5])
@pytest.mark.parametrize("policy", sorted(ORACLE_POLICIES))
def test_evaluate_correction_matches_both_arms_run(chain, policy, eps):
    prog, db = chain
    kw = dict(policy=ORACLE_POLICIES[policy], eps=eps, n_seeds=200, seed0=1000)
    assert evaluate_correction(prog, db, **kw) == reference_evaluate_correction(prog, db, **kw)


# one op that fires two reactions: the crystallise's heat runs r1 (a + b -> x)
# and its cool r2 (x + c -> t)
TWO_IN_ONE_OP = parse_program(
    'procedure "two" {\n  reagents {\n    a: sp:a 1 mol @R1 reagent\n'
    '    b: sp:b 1 mol @R2 reagent\n    c: sp:c 1 mol @R3 reagent\n  }\n  steps {\n'
    '    add(vessel=RX1, reagent=a, amount=1 mol)\n'
    '    add(vessel=RX1, reagent=b, amount=1 mol)\n'
    '    add(vessel=RX1, reagent=c, amount=1 mol)\n'
    '    crystallise(vessel=RX1, temp=80 C, cool_to=0 C, species=t, to=product)\n'
    '  }\n}\n')


@pytest.mark.parametrize("eps", [0.2, 0.5])
@pytest.mark.parametrize("policy", sorted(ORACLE_POLICIES))
def test_evaluate_correction_matches_both_arms_run_on_an_op_of_two_reactions(policy, eps):
    kw = dict(policy=ORACLE_POLICIES[policy], eps=eps, n_seeds=100, seed0=2000)
    assert evaluate_correction(TWO_IN_ONE_OP, TINY_DB, **kw) \
        == reference_evaluate_correction(TWO_IN_ONE_OP, TINY_DB, **kw)


def test_an_op_of_two_reactions_deviates_at_its_first():
    # such a seed's baseline run senses the op's second reaction where the
    # corrected run reverts instead
    first = []
    for seed in range(2000, 2100):
        res = run_with_dec(TWO_IN_ONE_OP, TINY_DB, eps=0.5, seed=seed)
        if res.deviations:
            first.append(res.deviations[0]["rule"])
    assert first.count("r1") > 10 and "r2" in first


def test_evaluate_correction_matches_both_arms_run_at_every_budget(chain):
    # dec_3step takes 12 steps when nothing goes wrong, more when corrected
    prog, db = chain
    for budget in range(1, 16):
        kw = dict(eps=0.3, n_seeds=50, seed0=300, budget=budget)
        assert evaluate_correction(prog, db, **kw) \
            == reference_evaluate_correction(prog, db, **kw), budget
    assert evaluate_correction(prog, db, eps=0.3, n_seeds=50, budget=1)["rate_corrected"] == 0.0


def _random_programs() -> list:
    """(program, rule database) pairs: corpus programs on tiny.rules and
    the chains planned over seeded random databases that take a step."""
    pairs = [(random_program(random.Random(seed)), TINY_DB) for seed in range(4)]
    for seed in range(300):
        db, target, stock = random_db(seed)
        try:
            pathway = plan_pathway(db, target, stock, max_depth=4)
        except Unreachable:
            continue
        if pathway.steps:
            pairs.append((pathway_to_program(pathway, db), db))
    return pairs


RANDOM_PROGRAMS = _random_programs()


@pytest.mark.parametrize("eps", [None, 0.1, 0.3, 0.5, 1.0])
def test_evaluate_correction_matches_both_arms_run_on_random_programs(eps):
    assert len(RANDOM_PROGRAMS) == 32
    # each program on its own seeds: most chains take one step alike
    for policy in sorted(ORACLE_POLICIES):
        for i, (prog, db) in enumerate(RANDOM_PROGRAMS):
            kw = dict(policy=ORACLE_POLICIES[policy], eps=eps, n_seeds=20, seed0=4000 + 20 * i)
            assert evaluate_correction(prog, db, **kw) \
                == reference_evaluate_correction(prog, db, **kw), (policy, i)


PREDICTED = parse_program(fixture_text("predicted.chem"))
PREDICTED_DB = load_rules(FIXTURES / "predicted.rules")


def test_the_predicted_fixture_halts_unverified_with_product():
    # its one rule is predicted and not yet seen, so a run that completes
    # halts q_uout, which is no success, product or none
    for corrections_enabled in (True, False):
        res = run_with_dec(PREDICTED, PREDICTED_DB, eps=0.0,
                           corrections_enabled=corrections_enabled)
        assert (res.halt, res.success) == ("q_uout", False)
        assert res.product_total > 0


@pytest.mark.parametrize("eps", [None, 0.3, 1.0])
@pytest.mark.parametrize("policy", sorted(ORACLE_POLICIES))
def test_evaluate_correction_matches_both_arms_run_on_an_unverified_halt(policy, eps):
    kw = dict(policy=ORACLE_POLICIES[policy], eps=eps, n_seeds=100, seed0=3000)
    assert evaluate_correction(PREDICTED, PREDICTED_DB, **kw) \
        == reference_evaluate_correction(PREDICTED, PREDICTED_DB, **kw)


def _count_machines(monkeypatch) -> list:
    """Wrap `Machine.__init__`; returns the list each machine built is
    appended to."""
    machines = []
    init = cstm.Machine.__init__
    monkeypatch.setattr(cstm.Machine, "__init__",
                        lambda machine, *args, **kw: machines.append(machine)
                        or init(machine, *args, **kw))
    return machines


def _class_path(res) -> tuple:
    """A run's class path, read off its trace: the mode injected at each
    reaction and the severity of each sensing's deviation, if any, in the
    order drawn."""
    return tuple((r["kind"], r.get("injected"), r.get("severity")) for r in res.trace.records
                 if r["kind"] in ("transition", "sensing", "deviation"))


def test_each_seed_seeds_its_streams_once_and_runs_a_machine_per_class_path(chain, monkeypatch):
    # an arm runs its machine once per distinct class path: one path per arm
    # at eps 0, and at eps 0.3 as many as run_with_dec's traces show
    prog, db = chain
    paths = sum(len({_class_path(run_with_dec(prog, db, eps=0.3, seed=seed,
                                              corrections_enabled=enabled))
                     for seed in range(40)}) for enabled in (True, False))
    assert 2 < paths < 80
    seeded = []
    draw = dec_module.substream
    monkeypatch.setattr(dec_module, "substream",
                        lambda seed, *names: seeded.append((seed, names)) or draw(seed, *names))
    machines = _count_machines(monkeypatch)
    for eps, runs in [(0.0, 2), (0.3, paths)]:
        seeded.clear()
        machines.clear()
        evaluate_correction(prog, db, eps=eps, n_seeds=40)
        assert seeded == [(seed, (name,)) for seed in range(40) for name in ("inject", "sense")]
        assert len(machines) == runs, eps


def test_the_paired_arms_build_no_ledger(chain, monkeypatch):
    # an arm reads its halt and its product off the machine: no run of
    # either arm is finalized, so none builds a ledger
    prog, db = chain
    calls = {"build_ledger": 0, "finalize": 0}
    build_ledger, finalize = cstm.build_ledger, cstm.Machine.finalize

    def counted(name, call):
        def wrapper(arg):
            calls[name] += 1
            return call(arg)
        return wrapper

    monkeypatch.setattr(cstm, "build_ledger", counted("build_ledger", build_ledger))
    monkeypatch.setattr(cstm.Machine, "finalize", counted("finalize", finalize))
    run_with_dec(prog, db, eps=0.3)
    assert calls == {"build_ledger": 1, "finalize": 1}
    machines = _count_machines(monkeypatch)
    for eps in (0.0, 0.3):
        calls.update(build_ledger=0, finalize=0)
        evaluate_correction(prog, db, eps=eps, n_seeds=40)
        assert calls == {"build_ledger": 0, "finalize": 0}, eps
    assert len(machines) > 4       # both arms ran, at eps 0.3 on several paths


def test_the_paired_arms_write_no_record(chain, monkeypatch):
    # a paired machine keeps no trace: no step makes a primitive record and
    # its contents copy, and no run of either arm holds a record list
    prog, db = chain
    calls = []
    apply_primitive = cstm.apply_primitive
    monkeypatch.setattr(cstm, "apply_primitive",
                        lambda *args: calls.append(1) or apply_primitive(*args))
    records = run_with_dec(prog, db, eps=0.3).trace.records
    assert len(calls) == sum(r["kind"] == "primitive" for r in records) > 0
    calls.clear()
    machines = _count_machines(monkeypatch)
    evaluate_correction(prog, db, eps=0.3, n_seeds=40)
    assert calls == []
    assert len(machines) > 2 and all(machine.records is None for machine in machines)


def test_the_paired_arms_leave_no_reference_cycles(chain):
    # an arm or its tree that held itself would keep its machine until the
    # cycle collector ran, and peak memory would grow between calls
    prog, db = chain
    gc.collect()
    gc.disable()
    try:
        evaluate_correction(prog, db, eps=0.3, n_seeds=40)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_graft_that_asks_another_question_at_a_node_raises():
    # a run that asked another question than an earlier run on the same
    # classes would show an arm whose state is not a function of those classes
    tree = {}
    dec_module._graft(tree, [(("inject", 0.3), None), (("sense", 0.9), "minor")], True)
    dec_module._graft(tree, [(("inject", 0.3), "major")], False)
    assert tree == {None: (("inject", 0.3), {None: (("sense", 0.9), {"minor": True}),
                                             "major": False})}
    for path, asked in [
        ([(("inject", 0.3), None), (("sense", 0.8), None)], r"\('sense', 0.8\)"),
        ([(("inject", 0.3), None)], "None"),                        # it halted early
        ([(("inject", 0.3), "major"), (("sense", 0.0), None)], r"\('sense', 0.0\)"),  # past a halt
    ]:
        with pytest.raises(RuntimeError, match=f"^a run asked {asked} where one on its classes"):
            dec_module._graft(tree, path, True)


def test_a_long_program_completes_in_both_arms(monkeypatch):
    # 2,200 react steps take 4,402 machine steps; the corrected arm's sensing
    # and checkpoint records take it past DEFAULT_BUDGET records but no step
    n = 2200
    prog = parse_program(
        'procedure "long" {\n  reagents {\n    a: sp:a 3000 mol @R1 reagent\n'
        f'    b: sp:b {n} mol @R2 reagent\n  }}\n  steps {{\n'
        '    add(vessel=RX1, reagent=a, amount=3000 mol)\n'
        + '    react_hot(vessel=RX1, reagent=b, amount=1 mol, temp=80 C, time=600 s)\n' * n
        + '    filter(vessel=RX1, species=x, to=product)\n  }\n}\n')
    db = load_rules(FIXTURES / "tiny.rules")
    machines = _count_machines(monkeypatch)
    out = evaluate_correction(prog, db, eps=0.0, n_seeds=2)
    assert len(machines) == 2       # no class path but the first, in either arm
    on = run_with_dec(prog, db, eps=0.0, seed=0)
    off = run_with_dec(prog, db, eps=0.0, seed=0, corrections_enabled=False)
    assert on.corrections_enabled and on.halt == off.halt == "q_out"
    assert on.trace.records[-1]["step"] == off.trace.records[-1]["step"] == 2 * n + 2
    assert len(off.trace.records) < DEFAULT_BUDGET < len(on.trace.records)
    assert out == reference_evaluate_correction(prog, db, eps=0.0, n_seeds=2)
    assert (out["rate_corrected"], out["rate_baseline"]) == (1.0, 1.0)


@pytest.mark.parametrize("eps", [0.1, 0.2, 0.3, 0.5])
def test_paired_rates_follow_their_closed_forms(chain, eps):
    # dec_3step chains three reactions. A baseline reaction fails on a major
    # error, 45% of errors. Under the default policy a corrected one reverts
    # on a major or an intermediate error (f = 75% of errors), as no flask
    # holds a second dose to redose with, and the run fails on a fourth
    # revert: at most three failures before three successes
    prog, db = chain
    n = 1000
    out = evaluate_correction(prog, db, eps=eps, n_seeds=n, seed0=50_000)
    f = 0.75 * eps
    predicted = {
        "rate_baseline": (1 - 0.45 * eps) ** 3,
        "rate_corrected": sum(math.comb(k + 2, k) * (1 - f) ** 3 * f ** k for k in range(4)),
    }
    for key, p in predicted.items():
        assert abs(out[key] - p) <= 4 * math.sqrt(p * (1 - p) / n), (key, out[key], p)


EXPERIMENT = FIXTURES.parent / "scripts" / "run_dec_experiment.py"


def _experiment(program: Path, *args: str):
    env = {**os.environ, "PYTHONPATH": str(Path(cstm.__file__).parents[1])}
    return subprocess.run(
        [sys.executable, str(EXPERIMENT), str(program), str(FIXTURES / "dec_chain.rules"),
         *args], capture_output=True, text=True, env=env)


@pytest.mark.parametrize("args, message", [
    (["--eps", ""], "--eps names no error rate"),
    (["--n-seeds", "0"], "--n-seeds must be at least 1, not 0"),
    (["--eps", "0.1,1.5"], "inject eps must be a number in [0, 1], not 1.5"),
    (["--eps", "0.1,abc"], "--eps: 'abc' is not a number"),
])
def test_the_experiment_script_rejects_bad_input(tmp_path, args, message):
    # one error line and exit 2, with nothing printed and no CSV written;
    # the rates are checked by `evaluate_correction` itself
    out_csv = tmp_path / "sweep.csv"
    out = _experiment(FIXTURES / "dec_3step.chem", *args, "--out", str(out_csv))
    assert (out.returncode, out.stdout, out.stderr) == (2, "", f"error: {message}\n")
    assert not out_csv.exists()


def test_the_experiment_script_reports_a_parse_error(tmp_path):
    # as `chemvm` does: one line and exit 1
    bad = tmp_path / "bad.chem"
    bad.write_text('procedure "x" {\n  steps { bogus( }\n}\n', encoding="utf-8")
    out = _experiment(bad, "--n-seeds", "1")
    assert (out.returncode, out.stdout) == (1, "")
    assert out.stderr.startswith("parse error: 2:11: ") and out.stderr.count("\n") == 1


def test_the_experiment_script_rows_are_dec_run_compare(tmp_path):
    # the script and `chemvm dec-run --compare` are two front ends of one
    # `evaluate_correction` call per eps
    out_csv = tmp_path / "sweep.csv"
    out = _experiment(FIXTURES / "dec_3step.chem", "--eps", "0.0,0.2", "--n-seeds", "50",
                      "--out", str(out_csv))
    assert out.returncode == 0
    with open(out_csv, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["eps"] for row in rows] == ["0.0", "0.2"]
    for row in rows:
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            code = main(["dec-run", str(FIXTURES / "dec_3step.chem"),
                         "--rules", str(FIXTURES / "dec_chain.rules"), "--compare",
                         "--inject-eps", row["eps"], "--seeds", "50"])
        assert code == 0
        table = json.loads(text.getvalue())
        assert row == {"eps": row["eps"], **{k: str(v) for k, v in table.items()}}
