"""Acceptance gate: twelve numbered criteria, one test per criterion.

Each test prints a PASS line naming its criterion so the suite log doubles
as an acceptance checklist."""

import json
import math
import random

import numpy as np
import pytest

from chemvm.assembly import (
    MonteCarloConfig,
    assembly_bounds,
    max_error_for,
    monte_carlo,
    n_min,
    survival_fraction,
)
from chemvm.chemlang import OP_SPECS, OpKind, classify_steps, parse_program
from chemvm.chemlang.corpus import random_program, synthetic_program
from chemvm.chempiler import (
    build_default_graph,
    chempile,
    execute_plan,
    lowering_view,
    route,
)
from chemvm.cstm import Machine, run
from chemvm.dec import evaluate_correction, run_with_dec
from chemvm.jsonio import dumps_stable
from chemvm.rules import (
    RuleLoadError,
    Unreachable,
    apply_rule_events,
    load_rules,
    loads_rules,
    pathway_to_program,
    plan_pathway,
)

from _support import FIXTURE_RUNS, FIXTURES, fixture_text, min_applications, random_db


def test_criterion_01_survival_after_twenty_steps():
    value = survival_fraction(0.05, 20)
    assert value == pytest.approx(0.358486, abs=1e-6)
    assert value < 0.40
    print(f"PASS criterion 1: survival_fraction(0.05, 20) = {value:.9f} < 0.40")


def test_criterion_02_nmin_closed_form_and_inversion():
    checks = 0
    for phi in (1e6, 1e8):
        for eps in (0.0, 0.01, 0.05, 0.2):
            for a in (1, 20, 120):
                closed = phi / (1.0 - eps) ** a
                assert n_min(phi, [eps] * a) == pytest.approx(closed, rel=1e-12)
                checks += 1
                n = closed * 7.5
                recovered = max_error_for(phi, n, a)
                assert n_min(phi, [recovered] * a) == pytest.approx(n, rel=1e-9)
    print(f"PASS criterion 2: n_min closed form and inversion on {checks} grid points")


def test_criterion_03_monte_carlo_decay_family():
    result = monte_carlo(MonteCarloConfig())
    eps_values = sorted(result.mean_n)
    assert len(eps_values) == 10
    for eps in eps_values:
        row = result.mean_n[eps]
        assert len(row) == 120
        assert np.all(np.diff(row) <= 0)
    for lo, hi in zip(eps_values, eps_values[1:]):
        assert np.all(result.mean_n[lo] >= result.mean_n[hi])
    flat = monte_carlo(MonteCarloConfig(n_trajectories=16, ai_max=40,
                                        drift_rate=0.0, jitter_sd=0.0))
    for eps in flat.mean_n:
        analytic = np.array([flat.config.n0 * survival_fraction(eps, a)
                             for a in flat.assembly_indices])
        assert np.allclose(flat.mean_n[eps], analytic, rtol=1e-12, atol=0.0)
    print("PASS criterion 3: 10 decay curves monotone, ordered, and analytic when degenerate")


def test_criterion_04_unit_operation_expansions():
    table = {
        "separate": ["AM", "AE", "SM"],
        "dry": ["AE", "SM"],
        "crystallise": ["AE", "SE", "SM"],
        "distil": ["AE", "SM", "SE", "AM"],
        "react_hot": ["AM", "AE"],
        "react_cold": ["AM", "SE"],
        "sublime": ["SM", "AE", "SE", "AM"],
    }
    for kind, codes in table.items():
        assert list(OP_SPECS[OpKind(kind)].primitives) == codes, kind
    print("PASS criterion 4: all seven primitive expansions match the table")


def test_criterion_05_conservation_over_random_programs():
    db = load_rules(FIXTURES / "tiny.rules")
    graph = build_default_graph()
    n = 1000
    for seed in range(n):
        prog = random_program(random.Random(seed))
        abstract = run(prog, db, seed=seed)
        assert abstract.ledger.residual <= 1e-9, f"abstract seed {seed}"
        plan = chempile(prog, graph)
        assert plan.feasible, f"compile seed {seed}"
        lowered = execute_plan(plan, db, seed=seed)
        assert lowered.ledger.residual <= 1e-9, f"compiled seed {seed}"
        corrected = run_with_dec(prog, db, eps=0.2, seed=seed)
        assert corrected.trace.ledger.residual <= 1e-9, f"dec seed {seed}"
    print(f"PASS criterion 5: ledger residual <= 1e-9 on {n} programs x 3 execution arms")


def test_criterion_06_halting_semantics():
    prog = parse_program(fixture_text("predicted.chem"))
    db = load_rules(FIXTURES / "predicted.rules")
    first = run(prog, db, seed=0)
    assert first.halt == "q_uout"
    second = run(prog, apply_rule_events(db, first.rule_events), seed=1)
    assert second.halt == "q_out"
    norule = run(parse_program(fixture_text("norule.chem")),
                 load_rules(FIXTURES / "tiny.rules"), seed=0)
    assert norule.halt == "q_fail"
    starved = run(parse_program(fixture_text("tiny.chem")),
                  load_rules(FIXTURES / "tiny.rules"), seed=0, budget=3)
    assert starved.halt == "q_fail"
    assert starved.records[-1]["reason"] == "budget exhausted"
    print("PASS criterion 6: q_uout promotes to q_out; no-rule and budget runs fail")


def test_criterion_07_planner_against_brute_force():
    depth = 4
    agreements = 0
    for seed in range(200):
        db, target, stock = random_db(seed)
        oracle = min_applications(db, target, stock)
        try:
            pathway = plan_pathway(db, target, stock, max_depth=depth)
        except Unreachable:
            assert oracle is None or oracle > depth, seed
            agreements += 1
            continue
        assert oracle is not None and len(pathway.steps) == oracle, seed
        if pathway.steps:
            trace = run(pathway_to_program(pathway, db), db, seed=seed)
            assert trace.halt != "q_fail", seed
        agreements += 1
    assert agreements == 200
    print("PASS criterion 7: planner matches brute-force reachability on 200 databases")


def test_criterion_08_lowering_equivalence():
    graph = build_default_graph()
    assert route(graph, "R1", "RX1") == ("R1", "V1", "P1", "V2", "RX1")
    flow = {"Valve", "Pump"}
    for prog_name, (rules_name, explore) in FIXTURE_RUNS.items():
        prog = parse_program(fixture_text(prog_name))
        db = load_rules(FIXTURES / rules_name)
        abstract = run(prog, db, seed=0, explore=explore)
        plan = chempile(prog, graph)
        assert plan.feasible, prog_name
        lowered = execute_plan(plan, db, seed=0, explore=explore)
        assert lowered.halt == abstract.halt, prog_name
        assert lowering_view(lowered, plan.bindings) == lowering_view(abstract), prog_name
        for path in plan.routes.values():
            for hop in path[1:-1]:
                assert graph.nodes[hop].kind in flow, prog_name
    print(f"PASS criterion 8: lowering equivalence on {len(FIXTURE_RUNS)} fixtures with valid routes")


def test_criterion_09_correction_beats_baseline():
    prog = parse_program(fixture_text("dec_3step.chem"))
    db = load_rules(FIXTURES / "dec_chain.rules")
    noisy = evaluate_correction(prog, db, eps=0.3, n_seeds=200, seed0=0)
    assert noisy["rate_corrected"] > noisy["rate_baseline"]
    assert noisy["p_value"] < 0.01
    clean = evaluate_correction(prog, db, eps=0.0, n_seeds=50, seed0=0)
    assert clean["rate_corrected"] == 1.0
    assert clean["rate_baseline"] == 1.0
    machine = Machine(parse_program(fixture_text("tiny.chem")),
                      load_rules(FIXTURES / "tiny.rules"), seed=0)
    machine.execute_op(0)
    snapshot = machine.checkpoint()
    events = list(machine.rule_events)
    machine.execute_op(1)
    machine.execute_op(2)
    machine.restore(snapshot)
    again = machine.checkpoint()
    for key in ("pc", "head", "controller", "transit", "cells", "rule_events_len"):
        assert dumps_stable(snapshot[key]) == dumps_stable(again[key]), key
    assert machine.rule_events == events
    print(f"PASS criterion 9: corrected {noisy['rate_corrected']:.2f} vs baseline "
          f"{noisy['rate_baseline']:.2f}, p = {noisy['p_value']:.2e}; restore bit-identical")


def test_criterion_10_step_histograms_and_linearity():
    atropine = classify_steps(parse_program(fixture_text("atropine_3step.chem")))
    assert tuple(atropine.cumulative) == (20, 34, 47)
    indole = classify_steps(parse_program(fixture_text("indole_1step.chem")))
    alkynol = classify_steps(parse_program(fixture_text("alkynol_1step.chem")))
    assert indole.total_ops == 18
    assert alkynol.total_ops == 13
    for t in (5, 15, 30):
        cum = classify_steps(synthetic_program(6, t)).cumulative
        xs = np.arange(1, 7)
        slope, intercept = np.polyfit(xs, cum, 1)
        fitted = slope * xs + intercept
        ss_res = float(np.sum((np.array(cum) - fitted) ** 2))
        assert slope == pytest.approx(t)
        assert ss_res == pytest.approx(0.0, abs=1e-18)
    print("PASS criterion 10: histograms (20, 34, 47), totals 18/13, exact linear scaling")


def test_criterion_11_assembly_bounds_and_validation():
    for bonds in range(2, 2 ** 16 + 1):
        lower, upper = assembly_bounds(bonds)
        assert lower <= upper
        assert upper == bonds - 1
        assert 2 ** lower >= bonds
        assert 2 ** (lower - 1) < bonds
    assert assembly_bounds(8) == (3, 7)
    bad = {
        "species": [{"id": "a", "name": "a", "molar_mass": 1.0,
                     "element_counts": {"C": 9}, "assembly_index": 9,
                     "bonds": 8}],
        "rules": [],
    }
    with pytest.raises(RuleLoadError):
        loads_rules(json.dumps(bad))
    print("PASS criterion 11: bounds hold on [2, 2^16]; out-of-bound index rejected")


def test_criterion_12_cli_determinism(tmp_path):
    import contextlib
    import io
    import shutil
    import sys

    from chemvm.cli import main

    def call(argv, stdin=None):
        out = io.StringIO()
        old_stdin = sys.stdin
        if stdin is not None:
            sys.stdin = io.StringIO(stdin)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = main([str(a) for a in argv])
        finally:
            sys.stdin = old_stdin
        return code, out.getvalue()

    work = tmp_path / "w"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_trajectories": 40, "ai_max": 12}))
    rules_copy = tmp_path / "rules.copy"
    invocations = [
        ("parse", ["parse", FIXTURES / "tiny.chem", "--out", work / "fmt.chem"]),
        ("validate", ["validate", FIXTURES / "tiny.chem",
                      "--out", work / "report.json"]),
        ("run", ["run", FIXTURES / "dec_3step.chem",
                 "--rules", FIXTURES / "dec_chain.rules", "--seed", 7,
                 "--trace", work / "trace.jsonl"]),
        ("plan", ["plan", "--rules", FIXTURES / "default.rules",
                  "--target", "atr", "--stock", "tro,pha,fml,hyd",
                  "--out", work / "pathway.json", "--program", work / "pathway.chem"]),
        ("compile", ["compile", FIXTURES / "atropine_3step.chem",
                     "--out", work / "plan.json"]),
        ("stats", ["stats", FIXTURES / "atropine_3step.chem",
                   FIXTURES / "indole_1step.chem", "--out", work / "hist.csv"]),
        ("mc", ["mc", "--config", cfg, "--seed", 3, "--out", work / "mc.csv",
                "--svg", work / "mc.svg"]),
        ("dec-run", ["dec-run", FIXTURES / "dec_3step.chem",
                     "--rules", rules_copy, "--inject-eps", 0.3, "--seed", 5,
                     "--trace", work / "dec.jsonl"]),
    ]
    for name, argv in invocations:
        snapshots = []
        for _ in range(2):
            if work.exists():
                shutil.rmtree(work)
            work.mkdir()
            shutil.copy(FIXTURES / "dec_chain.rules", rules_copy)
            code, stdout = call(argv)
            assert code == 0, name
            files = {p.name: p.read_bytes() for p in sorted(work.iterdir())}
            assert files, name
            snapshots.append((stdout, files))
        assert snapshots[0] == snapshots[1], name
    print(f"PASS criterion 12: {len(invocations)} subcommands byte-identical across reruns")
