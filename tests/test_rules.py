"""Rule database: schema validation, matching, promotion, discovery and
the backward-chaining planner."""

import json
import re
from dataclasses import replace

import pytest

from chemvm.chemlang import Quantity, parse_program
from chemvm.chempiler import chempile, execute_plan
from chemvm.cstm import run
from chemvm.rules import (
    CATALYST_CHARGE_MOL,
    PRESENCE_EPS,
    RuleLoadError,
    Unreachable,
    UnstableTarget,
    commit_discovery,
    explore,
    load_rules,
    loads_rules,
    match_rule,
    pathway_to_program,
    plan_pathway,
    promote,
    save_rules,
)

from _support import (
    FIXTURES, match_rule_linear, random_match_db, random_memo_case, reference_match_rule,
)

import random


def _db_text(species=(), rules=(), latent=()):
    doc = {"species": list(species), "rules": list(rules)}
    if latent:
        doc["latent"] = list(latent)
    return json.dumps(doc)


def _sp(sid, elements, **extra):
    return {"id": sid, "name": sid, "molar_mass": 10.0,
            "element_counts": elements, **extra}


def _rule(rid, inputs, products, **extra):
    base = {
        "id": rid,
        "reagent_pattern": inputs,
        "process_window": {"temp_min": 0.0, "temp_max": 100.0,
                           "duration_min": 60.0, "duration_max": 7200.0},
        "products": products,
        "yield": 0.9,
        "epsilon": 0.05,
        "status": "characterised",
    }
    base.update(extra)
    return base


def test_load_save_roundtrip(tmp_path):
    db = load_rules(FIXTURES / "default.rules")
    out = tmp_path / "copy.rules"
    save_rules(db, out)
    text = out.read_text()
    save_rules(load_rules(out), out)
    assert out.read_text() == text
    db2 = load_rules(out)
    assert set(db2.rules) == set(db.rules)
    assert set(db2.species) == set(db.species)


def test_duplicate_rule_id_rejected():
    text = _db_text(
        [_sp("a", {"C": 1}), _sp("b", {"C": 1})],
        [_rule("r", {"a": 1}, {"b": 1}), _rule("r", {"b": 1}, {"a": 1})],
    )
    with pytest.raises(RuleLoadError, match="duplicate rule id 'r'"):
        loads_rules(text)


def test_element_imbalance_rejected():
    text = _db_text(
        [_sp("a", {"C": 1}), _sp("b", {"C": 2})],
        [_rule("r", {"a": 1}, {"b": 1})],
    )
    with pytest.raises(RuleLoadError,
                       match="products contain more 'C' \\(2\\) than inputs supply \\(1\\)"):
        loads_rules(text)


def test_surplus_inputs_become_byproduct():
    text = _db_text(
        [_sp("a", {"C": 2, "H": 2}), _sp("b", {"C": 2})],
        [_rule("r", {"a": 1}, {"b": 1})],
    )
    db = loads_rules(text)
    assert db.rules["r"].byproduct_elements == {"H": 2}


def test_assembly_index_must_fit_bond_bounds():
    bad = _db_text([_sp("a", {"C": 9}, assembly_index=9, bonds=8)])
    with pytest.raises(RuleLoadError, match="assembly"):
        loads_rules(bad)
    low = _db_text([_sp("a", {"C": 9}, assembly_index=2, bonds=8)])
    with pytest.raises(RuleLoadError, match="assembly"):
        loads_rules(low)
    ok = _db_text([_sp("a", {"C": 9}, assembly_index=3, bonds=8)])
    assert loads_rules(ok).species["a"].assembly_index == 3


@pytest.mark.parametrize("index, bonds, bounds", [(9, 8, "[3, 7]"), (2, 8, "[3, 7]"),
                                                  (1, 1, "[0, 0]")])
def test_assembly_bounds_message(index, bonds, bounds):
    text = _db_text([_sp("a", {"C": 9}, assembly_index=index, bonds=bonds)])
    message = f"assembly_index {index} outside {bounds} for {bonds} bonds"
    with pytest.raises(RuleLoadError, match=re.escape(message)):
        loads_rules(text)


@pytest.mark.parametrize("bonds", [5.0, "x", 0, -3])
@pytest.mark.parametrize("index", [{}, {"assembly_index": 2}])
def test_bonds_must_be_a_positive_integer(bonds, index):
    text = _db_text([_sp("a", {"C": 9}, bonds=bonds, **index)])
    with pytest.raises(RuleLoadError, match="bonds must be a positive integer"):
        loads_rules(text)


def test_missing_fields_reported():
    with pytest.raises(RuleLoadError, match="element_counts"):
        loads_rules(json.dumps({
            "species": [{"id": "a", "name": "a", "molar_mass": 1.0}],
            "rules": [],
        }))


@pytest.fixture(scope="module")
def default_db():
    return load_rules(FIXTURES / "default.rules")


def test_match_window_boundaries_inclusive(default_db):
    have = {"tro": 1.0, "pha": 1.0}
    assert match_rule(default_db, have, (100.0, 1800.0)).rule.id == "r_est"
    assert match_rule(default_db, have, (140.0, 7200.0)).rule.id == "r_est"
    assert match_rule(default_db, have, (99.99, 3600.0)) is None
    assert match_rule(default_db, have, (140.01, 3600.0)) is None


def test_match_extent_and_limiting(default_db):
    m = match_rule(default_db, {"tro": 2.0, "pha": 0.5}, (120.0, 3600.0))
    assert m.extent == pytest.approx(0.5)
    assert m.limiting == "pha"


def test_match_priority_then_id_tiebreak():
    species = [_sp(s, {"C": 1}) for s in ("a", "b", "c")]
    rules = [
        _rule("r_b", {"a": 1}, {"b": 1}),
        _rule("r_a", {"a": 1}, {"c": 1}),
        _rule("r_hot", {"a": 1}, {"b": 1}, priority=5),
    ]
    db = loads_rules(_db_text(species, rules))
    m = match_rule(db, {"a": 1.0}, (50.0, 600.0))
    assert m.rule.id == "r_hot"
    db2 = loads_rules(_db_text(species, rules[:2]))
    assert match_rule(db2, {"a": 1.0}, (50.0, 600.0)).rule.id == "r_a"


def test_match_requires_catalyst_presence():
    species = [_sp(s, {"C": 1}) for s in ("a", "b", "k")]
    rules = [_rule("r", {"a": 1}, {"b": 1}, catalysts=["k"])]
    db = loads_rules(_db_text(species, rules))
    assert match_rule(db, {"a": 1.0}, (50.0, 600.0)) is None
    assert match_rule(db, {"a": 1.0, "k": 0.05}, (50.0, 600.0)).rule.id == "r"


def test_classify_outcome_by_status(default_db):
    """A reaction's outcome is its rule's status once promoted: a
    characterised rule reads q_out, a prediction's first occurrence q_uout,
    and its second, which characterises it, q_out."""
    def outcomes(name, db):
        tr = run(parse_program((FIXTURES / name).read_text()), db)
        return [r["outcome"] for r in tr.records if r["kind"] == "transition"], tr.db

    assert outcomes("atropine_3step.chem", default_db)[0] == ["q_out"] * 3
    first, pdb = outcomes("predicted.chem", load_rules(FIXTURES / "predicted.rules"))
    assert first == ["q_uout"]
    assert outcomes("predicted.chem", pdb)[0] == ["q_out"]


def test_promote_twice_characterises():
    db = load_rules(FIXTURES / "predicted.rules")
    db1 = promote(db, "rp")
    assert (db1.rules["rp"].occurrences, db1.rules["rp"].status) == (1, "predicted")
    db2 = promote(db1, "rp")
    assert (db2.rules["rp"].occurrences, db2.rules["rp"].status) == (2, "characterised")
    # original copy untouched
    assert db.rules["rp"].occurrences == 0


def test_promote_links_onto_the_log_without_copying(tmp_path):
    text = json.dumps({**json.loads((FIXTURES / "predicted.rules").read_text()),
                       "provenance": [{"event": "note", "n": i} for i in range(3)]})
    db = loads_rules(text)
    promoted = promote(db, "rp")
    # the new version's log is one event on the old one, not a copy of it
    assert promoted._log.before is db._log
    assert promoted.provenance == db.provenance + [
        {"event": "occurrence", "rule": "rp", "occurrences": 1}]
    assert len(db.provenance) == 3
    save_rules(promoted, tmp_path / "out.rules")
    saved = json.loads((tmp_path / "out.rules").read_text())
    assert saved["provenance"] == promoted.provenance


def _match_key(m):
    return None if m is None else (m.rule, m.extent, m.limiting)


@pytest.mark.parametrize("seed", range(12))
def test_indexed_match_agrees_with_linear_scan(seed):
    db, probes = random_match_db(seed)

    def hits(db) -> int:
        found = 0
        for contents, conditions in probes:
            want = match_rule_linear(db, contents, conditions)
            assert _match_key(match_rule(db, contents, conditions)) == _match_key(want)
            found += want is not None
        return found

    assert hits(db) > 0
    # promotion carries the index along; some rules are promoted twice so
    # their status changes in the overlay
    rng = random.Random(seed)
    promoted = db
    for rid in rng.sample(sorted(db.rules), 20) * 2:
        promoted = promote(promoted, rid)
    assert promoted._index is db._index
    hits(promoted)
    # discovery changes which rules mention which species: a new index,
    # which must hold the discovered rule
    latent = replace(db.latent[rng.choice(sorted(db.latent))], priority=3)
    discovered = commit_discovery(promoted, latent)
    assert discovered._index is not db._index
    probes.append(({s: 1.0 for s in (*latent.reagent_pattern, *latent.catalysts)},
                   latent.process_window.midpoint()))
    hits(discovered)
    assert match_rule(discovered, *probes[-1]).rule.id == latent.id


@pytest.mark.parametrize("block", range(10))
def test_memoized_match_agrees_with_reference(block):
    # 50 cases a block, 500 in all; each asks its questions of the database
    # and of children promoted along the way, in turn, which share its memo
    for seed in range(50 * block, 50 * block + 50):
        db, questions = random_memo_case(seed)
        rng = random.Random(seed)
        family, keys = [db], set()
        for contents, conditions in questions:
            if rng.random() < 0.2:
                family.append(promote(rng.choice(family), rng.choice(sorted(db.rules))))
            member = rng.choice(family)
            want = reference_match_rule(member, contents, conditions)
            assert _match_key(match_rule(member, contents, conditions)) == _match_key(want)
            keys.add((frozenset(s for s, v in contents.items() if v > PRESENCE_EPS),
                      *conditions))
        # one entry per distinct question, shared by the whole family
        assert all(member._matches is db._matches for member in family)
        assert len(db._matches) == len(keys) < len(questions)


def test_match_memo_never_crosses_an_index():
    db = load_rules(FIXTURES / "explore.rules")
    contents, conditions = {"e1": 1.0, "e2": 1.0}, (60.0, 2700.0)
    assert match_rule(db, contents, conditions) is None
    assert db._matches == {(frozenset(contents), *conditions): None}
    found = explore(db, contents, conditions, random.Random(0))
    discovered = commit_discovery(db, found)
    assert discovered._matches is not db._matches
    assert match_rule(discovered, contents, conditions).rule.id == "le"
    # the parent's answer stands for the parent's index
    assert match_rule(db, contents, conditions) is None


def test_promote_is_made_once_and_equals_a_fresh_build():
    text = (FIXTURES / "predicted.rules").read_text()
    db = loads_rules(text)
    once = promote(promote(db, "rp"), "rp")
    assert promote(db, "rp") is promote(db, "rp")
    assert promote(promote(db, "rp"), "rp") is once
    # the same two promotions on a database nothing has promoted yet
    fresh = promote(promote(loads_rules(text), "rp"), "rp")
    assert fresh is not once
    assert dict(once.rules) == dict(fresh.rules)
    assert (once.rules["rp"].status, once.rules["rp"].occurrences) == ("characterised", 2)
    assert once.provenance == fresh.provenance == [
        {"event": "occurrence", "rule": "rp", "occurrences": 1},
        {"event": "promoted", "rule": "rp", "occurrences": 2, "from": "predicted"}]
    assert once == fresh


def test_explore_and_commit_discovery():
    db = load_rules(FIXTURES / "explore.rules")
    assert db.latent and not db.rules
    cand = explore(db, {"e1": 1.0, "e2": 1.0}, (60.0, 2700.0), random.Random(0))
    assert (cand.id, cand.status, cand.occurrences) == ("le", "novel", 0)
    assert explore(db, {"e1": 1.0}, (60.0, 2700.0), random.Random(0)) is None
    db2 = commit_discovery(db, cand)
    assert "le" in db2.rules and not db2.latent


def test_plan_three_step_pathway(default_db):
    pw = plan_pathway(default_db, "atr", {"tro", "pha", "fml", "hyd"})
    assert [s.rule_id for s in pw.steps] == ["r_est", "r_man", "r_red"]
    assert pw.steps[-1].extent == pytest.approx(1.0)
    assert pw.steps[1].extent == pytest.approx(1.0 / 0.92)
    assert pw.steps[0].extent == pytest.approx(1.0 / 0.92 / 0.90)


def test_plan_single_step_and_in_stock(default_db):
    pw = plan_pathway(default_db, "ind", {"anl", "pyv"})
    assert [s.rule_id for s in pw.steps] == ["r_ind"]
    assert plan_pathway(default_db, "tro", {"tro"}).steps == ()


def test_plan_errors(default_db):
    with pytest.raises(ValueError, match="unknown species 'nope'"):
        plan_pathway(default_db, "nope", {"tro"})
    with pytest.raises(Unreachable):
        plan_pathway(default_db, "atr", {"tro"}, max_depth=2)
    unstable = loads_rules(_db_text([_sp("u", {"C": 1}, stable=False)]))
    with pytest.raises(UnstableTarget):
        plan_pathway(unstable, "u", set())


def test_pathway_program_executes(default_db):
    pw = plan_pathway(default_db, "atr", {"tro", "pha", "fml", "hyd"})
    prog = pathway_to_program(pw, default_db)
    tr = run(prog, default_db, seed=0)
    assert tr.halt == "q_out"
    assert tr.ledger.product_by_species.get("atr", 0.0) > 0.0
    assert tr.ledger.residual <= 1e-9


# c0 + s1 -> c1, c1 + s2 -> c2, ..., c7 + s8 -> c8
_CHAIN_DB = loads_rules(_db_text(
    [_sp(f"c{k}", {"C": k + 1}) for k in range(9)]
    + [_sp(f"s{k}", {"C": 1}) for k in range(1, 9)],
    [_rule(f"r{k}", {f"c{k - 1}": 1.0, f"s{k}": 1.0}, {f"c{k}": 1.0})
     for k in range(1, 9)]))


@pytest.mark.parametrize("depth", [4, 5, 6, 7, 8])
def test_long_pathway_compiles_on_the_builtin_rig(depth, default_graph):
    # depth + 1 stock species share the rig's four unreserved flasks
    stock = {"c0"} | {f"s{k}" for k in range(1, depth + 1)}
    prog = pathway_to_program(plan_pathway(_CHAIN_DB, f"c{depth}", stock), _CHAIN_DB)
    assert [(d.species, d.source_vessel) for d in prog.reagents] == [
        (s, f"R{i % 4 + 1}") for i, s in enumerate(sorted(stock))]
    plan = chempile(prog, default_graph)
    assert plan.feasible, plan.report.findings
    trace = execute_plan(plan, _CHAIN_DB, seed=0)
    assert trace.halt == "q_out"
    assert trace.ledger.product_by_species[f"c{depth}"] == pytest.approx(1.0)


def test_pathway_program_for_stocked_target(default_db):
    pw = plan_pathway(default_db, "tro", {"tro"})
    prog = pathway_to_program(pw, default_db)
    tr = run(prog, default_db, seed=0)
    assert tr.halt == "q_out"
    assert tr.ledger.product_by_species.get("tro", 0.0) > 0.0


# a + b -> x + y, x + c -> z, z + y -> t: step 2 needs only x of the parked
# {x, y}, so it picks x out on the chromatograph; step 3's inputs are all
# parked, so it charges nothing and drives the rule by conditions alone
_PARKING_DB = loads_rules(_db_text(
    [_sp(s, {"C": 1}) for s in ("a", "b", "c", "x", "y")]
    + [_sp("z", {"C": 2}), _sp("t", {"C": 3})],
    [_rule("r1", {"a": 1.0, "b": 1.0}, {"x": 1.0, "y": 1.0}),
     _rule("r2", {"x": 1.0, "c": 1.0}, {"z": 1.0}),
     _rule("r3", {"z": 1.0, "y": 1.0}, {"t": 1.0},
           process_window={"temp_min": -10.0, "temp_max": 20.0,
                           "duration_min": 60.0, "duration_max": 7200.0})]))


def _block(prog, k):
    """The (kind, params) of reaction step k's operations."""
    marks = [i for i, op in enumerate(prog.steps) if op.reaction_step is not None]
    end = marks[k] if k < len(marks) else len(prog.steps)
    return [(op.kind.value, dict(op.params)) for op in prog.steps[marks[k - 1]:end]]


def _compiled_run(prog, db, graph):
    plan = chempile(prog, graph)
    assert plan.feasible, plan.report.findings
    return execute_plan(plan, db, seed=0)


def test_pathway_picks_from_storage_and_runs_a_conditions_only_step(default_graph):
    pw = plan_pathway(_PARKING_DB, "t", {"a", "b", "c"})
    assert [s.rule_id for s in pw.steps] == ["r1", "r2", "r3"]
    prog = pathway_to_program(pw, _PARKING_DB)
    assert [(h.vessel, h.kind) for h in prog.hardware] == [
        ("RX1", "reactor"), ("F1", "filter"), ("S1", "storage"), ("CH1", "chromatograph")]
    step2, step3 = _block(prog, 2), _block(prog, 3)
    assert [kind for kind, _ in step2[:3]] == ["transfer", "filter", "transfer"]
    assert step2[0][1] == {"from": "S1", "to": "CH1", "reaction_step": 2}
    assert step2[1][1] == {"vessel": "CH1", "species": "x", "to": "RX1"}
    assert step2[2][1] == {"from": "CH1", "to": "S1"}
    assert step3[0][1] == {"from": "S1", "to": "RX1", "reaction_step": 3}
    # no stock input: the reactor, at 50 C from step 2, is chilled to r3's window
    assert step3[1] == ("chill", {"vessel": "RX1", "temp": Quantity(5.0, "C"),
                                  "time": Quantity(3630.0, "s")})
    assert all(kind != "add" and not kind.startswith("react") for kind, _ in step3)
    trace = _compiled_run(prog, _PARKING_DB, default_graph)
    assert trace.halt == "q_out"
    assert trace.ledger.product_by_species["t"] > 0.0
    assert set(trace.ledger.product_by_species) == {"t"}
    assert trace.ledger.residual <= 1e-9


_CATALYST_DB = loads_rules(_db_text(
    [_sp(s, {"C": 1}) for s in ("a", "b", "k")],
    [_rule("rk", {"a": 1.0}, {"b": 1.0}, catalysts=["k"])],
    latent=[_rule("lat", {"b": 1.0}, {"a": 1.0}, status="novel")]))


def test_planned_pathway_charges_its_catalyst(default_graph):
    pw = plan_pathway(_CATALYST_DB, "b", {"a", "k"})
    assert pw.steps[0].inputs == {"a": pytest.approx(1.0 / 0.9), "k": CATALYST_CHARGE_MOL}
    prog = pathway_to_program(pw, _CATALYST_DB)
    assert [(d.name, d.role) for d in prog.reagents] == [("a", "reagent"), ("k", "catalyst")]
    trace = _compiled_run(prog, _CATALYST_DB, default_graph)
    assert trace.halt == "q_out"
    assert trace.ledger.product_by_species["b"] == pytest.approx(1.0)


def test_a_step_that_only_makes_a_later_catalyst_is_sized_at_one_mole():
    # r1 makes k, which r2 holds only as a catalyst: no need reaches r1, so
    # it runs at the target amount, and r2's catalyst is charged from stock
    db = loads_rules(_db_text(
        [_sp("a", {"C": 1}), _sp("k", {"C": 1}), _sp("b", {"H": 1}), _sp("t", {"H": 1})],
        [_rule("r1", {"a": 1.0}, {"k": 1.0}),
         _rule("r2", {"b": 1.0}, {"t": 1.0}, catalysts=["k"])]))
    pw = plan_pathway(db, "t", {"a", "b"})
    assert pw.rule_ids() == ["r1", "r2"]
    assert (pw.steps[0].inputs, pw.steps[0].extent) == ({"a": 1.0}, 0.9)
    assert pw.steps[1].inputs == {"b": pytest.approx(1.0 / 0.9), "k": CATALYST_CHARGE_MOL}


def test_save_load_round_trip_with_catalysts_and_latent_rules(tmp_path):
    out = tmp_path / "cat.rules"
    save_rules(_CATALYST_DB, out)
    text = out.read_text()
    saved = json.loads(text)
    assert saved["rules"][0]["catalysts"] == ["k"]
    assert [r["id"] for r in saved["latent"]] == ["lat"]
    back = load_rules(out)
    assert back == _CATALYST_DB
    save_rules(back, out)
    assert out.read_text() == text
