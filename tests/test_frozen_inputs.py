"""The inputs the memos rest on are frozen: a program (and its reagent and
hardware entries), a rig, a rule database (loaded, promoted or with a
discovery committed), a validation report, a compiled plan and a tape
layout. Assigning any of their fields raises, and so does every edit of a
container they hold, so nothing can change a kept lowering, a kept check,
a rule index or a match memo behind its back. A plan or database given a
plain dict for one of its maps holds a read-only copy of it."""

import dataclasses
from collections import ChainMap
from collections.abc import Mapping

import pytest

from chemvm.chemlang import parse_program, validate_program
from chemvm.chempiler import build_default_graph, check_program, chempile
from chemvm.cstm import lower_program
from chemvm.rules import RuleDatabase, commit_discovery, load_rules, promote

from _support import FIXTURES, fixture_text


def _program():
    return parse_program(fixture_text("tiny.chem"))


def _plan():
    # a program with clean steps, so the plan's cleaning is not empty
    return chempile(parse_program(fixture_text("alkynol_1step.chem")), build_default_graph())


def _rules(name="default.rules"):
    return load_rules(FIXTURES / name)


def _discovered():
    db = _rules("explore.rules")
    return commit_discovery(db, db.latent["le"])


def _promoted():
    db = _rules()
    return promote(db, sorted(db.rules)[0])


def _replaced_plan():
    # each map given as a plain dict
    plan = _plan()
    return dataclasses.replace(plan, bindings=dict(plan.bindings), routes=dict(plan.routes),
                               allocations=dict(plan.allocations))


def _database_from_dicts():
    db = _rules()
    return RuleDatabase(dict(db.species), dict(db.rules), dict(_rules("explore.rules").latent))


MISSING_TIME = 'procedure "x" {\n  steps {\n    heat_stir(vessel=RX1, temp=80 C)\n  }\n}\n'

# each frozen object, and the containers it holds; every container is
# non-empty, so an edit of a plain list or dict would succeed
CASES = {
    "program": lambda: (p := _program(),
                        [p.reagents, p.hardware, p.steps, p.metadata, p.steps[0].params]),
    "reagent": lambda: (_program().reagents[0], []),
    "hardware": lambda: (_program().hardware[0], []),
    "rig": lambda: (g := build_default_graph(), [g.nodes, g.edges, g.neighbors("V1")]),
    "rules-loaded": lambda: (db := _rules(), [db.species, db.rules]),
    "rules-latent": lambda: (db := _rules("explore.rules"), [db.latent]),
    "rules-promoted": lambda: (db := _promoted(), [db.species, db.rules, db.rules.maps[0]]),
    "rules-discovered": lambda: (db := _discovered(), [db.species, db.rules]),
    "rules-from-dicts": lambda: (db := _database_from_dicts(), [db.species, db.rules, db.latent]),
    "report": lambda: (r := validate_program(parse_program(MISSING_TIME),
                                             build_default_graph()), [r.findings]),
    "plan": lambda: (p := _plan(), [p.bindings, p.routes, next(iter(p.routes.values())),
                                    p.cleaning, p.cleaning[0], p.allocations,
                                    next(iter(p.allocations.values()))]),
    "plan-replaced": lambda: (p := _replaced_plan(), [p.bindings, p.routes, p.allocations]),
    "layout": lambda: (lay := lower_program(_program()).layout,
                       [lay.names, lay.index, lay.slot]),
}


def _edits(box):
    if isinstance(box, Mapping):
        key = next(iter(box))
        return [lambda: box.__setitem__(key, box[key]), lambda: box.__delitem__(key),
                lambda: box.clear()]
    return [lambda: box.append(box[0]), lambda: box.__setitem__(0, box[0]),
            lambda: box.__delitem__(0), lambda: box.clear()]


@pytest.mark.parametrize("name", sorted(CASES))
def test_frozen_inputs_refuse_every_edit(name):
    obj, boxes = CASES[name]()
    if dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, f.name, getattr(obj, f.name))
    else:
        for f in obj._fields:
            with pytest.raises(AttributeError):
                setattr(obj, f, getattr(obj, f))
    for box in boxes:
        assert len(box) > 0, name
        for edit in _edits(box):
            with pytest.raises((TypeError, AttributeError)):
                edit()


def test_a_validated_rig_cannot_lose_a_node():
    # a rig whose node could be deleted after a check would leave the kept
    # check answering "feasible" and a fresh check failing inside `route`
    graph = build_default_graph()
    assert validate_program(_program(), graph).ok
    with pytest.raises(TypeError):
        del graph.nodes["W"]
    assert [n.id for n in graph.by_kind("Waste")] == ["W"]
    assert validate_program(_program(), graph).ok
    assert graph.neighbors("no such node") == ()


def test_a_replaced_program_keeps_no_memo():
    prog, graph = _program(), build_default_graph()
    lower_program(prog)
    report, bindings, routes = check_program(prog, graph)
    assert check_program(prog, graph)[2] is routes
    other = dataclasses.replace(prog, name="other")
    assert other._lowering is None and other._checked is None
    assert other.steps == prog.steps
    assert check_program(other, graph) == (report, bindings, routes)
    assert check_program(other, graph)[2] is not routes


def test_given_dicts_are_copied_and_read_only_maps_kept():
    plan = _plan()
    routes = dict(plan.routes)
    replaced = dataclasses.replace(plan, routes=routes)
    routes.clear()
    assert replaced.routes == plan.routes
    assert dataclasses.replace(plan).routes is plan.routes
    rules = dict(_rules().rules)
    db = RuleDatabase({}, rules, {})
    rules.clear()
    assert db.rules == _rules().rules
    promoted = _promoted()
    assert type(promoted.rules) is ChainMap
    assert dataclasses.replace(promoted).rules is promoted.rules
