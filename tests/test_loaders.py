"""The input-file loaders reject every malformed document with their own
error class: rule databases, rigs, correction policies and Monte Carlo
configs, each changed one value at a time."""

import json
import re

import pytest

from chemvm.assembly import loads_mc_config
from chemvm.chempiler import GraphError, loads_graph
from chemvm.dec import PolicyError, loads_policy
from chemvm.rules import RuleLoadError, loads_rules

from _support import DEFAULT_RIG, fixture_text

# the built-in rig, which `_text` reads from its packaged file
RIG = DEFAULT_RIG.name

# JSON values of every type and shape that a field could wrongly hold
REPLACEMENTS = ([], {}, "x", 1.5, -1, 0, None, True, [[1]], [{}], ["x"], {"a": 1})

LOADERS = [
    ("tiny.rules", loads_rules, RuleLoadError),
    (RIG, loads_graph, GraphError),
    ("policy_default.json", loads_policy, PolicyError),
    ("mc_small.json", loads_mc_config, ValueError),
]


def _text(name: str) -> str:
    return DEFAULT_RIG.read_text(encoding="utf-8") if name == RIG else fixture_text(name)


def _paths(value, path=()):
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _paths(item, path + (i,))


def _replaced(doc, path, value):
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


@pytest.mark.parametrize("name, loads, error", LOADERS, ids=[n for n, _, _ in LOADERS])
def test_single_value_mutations_raise_only_the_loader_error(name, loads, error):
    doc = json.loads(_text(name))
    escapes = []
    for path in _paths(doc):
        for value in REPLACEMENTS:
            try:
                loads(json.dumps(_replaced(doc, path, value)))
            except error:
                pass
            except Exception as exc:  # noqa: BLE001 - any other class is an escape
                escapes.append((path, value, type(exc).__name__))
    assert escapes == []


def test_string_attachments_are_rejected():
    doc = json.loads(_text(RIG))
    solv = next(n for n in doc["nodes"] if n["id"] == "SOLV")
    solv["attachments"] = "solvent_reservoir"
    with pytest.raises(GraphError, match="attachments must be lists of strings"):
        loads_graph(json.dumps(doc))


def _set(name, path, value) -> str:
    return json.dumps(_replaced(json.loads(_text(name)), path, value))


@pytest.mark.parametrize("name, loads, error, path, message", [
    (RIG, loads_graph, GraphError, ("nodes", 0, "ports"),
     "ports must be a positive integer"),
    ("tiny.rules", loads_rules, RuleLoadError, ("rules", 0, "priority"),
     "priority must be an integer"),
    ("tiny.rules", loads_rules, RuleLoadError, ("species", 0, "bonds"),
     "bonds must be a positive integer"),
    ("policy_default.json", loads_policy, PolicyError, ("max_redoses",),
     "max_redoses must be an integer"),
])
def test_integer_fields_reject_booleans(name, loads, error, path, message):
    with pytest.raises(error, match=message):
        loads(_set(name, path, True))


@pytest.mark.parametrize("name, loads, error, path", [
    ("tiny.rules", loads_rules, RuleLoadError, ("rules", 0, "process_window", "temp_min")),
    (RIG, loads_graph, GraphError, ("nodes", 0, "capacity")),
    ("policy_default.json", loads_policy, PolicyError, ("sensor_noise_sd",)),
    ("mc_small.json", loads_mc_config, ValueError, ("jitter_sd",)),
])
@pytest.mark.parametrize("literal, message", [
    ("NaN", "NaN is not a number$"),
    ("Infinity", "Infinity is not a number$"),
    ("-Infinity", "-Infinity is not a number$"),
    ("1" * 5000, "Exceeds the limit"),
])
def test_numbers_json_cannot_carry_are_rejected(name, loads, error, path, literal, message):
    text = _set(name, path, "LITERAL").replace('"LITERAL"', literal)
    with pytest.raises(error, match=f"^where: not valid JSON: {message}"):
        loads(text, where="where")


@pytest.mark.parametrize("name, loads, error, path, value, message", [
    ("tiny.rules", loads_rules, RuleLoadError, ("species", 0), "x",
     "species '?': expected a JSON object"),
    ("tiny.rules", loads_rules, RuleLoadError, ("species", 1, "id"), "a",
     "duplicate species id 'a'"),
    ("tiny.rules", loads_rules, RuleLoadError, ("rules", 0, "yield"), 2,
     "rule 'r1': yield must lie"),
    (RIG, loads_graph, GraphError, ("edges", 0), ["R1", "nope"],
     "edge ('R1', 'nope') references unknown node"),
    (RIG, loads_graph, GraphError, ("nodes", 1, "id"), "CH1",
     "duplicate node id 'CH1'"),
    ("tiny.rules", loads_rules, RuleLoadError, ("rules", 0, "catalysts"), "c",
     "rule 'r1': catalysts must be a list"),
    ("tiny.rules", loads_rules, RuleLoadError, ("rules", 0, "catalysts"), ["zz"],
     "rule 'r1': unknown catalyst species 'zz'"),
    ("tiny.rules", loads_rules, RuleLoadError, ("rules", 0, "catalysts"), ["a"],
     "rule 'r1': catalyst 'a' also appears in reagent_pattern"),
    ("tiny.rules", loads_rules, RuleLoadError, ("rules", 0, "occurrences"), -1,
     "rule 'r1': occurrences must be a non-negative integer"),
    ("tiny.rules", loads_rules, RuleLoadError, ("latent",),
     json.loads(fixture_text("tiny.rules"))["rules"][1:], "duplicate rule id 'r2' (latent)"),
])
def test_entry_errors_name_the_file(name, loads, error, path, value, message):
    with pytest.raises(error, match=f"^file.json: {re.escape(message)}"):
        loads(_set(name, path, value), where="file.json")
