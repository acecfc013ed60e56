"""The input-file loaders reject every malformed document with their own
error class: rule databases, rigs, correction policies and Monte Carlo
configs, each changed one value at a time."""

import json

import pytest

from chemvm.assembly import loads_mc_config
from chemvm.chempiler import GraphError, loads_graph
from chemvm.dec import PolicyError, loads_policy
from chemvm.rules import RuleLoadError, loads_rules

from _support import fixture_text

# JSON values of every type and shape that a field could wrongly hold
REPLACEMENTS = ([], {}, "x", 1.5, -1, 0, None, True, [[1]], [{}], ["x"], {"a": 1})

LOADERS = [
    ("tiny.rules", loads_rules, RuleLoadError),
    ("default_rig.graph", loads_graph, GraphError),
    ("policy_default.json", loads_policy, PolicyError),
    ("mc_small.json", loads_mc_config, ValueError),
]


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
    doc = json.loads(fixture_text(name))
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
    doc = json.loads(fixture_text("default_rig.graph"))
    solv = next(n for n in doc["nodes"] if n["id"] == "SOLV")
    solv["attachments"] = "solvent_reservoir"
    with pytest.raises(GraphError, match="attachments must be lists of strings"):
        loads_graph(json.dumps(doc))
