"""Planner equivalence against a brute-force reachability oracle and
against iterative deepening over the whole database, on small and larger
random rule databases, and the breadth-first search's expansion count."""

import json

import pytest

from chemvm.cstm import run
from chemvm.rules import RuleDatabase, Unreachable, loads_rules, pathway_to_program, plan_pathway

from _support import min_applications, plan_ids_linear, random_db, random_shared_db

DEPTH = 4


@pytest.mark.parametrize("seed", range(40))
def test_planner_matches_bfs_oracle(seed):
    db, target, stock = random_db(seed)
    oracle = min_applications(db, target, stock)
    try:
        pathway = plan_pathway(db, target, stock, max_depth=DEPTH)
    except Unreachable:
        assert oracle is None or oracle > DEPTH
        return
    assert oracle is not None and oracle <= DEPTH
    # the breadth-first search returns a minimal-length pathway
    assert len(pathway.steps) == oracle


@pytest.mark.parametrize("make_db", [random_db, random_shared_db])
@pytest.mark.parametrize("seed", range(40))
def test_planner_matches_linear_scan(make_db, seed):
    # same rule ids, not just the same length: lexicographic minimality
    db, target, stock = make_db(seed)
    try:
        ids = plan_pathway(db, target, stock, max_depth=DEPTH).rule_ids()
    except Unreachable:
        ids = None
    assert ids == plan_ids_linear(db, target, stock, DEPTH)


@pytest.mark.parametrize("make_db", [random_db, random_shared_db])
def test_planner_matches_iterative_deepening(make_db):
    # 300 seeds x depths 1-6 per generator, unreachable targets included
    outcomes = {"planned": 0, "unreachable": 0}
    for seed in range(300):
        db, target, stock = make_db(seed)
        for depth in range(1, 7):
            try:
                ids = plan_pathway(db, target, stock, max_depth=depth).rule_ids()
            except Unreachable:
                ids = None
            assert ids == plan_ids_linear(db, target, stock, depth), (seed, depth)
            outcomes["planned" if ids else "unreachable"] += 1
    assert min(outcomes.values()) > 0


def _db(rules: list[tuple[str, list[str], str]]) -> RuleDatabase:
    """A database of single-product rules (id, inputs, product) over
    species that each weigh one unit of the same element."""
    ids = sorted({s for _, inputs, product in rules for s in (*inputs, product)})
    return loads_rules(json.dumps({
        "species": [{"id": s, "name": s, "molar_mass": 10.0, "element_counts": {"U": 1}}
                    for s in ids],
        "rules": [{"id": rid, "reagent_pattern": {s: 1.0 for s in inputs},
                   "process_window": {"temp_min": 40.0, "temp_max": 50.0,
                                      "duration_min": 1800.0, "duration_max": 7200.0},
                   "products": {product: 1.0}, "yield": 0.9, "epsilon": 0.05,
                   "status": "characterised"}
                  for rid, inputs, product in rules],
    }))


CHAIN = _db([(f"r{k}", [f"c{k - 1}", f"s{k}"], f"c{k}") for k in range(1, 9)])


def _expansions(monkeypatch) -> list[frozenset[str]]:
    """The species sets the planner expands, in order, from now on."""
    expanded = []
    candidates = RuleDatabase._candidates
    monkeypatch.setattr(RuleDatabase, "_candidates",
                        lambda db, present: expanded.append(present) or candidates(db, present))
    return expanded


def test_a_chain_is_expanded_once_per_step(monkeypatch):
    expanded = _expansions(monkeypatch)
    stock = {"c0", *(f"s{k}" for k in range(1, 9))}
    pathway = plan_pathway(CHAIN, "c8", stock)
    assert pathway.rule_ids() == [f"r{k}" for k in range(1, 9)]
    # 8 expansions, where iterative deepening made 1 + 2 + ... + 8 = 36
    assert [sorted(s - stock) for s in expanded] == [[f"c{k}" for k in range(1, j)]
                                                      for j in range(1, 9)]


def test_an_unreachable_target_stops_at_the_first_level_adding_nothing(monkeypatch):
    expanded = _expansions(monkeypatch)
    stock = {"c0", "s1", "s2", "s3", "s4"}
    with pytest.raises(Unreachable) as exc:
        plan_pathway(CHAIN, "c8", stock)
    assert str(exc.value) == ("c8 not reachable from ['c0', 's1', 's2', 's3', 's4'] "
                              "within 12 steps")
    # the stock and the four sets it grows into, each once; the fifth level is empty
    assert [sorted(s - stock) for s in expanded] == [[f"c{k}" for k in range(1, j)]
                                                      for j in range(1, 6)]


def test_a_set_reached_by_several_sequences_is_expanded_once(monkeypatch):
    db = _db([("r1", ["a"], "b"), ("r2", ["a"], "c"), ("r3", ["b"], "c"),
              ("r4", ["z"], "d")])
    expanded = _expansions(monkeypatch)
    with pytest.raises(Unreachable):
        plan_pathway(db, "d", {"a"})
    # {a, b, c} is reached three ways on the second level
    assert expanded == [{"a"}, {"a", "b"}, {"a", "c"}, {"a", "b", "c"}]


@pytest.mark.parametrize("seed", range(40))
def test_planned_pathways_execute(seed):
    db, target, stock = random_db(seed)
    try:
        pathway = plan_pathway(db, target, stock, max_depth=DEPTH)
    except Unreachable:
        return
    prog = pathway_to_program(pathway, db)
    trace = run(prog, db, seed=0)
    assert trace.halt != "q_fail"
    assert trace.ledger.product_by_species.get(target, 0.0) > 0.0
    assert trace.ledger.residual <= 1e-9
