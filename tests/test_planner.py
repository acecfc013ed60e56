"""Planner equivalence against a brute-force reachability oracle and
against a whole-database scan, on small and larger random rule databases."""

import pytest

from chemvm.cstm import run
from chemvm.rules import Unreachable, pathway_to_program, plan_pathway

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
    # iterative deepening returns a minimal-length pathway
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
