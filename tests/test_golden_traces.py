"""Byte-identity guard across commits: the SHA-256 of the seed-0 JSONL trace
of every fixture program in each execution arm, of the compiled plan JSON
of every fixture program on the built-in rig and of one infeasible plan on
a small rig, and of the rule file `run --persist-rules` writes. A change
that must keep behaviour keeps these hashes; a change that alters traces
or plans on purpose updates them and says which records changed and why."""

import contextlib
import hashlib
import io
import json
import shutil

import pytest

from chemvm.chemlang import parse_program
from chemvm.chempiler import build_default_graph, chempile, execute_plan, loads_graph
from chemvm.cli import main
from chemvm.cstm import run
from chemvm.dec import run_with_dec
from chemvm.jsonio import dumps_jsonl
from chemvm.rules import load_rules

from _support import FIXTURES, fixture_text

# program -> (rule database, explore)
PROGRAMS = {
    "alkynol_1step.chem": ("default.rules", False),
    "atropine_3step.chem": ("default.rules", False),
    "dec_3step.chem": ("dec_chain.rules", False),
    "explore.chem": ("explore.rules", True),
    "indole_1step.chem": ("default.rules", False),
    "norule.chem": ("tiny.rules", False),
    "predicted.chem": ("predicted.rules", False),
    "tiny.chem": ("tiny.rules", False),
}

GOLDEN = {
    ("alkynol_1step.chem", "run"): "1a7adee8f2a2f0f6351230ca0a16e385f148b8d35d6be171a901d67c797e3856",
    ("alkynol_1step.chem", "execute_plan"): "9286a824822aca47a5c88cfa185125784a75e8f842281d40438c4f5889af81c7",
    ("alkynol_1step.chem", "run_with_dec"): "74bfd017efe28084663bc088a476525c61a35d558744f5497ae7bc474b01ff95",
    ("atropine_3step.chem", "run"): "f2f1c035bad3f470b2c0b37b17b5da72a9b3a11d15d5ea641c1c54cf2320900f",
    ("atropine_3step.chem", "execute_plan"): "a4bf73ff60267b997cfe35b248b23530ceb97d7ccaad04d97ac480de11d9f844",
    ("atropine_3step.chem", "run_with_dec"): "4290ca92844362389fa09b7134994b02f7ac67a5b83c86bc09883abec295e7b7",
    ("dec_3step.chem", "run"): "2141ab8ffcf041661ca6d7175f5c9cc4af9ed80515e5dd77d52f7d325c6684b6",
    ("dec_3step.chem", "execute_plan"): "572877c200a996531dff22897f23eb320e1ff872bc442ef2634611b562085473",
    ("dec_3step.chem", "run_with_dec"): "5bd7de97f1e2af7a57a0cca3acb8b7d31b8231965a0ce1a617c97869fd15dfcd",
    ("explore.chem", "run"): "8279f70fcf528bc82bbf92ed69fa6f2499307fd00ee94407bb2c1d8df19fded8",
    ("explore.chem", "execute_plan"): "1eb128c07fe29d784c30d2d4e8e36cc06d610a58a35d675aabb72f6f99ce78ed",
    ("explore.chem", "run_with_dec"): "43025f0dafe6376e13da777ad78c1c42b72ac61245c1842069c804cc83e2a397",
    ("indole_1step.chem", "run"): "4f3753689b1dffc6f0ec8b800b321208a42786810e32ce562314172e578290cb",
    ("indole_1step.chem", "execute_plan"): "9efcd6c05d118c8025ab9742da5836f5e22038e56ad07162abf0035ce0c7b1e7",
    ("indole_1step.chem", "run_with_dec"): "339fe64e7e1a77ec78eee7e1ac9ce159b5a8a8e17e5ed33da41c8b8a4e3ea6da",
    ("norule.chem", "run"): "92e103ae03e039b6addaadaf5b48a8f886572de359a767380820640c3f2964d4",
    ("norule.chem", "execute_plan"): "d45fafb291bb13d4b2579065f1feff48cb267541535c4063079b041710265852",
    ("norule.chem", "run_with_dec"): "8ad97b6799055e99336f318cbc1a20ef04a62d68da9a173eaf1e39dbf560f745",
    ("predicted.chem", "run"): "4347a6a741fbb64fa60c68ed5282f29e3824c32afc701314bb90388c99c88a8e",
    ("predicted.chem", "execute_plan"): "94d7ad68a9f8a4bee5500b68c98496e2b948faa11491a74d686834c5cae02f09",
    ("predicted.chem", "run_with_dec"): "85fad570e2e59b1a92c5e26628c8f935dde894c2cd3c3c9c566d7f04fa3c249d",
    ("tiny.chem", "run"): "50d9e6abd2abd9e53344866564a8e5d05a9d6727a4bb83232a0ddd98f540a2c0",
    ("tiny.chem", "execute_plan"): "5effe2c1131b9b5f20147b6a413ef48c0d472c47af190010bd22ff198a923c44",
    ("tiny.chem", "run_with_dec"): "5f823e559d717d998e86e4b04de94455bbce017bd1cf7bf0dc37cf28a385fe46",
}


def test_every_fixture_program_is_pinned():
    assert sorted(PROGRAMS) == sorted(p.name for p in FIXTURES.glob("*.chem"))


def _trace(prog_name, arm):
    """The seed-0 trace of a fixture program in one execution arm."""
    rules_name, explore = PROGRAMS[prog_name]
    prog = parse_program(fixture_text(prog_name))
    db = load_rules(FIXTURES / rules_name)
    if arm == "run":
        trace = run(prog, db, seed=0, explore=explore)
    elif arm == "execute_plan":
        plan = chempile(prog, build_default_graph())
        assert plan.feasible
        trace = execute_plan(plan, db, seed=0, explore=explore)
    else:
        trace = run_with_dec(prog, db, eps=0.2, seed=0, explore=explore).trace
    return trace


@pytest.mark.parametrize("prog_name, arm", sorted(GOLDEN))
def test_golden_trace(prog_name, arm):
    trace = _trace(prog_name, arm)
    assert hashlib.sha256(trace.to_jsonl().encode()).hexdigest() == GOLDEN[prog_name, arm]


@pytest.mark.parametrize("prog_name, arm", sorted(GOLDEN))
def test_to_jsonl_is_json_dumps_per_record(prog_name, arm):
    # the shared encoder writes what a fresh `json.dumps` per record wrote
    trace = _trace(prog_name, arm)
    assert trace.to_jsonl() == "".join(
        json.dumps(r, separators=(",", ":"), ensure_ascii=False) + "\n"
        for r in trace.records)


def test_dumps_jsonl_of_no_records_is_empty():
    assert dumps_jsonl([]) == ""


# A rig that cannot host tiny.chem: R1 is too small for its charge, there is
# no second flask, the reactor cannot react_hot, and F1 has no way to OUT.
SMALL_RIG = json.dumps({
    "nodes": [
        {"id": "R1", "kind": "ReagentFlask", "capacity": 0.5},
        {"id": "V1", "kind": "Valve"},
        {"id": "P1", "kind": "Pump", "capacity": 25.0},
        {"id": "RX1", "kind": "Reactor", "capabilities": ["heat_stir"]},
        {"id": "F1", "kind": "Filter", "capabilities": ["filter"]},
        {"id": "W", "kind": "Waste"},
        {"id": "OUT", "kind": "Product"},
    ],
    "edges": [["R1", "V1"], ["V1", "P1"], ["P1", "V1"], ["P1", "F1"],
              ["F1", "P1"], ["V1", "W"]],
})

GOLDEN_PLANS = {
    ("alkynol_1step.chem", "default"): "d5387a5dcfc6cc50a49f2e67c933499fa5faf88395ea97acdfeafb5864b7a06d",
    ("atropine_3step.chem", "default"): "8ffd9b1fc2aeb9db909f84f7abce7136c50fa91da5b28ea4ee892c412480a6b0",
    ("dec_3step.chem", "default"): "885b4fd2f823743a55b26b664d09eceace7367e1b0072885b3402ef03faa8a20",
    ("explore.chem", "default"): "7b2ec53be562917bc6c754c6af26d3b4ebc0dd010dc2eb6d7340ad056ab03f74",
    ("indole_1step.chem", "default"): "c2ea7a0dcf6d8a55ffe963d951d906be28be0a5cd1fd3af4d8991facce7ede8f",
    ("norule.chem", "default"): "7b2ec53be562917bc6c754c6af26d3b4ebc0dd010dc2eb6d7340ad056ab03f74",
    ("predicted.chem", "default"): "7b2ec53be562917bc6c754c6af26d3b4ebc0dd010dc2eb6d7340ad056ab03f74",
    ("tiny.chem", "default"): "7b2ec53be562917bc6c754c6af26d3b4ebc0dd010dc2eb6d7340ad056ab03f74",
    ("tiny.chem", "small"): "25580d38a406a5f109d5f423f8d3691df1d24a4e54d374b6752ab028fee82711",
}


def test_every_fixture_plan_is_pinned():
    assert sorted(PROGRAMS) == sorted(name for name, rig in GOLDEN_PLANS
                                      if rig == "default")


@pytest.mark.parametrize("prog_name, rig", sorted(GOLDEN_PLANS))
def test_golden_plan(prog_name, rig):
    graph = build_default_graph() if rig == "default" else loads_graph(SMALL_RIG)
    plan = chempile(parse_program(fixture_text(prog_name)), graph)
    assert plan.feasible == (rig == "default")
    assert hashlib.sha256(plan.to_json().encode()).hexdigest() == GOLDEN_PLANS[prog_name, rig]


# (program, rule database, extra flags) -> the rule file one seed-0 run with
# --persist-rules leaves behind: a predicted rule promoted on its first
# occurrence, and a latent rule discovered and applied.
GOLDEN_PERSISTED = {
    ("predicted.chem", "predicted.rules", ()): "44b035bde9739b02f73b86a66add8543ec2164888d1366b231a90593a24a6101",
    ("explore.chem", "explore.rules", ("--explore",)): "0db07dc28160bc982af390ebbc956f20494709c47fbc2ac1f4fd3f009043c466",
}


@pytest.mark.parametrize("prog_name, rules_name, flags", sorted(GOLDEN_PERSISTED))
def test_golden_persisted_rules(prog_name, rules_name, flags, tmp_path):
    rules = tmp_path / rules_name
    shutil.copy(FIXTURES / rules_name, rules)
    with contextlib.redirect_stdout(io.StringIO()):
        main(["run", str(FIXTURES / prog_name), "--rules", str(rules),
              "--persist-rules", *flags])
    digest = hashlib.sha256(rules.read_bytes()).hexdigest()
    assert digest == GOLDEN_PERSISTED[prog_name, rules_name, flags]
