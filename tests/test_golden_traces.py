"""Byte-identity guard across commits, per fixture program. The pinned
hashes live in the committed `scripts/digest_outputs.py` listing
(tests/data/digest_outputs.txt) as `fixture/...` lines: the SHA-256 of the
seed-0 JSONL trace of every fixture program in each execution arm, and of
the compiled plan JSON of every fixture program on the built-in rig and of
one infeasible plan on a small rig. These tests check each output against
its line, so a change names the fixture it altered; the rule file that
`run --persist-rules` writes is pinned here. A change that must keep
behaviour keeps these hashes; a change that alters traces or plans on
purpose regenerates the listing and says which records changed and why."""

import contextlib
import functools
import hashlib
import io
import itertools
import json
import shutil
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from chemvm.cli import main
from chemvm import jsonio
from chemvm.jsonio import dumps_jsonl, write_text_atomic

from _support import (
    FIXTURE_ARMS, FIXTURE_PLANS, FIXTURE_RUNS, FIXTURES, fixture_plan, fixture_trace,
)

LISTING = Path(__file__).resolve().parent / "data" / "digest_outputs.txt"
TRACE_CASES = [(name, arm) for name in sorted(FIXTURE_RUNS) for arm in FIXTURE_ARMS]


@functools.cache
def _pinned() -> dict[str, str]:
    """The listing's `fixture/...` lines: name -> hash."""
    lines = LISTING.read_text(encoding="utf-8").splitlines()
    return dict(line.split(" ", 1) for line in lines if line.startswith("fixture/"))


def _fixture_programs() -> list[str]:
    return sorted(p.name for p in FIXTURES.glob("*.chem"))


def test_every_fixture_program_is_pinned():
    assert sorted(FIXTURE_RUNS) == _fixture_programs()
    assert [f"fixture/{name}/{arm}" for name in _fixture_programs()
            for arm in FIXTURE_ARMS if f"fixture/{name}/{arm}" not in _pinned()] == []


@pytest.mark.parametrize("prog_name, arm", TRACE_CASES)
def test_golden_trace(prog_name, arm):
    trace = fixture_trace(prog_name, arm)
    digest = hashlib.sha256(trace.to_jsonl().encode()).hexdigest()
    assert digest == _pinned()[f"fixture/{prog_name}/{arm}"]


@pytest.mark.parametrize("prog_name, arm", TRACE_CASES)
def test_to_jsonl_is_json_dumps_per_record(prog_name, arm):
    # the shared encoder writes what a fresh `json.dumps` per record wrote
    trace = fixture_trace(prog_name, arm)
    assert trace.to_jsonl() == "".join(
        json.dumps(r, separators=(",", ":"), ensure_ascii=False) + "\n"
        for r in trace.records)


def test_dumps_jsonl_of_no_records_is_empty():
    assert dumps_jsonl([]) == ""


# JSON-like records: nested dicts and lists; keys and strings with quotes,
# backslashes, control and non-ASCII characters; ints, bools, None, and
# floats at the edges of their text form. A string interleaves up to four
# of those characters with up to four arbitrary ones: each half is one
# Hypothesis string draw, where an alphabet that is a union of strategies
# costs a draw per character.
_SPECIAL = '"\\\n\t\x00\x1f\x7f/éß☃\u2028😀'
_TEXT = st.tuples(st.text(_SPECIAL, max_size=4), st.text(st.characters(), max_size=4)).map(
    lambda halves: "".join(map("".join, itertools.zip_longest(*halves, fillvalue=""))))
_SCALAR = (st.none() | st.booleans() | st.integers() | _TEXT | st.floats()
           | st.sampled_from([-0.0, 1e-300, 1e300, 5e-324, 1e16, 0.1]))
_RECORD = st.recursive(
    _SCALAR, lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=24)


@settings(deadline=None, max_examples=300)
@given(st.lists(_RECORD, max_size=4))
def test_dumps_jsonl_is_json_dumps_on_any_records(records):
    assert dumps_jsonl(records) == "".join(
        json.dumps(r, separators=(",", ":"), ensure_ascii=False) + "\n" for r in records)


def test_a_failed_atomic_write_leaves_the_target_as_it_was(tmp_path, monkeypatch):
    # a lone surrogate has no UTF-8 form, so the write fails part way
    target = tmp_path / "out.txt"
    target.write_text("before\n")
    with pytest.raises(UnicodeEncodeError):
        write_text_atomic(target, "after \ud800\n")
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
    assert target.read_text() == "before\n"
    # a temp file that cannot be removed does not hide the write's error
    def unlink(path):
        raise OSError(f"cannot remove {path}")

    monkeypatch.setattr(jsonio.os, "unlink", unlink)
    with pytest.raises(UnicodeEncodeError):
        write_text_atomic(target, "after \ud800\n")
    assert target.read_text() == "before\n"


def test_every_fixture_plan_is_pinned():
    assert [f"fixture/{name}/plan/default" for name in _fixture_programs()
            if f"fixture/{name}/plan/default" not in _pinned()] == []


@pytest.mark.parametrize("prog_name, rig", FIXTURE_PLANS)
def test_golden_plan(prog_name, rig):
    plan = fixture_plan(prog_name, rig)
    assert plan.feasible == (rig == "default")
    digest = hashlib.sha256(plan.to_json().encode()).hexdigest()
    assert digest == _pinned()[f"fixture/{prog_name}/plan/{rig}"]


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
