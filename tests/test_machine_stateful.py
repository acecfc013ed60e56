"""The machine as a state machine: any interleaving of ops, checkpoints,
restores to an earlier checkpoint, and injected faults answered by the
correction layer keeps checkpoints exact and the ledger closed, and ends
in a halt."""

import json

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine, initialize, invariant, precondition, rule,
)

from chemvm.chemlang import parse_program
from chemvm.cstm import HALT_KINDS, Machine, MachineError, build_ledger
from chemvm.dec import (
    CorrectionPolicy, ScriptedInjector, _redose_retrigger, _tune, classify_severity,
)
from chemvm.jsonio import dumps_stable
from chemvm.rules import load_rules

from _support import FIXTURES, fixture_text

# a transfer of part of a cell, a clean from the shared reservoir and one
# with a named solvent, on tiny.rules' r1 (a + b -> x)
WASH = '''procedure "wash" {
  reagents {
    a: sp:a 1 mol @R1 reagent
    b: sp:b 1 mol @R2 reagent
    w: sp:w 2 mol @R3 solvent
  }
  steps {
    add(vessel=RX1, reagent=a, amount=1 mol)
    react_hot(vessel=RX1, reagent=b, amount=0.5 mol, temp=80 C, time=600 s)
    transfer(from=RX1, to=F1, amount=0.5 mol)
    clean(vessel=RX1)
    filter(vessel=F1, species=x, to=product)
    clean(vessel=F1, solvent=w, amount=0.5 mol)
  }
}
'''

CASES = {
    "dec_3step": (parse_program(fixture_text("dec_3step.chem")),
                  load_rules(FIXTURES / "dec_chain.rules")),
    "wash": (parse_program(WASH), load_rules(FIXTURES / "tiny.rules")),
}
POLICY = CorrectionPolicy()


def _snapshot(ckpt: dict) -> str:
    """A checkpoint's state, the database aside, as stable JSON."""
    return dumps_stable({k: v for k, v in ckpt.items() if k != "db"})


class MachineSteps(RuleBasedStateMachine):
    @initialize(case=st.sampled_from(sorted(CASES)))
    def start(self, case):
        prog, db = CASES[case]
        self.machine = Machine(prog, db, seed=0)
        # the current timeline's checkpoints: (checkpoint, snapshot, rule events)
        self.checkpoints = []
        self.take_checkpoint()

    def _running(self) -> bool:
        return self.machine.halt_reason is None

    def _has_op(self) -> bool:
        return self._running() and self.machine.pc < len(self.machine.ops)

    def _run_op(self) -> list[dict]:
        """The next op's reaction records; a stop halts the machine, as
        `Machine.execute` does."""
        try:
            return self.machine.execute_op(self.machine.pc)
        except MachineError as exc:
            self.machine.halt_reason = str(exc)
            return []

    def _restore(self, i: int) -> None:
        ckpt, snapshot, events = self.checkpoints[i]
        del self.checkpoints[i + 1:]
        self.machine.restore(ckpt)
        again = self.machine.checkpoint()
        assert _snapshot(again) == snapshot
        assert again["db"] is ckpt["db"]
        assert self.machine.rule_events == events

    @precondition(lambda self: self._has_op())
    @rule()
    def execute_op(self):
        self._run_op()

    @precondition(lambda self: self._running())
    @rule()
    def take_checkpoint(self):
        ckpt = self.machine.checkpoint()
        events = json.loads(json.dumps(self.machine.rule_events))
        self.checkpoints.append((ckpt, _snapshot(ckpt), events))

    @precondition(lambda self: self._running())
    @rule(data=st.data())
    def restore(self, data):
        self._restore(data.draw(st.integers(0, len(self.checkpoints) - 1)))

    @precondition(lambda self: self._has_op())
    @rule(mode=st.sampled_from(["minor", "intermediate", "major"]))
    def fault(self, mode):
        """Run the next op with one injected fault and answer each reaction
        it caused as the correction loop does, with a noise-free sensor: a
        tune, a redose (a revert when there is nothing to redose with), or
        a revert to the last checkpoint."""
        machine = self.machine
        op_index = machine.pc
        machine.injector = ScriptedInjector([mode])
        events = self._run_op()
        machine.injector = None
        for event in events:
            while self._running():
                reading = event["achieved_yield"] / event["expected_yield"]
                severity = classify_severity(max(0.0, 1.0 - reading), POLICY)
                if severity is None:
                    break
                if severity == "minor":
                    machine.records.append(_tune(machine, event, POLICY))
                    break
                if severity == "intermediate":
                    try:
                        event = _redose_retrigger(machine, op_index, POLICY)
                    except MachineError as exc:
                        machine.halt_reason = str(exc)
                        return
                    if event is not None:
                        continue
                self._restore(len(self.checkpoints) - 1)
                return

    @invariant()
    def checkpoint_events_are_a_prefix(self):
        if self.checkpoints:
            events = self.checkpoints[-1][2]
            assert self.machine.rule_events[:len(events)] == events

    def teardown(self):
        if not hasattr(self, "machine"):
            return
        trace = self.machine.execute()
        assert trace.halt in HALT_KINDS
        assert trace.records[-1]["kind"] == "halt"
        assert trace.ledger.residual <= 1e-9
        assert build_ledger(trace.state) == trace.ledger


MachineSteps.TestCase.settings = settings(
    max_examples=60, stateful_step_count=20, deadline=None)
test_machine_steps = MachineSteps.TestCase
