"""The machine as a state machine: any interleaving of ops, checkpoints,
restores to an earlier checkpoint, and injected faults answered by the
correction ladder, `dec.Corrector`, with its bounds, keeps checkpoints
exact and the ledger closed, and ends in a halt."""

import json

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine, initialize, invariant, precondition, rule,
)

from chemvm.chemlang import parse_program
from chemvm.cstm import HALT_KINDS, Machine, MachineError, build_ledger
from chemvm.dec import CorrectionPolicy, Corrector, DecResult, ScriptedInjector
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


def _snapshot(ckpt: dict) -> str:
    """A checkpoint's state, the database aside, as stable JSON."""
    return dumps_stable({k: v for k, v in ckpt.items() if k != "db"})


class MachineSteps(RuleBasedStateMachine):
    @initialize(case=st.sampled_from(sorted(CASES)),
                bounds=st.tuples(st.integers(0, 3), st.integers(0, 3)))
    def start(self, case, bounds):
        prog, db = CASES[case]
        self.machine = Machine(prog, db, seed=0)
        # a noise-free sensor draws nothing, so the corrector is given no stream
        policy = CorrectionPolicy(sensor_noise_sd=0.0, max_redoses=bounds[0],
                                  max_reverts=bounds[1])
        self.corrector = Corrector(self.machine, policy, None)
        # the current timeline's checkpoints: (checkpoint, snapshot, rule events)
        self.checkpoints = []
        self.take_checkpoint()

    def _running(self) -> bool:
        return self.machine.halt_reason is None

    def _has_op(self) -> bool:
        return self._running() and self.machine.pc < len(self.machine.ops)

    def _run_op(self) -> list[dict]:
        """The next op's reaction records; a stop halts the machine, as
        `Machine.drive` does."""
        try:
            return self.machine.execute_op(self.machine.pc)
        except MachineError as exc:
            self.machine.halt_reason = str(exc)
            return []

    def _restored(self, i: int) -> None:
        """Check a restore to checkpoint i, which ends the timeline there."""
        ckpt, snapshot, events = self.checkpoints[i]
        del self.checkpoints[i + 1:]
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
        i = data.draw(st.integers(0, len(self.checkpoints) - 1))
        self.machine.restore(self.checkpoints[i][0])
        self._restored(i)

    @precondition(lambda self: self._has_op())
    @rule(mode=st.sampled_from(["minor", "intermediate", "major"]))
    def fault(self, mode):
        """Run the next op with one injected fault and answer each reaction
        it caused through the corrector, whose reverts go to the last
        checkpoint taken here; past its bounds it stops the run."""
        machine = self.machine
        op_index = machine.pc
        machine.injector = ScriptedInjector([mode])
        events = self._run_op()
        machine.injector = None
        self.corrector.checkpoint = self.checkpoints[-1][0]
        try:
            for event in events:
                if not self.corrector.answer(event, op_index):
                    self._restored(len(self.checkpoints) - 1)
                    return
        except MachineError as exc:
            machine.halt_reason = str(exc)

    @precondition(lambda self: not self._running())
    @rule()
    def stopped(self):
        """Keeps the state machine live once the run stopped: the ledger
        closes on the workspace as the stop left it."""
        assert build_ledger(self.machine.state).residual <= 1e-9

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
        counted = DecResult(trace)
        assert (counted.redoses, counted.reverts) == \
            (self.corrector.redoses, self.corrector.reverts)


MachineSteps.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None)
test_machine_steps = MachineSteps.TestCase
