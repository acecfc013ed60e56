"""Closed-loop error detection and correction around the machine.

Process errors are modelled at reaction time by an injector: with
probability epsilon an application misfires, losing 10% (minor), 25%
(intermediate) or all (major) of its expected extent. After every
reaction a sensor reads the achieved/expected yield ratio with Gaussian
noise; the relative gap is classified against the policy thresholds and
answered in kind:

    minor         tune: nudge the temperature toward the process window
                  midpoint and drive the reaction to completion
    intermediate  redose a fraction of the original charge and hold the
                  conditions again (bounded by max_redoses, then escalate)
    major         discard the workspace, restore the last validated
                  checkpoint, and re-run from there (bounded by
                  max_reverts, then q_fail)

`Corrector` runs this ladder after every op. It takes a checkpoint before
the first op and after every operation whose reactions all validated.
Reverting dumps the contaminated holdings to waste and re-credits the
restored inventory as fresh stock, so mass conservation holds across
timelines; re-execution draws fresh injector outcomes. The run's budget
counts machine steps, those a redose adds and a revert re-runs included,
and no record spends it: the trace records every sensing and correction,
and the result reads its counts from the trace.

`evaluate_correction` runs each seed's corrected run once and forks its
baseline twin at its first deviation, where the two part; the twin
replays the draws the run made after the fork. An arm's machine keeps no
trace (`records` is None): it reads only its halt and product (`succeeded`).

A policy file is a JSON object overriding some of the defaults; the
policy checks every field's type and range and raises `PolicyError`, a
`ValueError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

from .chemlang import ChemProgram
from .cstm import DEFAULT_BUDGET, ExecutionTrace, Machine, MachineState, apply_extent
from .jsonio import is_integer, is_number, loads_object
from .rng import substream
from .rules import RuleDatabase, limiting_extent

__all__ = [
    "CorrectionPolicy",
    "DEFAULT_POLICY",
    "PolicyError",
    "load_policy",
    "loads_policy",
    "BernoulliInjector",
    "ScriptedInjector",
    "MODE_FACTORS",
    "sample_sensor",
    "classify_severity",
    "Corrector",
    "succeeded",
    "DecResult",
    "run_with_dec",
    "sign_test",
    "evaluate_correction",
]

# Yield factor that survives each injected error mode.
MODE_FACTORS = {"minor": 0.9, "intermediate": 0.75, "major": 0.0}
# Mode split within an error: 25% minor, 30% intermediate, 45% major.
_MINOR_CUT, _INTERMEDIATE_CUT = 0.25, 0.55


class PolicyError(ValueError):
    pass


@dataclass(frozen=True)
class CorrectionPolicy:
    minor_threshold: float = 0.05
    intermediate_threshold: float = 0.15
    major_threshold: float = 0.35
    max_redoses: int = 3
    max_reverts: int = 3
    tune_temp_delta_c: float = 10.0
    redose_fraction: float = 0.5
    sensor_noise_sd: float = 0.005

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int" and not is_integer(value):
                raise PolicyError(f"{f.name} must be an integer")
            if not is_number(value):
                raise PolicyError(f"{f.name} must be a number")
        if not (0.0 < self.minor_threshold < self.intermediate_threshold
                < self.major_threshold):
            raise PolicyError(
                "thresholds must satisfy 0 < minor < intermediate < major, got "
                f"{self.minor_threshold} / {self.intermediate_threshold} / "
                f"{self.major_threshold}")
        if not (0.0 < self.redose_fraction <= 1.0):
            raise PolicyError("redose_fraction must lie in (0, 1]")
        if self.max_redoses < 0 or self.max_reverts < 0:
            raise PolicyError("attempt bounds must be non-negative")
        if self.sensor_noise_sd < 0:
            raise PolicyError("sensor_noise_sd must be non-negative")
        if self.tune_temp_delta_c < 0:
            raise PolicyError("tune_temp_delta_c must be non-negative")


DEFAULT_POLICY = CorrectionPolicy()


def loads_policy(text: str, where: str = "<string>") -> CorrectionPolicy:
    """A policy from a JSON object that overrides some of the defaults.
    Raises PolicyError on bad JSON, unknown keys and unusable values."""
    doc = loads_object(text, where, optional=frozenset(f.name for f in fields(CorrectionPolicy)),
                       error=PolicyError)
    try:
        return CorrectionPolicy(**doc)
    except PolicyError as exc:
        raise PolicyError(f"{where}: {exc}") from None


def load_policy(path: str | Path) -> CorrectionPolicy:
    path = Path(path)
    return loads_policy(path.read_text(encoding="utf-8"), where=str(path))


# ---------------------------------------------------------------------------
# Error injection and sensing

class BernoulliInjector:
    """Per-reaction-attempt error model. With `eps` (or, when eps is None,
    the rule's own epsilon) an attempt misfires; the mode split is fixed.
    Raises ValueError when `eps` is given and is not a number in [0, 1]."""

    def __init__(self, rng, eps: float | None = None):
        if eps is not None and not (is_number(eps) and 0.0 <= eps <= 1.0):
            raise ValueError(f"inject eps must be a number in [0, 1], not {eps!r}")
        self.rng = rng
        self.eps = eps

    def sample(self, rule) -> tuple[float, str | None]:
        eps = rule.epsilon if self.eps is None else self.eps
        if self.rng.random() >= eps:
            return 1.0, None
        w = self.rng.random()
        mode = "minor" if w < _MINOR_CUT else \
            "intermediate" if w < _INTERMEDIATE_CUT else "major"
        return MODE_FACTORS[mode], mode


class ScriptedInjector:
    """Deterministic sequence of outcomes (None or a mode name); perfect
    once the script runs out."""

    def __init__(self, modes):
        self.modes = iter(tuple(modes))

    def sample(self, rule) -> tuple[float, str | None]:
        mode = next(self.modes, None)
        return (1.0, None) if mode is None else (MODE_FACTORS[mode], mode)


def sample_sensor(event: dict, rng, noise_sd: float) -> float:
    """Achieved/expected yield ratio for a reaction event, with noise."""
    expected = event.get("expected_yield") or 1.0
    achieved = event.get("achieved_yield", 0.0)
    return achieved / expected + (rng.gauss(0.0, noise_sd) if noise_sd else 0.0)


def classify_severity(gap: float, policy: CorrectionPolicy) -> str | None:
    if gap < policy.minor_threshold:
        return None
    if gap < policy.intermediate_threshold:
        return "minor"
    if gap < policy.major_threshold:
        return "intermediate"
    return "major"


# ---------------------------------------------------------------------------
# The correction loop

class Corrector:
    """The correction ladder over one machine: `answer` senses a reaction
    and tunes, redoses or reverts; `after_op` is `Machine.execute`'s hook.
    It takes the op -1 checkpoint when built, then one after each op whose
    reactions all validated; a revert restores the last, `checkpoint`.
    `redoses` and `reverts` count against the policy's bounds. `fork`, when
    set, is called with each deviating event before it is answered."""

    fork = None

    def __init__(self, machine: Machine, policy: CorrectionPolicy, sense_rng,
                 corrections_enabled: bool = True):
        self.machine = machine
        self.policy = policy
        self.sense_rng = sense_rng          # drawn from only under sensor noise
        self.corrections_enabled = corrections_enabled
        self.redoses = self.reverts = 0
        self._take_checkpoint(-1)

    def _write(self, record: dict) -> None:     # to the machine's trace, if it keeps one
        if self.machine.records is not None:
            self.machine.records.append(record)

    def _take_checkpoint(self, op_index: int) -> None:
        machine = self.machine
        self.checkpoint = machine.checkpoint()
        self._write({"kind": "checkpoint", "op_index": op_index,
                     "pc": machine.pc, "step": machine.state.step_count})

    def after_op(self, op_index: int, events: list[dict]) -> None:
        for event in events:
            if not self.answer(event, op_index):
                return
        if events and self.corrections_enabled:
            self._take_checkpoint(op_index)

    def answer(self, event: dict, op_index: int) -> bool:
        """Sense one reaction event and correct until validated. Returns
        False when the run reverted instead; a stop raises."""
        machine, policy, enabled = self.machine, self.policy, self.corrections_enabled
        write, noise_sd = self._write, policy.sensor_noise_sd
        while True:
            reading = sample_sensor(event, self.sense_rng, noise_sd)
            rule = event["rule"]
            write({"kind": "sensing", "op_index": op_index, "rule": rule,
                   "reading": reading, "step": machine.state.step_count})
            if not enabled:
                return True
            gap = 1.0 - reading if reading < 1.0 else 0.0
            severity = classify_severity(gap, policy)
            if severity is None:
                return True
            if self.fork is not None:
                self.fork(event, op_index)
            write({"kind": "deviation", "op_index": op_index, "rule": rule,
                   "gap": gap, "severity": severity, "step": machine.state.step_count})

            if severity == "minor":
                write(self.tune(event))
                return True

            if severity == "intermediate" and self.redoses < policy.max_redoses:
                write({"kind": "action", "action": "redose_extend", "op_index": op_index,
                       "rule": rule, "step": machine.state.step_count})
                self.redoses += 1
                retried = self.redose(op_index)
                if retried is not None:
                    event = retried
                    continue
                # nothing left to redose with; escalate below

            # major, or an intermediate with no redose budget left
            if self.reverts < policy.max_reverts:
                self.reverts += 1
                write({"kind": "action", "action": "revert_replan", "op_index": op_index,
                       "rule": rule, "step": machine.state.step_count})
                machine.restore(self.checkpoint)
                write({"kind": "revert", "op_index": op_index, "to_pc": machine.pc,
                       "count": self.reverts, "step": machine.state.step_count})
                return False

            machine.fail("revert budget exhausted")

    def tune(self, event: dict) -> dict:
        """Minor shortfall: nudge temperature toward the window midpoint and
        convert the missing extent at the declared yield. Returns its record."""
        state = self.machine.state
        cell = state.cells[state.index[event["cell"]]]
        rule = self.machine.db.rules[event["rule"]]
        mid, _ = rule.process_window.midpoint()
        limit = self.policy.tune_temp_delta_c
        delta = max(-limit, min(limit, mid - cell.temp))
        if delta > 0:
            cell.temp += delta
            cell.energy_in += delta
        elif delta < 0:
            cell.temp += delta
            cell.energy_out += -delta

        want = rule.yield_fraction * event["extent_max"] - event["extent"]
        headroom, _ = limiting_extent(rule.reagent_pattern, cell.contents)
        extra = max(0.0, min(want, headroom))
        apply_extent(state, cell, rule, extra)
        return {
            "kind": "action",
            "action": "tune",
            "op_index": event["op_index"],
            "rule": rule.id,
            "temp_delta": delta,
            "extent_added": extra,
            "cell": cell.name,
            "temp": cell.temp,
        }

    def redose(self, op_index: int) -> dict | None:
        """Intermediate shortfall: charge a fraction of a react step's dose
        again and hold its conditions again. Returns the retriggered
        reaction event, or None when there is nothing to redose (not a
        react step, or an empty flask)."""
        machine = self.machine
        prims = machine.ops[op_index]
        dose, eprim = prims[0], prims[-1]   # a react step's AM and its energy move
        if not eprim.expects_reaction:
            return None
        decl = dose.reagent
        state = machine.state
        flask = state.cells[state.slot[decl.source_vessel]]
        avail = flask.contents.get(decl.species, 0.0)
        base = dose.amount if dose.amount is not None else avail
        take = min(self.policy.redose_fraction * base, avail)
        if take <= 1e-12:
            return None
        machine.step(dose._replace(amount=take))
        return machine.step(eprim)


def succeeded(halt: str, state: MachineState) -> bool:
    """A q_out halt with product, summed as `LedgerReport.total_product` is."""
    return halt == "q_out" and math.fsum(state.product_cell.contents.values()) > 0.0


@dataclass
class DecResult:
    """A run under sensing and correction. Everything but the arm flag is
    read from the trace, which records every sensing, deviation and
    correction the run made."""
    trace: ExecutionTrace
    corrections_enabled: bool = True

    def _records(self, kind: str) -> list[dict]:
        return [r for r in self.trace.records if r["kind"] == kind]

    @property
    def halt(self) -> str:
        return self.trace.halt

    @property
    def product_total(self) -> float:
        return self.trace.ledger.total_product

    @property
    def success(self) -> bool:
        return succeeded(self.halt, self.trace.state)

    @property
    def sensings(self) -> list[dict]:
        return self._records("sensing")

    @property
    def deviations(self) -> list[dict]:
        return self._records("deviation")

    @property
    def actions(self) -> list[dict]:
        return self._records("action")

    @property
    def redoses(self) -> int:
        return sum(a["action"] == "redose_extend" for a in self.actions)

    @property
    def reverts(self) -> int:
        return len(self._records("revert"))

    def summary(self) -> dict:
        return {
            "halt": self.halt,
            "success": self.success,
            "product_total": self.product_total,
            "sensings": len(self.sensings),
            "deviations": len(self.deviations),
            "actions": len(self.actions),
            "redoses": self.redoses,
            "reverts": self.reverts,
            "corrections_enabled": self.corrections_enabled,
        }


def run_with_dec(prog: ChemProgram, db: RuleDatabase, *,
                 policy: CorrectionPolicy = DEFAULT_POLICY, seed: int = 0,
                 eps: float | None = None, corrections_enabled: bool = True,
                 budget: int = DEFAULT_BUDGET, explore: bool = False,
                 injector=None) -> DecResult:
    """Execute a program under sensing and (optionally) correction.

    `eps` overrides every rule's epsilon for error injection; None uses the
    per-rule values. With corrections disabled the sensors still read and
    record, but nothing is done about deviations: that is the baseline arm
    of any comparison.
    """
    if injector is None:
        injector = BernoulliInjector(substream(seed, "inject"), eps)
    machine = Machine(prog, db, seed=seed, explore=explore, budget=budget,
                      injector=injector)
    corrector = Corrector(machine, policy, substream(seed, "sense"), corrections_enabled)
    return DecResult(machine.execute(corrector.after_op), corrections_enabled)


# ---------------------------------------------------------------------------
# Paired evaluation

class _Tape:
    """A seed's stream from the fork on (see `evaluate_correction`): it keeps
    what the corrected run draws, then, once `replay` is set, hands it to the
    twin before drawing on. Each stream is drawn through one call with fixed
    arguments, so a value is its place's in either arm."""

    def __init__(self, rng):
        self.rng, self.kept, self.replay = rng, [], None

    def random(self) -> float:
        return self._draw(self.rng.random)

    def gauss(self, mu: float, sigma: float) -> float:
        return self._draw(self.rng.gauss, mu, sigma)

    def _draw(self, call, *args) -> float:
        if self.replay is None:
            self.kept.append(x := call(*args))
            return x
        x = next(self.replay, None)
        return call(*args) if x is None else x


class _Paired(Corrector):
    """A seed's corrected run, which forks its baseline `twin` at its first
    deviation (see `evaluate_correction`)."""

    twin = None

    def after_op(self, op_index: int, events: list[dict]) -> None:
        self.events = events        # for `fork`: the op's reactions after the deviation
        Corrector.after_op(self, op_index, events)

    def fork(self, event: dict, op_index: int) -> None:
        if self.twin is None:
            injector = self.machine.injector
            injector.rng, self.sense_rng = self.tapes = _Tape(injector.rng), _Tape(self.sense_rng)
            twin = object.__new__(_Paired)
            twin.__dict__.update(self.__dict__)     # copy.copy, without its dispatch
            twin.machine, twin.corrections_enabled = self.machine.fork(), False
            events = self.events
            twin.rest = op_index, events[next(i for i, e in enumerate(events) if e is event) + 1:]
            self.twin = twin        # set after the copy, so the twin does not hold itself

    def success(self) -> bool:
        """Drive the run to its halt, unfinalized, and read its success."""
        self.machine.drive(self.after_op)
        return succeeded(self.machine.halt(), self.machine.state)

    def twin_success(self) -> bool:
        """Run the twin on from the fork, once this run has halted."""
        for tape in self.tapes:
            tape.replay = iter(tape.kept)
        self.twin.after_op(*self.twin.rest)
        return self.twin.success()


def sign_test(b: int, c: int) -> float:
    """One-sided exact sign test on discordant pairs: probability of at
    least `b` successes out of b + c fair coin flips."""
    n = b + c
    if n == 0:
        return 1.0
    total = sum(math.comb(n, k) for k in range(b, n + 1))
    return total / 2 ** n


def evaluate_correction(prog: ChemProgram, db: RuleDatabase, *,
                        policy: CorrectionPolicy = DEFAULT_POLICY,
                        eps: float | None = None, n_seeds: int = 200,
                        seed0: int = 0, budget: int = DEFAULT_BUDGET) -> dict:
    """Paired comparison, same seeds with and without correction, each run
    under a budget of `budget` machine steps. Returns success rates, the
    discordant counts and the exact sign-test p-value for "correction
    helps". Raises ValueError when `n_seeds` is below 1.

    Each seed's corrected run is made once and forks its baseline twin. Both
    arms draw from the seed's `inject` and `sense` streams and take the same
    steps on the same draws up to the run's first deviation (checkpoints
    draw nothing, change no state and take no step). There the run
    copies its machine (`Machine.fork`) for the twin, and both streams keep
    what the run draws from then on. Once the run halts, the twin senses the
    op's later events with corrections off and runs on from the fork, on the
    kept values first, then on the streams, which stand where its own would.
    A run with no deviation stopped where its twin would, on the budget too:
    the twin's success is the run's. Each arm is driven to its halt
    (`Machine.drive`) and reads only the halt and its product (`succeeded`);
    no machine keeps a trace (`records` is None) or builds a ledger."""
    if n_seeds < 1:
        raise ValueError(f"seeds must be at least 1, not {n_seeds}")
    b = c = 0  # discordant pairs: corrected or baseline alone succeeded
    wins_on = wins_off = 0
    for seed in range(seed0, seed0 + n_seeds):
        machine = Machine(prog, db, seed=seed, budget=budget,
                          injector=BernoulliInjector(substream(seed, "inject"), eps))
        machine.records = None
        on = _Paired(machine, policy, substream(seed, "sense"))
        on_success = on.success()
        off_success = on_success if on.twin is None else on.twin_success()
        wins_on += on_success
        wins_off += off_success
        b += on_success > off_success
        c += off_success > on_success
    return {
        "n": n_seeds,
        "rate_corrected": wins_on / n_seeds,
        "rate_baseline": wins_off / n_seeds,
        "discordant_better": b,
        "discordant_worse": c,
        "p_value": sign_test(b, c),
    }
