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

`evaluate_correction` pairs runs with and without correction; its
docstring and README's "Error correction" describe how.

A policy file is a JSON object overriding some of the defaults; the
policy checks every field's type and range and raises `PolicyError`, a
`ValueError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .chemlang import ChemProgram
from .cstm import DEFAULT_BUDGET, ExecutionTrace, Machine, MachineState, apply_extent
from .jsonio import is_integer, is_number, loads_object
from .rng import substream
from .rules import RuleDatabase, limiting_extent

__all__ = [
    "CorrectionPolicy",
    "DEFAULT_POLICY",
    "PolicyError",
    "loads_policy",
    "BernoulliInjector",
    "ScriptedInjector",
    "MODE_FACTORS",
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
        mode = self.misfire(rule.epsilon if self.eps is None else self.eps)
        return (1.0, None) if mode is None else (MODE_FACTORS[mode], mode)

    def misfire(self, eps: float) -> str | None:
        """Draw one attempt at error rate `eps`: the mode it misfires in, or None."""
        if self.rng.random() >= eps:
            return None
        w = self.rng.random()
        return "minor" if w < _MINOR_CUT else "intermediate" if w < _INTERMEDIATE_CUT else "major"


class ScriptedInjector:
    """Deterministic sequence of outcomes (None or a mode name); perfect
    once the script runs out."""

    def __init__(self, modes):
        self.modes = iter(tuple(modes))

    def sample(self, rule) -> tuple[float, str | None]:
        mode = next(self.modes, None)
        return (1.0, None) if mode is None else (MODE_FACTORS[mode], mode)


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
    `redoses` and `reverts` count against the policy's bounds."""

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
        machine, policy, write = self.machine, self.policy, self._write
        while True:
            reading, gap, severity = self.sense(event["achieved_yield"]
                                                / (event["expected_yield"] or 1.0))
            rule = event["rule"]
            write({"kind": "sensing", "op_index": op_index, "rule": rule,
                   "reading": reading, "step": machine.state.step_count})
            if severity is None:
                return True
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

    def sense(self, ratio: float) -> tuple[float, float, str | None]:
        """Read a reaction's achieved/expected yield `ratio`, with noise drawn
        from `sense_rng`: the reading, its gap below 1 and its severity, None
        when the reading validates or corrections are off."""
        noise_sd = self.policy.sensor_noise_sd
        reading = ratio + (self.sense_rng.gauss(0.0, noise_sd) if noise_sd else 0.0)
        gap = 1.0 - reading if reading < 1.0 else 0.0
        return reading, gap, classify_severity(gap, self.policy) \
            if self.corrections_enabled else None

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
    """A seed's stream, drawn once for both arms of `evaluate_correction`: a
    reader rewound to the start (`at` 0) reads the values kept before drawing
    on. Each stream is drawn through one call with fixed arguments."""

    def __init__(self, rng):
        self.rng, self.kept, self.at = rng, [], 0

    def random(self) -> float:
        return self._draw(self.rng.random)

    def gauss(self, mu: float, sigma: float) -> float:
        return self._draw(self.rng.gauss, mu, sigma)

    def _draw(self, call, *args) -> float:
        at = self.at = self.at + 1
        if at > len(self.kept):
            self.kept.append(call(*args))
        return self.kept[at - 1]


class _Injector(BernoulliInjector):
    """A paired run's injector: it records each attempt's question and class."""

    def misfire(self, eps: float) -> str | None:
        mode = BernoulliInjector.misfire(self, eps)
        self.path.append((("inject", eps), mode))
        return mode


class _Arm(Corrector):
    """One arm of `evaluate_correction`, for one call: the corrector of its
    runs, which records each sensing's question and class, and its outcome
    tree, held as {None: root}. A node is (question, {class: child}), a
    leaf the success its class path ends in."""

    def __init__(self, prog: ChemProgram, db: RuleDatabase, budget: int,
                 policy: CorrectionPolicy, eps: float | None, corrections_enabled: bool):
        self.prog, self.db, self.budget, self.policy, self.tree = prog, db, budget, policy, {}
        self.injector, self.corrections_enabled = _Injector(None, eps), corrections_enabled

    def sense(self, ratio: float) -> tuple[float, float, str | None]:
        reading = Corrector.sense(self, ratio)
        self.path.append((("sense", ratio), reading[2]))
        return reading

    def success(self, inject: _Tape, sense: _Tape) -> bool:
        """The arm's success on a seed's streams: walk the tree, drawing and
        classing through the calls a run makes; at a class it has not seen,
        run the machine from the streams' first value and graft its path."""
        injector, self.sense_rng = self.injector, sense
        injector.rng, inject.at, sense.at = inject, 0, 0
        node = self.tree.get(None)
        while node.__class__ is tuple:     # the run's own calls, without its recording
            (kind, x), children = node
            node = children.get(BernoulliInjector.misfire(injector, x) if kind == "inject"
                                else Corrector.sense(self, x)[2])
        if node is not None:
            return node
        inject.at = sense.at = 0
        injector.path = self.path = []
        machine = Machine(self.prog, self.db, budget=self.budget, injector=injector)
        machine.records = None
        Corrector.__init__(self, machine, self.policy, sense, self.corrections_enabled)
        machine.drive(self.after_op)
        success = succeeded(machine.halt(), machine.state)
        _graft(self.tree, self.path, success)
        return success


def _graft(tree: dict, path: list, success: bool) -> None:
    """Graft a run's `path` of (question, class) pairs onto `tree`, held as
    {None: root} (see `_Arm`), ending in its `success`. Raises RuntimeError
    where the run asked another question than the tree."""
    holder, key, at = tree, None, 0
    while (node := holder.get(key)) is not None:
        question, cls = path[at] if at < len(path) else (None, None)     # None: it halted
        asked = node[0] if node.__class__ is tuple else None             # None: a leaf
        if asked is None or asked != question:
            raise RuntimeError(f"a run asked {question} where one on its classes asked {asked}")
        holder, key, at = node[1], cls, at + 1
    for question, cls in reversed(path[at:]):
        success = (question, {cls: success})
    holder[key] = success


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

    A run that keeps no trace depends on a seed's `inject` and `sense`
    draws only through their classes: the mode `BernoulliInjector.misfire`
    draws per reaction attempt, the severity `Corrector.sense` reads per
    sensing. So each arm keeps an outcome tree for the call, a question per
    node ("inject at eps", "sense at a yield ratio"), a child per class and
    a success per leaf, and walks it on each seed's streams, which both arms
    read from the first value. Its machine runs only at a class not seen
    yet: once per distinct class path, per arm, per call. The run grafts its
    path on, raising RuntimeError if it asked another question than the
    tree, and reads only its halt and product (`succeeded`): no trace, no ledger."""
    if n_seeds < 1:
        raise ValueError(f"seeds must be at least 1, not {n_seeds}")
    on, off = (_Arm(prog, db, budget, policy, eps, enabled) for enabled in (True, False))
    pairs = []      # per seed, the corrected and the baseline arm's success
    for seed in range(seed0, seed0 + n_seeds):
        inject, sense = _Tape(substream(seed, "inject")), _Tape(substream(seed, "sense"))
        pairs.append((on.success(inject, sense), off.success(inject, sense)))
    b = sum(x > y for x, y in pairs)    # discordant pairs: corrected or baseline alone succeeded
    c = sum(y > x for x, y in pairs)
    return {
        "n": n_seeds,
        "rate_corrected": sum(x for x, _ in pairs) / n_seeds,
        "rate_baseline": sum(y for _, y in pairs) / n_seeds,
        "discordant_better": b,
        "discordant_worse": c,
        "p_value": sign_test(b, c),
    }
