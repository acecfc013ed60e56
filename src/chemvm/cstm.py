"""Vessel-tape machine: unit operations lowered to matter/energy primitives.

The tape is a row of vessel cells: waste at index 0, product at index 1,
then every other vessel the program names, in the order a run first uses
it (see `Lowering.vessels`). `MachineState.slot` maps each program
vessel to the tape index of the cell it runs in (under a compiled plan's
bindings, several vessels can share a node's cell), so a primitive finds
its cells with one lookup. Every unit operation expands to a short fixed
sequence of four primitive moves:

    AM  add matter       SM  subtract matter
    AE  add energy       SE  subtract energy

The head teleports to the cell a primitive names; each primitive is one
machine step, `Machine.step`, which an op and a correction both take: the
budget check, the primitive's movement resolved against the tape
(`movement`), the pre hook, the move and its record (`apply_primitive`,
which moves matter through `step_tape`), the reaction check when the
primitive dwells, and the post hook. Energy primitives that hold the cell
for a dwell time consult the rule database afterwards, so reactions are a
consequence of conditions, not of which surface operation requested the
heating. A matched rule consumes inputs and books products at its
declared yield; element surplus goes straight to the waste cell as the
rule's byproduct.

A program is lowered once: `lower_program` expands every step and lays
out the tape (`Layout`: cell names, name -> index, vessel -> slot) the
first time the program is run or compiled, and keeps the result on the
program, which every later machine and compile reads. Every machine
without bindings shares that layout's two maps, which are read-only
views, and makes only its own fresh cells; a compiled plan's bindings lay
out their tape through the same function. This rests on `ChemProgram`
being frozen; a different program is a new `ChemProgram`.

Halting is classified per run: a characterised rule keeps q_out, a
predicted one downgrades the run to q_uout, a novel (explored) one to
q_nout. A run stops early one way: something raises `MachineError` (a
reaction step whose conditions matched no rule, an overdrawn flask, a hook
calling `Machine.fail`), and `Machine.execute`, the one place that catches
it, halts the run at q_fail with the error as the reason.

A run's budget B bounds the machine steps it takes: `Machine.step` stops
the run with "budget exhausted" before a primitive once `step_count` has
reached B. Every primitive counts, a redose's and those a revert re-runs
included (`step_count` is never rolled back), and records cost nothing, so
the execution arms stop a program at the same step. A compiled run also
stops before its strokes pass B, so a rig file's tiny pump cannot make a
movement's strokes outgrow the budget.
The trace stays linear in B: at most B primitive records, a transition
per primitive, B stroke records, five correction records per transition
(a sensing, a deviation, two actions and a revert), a checkpoint per op
plus one, a record from the stop and the halt: 9B + 3 records in all.

A cell's contents, the transit line and the books of stock drawn,
consumed and produced hold their species in species (sorted id) order:
`_add` is the one place a species enters any of them, and it keeps that
order (`step_tape` copies a whole cell or the transit line, already in
order, into an empty one as it is), so a record, a checkpoint or the
ledger copies them as they are and nothing sorts them on the way.

Mass conservation is audited per species:

    stock_in + produced == consumed + held + waste + product

within a relative residual of 1e-9 (see `LedgerReport.residual`).
`build_ledger` walks the sorted species once, for the totals and the
residual, and copies the books, already in species order.
Conversion between mol, g and mL is treated as 1:1 nominal, so all
amounts are a single "mol" scale.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import NamedTuple, NoReturn

from .chemlang.ast import AMBIENT_C, OP_SPECS, ChemProgram, OpKind, Quantity, ReagentDecl, settle
from .jsonio import dumps_jsonl
from .rng import substream
from .rules import (
    RuleDatabase, RuleMatch, TransitionRule, apply_rule_events,
    explore as _explore_latent, limiting_extent, match_rule, promote,
)

__all__ = [
    "Primitive",
    "VesselCell",
    "MachineState",
    "ExecutionTrace",
    "LedgerReport",
    "Machine",
    "MachineError",
    "expand_unit_op",
    "Lowering",
    "Layout",
    "lower_program",
    "init_machine",
    "movement",
    "step_tape",
    "apply_primitive",
    "over_capacity",
    "apply_extent",
    "selected_species",
    "run",
    "read_trace_jsonl",
    "worst_halt",
    "DEFAULT_BUDGET",
    "RESERVOIR_SPECIES",
    "HALT_KINDS",
]

DEFAULT_BUDGET = 10000
HALT_KINDS = ("q_out", "q_uout", "q_nout", "q_fail")
_HALT_RANK = {k: i for i, k in enumerate(HALT_KINDS)}
# A reaction's halt classification, by its rule's status after the application.
_HALT_OF_STATUS = {"characterised": "q_out", "predicted": "q_uout", "novel": "q_nout"}

# Nominal charges and dwell times for operations that do not spell them out.
CLEAN_CHARGE_MOL = 0.1
SEPARATE_CHARGE_MOL = 0.1
AGITATE_S = 60.0
SOAK_S = 600.0
ENERGY_HOLD_PER_S = 0.01

# Species name drawn from the shared solvent reservoir.
RESERVOIR_SPECIES = "solvent"

_AMOUNT_SLACK = 1e-9
_CAPACITY_SLACK = 1e-9


class MachineError(Exception):
    pass


# ---------------------------------------------------------------------------
# Expansion of unit operations into primitives

class Primitive(NamedTuple):
    code: str                      # AM | SM | AE | SE
    cell: str                      # vessel the head must sit on
    op_index: int
    op_kind: OpKind
    # (source, destination) vessels of the matter an AM or SM moves; a
    # source of None is the solvent reservoir, and the destination of an SM
    # into the transit line is the vessel whose AM empties it. None for
    # energy moves and for that AM, whose matter the SM already moved.
    ends: tuple[str | None, str] | None = None
    reagent: ReagentDecl | None = None   # the declaration an AM draws from
    transit: bool = False                # an SM into the transit line
    # SM selector: None = everything, "solvents" = solvent-role species,
    # or an explicit tuple of species ids.
    species: tuple[str, ...] | str | None = None
    amount: float | None = None          # always set for a reservoir draw
    setpoint: float | None = None
    duration: float = 0.0                # an energy move's dwell; > 0 checks for a reaction
    expects_reaction: bool = False
    reset_cell: bool = False


def _qv(v) -> float | None:
    """A quantity parameter's value; None when the step does not give it."""
    if v is None:
        return None
    return v.value if isinstance(v, Quantity) else float(v)


def _matter(code: str, cell: str, op_index: int, kind: OpKind,
            ends: tuple[str | None, str] | None = None, reagent: ReagentDecl | None = None,
            transit: bool = False, species: tuple[str, ...] | str | None = None,
            amount: float | None = None, reset_cell: bool = False) -> Primitive:
    """An AM or SM move."""
    return Primitive(code, cell, op_index, kind, ends, reagent, transit, species, amount,
                     None, 0.0, False, reset_cell)


def _energy(code: str, cell: str, op_index: int, kind: OpKind, setpoint: float | None,
            duration: float | None, expects_reaction: bool = False) -> Primitive:
    """An AE or SE move; the machine checks for a reaction after its dwell."""
    return Primitive(code, cell, op_index, kind, None, None, False, None, None,
                     setpoint, duration, expects_reaction)


def _draw(op, op_index: int, decls: dict[str, ReagentDecl], name: str,
          amount: float | None) -> Primitive:
    """AM of the declared reagent `name` from its flask into the op's vessel."""
    decl = decls.get(name)
    if decl is None:
        raise MachineError(f"{op.where(op_index)}: no reagent declaration {name!r}")
    vessel = op.params["vessel"]
    return _matter("AM", vessel, op_index, op.kind, (decl.source_vessel, vessel), decl,
                   False, None, amount)


def _charge_solvent(op, op_index: int, decls: dict[str, ReagentDecl],
                    default: float) -> Primitive:
    """AM of the op's solvent, or of the shared reservoir when it names none."""
    p = op.params
    amount = _qv(p.get("amount"))
    if amount is None:
        amount = default
    solvent = p.get("solvent")
    if solvent:
        return _draw(op, op_index, decls, solvent, amount)
    vessel = p["vessel"]
    return _matter("AM", vessel, op_index, op.kind, (None, vessel), None, False, None, amount)


def expand_unit_op(op, op_index: int, decls: dict[str, ReagentDecl]) -> list[Primitive]:
    """Lower one unit operation to its primitive sequence, whose codes are
    its `OP_SPECS` row's, drawing reagents from `decls` (reagent name ->
    declaration). Raises MachineError when the operation lacks a required
    parameter (a None value gives none) or names an undeclared reagent."""
    k = op.kind
    p = op.params
    missing = [key for key in OP_SPECS[k].required if p.get(key) is None]
    if missing:
        raise MachineError(f"{op.where(op_index)}: {k.value} requires parameter "
                           f"{min(missing)!r}")
    i = op_index
    if k is OpKind.ADD:
        return [_draw(op, i, decls, p["reagent"], _qv(p.get("amount")))]
    if k is OpKind.TRANSFER:
        src, to = p["from"], p["to"]
        return [_matter("SM", src, i, k, (src, to), None, True, None, _qv(p.get("amount"))),
                _matter("AM", to, i, k)]
    v = p["vessel"]  # every other kind requires one
    if k is OpKind.HEAT_STIR or k is OpKind.CHILL:
        return [_energy("AE" if k is OpKind.HEAT_STIR else "SE", v, i, k,
                        _qv(p["temp"]), _qv(p["time"]))]
    if k is OpKind.REACT_HOT or k is OpKind.REACT_COLD:
        return [_draw(op, i, decls, p["reagent"], _qv(p.get("amount"))),
                _energy("AE" if k is OpKind.REACT_HOT else "SE", v, i, k,
                        _qv(p["temp"]), _qv(p["time"]), True)]
    if k is OpKind.SEPARATE:
        time = _qv(p.get("time"))
        return [_charge_solvent(op, i, decls, SEPARATE_CHARGE_MOL),
                _energy("AE", v, i, k, None, AGITATE_S if time is None else time),
                _matter("SM", v, i, k, (v, p["to"]), species=(p["species"],))]
    if k is OpKind.DRY or k is OpKind.EVAPORATE:
        species, to = p.get("species"), p.get("to")
        return [_energy("AE", v, i, k, _qv(p.get("temp")), _qv(p["time"])),
                _matter("SM", v, i, k, (v, "waste" if to is None else to),
                        species="solvents" if species is None else (species,))]
    if k is OpKind.CRYSTALLISE:
        time = _qv(p.get("time"))
        return [_energy("AE", v, i, k, _qv(p["temp"]), SOAK_S if time is None else time),
                _energy("SE", v, i, k, _qv(p["cool_to"]), SOAK_S),
                _matter("SM", v, i, k, (v, p["to"]), species=(p["species"],))]
    if k is OpKind.DISTIL or k is OpKind.SUBLIME:
        to = p["to"]
        time = _qv(p.get("time"))
        cool_to = _qv(p.get("cool_to"))
        heat = _energy("AE", v, i, k, _qv(p["temp"]), SOAK_S if time is None else time)
        vapour = _matter("SM", v, i, k, (v, to), None, True, (p["species"],))
        cool = _energy("SE", to, i, k, AMBIENT_C if cool_to is None else cool_to, AGITATE_S)
        if k is OpKind.DISTIL:
            return [heat, vapour, cool, _matter("AM", to, i, k)]
        return [vapour, heat, cool, _matter("AM", to, i, k)]
    if k is OpKind.FILTER:
        return [_matter("SM", v, i, k, (v, p["to"]), species=(p["species"],))]
    if k is OpKind.CLEAN:
        return [_charge_solvent(op, i, decls, CLEAN_CHARGE_MOL),
                _matter("SM", v, i, k, (v, "waste"), reset_cell=True)]
    raise ValueError(f"no expansion for {k!r}")


class Layout(NamedTuple):
    """A tape's layout, which every machine over it shares: a tuple and
    two read-only maps."""
    names: tuple[str, ...]         # cell names, in tape order
    index: Mapping[str, int]       # cell name -> tape index
    slot: Mapping[str, int]        # program vessel -> tape index of its cell


def _lay_out(vessels: tuple[str, ...], names: Mapping[str, str]) -> Layout:
    """One cell per distinct cell name of `vessels`, in order; `names`
    maps a vessel to the name its cell runs under (a compiled plan's
    bindings), and a vessel it does not name runs under its own."""
    index: dict[str, int] = {}
    slot = {}
    for vessel in vessels:
        name = names.get(vessel, vessel)
        slot[vessel] = index.setdefault(name, len(index))
    return Layout(tuple(index), MappingProxyType(index), MappingProxyType(slot))


class Lowering(NamedTuple):
    """What running a program needs that depends on the program alone,
    the layout of its tape included."""
    # per step, its primitives; () for a step that cannot be lowered
    ops: tuple[tuple[Primitive, ...], ...]
    error: str | None                  # the MachineError message of the first such step
    solvents: frozenset[str]           # what an SM "solvents" selector takes
    # each vessel the program names, once, in the order a run first uses it:
    # waste, product, the source flasks, the hardware, then each step's
    # `op.vessels()`, whose order is the order its primitives use them
    vessels: tuple[str, ...]
    layout: Layout                     # the tape without bindings, a cell per vessel


def lower_program(prog: ChemProgram) -> Lowering:
    """The program's lowering, made on the first call and kept on the
    program for every later run and compile."""
    if prog._lowering is None:
        decls = {d.name: d for d in prog.reagents}
        ops, error = [], None
        vessels = ["waste", "product", *(d.source_vessel for d in prog.reagents),
                   *(req.vessel for req in prog.hardware)]
        for i, op in enumerate(prog.steps):
            vessels += op.vessels()
            try:
                ops.append(tuple(expand_unit_op(op, i, decls)))
            except MachineError as exc:
                ops.append(())
                error = error or str(exc)
        vessels = tuple(dict.fromkeys(vessels))
        settle(prog, "_lowering", Lowering(
            tuple(ops), error,
            frozenset({RESERVOIR_SPECIES}
                      | {d.species for d in prog.reagents if d.role == "solvent"}),
            vessels, _lay_out(vessels, {})))
    return prog._lowering


# ---------------------------------------------------------------------------
# Tape state

@dataclass(slots=True)
class VesselCell:
    name: str
    contents: dict[str, float] = field(default_factory=dict)   # in species order
    temp: float = AMBIENT_C
    energy_in: float = 0.0
    energy_out: float = 0.0


@dataclass(slots=True)
class MachineState:
    """A machine's tape and books. `index` and `slot` are its tape's
    `Layout`'s read-only maps: without bindings, the program's own, shared
    by every machine over it. `cells` are the machine's own. Every
    cell's contents and the transit line hold their species in species
    order, and so do the books `stock_in`, `consumed` and `produced` (see
    `_add`)."""
    cells: list[VesselCell]
    index: Mapping[str, int]              # cell name -> tape index
    head: int = 0
    controller: str = "q0"
    transit: dict[str, float] = field(default_factory=dict)
    step_count: int = 0
    stock_in: dict[str, float] = field(default_factory=dict)
    consumed: dict[str, float] = field(default_factory=dict)
    produced: dict[str, float] = field(default_factory=dict)
    solvent_species: frozenset[str] = frozenset()
    # program vessel -> tape index of the cell it runs in
    slot: Mapping[str, int] = field(default_factory=dict)

    @property
    def waste_cell(self) -> VesselCell:
        return self.cells[0]

    @property
    def product_cell(self) -> VesselCell:
        return self.cells[1]

    def cell_named(self, name: str) -> VesselCell:
        return self.cells[self.index[name]]


def _add(d: dict[str, float], species: str, amount: float) -> None:
    """Add `amount` to `d[species]`, keeping `d`'s keys in species order; a
    zero amount adds no key. The one place a species enters a cell, the
    transit line or a book that holds any."""
    if not amount:
        return
    if species in d:
        d[species] += amount
    elif not d or species > next(reversed(d)):
        d[species] = amount
    else:
        ordered = sorted([*d.items(), (species, amount)])
        d.clear()
        d.update(ordered)


def _drain(contents: dict[str, float], species: str, amount: float) -> None:
    """Take `amount` of `species` out of a cell; a species drawn to exactly
    zero leaves it."""
    if species in contents:
        left = contents[species] - amount
        if left == 0.0:
            del contents[species]
        else:
            contents[species] = left
    else:
        _add(contents, species, -amount)


def init_machine(prog: ChemProgram, names: Mapping[str, str] | None = None
                 ) -> MachineState:
    """A fresh machine state over the program's tape, its source flasks
    charged from the declarations. Without `names` the tape is the
    program's own layout (`Lowering.layout`), whose maps the state shares;
    `names` (a compiled plan's bindings: vessel -> node id) lays out a tape
    whose cells run under those names, with `_lay_out`."""
    lowering = lower_program(prog)
    layout = _lay_out(lowering.vessels, names) if names else lowering.layout
    cells = [VesselCell(name) for name in layout.names]
    slot = layout.slot
    state = MachineState(cells, layout.index, solvent_species=lowering.solvents, slot=slot)
    for decl in prog.reagents:
        amount = decl.amount.value
        _add(cells[slot[decl.source_vessel]].contents, decl.species, amount)
        _add(state.stock_in, decl.species, amount)
    return state


def selected_species(cell: VesselCell, selector,
                     solvents: frozenset[str]) -> list[str]:
    """Resolve an SM selector against a cell: None selects everything,
    "solvents" the solvent-role species, a tuple exactly those present."""
    if selector is None:
        return list(cell.contents)
    if selector == "solvents":
        return [s for s in cell.contents if s in solvents]
    return [s for s in selector if s in cell.contents]


def movement(state: MachineState, prim: Primitive) -> tuple | None:
    """Resolve what a matter primitive is about to move (see
    `Primitive.ends`) against the tape, without moving it: None for an
    energy move and for the AM that empties the transit line, else
    `(src, dst, what, total)`. `src` and `dst` are the cells the matter
    leaves and enters; a `src` of None is the shared solvent reservoir,
    which books what it gives as fresh stock, and a movement through the
    transit line is one movement, named by the SM that fills the line, with
    `dst` the cell the line delivers to. `what` is the species of a draw,
    which moves `total` of it, or an SM's selection (species -> amount);
    `total` is the nominal volume moved, the amount asked for when that is
    less than the selection. Raises MachineError when a flask holds less
    than the primitive draws."""
    ends = prim.ends
    if ends is None:
        return None
    src, dst = ends
    slot, cells = state.slot, state.cells
    cell = cells[slot[prim.cell]]
    if prim.code == "AM":
        if src is None:
            return None, cell, RESERVOIR_SPECIES, prim.amount
        species = prim.reagent.species
        flask = cells[slot[src]]
        avail = flask.contents.get(species, 0.0)
        want = prim.amount
        if want is None:
            return flask, cell, species, avail
        if want > avail + _AMOUNT_SLACK:
            raise MachineError(f"{prim.reagent.name}: need {want:g} {species}, flask "
                               f"{flask.name} holds {avail:g}")
        return flask, cell, species, avail if avail < want else want
    contents = cell.contents
    amounts = {s: contents[s] for s in selected_species(cell, prim.species,
                                                         state.solvent_species)}
    total = math.fsum(amounts.values())
    if prim.amount is not None:
        frac = min(1.0, prim.amount / total) if total > 0 else 0.0
        amounts = {s: v * frac for s, v in amounts.items()}
        total = min(total, prim.amount)
    return cell, cells[slot[dst]], amounts, total


def step_tape(state: MachineState, prim: Primitive, move: tuple | None) -> VesselCell | None:
    """Apply one primitive to the tape without recording it: teleport the
    head, apply its movement (see `movement`) or its energy move. The one
    place matter moves between cells. Returns the cell the primitive put
    matter into: the destination of an SM, or None when the SM fills the
    transit line, which is not a cell; the head cell after an AM, and after
    an energy move, whose reaction books its products there."""
    idx = state.head = state.slot[prim.cell]
    cell = state.cells[idx]
    state.step_count += 1

    if move is not None:
        src, dst, what, total = move
        into = state.transit if prim.transit else dst.contents
        if what.__class__ is str:       # a draw: one species
            if src is None:
                _add(state.stock_in, what, total)
            else:
                _drain(src.contents, what, total)
            _add(into, what, total)
        else:
            source = src.contents
            whole = what == source      # the whole cell moves, in species order
            if whole:
                source.clear()
            else:
                for s, v in what.items():
                    _drain(source, s, v)
            if whole and not into:
                into.update(what)
            else:
                for s, v in what.items():
                    _add(into, s, v)
        if prim.reset_cell and not cell.contents:
            cell.temp = AMBIENT_C
        return None if prim.transit else dst
    code = prim.code
    if code == "AM":                    # the transit line empties into the cell
        transit = state.transit
        if cell.contents:
            for s, v in transit.items():
                _add(cell.contents, s, v)
        else:
            cell.contents.update(transit)
        transit.clear()
    elif code == "AE":
        setpoint, rise = prim.setpoint, 0.0
        if setpoint is not None and setpoint > cell.temp:
            rise, cell.temp = setpoint - cell.temp, setpoint
        cell.energy_in += rise + ENERGY_HOLD_PER_S * prim.duration
    elif code == "SE":
        setpoint, drop = prim.setpoint, 0.0
        if setpoint is not None and setpoint < cell.temp:
            drop, cell.temp = cell.temp - setpoint, setpoint
        cell.energy_out += drop + ENERGY_HOLD_PER_S * prim.duration
    else:
        raise ValueError(f"unknown primitive code {code!r}")
    return cell


def apply_primitive(state: MachineState, prim: Primitive, move: tuple | None
                    ) -> tuple[dict, VesselCell | None]:
    """Execute one primitive and return its trace record and the cell it
    filled (see `step_tape`). Every primitive a machine runs passes
    through here."""
    head = state.head
    filled = step_tape(state, prim, move)
    idx = state.head
    cell = state.cells[idx]
    return {
        "kind": "primitive",
        "step": state.step_count,
        "op_index": prim.op_index,
        "op": prim.op_kind._value_,      # the value, without the property call
        "code": prim.code,
        "cell": cell.name,
        "move": "N" if idx == head else ("R" if idx > head else "L"),
        "state": state.controller,
        "contents": dict(cell.contents),
        "temp": cell.temp,
    }, filled


def over_capacity(cell: VesselCell, nodes) -> tuple[float, float] | None:
    """(held, capacity) when `cell` holds more than the capacity of the
    node it runs as, by more than 1e-9; None when it fits or the node has
    no capacity. `nodes` maps node ids to nodes with a `capacity`."""
    name = cell.name   # `in` and a subscript: a read-only map's `get` costs more
    capacity = nodes[name].capacity if name in nodes else None
    if capacity is None:
        return None
    held = math.fsum(cell.contents.values())
    return (held, capacity) if held > capacity + _CAPACITY_SLACK else None


def apply_extent(state: MachineState, cell: VesselCell, rule: TransitionRule,
                 extent: float) -> None:
    """Run `rule` forward by `extent` in `cell`: consume its reagents, book
    its products, send its byproduct to waste and turn its catalysts over.
    Zero amounts are not booked, so a zero extent changes nothing."""
    if not extent:
        return
    contents, consumed, produced = cell.contents, state.consumed, state.produced
    for s, ratio in rule.reagent_pattern.items():
        take = ratio * extent
        _drain(contents, s, take)
        _add(consumed, s, take)
    for s, ratio in rule.products.items():
        out = ratio * extent
        _add(contents, s, out)
        _add(produced, s, out)
    if rule.byproduct_elements:
        bp = rule.byproduct_species
        _add(produced, bp, extent)
        _add(state.waste_cell.contents, bp, extent)
    for c in rule.catalysts:
        # turns over but is not used up; book both sides equally
        _add(consumed, c, extent)
        _add(produced, c, extent)


# ---------------------------------------------------------------------------
# Ledger

class LedgerReport(NamedTuple):
    """A run's conservation ledger (see `build_ledger`), built by
    `Machine.finalize`; the halt record holds it as `_asdict()`, in field order."""
    total_in: dict[str, float]       # stock drawn + reaction products
    total_consumed: dict[str, float]
    total_held: dict[str, float]     # working cells + transit line
    total_waste: float
    total_product: float
    waste_by_species: dict[str, float]
    product_by_species: dict[str, float]
    stock_in: dict[str, float]
    produced: dict[str, float]
    energy_in: float
    energy_out: float
    residual: float


def build_ledger(state: MachineState) -> LedgerReport:
    """The run's ledger, each of its dicts keyed in species order: one walk
    of the sorted species makes the totals and the residual, and the
    books, already in that order, are copied."""
    held: dict[str, float] = {}
    for cell in state.cells[2:]:
        for s, v in cell.contents.items():
            _add(held, s, v)
    for s, v in state.transit.items():
        _add(held, s, v)
    stock_in, produced, consumed = state.stock_in, state.produced, state.consumed
    waste, product = state.waste_cell.contents, state.product_cell.contents
    total_in = {}
    residual = 0.0
    for s in sorted({**stock_in, **produced, **consumed, **held, **waste, **product}):
        inflow = total_in[s] = stock_in.get(s, 0.0) + produced.get(s, 0.0)
        outflow = (consumed.get(s, 0.0) + held.get(s, 0.0)
                   + waste.get(s, 0.0) + product.get(s, 0.0))
        gap = abs(inflow - outflow) / (inflow if inflow > 1e-30 else 1e-30)
        if gap > residual:
            residual = gap
    return LedgerReport(
        total_in=total_in,
        total_consumed=dict(consumed),
        total_held=held,
        total_waste=math.fsum(waste.values()),
        total_product=math.fsum(product.values()),
        waste_by_species=dict(waste),
        product_by_species=dict(product),
        stock_in=dict(stock_in),
        produced=dict(produced),
        energy_in=math.fsum(c.energy_in for c in state.cells),
        energy_out=math.fsum(c.energy_out for c in state.cells),
        residual=residual,
    )


# ---------------------------------------------------------------------------
# Execution

def worst_halt(outcomes) -> str:
    """q_fail beats q_nout beats q_uout beats q_out; no reactions is q_out."""
    rank = 0
    for o in outcomes:
        rank = max(rank, _HALT_RANK[o])
    return HALT_KINDS[rank]


@dataclass
class ExecutionTrace:
    records: list[dict]
    halt: str
    ledger: LedgerReport
    rule_events: list[dict]
    state: MachineState

    def to_jsonl(self) -> str:
        return dumps_jsonl(self.records)


def read_trace_jsonl(text: str) -> list[dict]:
    """The records of a JSON-lines trace. Lines end at "\\n" alone: a string
    in a record may hold any other line separator (U+2028, U+0085, ...)
    raw, as `dumps_jsonl` writes it."""
    return [json.loads(line) for line in text.split("\n") if line.strip()]


class Machine:
    """Stepwise executor. `execute` drives a whole program; recovery layers
    step in after each op and use checkpoint/restore between ops. `ops`
    is the program's lowering (see `lower_program`), one primitive tuple
    per step; a step that cannot be lowered halts the machine at q_fail
    before it starts. `bindings` (program vessel -> node id, a
    compiled plan's) names the cells the vessels run in; without it each
    cell carries its vessel's name.

    Every primitive, an op's and a correction's alike, runs through
    `step`. A run stops by raising MachineError: `step` raises when the
    budget of machine steps is spent, `execute_op` raises when the run
    stops, and a hook or a recovery layer stops the run with `fail`.
    `drive` catches it into `halt_reason`, and the run halts at q_fail.
    `records` is None in a run that keeps no trace (the paired experiment's):
    it writes no record, and `execute` and `finalize` are for runs that do.

    A run's rule history is `rule_events`: each application, counted (also
    in `occurrences`) with the status `rules.promote` gives, and each
    discovery. Only a discovery changes `db`: `rules.apply_rule_events`
    folds its event in, as it folds a whole run's for `--persist-rules`.

    Optional hooks: `injector.sample(rule) -> (yield factor, mode)` models
    process errors at reaction time; `pre_primitive(machine, prim, move)`
    and `post_primitive(machine, prim, cell)` are the step's two hook
    points, which let a hardware layer wrap each primitive, reading the
    movement it is about to apply (see `movement`) and, in `cell`, the cell
    it filled (see `step_tape`) as it and the reaction it triggered left
    it, without touching that state. A hook stops the run with
    `machine.fail`; a pre hook that does so stops the primitive from
    running.
    """

    def __init__(self, prog: ChemProgram, db: RuleDatabase, *, seed: int = 0,
                 explore: bool = False, budget: int = DEFAULT_BUDGET,
                 injector=None, pre_primitive=None, post_primitive=None,
                 bindings: Mapping[str, str] | None = None):
        self.prog = prog
        self.db = db
        self.explore_enabled = explore
        self.budget = budget
        self.injector = injector
        self.pre_primitive = pre_primitive
        self.post_primitive = post_primitive
        self.state = init_machine(prog, bindings)
        lowering = lower_program(prog)
        self.ops = lowering.ops
        self.records: list[dict] | None = []
        self.rule_events: list[dict] = []
        # rule id -> occurrences of each rule this run applied: the count
        # as loaded plus the applications in `rule_events`
        self.occurrences: dict[str, int] = {}
        self.halt_reason: str | None = lowering.error   # set once the run stops
        self.pc = 0
        self.seed = seed
        self._explore_rng = None        # drawn when the run first explores

    # -- op execution ------------------------------------------------------

    def fail(self, reason: str, record: dict | None = None) -> NoReturn:
        """Stop the run: write `record`, if any, then raise MachineError(reason)."""
        if record is not None and self.records is not None:
            self.records.append(record)
        raise MachineError(reason)

    def step(self, prim: Primitive) -> dict | None:
        """One machine step: the budget check, the primitive's movement
        resolved against the tape (`movement`), the pre hook, the move and
        its record (`apply_primitive`, or `step_tape` alone in a run with
        no trace), the reaction check when the primitive dwells, and the
        post hook. Returns the transition record of the reaction it ran, or
        None. A spent budget or a pre hook stops the run before it runs."""
        state = self.state
        if state.step_count >= self.budget:
            self.fail("budget exhausted")
        move = None if prim.ends is None else movement(state, prim)
        if self.pre_primitive is not None:
            self.pre_primitive(self, prim, move)
        if self.records is None:
            filled = step_tape(state, prim, move)
        else:
            record, filled = apply_primitive(state, prim, move)
            self.records.append(record)
        event = self._react(prim) if prim.duration > 0 else None
        if self.post_primitive is not None:
            self.post_primitive(self, prim, filled)
        return event

    def execute_op(self, op_index: int) -> list[dict]:
        """Run one unit operation; returns the reaction records it caused.
        Raises MachineError when the run stops."""
        self.state.controller = f"q{op_index}"
        events: list[dict] = []
        for prim in self.ops[op_index]:
            event = self.step(prim)
            if event is not None:
                events.append(event)
        self.pc = op_index + 1
        return events

    def _react(self, prim: Primitive) -> dict | None:
        """Run the reaction the conditions of `prim` trigger in the cell
        under the head and return its transition record; None when none runs. A
        reaction step that matches nothing stops the run."""
        state = self.state
        cell = state.cells[state.head]
        m = match_rule(self.db, cell.contents, (cell.temp, prim.duration))
        if m is None and self.explore_enabled and self.db.latent:
            if self._explore_rng is None:
                self._explore_rng = substream(self.seed, "explore")
            found = _explore_latent(self.db, cell.contents, self._explore_rng)
            if found is not None:
                event = {"kind": "discovered", "rule_id": found}
                self.rule_events.append(event)
                self.db = apply_rule_events(self.db, (event,))
                rule = self.db.rules[found]
                m = RuleMatch(rule, *limiting_extent(rule.reagent_pattern,
                                                     cell.contents))
        if m is None:
            if prim.expects_reaction:
                self.fail(f"no transition rule matched in {cell.name} "
                          f"at {cell.temp:g} C / {prim.duration:g} s",
                          self._transition(prim, cell, None, "q_fail"))
            return None

        factor, mode = (1.0, None) if self.injector is None \
            else self.injector.sample(m.rule)
        rule = m.rule
        extent = rule.yield_fraction * m.extent * factor
        apply_extent(state, cell, rule, extent)

        occurrences = self.occurrences[rule.id] = \
            self.occurrences.get(rule.id, rule.occurrences) + 1
        status = promote(rule, occurrences)
        self.rule_events.append({
            "kind": "applied", "rule_id": rule.id,
            "occurrences": occurrences, "status_after": status,
        })
        # after promotion, so a second occurrence already reads as characterised
        record = self._transition(
            prim, cell, rule.id, _HALT_OF_STATUS[status], extent=extent,
            extent_max=m.extent, limiting=m.limiting, expected_yield=rule.yield_fraction,
            achieved_yield=extent / m.extent if m.extent > 0 else 0.0)
        if mode is not None:
            record["injected"] = mode
        if self.records is not None:
            self.records.append(record)
        return record

    def _transition(self, prim: Primitive, cell: VesselCell, rule_id: str | None,
                    outcome: str, **reaction) -> dict:
        """The transition record of a reaction check; `reaction` holds the
        extents and yields of a rule that fired."""
        return {
            "kind": "transition",
            "step": self.state.step_count,
            "op_index": prim.op_index,
            "rule": rule_id,
            "outcome": outcome,
            **reaction,
            "cell": cell.name,
            "contents": dict(cell.contents),
            "temp": cell.temp,
            "state": self.state.controller,
        }

    # -- checkpoints (the recovery layer) -----------------------------------

    def checkpoint(self) -> dict:
        st = self.state
        return {
            "pc": self.pc,
            "head": st.head,
            "controller": st.controller,
            "transit": dict(st.transit),
            "cells": [(dict(c.contents), c.temp) for c in st.cells[1:]],
            "db": self.db,
            "rule_events_len": len(self.rule_events),
        }

    def restore(self, ckpt: dict) -> None:
        """Roll the workspace back to a checkpoint. Current holdings land in
        waste and the restored inventory is credited as fresh stock, so the
        conservation ledger stays closed across the revert."""
        st = self.state
        waste = st.waste_cell.contents
        fresh: dict[str, float] = {}
        for cell, (contents, temp) in zip(st.cells[1:], ckpt["cells"]):
            for s, v in cell.contents.items():
                _add(waste, s, v)
            cell.contents = dict(contents)
            cell.temp = temp
            for s, v in contents.items():
                fresh[s] = fresh.get(s, 0.0) + v
        for s, v in st.transit.items():
            _add(waste, s, v)
        st.transit = dict(ckpt["transit"])
        for s, v in ckpt["transit"].items():
            fresh[s] = fresh.get(s, 0.0) + v
        for s, v in fresh.items():
            _add(st.stock_in, s, v)
        st.head = ckpt["head"]
        st.controller = ckpt["controller"]
        self.pc = ckpt["pc"]
        self.db = ckpt["db"]
        del self.rule_events[ckpt["rule_events_len"]:]
        self.occurrences = {e["rule_id"]: e["occurrences"] for e in self.rule_events
                            if e["kind"] == "applied"}

    # -- driving and finalization ---------------------------------------------

    def execute(self, after_op=None) -> ExecutionTrace:
        """Run the program from `pc` to its end (`drive`), then `finalize`."""
        self.drive(after_op)
        return self.finalize()

    def drive(self, after_op=None) -> None:
        """The run loop, from `pc` to the end. After each op, never before the
        first, `after_op(op_index, events)` gets the op's reaction records; it may
        stop the run or restore a checkpoint (`dec.Corrector`). A stop (a
        MachineError from anywhere) sets `halt_reason` instead of raising."""
        try:
            while self.halt_reason is None and self.pc < len(self.ops):
                events = self.execute_op(op_index := self.pc)
                if after_op is not None:
                    after_op(op_index, events)
        except MachineError as exc:
            if self.halt_reason is None:
                self.halt_reason = str(exc)

    def halt(self) -> str:
        """q_fail after a stop, else the worst halt of the applied rules."""
        return "q_fail" if self.halt_reason is not None else worst_halt(
            _HALT_OF_STATUS[e["status_after"]] for e in self.rule_events
            if e["kind"] == "applied")

    def finalize(self) -> ExecutionTrace:
        halt = self.state.controller = self.halt()
        ledger = build_ledger(self.state)
        halt_record = {
            "kind": "halt",
            "halt": halt,
            "step": self.state.step_count,
            "ledger": ledger._asdict(),
            "rule_events": self.rule_events,
        }
        if self.halt_reason is not None:
            halt_record["reason"] = self.halt_reason
        self.records.append(halt_record)
        return ExecutionTrace(self.records, halt, ledger, self.rule_events, self.state)


def run(prog: ChemProgram, db: RuleDatabase, *, seed: int = 0,
        budget: int = DEFAULT_BUDGET, explore: bool = False) -> ExecutionTrace:
    """Execute a program against a rule database and return the full trace
    (see `Machine.execute`)."""
    return Machine(prog, db, seed=seed, explore=explore, budget=budget).execute()
