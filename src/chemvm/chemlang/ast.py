"""Data model for chemical programs.

A program is a named procedure: reagent declarations (what sits in which
source flask), hardware requirements (which station kinds the steps need),
an ordered list of unit operations, and free-form metadata. Quantities are
normalized to base units (mol, g, mL, C, s) at parse time; the canonical
text emitted by the formatter always uses base units.

`OP_SPECS` is the one definition of each unit operation: the parameters
it requires and allows, the station capability its vessel needs, and the
AM/SM/AE/SE primitive codes it lowers to. The parser, the validator, the
vessel binder, the machine's lowering and the step classifier all read it;
`PARAM_UNITS` beside it gives the units of the quantity parameters.

`ChemProgram` is a frozen dataclass holding tuples of frozen entries
(`ReagentDecl`, `HardwareReq`, `UnitOperation`), and its metadata and each
step's `params` are `MappingProxyType` views of copies of the mappings
given, so no edit reaches a program; a different program is a new one
(`dataclasses.replace`, which keeps no memo). So work derived from a
program alone may be kept on it (its lowering), and so may its check
against a rig, which is frozen too. `settle` is how a frozen object sets
its read-only copies and its memo slots.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType
from typing import NamedTuple

__all__ = [
    "OpKind",
    "Quantity",
    "ReagentDecl",
    "HardwareReq",
    "UnitOperation",
    "ChemProgram",
    "UNITS",
    "BASE_UNITS",
    "ROLES",
    "BUILTIN_VESSELS",
    "OpSpec",
    "OP_SPECS",
    "PARAM_UNITS",
    "AMBIENT_C",
]

AMBIENT_C = 25.0

# Surface unit -> (base unit, scale into base).
UNITS: dict[str, tuple[str, float]] = {
    "mol": ("mol", 1.0),
    "mmol": ("mol", 1e-3),
    "g": ("g", 1.0),
    "mg": ("g", 1e-3),
    "mL": ("mL", 1.0),
    "C": ("C", 1.0),
    "s": ("s", 1.0),
    "min": ("s", 60.0),
    "h": ("s", 3600.0),
}
BASE_UNITS = ("mol", "g", "mL", "C", "s")

ROLES = ("reagent", "catalyst", "solvent")

# Vessel names every program may reference without declaring them.
BUILTIN_VESSELS = ("waste", "product")


class OpKind(str, Enum):
    ADD = "add"
    TRANSFER = "transfer"
    HEAT_STIR = "heat_stir"
    CHILL = "chill"
    REACT_HOT = "react_hot"
    REACT_COLD = "react_cold"
    SEPARATE = "separate"
    DRY = "dry"
    CRYSTALLISE = "crystallise"
    DISTIL = "distil"
    SUBLIME = "sublime"
    FILTER = "filter"
    EVAPORATE = "evaporate"
    CLEAN = "clean"


class OpSpec(NamedTuple):
    """One unit operation's definition."""

    required: frozenset[str]       # parameters the step must give
    optional: frozenset[str]       # parameters it may give besides `reaction_step`
    station: str | None            # capability its vessel's node must advertise;
                                   # None: any matter-holding node will do
    primitives: tuple[str, ...]    # the AM/SM/AE/SE codes it lowers to, in order


def _spec(required: str, optional: str, station: str | None, primitives: str) -> OpSpec:
    return OpSpec(frozenset(required.split()), frozenset(optional.split()), station,
                  tuple(primitives.split()))


# The one definition of each unit operation. `reaction_step` (int) is
# accepted on every step and marks which reaction stage of a multi-step
# synthesis the operation belongs to; unmarked steps inherit the previous
# marker.
OP_SPECS: dict[OpKind, OpSpec] = {
    OpKind.ADD: _spec("vessel reagent", "amount", None, "AM"),
    OpKind.TRANSFER: _spec("from to", "amount", None, "SM AM"),
    OpKind.HEAT_STIR: _spec("vessel temp time", "", "heat_stir", "AE"),
    OpKind.CHILL: _spec("vessel temp time", "", "chill", "SE"),
    OpKind.REACT_HOT: _spec("vessel reagent temp time", "amount", "react_hot", "AM AE"),
    OpKind.REACT_COLD: _spec("vessel reagent temp time", "amount", "react_cold", "AM SE"),
    OpKind.SEPARATE: _spec("vessel species to", "solvent amount time", "separate", "AM AE SM"),
    OpKind.DRY: _spec("vessel time", "temp species to", "dry", "AE SM"),
    OpKind.CRYSTALLISE: _spec("vessel temp cool_to species to", "time", "crystallise", "AE SE SM"),
    OpKind.DISTIL: _spec("vessel species temp to", "time cool_to", "distil", "AE SM SE AM"),
    OpKind.SUBLIME: _spec("vessel species temp to", "time cool_to", "sublime", "SM AE SE AM"),
    OpKind.FILTER: _spec("vessel species to", "", "filter", "SM"),
    OpKind.EVAPORATE: _spec("vessel temp time", "species to", "evaporate", "AE SM"),
    OpKind.CLEAN: _spec("vessel", "solvent amount", None, "AM SM"),
}

# Base units each quantity parameter takes; temperatures are range-checked,
# the other quantities must be positive.
PARAM_UNITS: dict[str, tuple[str, ...]] = {
    "temp": ("C",),
    "cool_to": ("C",),
    "time": ("s",),
    "amount": ("mol", "g", "mL"),
}


@dataclass(frozen=True)
class Quantity:
    """A number in a base unit (mol, g, mL, C or s)."""

    value: float
    unit: str

    def __post_init__(self) -> None:
        if self.unit not in BASE_UNITS:
            raise ValueError(f"not a base unit: {self.unit!r}")


ParamValue = Quantity | int | float | str


def settle(obj, name: str, value) -> None:
    """Set field `name` of a frozen object: one of its read-only copies as
    it is built, or a memo slot."""
    object.__setattr__(obj, name, value)


def settle_maps(obj, *names: str) -> None:
    """Replace each plain dict among fields `names` of a frozen object with
    a read-only copy; a map that is already read-only is kept as given."""
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, dict):
            settle(obj, name, MappingProxyType(dict(value)))


@dataclass(frozen=True)
class ReagentDecl:
    """One named charge: `name: sp:<species> <amount> @<flask> <role>`."""

    name: str
    species: str
    amount: Quantity
    source_vessel: str
    role: str = "reagent"
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class HardwareReq:
    """A vessel the steps refer to, and the station kind it must be."""

    vessel: str
    kind: str
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class UnitOperation:
    kind: OpKind
    params: Mapping[str, ParamValue]   # read-only: a copy of what was given
    line: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        settle(self, "params", MappingProxyType(dict(self.params)))

    @property
    def reaction_step(self) -> int | None:
        v = self.params.get("reaction_step")
        return int(v) if isinstance(v, int) else None

    def vessels(self) -> list[str]:
        """Vessel names this step touches, in param-name order."""
        out = []
        for key in ("vessel", "from", "to"):
            v = self.params.get(key)
            if isinstance(v, str):
                out.append(v)
        return out

    def where(self, index: int) -> str:
        """The step's place in messages and findings, `index` counted from 0."""
        return f"step {index + 1} ({self.kind.value}, line {self.line})"


@dataclass(frozen=True)
class ChemProgram:
    name: str
    reagents: tuple[ReagentDecl, ...]      # each given as any iterable
    hardware: tuple[HardwareReq, ...]
    steps: tuple[UnitOperation, ...]
    metadata: Mapping[str, str] = field(default_factory=dict)   # read-only copy
    # the machine's lowering, made on first run or compile (`cstm.lower_program`)
    _lowering: object = field(default=None, init=False, compare=False, repr=False)
    # the static pass against one rig: `chempiler.check_program`'s
    # (graph, report, bindings, routes)
    _checked: object = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        for name in ("reagents", "hardware", "steps"):
            settle(self, name, tuple(getattr(self, name)))
        settle(self, "metadata", MappingProxyType(dict(self.metadata)))
