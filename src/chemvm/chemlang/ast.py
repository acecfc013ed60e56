"""Data model for chemical programs.

A program is a named procedure: reagent declarations (what sits in which
source flask), hardware requirements (which station kinds the steps need),
an ordered list of unit operations, and free-form metadata. Quantities are
normalized to base units (mol, g, mL, C, s) at parse time; the canonical
text emitted by the formatter always uses base units.

A parsed program is never mutated: code that needs a different program
builds a new one (`dataclasses.replace`), so work derived from a program
alone may be kept on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

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
    "REQUIRED_PARAMS",
    "OPTIONAL_PARAMS",
    "STATION_CAPABILITY",
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


# Parameter contracts per operation. `reaction_step` (int) is accepted on
# every step and marks which reaction stage of a multi-step synthesis the
# operation belongs to; unmarked steps inherit the previous marker.
REQUIRED_PARAMS: dict[OpKind, frozenset[str]] = {
    OpKind.ADD: frozenset({"vessel", "reagent"}),
    OpKind.TRANSFER: frozenset({"from", "to"}),
    OpKind.HEAT_STIR: frozenset({"vessel", "temp", "time"}),
    OpKind.CHILL: frozenset({"vessel", "temp", "time"}),
    OpKind.REACT_HOT: frozenset({"vessel", "reagent", "temp", "time"}),
    OpKind.REACT_COLD: frozenset({"vessel", "reagent", "temp", "time"}),
    OpKind.SEPARATE: frozenset({"vessel", "species", "to"}),
    OpKind.DRY: frozenset({"vessel", "time"}),
    OpKind.CRYSTALLISE: frozenset({"vessel", "temp", "cool_to", "species", "to"}),
    OpKind.DISTIL: frozenset({"vessel", "species", "temp", "to"}),
    OpKind.SUBLIME: frozenset({"vessel", "species", "temp", "to"}),
    OpKind.FILTER: frozenset({"vessel", "species", "to"}),
    OpKind.EVAPORATE: frozenset({"vessel", "temp", "time"}),
    OpKind.CLEAN: frozenset({"vessel"}),
}

OPTIONAL_PARAMS: dict[OpKind, frozenset[str]] = {
    OpKind.ADD: frozenset({"amount"}),
    OpKind.TRANSFER: frozenset({"amount"}),
    OpKind.HEAT_STIR: frozenset(),
    OpKind.CHILL: frozenset(),
    OpKind.REACT_HOT: frozenset({"amount"}),
    OpKind.REACT_COLD: frozenset({"amount"}),
    OpKind.SEPARATE: frozenset({"solvent", "amount", "time"}),
    OpKind.DRY: frozenset({"temp", "species", "to"}),
    OpKind.CRYSTALLISE: frozenset({"time"}),
    OpKind.DISTIL: frozenset({"time", "cool_to"}),
    OpKind.SUBLIME: frozenset({"time", "cool_to"}),
    OpKind.FILTER: frozenset(),
    OpKind.EVAPORATE: frozenset({"species", "to"}),
    OpKind.CLEAN: frozenset({"solvent", "amount"}),
}

# Station capability a graph node must advertise to host the operation.
# None: any matter-holding node will do.
STATION_CAPABILITY: dict[OpKind, str | None] = {
    OpKind.ADD: None,
    OpKind.TRANSFER: None,
    OpKind.CLEAN: None,
    OpKind.HEAT_STIR: "heat_stir",
    OpKind.CHILL: "chill",
    OpKind.REACT_HOT: "react_hot",
    OpKind.REACT_COLD: "react_cold",
    OpKind.SEPARATE: "separate",
    OpKind.DRY: "dry",
    OpKind.CRYSTALLISE: "crystallise",
    OpKind.DISTIL: "distil",
    OpKind.SUBLIME: "sublime",
    OpKind.FILTER: "filter",
    OpKind.EVAPORATE: "evaporate",
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


@dataclass
class ReagentDecl:
    """One named charge: `name: sp:<species> <amount> @<flask> <role>`."""

    name: str
    species: str
    amount: Quantity
    source_vessel: str
    role: str = "reagent"
    line: int = field(default=0, compare=False)


@dataclass
class HardwareReq:
    """A vessel the steps refer to, and the station kind it must be."""

    vessel: str
    kind: str
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class UnitOperation:
    kind: OpKind
    params: dict[str, ParamValue]
    line: int = field(default=0, compare=False)

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


@dataclass
class ChemProgram:
    name: str
    reagents: list[ReagentDecl]
    hardware: list[HardwareReq]
    steps: list[UnitOperation]
    metadata: dict[str, str] = field(default_factory=dict)
    # the machine's lowering of this program, made on first run or compile
    # (`cstm.lower_program`); sound because a parsed program is never mutated
    _lowering: object = field(default=None, init=False, compare=False, repr=False)
