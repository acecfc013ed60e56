"""Findings about a program: each step's parameters (`check_params`), and
the report `validate_program` gives for a program against a rig, which is
the chempiler's static pass (`chempiler.check_program`).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..jsonio import dumps_stable
from .ast import OP_SPECS, PARAM_UNITS, ChemProgram, Quantity, settle

__all__ = ["Finding", "ValidationReport", "validate_program", "check_params"]

TEMP_RANGE_C = (-200.0, 400.0)


@dataclass(frozen=True)
class Finding:
    code: str
    message: str
    where: str

    def as_dict(self) -> dict:
        return {"code": self.code, "message": self.message, "where": self.where}


@dataclass(frozen=True)
class ValidationReport:
    findings: tuple[Finding, ...] = ()     # given as any iterable

    def __post_init__(self) -> None:
        settle(self, "findings", tuple(self.findings))

    @property
    def ok(self) -> bool:
        return not self.findings

    def to_json(self) -> str:
        return dumps_stable(
            {"ok": self.ok, "findings": [f.as_dict() for f in self.findings]},
            indent=2,
        ) + "\n"


def validate_program(prog: ChemProgram, graph) -> ValidationReport:
    from ..chempiler import check_program  # deferred: the chempiler imports this package
    return check_program(prog, graph)[0]


def check_params(prog: ChemProgram) -> list[Finding]:
    """Every step's missing parameters (missing_param), reagents and
    solvents that name no declaration (undeclared_reference), and
    temperatures, times and amounts out of range (param_out_of_range). A
    parameter whose value is None, which only a program built in code can
    hold, is not given: a required one is missing."""
    findings: list[Finding] = []
    declared = {d.name for d in prog.reagents}
    for i, op in enumerate(prog.steps):
        params = op.params
        missing = [key for key in OP_SPECS[op.kind].required if params.get(key) is None]
        found = [("missing_param", f"{op.kind.value} requires parameter {key!r}")
                 for key in sorted(missing)] if missing else []
        for key in ("reagent", "solvent"):
            ref = params.get(key)
            if ref is not None and ref not in declared:
                found.append(("undeclared_reference",
                              f"step references undeclared reagent {ref!r}"))
        for key, units in PARAM_UNITS.items():
            v = params.get(key)
            if not isinstance(v, Quantity):
                continue
            if units == ("C",):
                if not TEMP_RANGE_C[0] <= v.value <= TEMP_RANGE_C[1]:
                    found.append((
                        "param_out_of_range",
                        f"{key}={v.value:g} C outside [{TEMP_RANGE_C[0]:g}, {TEMP_RANGE_C[1]:g}]",
                    ))
            elif v.value <= 0:
                found.append(("param_out_of_range", f"{key} must be positive"))
        if found:
            where = op.where(i)
            findings += [Finding(code, message, where) for code, message in found]
    return findings


