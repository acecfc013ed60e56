"""Canonical text form of a program.

Canonicalization sorts parameter and metadata keys, normalizes whitespace
and emits all quantities in base units, so two programs that differ only
in key order or unit spelling produce identical text. `parse(format(p))`
is structurally equal to `p`, up to the parameters a program built in
code sets to None, which are not given and have no text.
"""

from __future__ import annotations

from ..jsonio import fmt_num
from .ast import ChemProgram, Quantity, UnitOperation
from .parser import ESCAPES, IDENT_RE

__all__ = ["format_program"]

_QUOTED = str.maketrans({char: "\\" + letter for letter, char in ESCAPES.items()})


def _escape(text: str) -> str:
    return f'"{text.translate(_QUOTED)}"'


def _value_text(v) -> str:
    if isinstance(v, Quantity):
        return f"{fmt_num(v.value)} {v.unit}"
    if isinstance(v, (int, float)):
        return fmt_num(v)
    if IDENT_RE.fullmatch(v):
        return v
    return _escape(v)


def _step_text(op: UnitOperation) -> str:
    """A step's text; a parameter whose value is None is not given, so it
    has no text (see `validate.check_params`)."""
    params = op.params
    parts = [f"{k}={_value_text(params[k])}" for k in sorted(params) if params[k] is not None]
    return f"{op.kind.value}({', '.join(parts)})"


def format_program(prog: ChemProgram) -> str:
    lines = [f"procedure {_escape(prog.name)} {{"]
    if prog.reagents:
        lines.append("  reagents {")
        for d in prog.reagents:
            lines.append(
                f"    {d.name}: sp:{d.species} {fmt_num(d.amount.value)} {d.amount.unit}"
                f" @{d.source_vessel} {d.role}"
            )
        lines.append("  }")
    if prog.hardware:
        lines.append("  hardware {")
        for h in prog.hardware:
            lines.append(f"    {h.vessel}: {h.kind}")
        lines.append("  }")
    lines.append("  steps {")
    for op in prog.steps:
        lines.append(f"    {_step_text(op)}")
    lines.append("  }")
    if prog.metadata:
        lines.append("  meta {")
        for key in sorted(prog.metadata):
            lines.append(f"    {key} = {_escape(prog.metadata[key])}")
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"
