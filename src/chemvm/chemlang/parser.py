r"""Recursive-descent parser for the synthesis DSL.

Surface form (LL(1)):

    procedure "name" {
      reagents {
        a: sp:water 1 mol @R1 reagent      # name: species amount @flask role
      }
      hardware {
        RX1: reactor                        # vessel: station kind
      }
      steps {
        add(vessel=RX1, reagent=a)
        react_hot(reagent=b, temp=80 C, time=600 s, vessel=RX1)
      }
      meta {
        target = "X"
      }
    }

Lexical grammar, scanned by one compiled pattern (`_TOKEN_RE`): blanks
(space, tab, carriage return) and newlines separate tokens, and `#` starts
a comment that runs to the end of the line. Identifiers (`IDENT_RE`) are a
letter or `_` followed by letters, digits and `_`. Numbers are decimal,
with an optional leading `-`, fraction and exponent: `1`, `-0.5`, `.5`,
`2.`, `1e-3`. Strings are double-quoted, hold no bare newline, and take the
escapes `\n \t \" \\` (`ESCAPES`); any other escaped character stands for
itself. Punctuation is one of `{ } ( ) , : = @`.

Quantities are `<number> <unit>` with units mol, mmol, g, mg, mL, C, s,
min, h, normalized to base units (mol, g, mL, C, s) in the AST. Vessels
referenced by steps but not listed under `hardware` are auto-registered
with the unconstrained kind `any`; `waste` and `product` are built-ins and
never need declaring.
"""

from __future__ import annotations

import math
import re
from typing import NamedTuple, NoReturn

from .ast import (
    BUILTIN_VESSELS,
    OP_SPECS,
    PARAM_UNITS,
    ROLES,
    UNITS,
    ChemProgram,
    HardwareReq,
    OpKind,
    ParamValue,
    Quantity,
    ReagentDecl,
    UnitOperation,
)

__all__ = ["ESCAPES", "IDENT_RE", "ParseError", "parse_program"]

_OP_KINDS = {k.value: k for k in OpKind}


class ParseError(Exception):
    """Syntax or reference error, pinned to a source line and column."""

    def __init__(self, message: str, line: int, col: int, code: str = "syntax"):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col
        self.code = code


class _Tok(NamedTuple):
    kind: str  # ident | number | string | punct | eof
    text: str
    line: int
    col: int


IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# escape letter -> the character it stands for; the formatter writes the
# inverse, and any other escaped character stands for itself
ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}

# One alternative per token kind, tried in this order; `bad` catches the
# character no other kind starts with, including the `"` of a string that
# meets a newline or the end of input before its closing quote.
_TOKEN_RE = re.compile("|".join(f"(?P<{kind}>{pattern})" for kind, pattern in (
    ("newline", r"\n"),
    ("skip", r"[ \t\r]+|#[^\n]*"),
    ("string", r'"[^"\\\n]*(?:\\.[^"\\\n]*)*"'),
    ("number", r"-?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?"),
    ("ident", IDENT_RE.pattern),
    ("punct", r"[{}(),:=@]"),
    ("bad", r"."),
)), re.DOTALL)
_ESCAPE_RE = re.compile(r"\\(.)", re.DOTALL)


def _tokenize(text: str) -> list[_Tok]:
    toks: list[_Tok] = []
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "skip":
            continue
        if kind == "newline":
            line += 1
            line_start = m.end()
            continue
        col = m.start() - line_start + 1
        value = raw = m.group()
        if kind == "string":
            value = _ESCAPE_RE.sub(lambda e: ESCAPES.get(e[1], e[1]), raw[1:-1])
            if "\n" in raw:
                # an escaped newline still ends a source line
                toks.append(_Tok(kind, value, line, col))
                line += raw.count("\n")
                line_start = m.start() + raw.rindex("\n") + 1
                continue
        elif kind == "bad":
            if value == '"':
                raise ParseError("unterminated string", line, col)
            raise ParseError(f"unexpected character {value!r}", line, col)
        toks.append(_Tok(kind, value, line, col))
    toks.append(_Tok("eof", "", line, len(text) - line_start + 1))
    return toks


class _Parser:
    def __init__(self, toks: list[_Tok]):
        self.toks = toks
        self.pos = 0

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def next(self) -> _Tok:
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, tok: _Tok | None = None, code: str = "syntax") -> NoReturn:
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col, code)

    def number(self, tok: _Tok, scale: float = 1.0) -> float:
        """The value of a number token, times a unit's scale; a value too
        large for a float is an error at the token."""
        value = float(tok.text) * scale
        if not math.isfinite(value):
            self.fail(f"number {tok.text!r} is out of range", tok)
        return value

    def expect(self, kind: str, text: str | None = None) -> _Tok:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            got = tok.text if tok.kind != "eof" else "end of input"
            self.fail(f"expected {want!r}, got {got!r}")
        return self.next()

    # --- grammar ---

    def program(self) -> ChemProgram:
        self.expect("ident", "procedure")
        name = self.expect("string").text
        self.expect("punct", "{")
        reagents: list[ReagentDecl] = []
        hardware: list[HardwareReq] = []
        steps: list[UnitOperation] = []
        metadata: dict[str, str] = {}
        seen: set[str] = set()
        while self.peek().text != "}":
            tok = self.peek()
            if tok.kind != "ident" or tok.text not in ("reagents", "hardware", "steps", "meta"):
                self.fail("expected a section: reagents, hardware, steps or meta")
            if tok.text in seen:
                self.fail(f"duplicate section {tok.text!r}")
            seen.add(tok.text)
            section = self.next().text
            self.expect("punct", "{")
            if section == "reagents":
                while self.peek().text != "}":
                    reagents.append(self.reagent_decl(reagents))
            elif section == "hardware":
                while self.peek().text != "}":
                    hardware.append(self.hardware_req(hardware))
            elif section == "steps":
                while self.peek().text != "}":
                    steps.append(self.step())
            else:
                while self.peek().text != "}":
                    key = self.expect("ident")
                    if key.text in metadata:
                        self.fail(f"duplicate meta key {key.text!r}", key)
                    self.expect("punct", "=")
                    metadata[key.text] = self.expect("string").text
            self.expect("punct", "}")
        close = self.expect("punct", "}")
        if self.peek().kind != "eof":
            self.fail("trailing input after program")
        if not steps:
            raise ParseError("program has no steps", close.line, close.col)
        prog = ChemProgram(name, reagents, hardware, steps, metadata)
        self._check_references(prog)
        return prog

    def reagent_decl(self, existing: list[ReagentDecl]) -> ReagentDecl:
        name = self.expect("ident")
        if any(d.name == name.text for d in existing):
            self.fail(f"duplicate reagent {name.text!r}", name, code="duplicate_reagent")
        self.expect("punct", ":")
        sp = self.expect("ident")
        if sp.text != "sp":
            self.fail("expected species tag 'sp:'", sp)
        self.expect("punct", ":")
        species = self.expect("ident").text
        amount = self.quantity(allowed=("mol", "g", "mL"))
        if amount.value <= 0:
            self.fail("reagent amount must be positive", name)
        self.expect("punct", "@")
        source = self.expect("ident").text
        role_tok = self.expect("ident")
        if role_tok.text not in ROLES:
            self.fail(f"unknown role {role_tok.text!r} (expected one of {', '.join(ROLES)})", role_tok)
        return ReagentDecl(name.text, species, amount, source, role_tok.text, line=name.line)

    def quantity(self, allowed: tuple[str, ...]) -> Quantity:
        num = self.expect("number")
        unit = self.expect("ident")
        if unit.text not in UNITS:
            self.fail(f"unknown unit {unit.text!r}", unit)
        base, scale = UNITS[unit.text]
        if base not in allowed:
            self.fail(f"expected a quantity in {'/'.join(allowed)}", unit)
        return Quantity(self.number(num, scale), base)

    def hardware_req(self, existing: list[HardwareReq]) -> HardwareReq:
        vessel = self.expect("ident")
        if any(h.vessel == vessel.text for h in existing):
            self.fail(f"duplicate hardware entry {vessel.text!r}", vessel)
        self.expect("punct", ":")
        kind = self.expect("ident").text
        return HardwareReq(vessel.text, kind, line=vessel.line)

    def step(self) -> UnitOperation:
        name = self.expect("ident")
        kind = _OP_KINDS.get(name.text)
        if kind is None:
            self.fail(f"unknown step kind {name.text!r}", name, code="unknown_step_kind")
        self.expect("punct", "(")
        params: dict[str, ParamValue] = {}
        while self.peek().text != ")":
            if params:
                self.expect("punct", ",")
            key = self.expect("ident")
            if key.text in params:
                self.fail(f"duplicate parameter {key.text!r}", key)
            self.expect("punct", "=")
            params[key.text] = self.param_value(kind, key)
        self.expect("punct", ")")
        spec = OP_SPECS[kind]
        for key in params:
            if key not in spec.required and key not in spec.optional and key != "reaction_step":
                self.fail(f"unknown parameter {key!r} for {kind.value}", name)
        return UnitOperation(kind, params, line=name.line)

    def param_value(self, kind: OpKind, key: _Tok) -> ParamValue:
        tok = self.peek()
        value: ParamValue
        if tok.kind == "number":
            self.next()
            nxt = self.peek()
            if nxt.kind == "ident" and nxt.text in UNITS:
                self.next()
                base, scale = UNITS[nxt.text]
                value = Quantity(self.number(tok, scale), base)
            elif nxt.kind == "ident":
                self.fail(f"unknown unit {nxt.text!r}", nxt)
            else:
                raw = self.number(tok)
                value = int(raw) if raw == int(raw) else raw
        elif tok.kind in ("ident", "string"):
            value = self.next().text
        else:
            self.fail("expected a parameter value")
        dims = PARAM_UNITS.get(key.text)
        if dims is not None and (not isinstance(value, Quantity) or value.unit not in dims):
            self.fail(f"parameter {key.text!r} takes a quantity in {'/'.join(dims)}", tok)
        if key.text == "reaction_step" and not isinstance(value, int):
            self.fail("reaction_step takes a bare integer", tok)
        if key.text in ("vessel", "from", "to", "reagent", "solvent", "species") and not isinstance(value, str):
            self.fail(f"parameter {key.text!r} takes an identifier", tok)
        return value

    def _check_references(self, prog: ChemProgram) -> None:
        declared = {d.name for d in prog.reagents}
        last_marker = 0
        for op in prog.steps:
            for key in ("reagent", "solvent"):
                ref = op.params.get(key)
                if ref is not None and ref not in declared:
                    raise ParseError(
                        f"step references undeclared reagent {ref!r}",
                        op.line, 1, code="undeclared_reference",
                    )
            marker = op.reaction_step
            if marker is not None:
                if marker <= 0:
                    raise ParseError("reaction_step must be a positive integer", op.line, 1)
                if marker < last_marker:
                    raise ParseError("reaction_step markers must be non-decreasing", op.line, 1)
                last_marker = marker
            amount = op.params.get("amount")
            if isinstance(amount, Quantity) and amount.value <= 0:
                raise ParseError("amount must be positive", op.line, 1)
            time = op.params.get("time")
            if isinstance(time, Quantity) and time.value <= 0:
                raise ParseError("time must be positive", op.line, 1)
        known = {h.vessel for h in prog.hardware} | set(BUILTIN_VESSELS)
        for op in prog.steps:
            for v in op.vessels():
                if v not in known:
                    prog.hardware.append(HardwareReq(v, "any", line=op.line))
                    known.add(v)


def parse_program(text: str) -> ChemProgram:
    """Parse DSL text into a `ChemProgram`; raises `ParseError` on bad input."""
    return _Parser(_tokenize(text)).program()
