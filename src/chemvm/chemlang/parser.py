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

Lexical grammar, one compiled pattern (`_TOKEN_RE`): blanks
(space, tab, carriage return) and newlines separate tokens, and `#` starts
a comment that runs to the end of the line. Identifiers (`IDENT_RE`) are a
letter or `_` followed by letters, digits and `_`. Numbers are decimal,
with an optional leading `-`, fraction and exponent: `1`, `-0.5`, `.5`,
`2.`, `1e-3`. Strings are double-quoted, hold no bare newline, and take the
escapes `\n \t \" \\` (`ESCAPES`); any other escaped character stands for
itself. Punctuation is one of `{ } ( ) , : = @`.
The text is scanned on demand into `(kind, value, offset)` tuples, a string
unescaped; a line and column come from the offset only for a `ParseError` and
the `line` of each reagent, hardware entry and step. A step with no string or
comment is parsed once per distinct text per program; a later copy takes that
parse, unscanned, on its own line. A lexical error anywhere still comes first.

Quantities are `<number> <unit>` with units mol, mmol, g, mg, mL, C, s,
min, h, normalized to base units (mol, g, mL, C, s) in the AST. Vessels
referenced by steps but not listed under `hardware` are auto-registered
with the unconstrained kind `any`; `waste` and `product` are built-ins and
never need declaring.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_right
from typing import NoReturn

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
    settle,
)

__all__ = ["ESCAPES", "IDENT_RE", "ParseError", "parse_program"]

_OP_KINDS = {k.value: k for k in OpKind}
_NAME_PARAMS = frozenset(("vessel", "from", "to", "reagent", "solvent", "species"))


class ParseError(Exception):
    """Syntax or reference error, pinned to a source line and column."""

    def __init__(self, message: str, line: int, col: int, code: str = "syntax"):
        super().__init__(f"{line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col
        self.code = code


IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# escape letter -> the character it stands for; the formatter writes the
# inverse, and any other escaped character stands for itself
ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}

# Blanks, newlines and comments, then one token. The kinds start with distinct
# characters; `bad` takes any other one (the `"` of an unterminated string
# among them), so a token always matches and no blank is ever given back.
_TOKEN_RE = re.compile(r"(?:[ \t\r\n]+|#[^\n]*)*(?:" + "|".join(
    f"(?P<{kind}>{pattern})" for kind, pattern in (
        ("ident", IDENT_RE.pattern),
        ("punct", r"[{}(),:=@]"),
        ("number", r"-?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?"),
        ("string", r'"[^"\\\n]*(?:\\.[^"\\\n]*)*"'),
        ("eof", r"\Z"),
        ("bad", r"."),
    )) + ")", re.DOTALL)
_ESCAPE_RE = re.compile(r"\\(.)", re.DOTALL)

_Token = tuple[str, str, int]  # kind, value, offset of its first character
# A step with no string, no comment and no nested parenthesis: its text alone
# decides its parse, so the parser parses each such text once.
_STEP_RE = re.compile(r'[A-Za-z_][A-Za-z0-9_]*\([^()"#]*\)')


def _tokenize(text: str) -> list[_Token]:
    """Every token of `text`, through `eof`, as the parser scans them."""
    return _Parser(text).rest()


def _line_starts(text: str) -> list[int]:
    """The offset of each line's first character."""
    return [0, *(m.end() for m in re.finditer("\n", text))]


def _position(starts: list[int], offset: int) -> tuple[int, int]:
    """The 1-based line and column of `offset`, given `_line_starts`."""
    line = bisect_right(starts, offset)
    return line, offset - starts[line - 1] + 1


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.starts = _line_starts(text)
        self.end = 0  # the offset just past the current token
        self.steps: dict[str, UnitOperation] = {}  # step text -> its parse
        self.lex()

    def lex(self) -> _Token:
        """Scan the token after the current one and make it current."""
        m = _TOKEN_RE.match(self.text, self.end)
        kind, value, end = m.lastgroup, m[m.lastgroup], m.end()
        offset = end - len(value)  # the token ends the match
        if kind == "string":
            value = _ESCAPE_RE.sub(lambda e: ESCAPES.get(e[1], e[1]), value[1:-1])
        elif kind == "bad":
            message = "unterminated string" if value == '"' else f"unexpected character {value!r}"
            raise ParseError(message, *_position(self.starts, offset))
        self.end, self.tok = end, (kind, value, offset)
        return self.tok

    def rest(self) -> list[_Token]:
        """The current token and every one after it, through `eof`."""
        toks = [self.tok]
        while toks[-1][0] != "eof":
            toks.append(self.lex())
        return toks

    def line(self, tok: _Token) -> int:
        return bisect_right(self.starts, tok[2])

    def next(self) -> _Token:
        tok = self.tok
        self.lex()
        return tok

    def fail(self, message: str, tok: _Token | None = None, code: str = "syntax") -> NoReturn:
        raise ParseError(message, *_position(self.starts, (tok or self.tok)[2]), code)

    def number(self, tok: _Token, scale: float = 1.0) -> float:
        """The value of a number token, times a unit's scale; a value too
        large for a float is an error at the token."""
        value = float(tok[1]) * scale
        if not math.isfinite(value):
            self.fail(f"number {tok[1]!r} is out of range", tok)
        return value

    def expect(self, kind: str, text: str | None = None) -> _Token:
        tok = self.tok
        if tok[0] != kind or (text is not None and tok[1] != text):
            want = text if text is not None else kind
            got = tok[1] if tok[0] != "eof" else "end of input"
            self.fail(f"expected {want!r}, got {got!r}")
        self.lex()
        return tok

    # --- grammar ---

    def program(self) -> ChemProgram:
        self.expect("ident", "procedure")
        name = self.expect("string")[1]
        self.expect("punct", "{")
        reagents: list[ReagentDecl] = []
        hardware: list[HardwareReq] = []
        steps: list[UnitOperation] = []
        metadata: dict[str, str] = {}
        seen: set[str] = set()
        while self.tok[1] != "}":
            kind, section, _ = self.tok
            if kind != "ident" or section not in ("reagents", "hardware", "steps", "meta"):
                self.fail("expected a section: reagents, hardware, steps or meta")
            if section in seen:
                self.fail(f"duplicate section {section!r}")
            seen.add(section)
            self.next()
            self.expect("punct", "{")
            names: set[str] = set()  # the names this section has declared
            if section == "reagents":
                while self.tok[1] != "}":
                    reagents.append(self.reagent_decl(names))
            elif section == "hardware":
                while self.tok[1] != "}":
                    hardware.append(self.hardware_req(names))
            elif section == "steps":
                while self.tok[1] != "}":
                    steps.append(self.step())
            else:
                while self.tok[1] != "}":
                    key = self.expect("ident")
                    if key[1] in metadata:
                        self.fail(f"duplicate meta key {key[1]!r}", key)
                    self.expect("punct", "=")
                    metadata[key[1]] = self.expect("string")[1]
            self.expect("punct", "}")
        close = self.expect("punct", "}")
        if self.tok[0] != "eof":
            self.fail("trailing input after program")
        if not steps:
            self.fail("program has no steps", close)
        self._check_references(reagents, hardware, steps)
        return ChemProgram(name, reagents, hardware, steps, metadata)

    def reagent_decl(self, names: set[str]) -> ReagentDecl:
        name = self.expect("ident")
        if name[1] in names:
            self.fail(f"duplicate reagent {name[1]!r}", name, code="duplicate_reagent")
        names.add(name[1])
        self.expect("punct", ":")
        sp = self.expect("ident")
        if sp[1] != "sp":
            self.fail("expected species tag 'sp:'", sp)
        self.expect("punct", ":")
        species = self.expect("ident")[1]
        amount = self.quantity(allowed=("mol", "g", "mL"))
        if amount.value <= 0:
            self.fail("reagent amount must be positive", name)
        self.expect("punct", "@")
        source = self.expect("ident")[1]
        role = self.expect("ident")
        if role[1] not in ROLES:
            self.fail(f"unknown role {role[1]!r} (expected one of {', '.join(ROLES)})", role)
        return ReagentDecl(name[1], species, amount, source, role[1], line=self.line(name))

    def quantity(self, allowed: tuple[str, ...]) -> Quantity:
        num = self.expect("number")
        unit = self.expect("ident")
        if unit[1] not in UNITS:
            self.fail(f"unknown unit {unit[1]!r}", unit)
        base, scale = UNITS[unit[1]]
        if base not in allowed:
            self.fail(f"expected a quantity in {'/'.join(allowed)}", unit)
        return Quantity(self.number(num, scale), base)

    def hardware_req(self, names: set[str]) -> HardwareReq:
        vessel = self.expect("ident")
        if vessel[1] in names:
            self.fail(f"duplicate hardware entry {vessel[1]!r}", vessel)
        names.add(vessel[1])
        self.expect("punct", ":")
        kind = self.expect("ident")[1]
        return HardwareReq(vessel[1], kind, line=self.line(vessel))

    def step(self) -> UnitOperation:
        m = _STEP_RE.match(self.text, self.tok[2])
        known = self.steps.get(m[0]) if m else None
        if known is not None:  # parsed before: that step on this line, params shared
            op = object.__new__(UnitOperation)
            settle(op, "kind", known.kind)
            settle(op, "params", known.params)
            settle(op, "line", self.line(self.tok))
            self.end = m.end()
            self.lex()
            return op
        name = self.expect("ident")
        kind = _OP_KINDS.get(name[1])
        if kind is None:
            self.fail(f"unknown step kind {name[1]!r}", name, code="unknown_step_kind")
        self.expect("punct", "(")
        params: dict[str, ParamValue] = {}
        while self.tok[1] != ")":
            if params:
                self.expect("punct", ",")
            key = self.expect("ident")
            if key[1] in params:
                self.fail(f"duplicate parameter {key[1]!r}", key)
            self.expect("punct", "=")
            params[key[1]] = self.param_value(key[1])
        self.expect("punct", ")")
        spec = OP_SPECS[kind]
        for key in params:
            if key not in spec.required and key not in spec.optional and key != "reaction_step":
                self.fail(f"unknown parameter {key!r} for {kind.value}", name)
        op = UnitOperation(kind, params, line=self.line(name))
        if m:
            self.steps[m[0]] = op
        return op

    def param_value(self, key: str) -> ParamValue:
        tok = self.next()
        value: ParamValue
        if tok[0] == "number":
            nxt = self.tok
            if nxt[0] == "ident" and nxt[1] in UNITS:
                self.next()
                base, scale = UNITS[nxt[1]]
                value = Quantity(self.number(tok, scale), base)
            elif nxt[0] == "ident":
                self.fail(f"unknown unit {nxt[1]!r}", nxt)
            else:
                raw = self.number(tok)
                value = int(raw) if raw == int(raw) else raw
        elif tok[0] == "ident" or tok[0] == "string":
            value = tok[1]
        else:
            self.fail("expected a parameter value", tok)
        dims = PARAM_UNITS.get(key)
        if dims is not None and (not isinstance(value, Quantity) or value.unit not in dims):
            self.fail(f"parameter {key!r} takes a quantity in {'/'.join(dims)}", tok)
        if key == "reaction_step" and not isinstance(value, int):
            self.fail("reaction_step takes a bare integer", tok)
        if key in _NAME_PARAMS and not (tok[0] == "ident" or tok[0] == "string" and IDENT_RE.fullmatch(value)):
            self.fail(f"parameter {key!r} takes an identifier", tok)
        return value

    def _check_references(self, reagents: list[ReagentDecl], hardware: list[HardwareReq],
                          steps: list[UnitOperation]) -> None:
        declared = {d.name for d in reagents}
        known = {h.vessel for h in hardware} | set(BUILTIN_VESSELS)
        last_marker = 0
        for op in steps:
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
            for v in op.vessels():
                if v not in known:
                    hardware.append(HardwareReq(v, "any", line=op.line))
                    known.add(v)


def parse_program(text: str) -> ChemProgram:
    """Parse DSL text into a `ChemProgram`; raises `ParseError` on bad input."""
    parser = _Parser(text)
    try:
        return parser.program()
    except ParseError as exc:
        error = exc
    parser.rest()  # a lexical error anywhere comes before any other error
    raise error
