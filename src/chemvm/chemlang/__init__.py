"""Synthesis DSL: parse, canonicalize, validate, classify, generate."""

from .ast import (
    AMBIENT_C,
    BUILTIN_VESSELS,
    OP_SPECS,
    ROLES,
    UNITS,
    ChemProgram,
    HardwareReq,
    OpKind,
    OpSpec,
    Quantity,
    ReagentDecl,
    UnitOperation,
)
from .classify import CATEGORIES, StepHistogram, classify_steps
from .corpus import random_program, synthetic_program
from .formatter import format_program
from .parser import ParseError, parse_program
from .validate import Finding, ValidationReport, validate_program

__all__ = [
    "AMBIENT_C",
    "BUILTIN_VESSELS",
    "CATEGORIES",
    "ChemProgram",
    "Finding",
    "HardwareReq",
    "OP_SPECS",
    "OpKind",
    "OpSpec",
    "ParseError",
    "Quantity",
    "ReagentDecl",
    "ROLES",
    "StepHistogram",
    "UNITS",
    "UnitOperation",
    "ValidationReport",
    "classify_steps",
    "format_program",
    "parse_program",
    "random_program",
    "synthetic_program",
    "validate_program",
]
