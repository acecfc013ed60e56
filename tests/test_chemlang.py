"""Parser, formatter, validator, and step-classification behaviour."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import chemvm
from chemvm.chemlang import (
    ChemProgram,
    OpKind,
    ParseError,
    Quantity,
    UnitOperation,
    classify_steps,
    format_program,
    parse_program,
    validate_program,
)

from chemvm.chemlang.corpus import synthetic_program
from chemvm.chemlang.validate import check_params
from chemvm.chempiler import build_default_graph, chempile
from chemvm.cstm import lower_program

from _support import FIXTURES, category_totals, fixture_text, undeclared_reagent_program


def test_parse_tiny_structure():
    prog = parse_program(fixture_text("tiny.chem"))
    assert prog.name == "tiny coupling"
    assert [(r.name, r.species, r.source_vessel, r.role) for r in prog.reagents] == [
        ("a", "a", "R1", "reagent"),
        ("b", "b", "R2", "reagent"),
    ]
    assert [(h.vessel, h.kind) for h in prog.hardware] == [
        ("RX1", "reactor"),
        ("F1", "filter"),
    ]
    kinds = [op.kind for op in prog.steps]
    assert kinds == [OpKind.ADD, OpKind.REACT_HOT, OpKind.TRANSFER, OpKind.FILTER]
    assert prog.steps[0].params["reaction_step"] == 1
    assert prog.steps[1].params["temp"] == Quantity(80.0, "C")
    assert prog.steps[1].params["time"] == Quantity(600.0, "s")
    assert prog.steps[2].params == {"from": "RX1", "to": "F1"}


def test_step_params_are_read_only():
    parsed = parse_program(fixture_text("tiny.chem")).steps[2]
    given = {"from": "RX1", "to": "F1"}
    built = UnitOperation(OpKind.TRANSFER, given)
    for op in (parsed, built):
        with pytest.raises(TypeError):
            op.params["to"] = "waste"
    # the step keeps a copy: changing the mapping it was built from does not reach it
    given["to"] = "waste"
    assert built.params == parsed.params == {"from": "RX1", "to": "F1"}


def test_quantities_normalise_to_canonical_units():
    src = """procedure "u" {
  reagents {
    a: sp:a 250 mmol @R1 reagent
  }
  hardware {
    RX1: reactor
  }
  steps {
    add(vessel=RX1, reagent=a, amount=250 mmol)
    heat_stir(vessel=RX1, temp=80 C, time=10 min)
    dry(vessel=RX1, time=2 h)
    chill(vessel=RX1, temp=-15 C, time=300 s)
  }
}
"""
    prog = parse_program(src)
    assert prog.reagents[0].amount == Quantity(0.25, "mol")
    assert prog.steps[0].params["amount"] == Quantity(0.25, "mol")
    assert prog.steps[1].params["time"] == Quantity(600.0, "s")
    assert prog.steps[2].params["time"] == Quantity(7200.0, "s")
    assert prog.steps[3].params["temp"] == Quantity(-15.0, "C")


def test_comments_are_ignored():
    src = fixture_text("tiny.chem")
    assert src.lstrip().startswith("#")
    stripped = "\n".join(
        line for line in src.splitlines() if not line.lstrip().startswith("#")
    )
    assert format_program(parse_program(src)) == format_program(parse_program(stripped))


@pytest.mark.parametrize(
    "name",
    [
        "tiny.chem",
        "atropine_3step.chem",
        "indole_1step.chem",
        "alkynol_1step.chem",
        "predicted.chem",
        "explore.chem",
        "norule.chem",
        "dec_3step.chem",
    ],
)
def test_format_parse_fixpoint(name):
    first = format_program(parse_program(fixture_text(name)))
    assert format_program(parse_program(first)) == first


@pytest.mark.parametrize(
    "src, message",
    [
        ('procedure "x" {\n  steps {\n    frobnicate(vessel=RX1)\n  }\n}\n',
         "unknown step kind 'frobnicate'"),
        ('procedure "x" {\n  steps {\n    add(vessel=RX1, reagent=a, amount=1 parsec)\n  }\n}\n',
         "unknown unit 'parsec'"),
        ('procedure "x" {\n  steps {\n    add(vessel=RX1\n  }\n}\n',
         "expected ','"),
        ('procedure "x" {\n  bogus {\n  }\n}\n',
         "expected a section"),
        ("", "expected 'procedure'"),
        ('procedure "x" {\n  steps {\n    heat_stir(vessel=RX1, temp=80 C, time=0 s)\n  }\n}\n',
         "time must be positive"),
    ],
)
def test_parse_errors(src, message):
    with pytest.raises(ParseError, match=message):
        parse_program(src)


@pytest.mark.parametrize(
    "src, col",
    [
        ('procedure "p" { steps { clean(vessel=A, reaction_step=1e999) } }', 55),
        ('procedure "p" { reagents { a: sp:a 1e999 mol @R1 reagent } '
         'steps { add(vessel=A, reagent=a) } }', 36),
        ('procedure "p" { reagents { a: sp:a 1 mol @R1 reagent } '
         'steps { add(vessel=A, reagent=a, amount=1e999 mol) } }', 96),
        # finite as written, infinite once scaled into seconds
        ('procedure "p" { reagents { a: sp:a 1 mol @R1 reagent } '
         'steps { react_hot(vessel=A, reagent=a, temp=80 C, time=1e306 h) } }', 111),
    ],
)
def test_number_too_large_for_a_float_is_a_parse_error(src, col):
    with pytest.raises(ParseError, match="out of range") as info:
        parse_program(src)
    assert (info.value.line, info.value.col) == (1, col)


_STEP = '  steps {\n    clean(vessel=A)\n  }\n'


@pytest.mark.parametrize(
    "body, message, line, col",
    [
        (_STEP + _STEP, "duplicate section 'steps'", 5, 3),
        (_STEP + '  meta {\n    target = "t"\n    target = "u"\n  }\n',
         "duplicate meta key 'target'", 7, 5),
        ('  reagents {\n    a: sp:a 1 mol @R1 reagent\n    a: sp:b 1 mol @R2 reagent\n  }\n'
         + _STEP, "duplicate reagent 'a'", 4, 5),
        ('  hardware {\n    RX1: reactor\n    RX1: filter\n  }\n' + _STEP,
         "duplicate hardware entry 'RX1'", 4, 5),
        ('  steps {\n    clean(vessel=A, vessel=B)\n  }\n',
         "duplicate parameter 'vessel'", 3, 21),
        ('  steps {\n  }\n', "program has no steps", 4, 1),
        ('  steps {\n    heat_stir(vessel=A, temp=80, time=60 s)\n  }\n',
         "parameter 'temp' takes a quantity in C", 3, 30),
        ('  steps {\n    clean(vessel=A, reaction_step=1.5)\n  }\n',
         "reaction_step takes a bare integer", 3, 35),
        ('  steps {\n    clean(vessel=A, reaction_step=0)\n  }\n',
         "reaction_step must be a positive integer", 3, 1),
        ('  steps {\n    clean(vessel=A, reaction_step=2)\n'
         '    clean(vessel=A, reaction_step=1)\n  }\n',
         "reaction_step markers must be non-decreasing", 4, 1),
        ('  reagents {\n    a: sp:a 1 mol @R1 reagent\n  }\n'
         '  steps {\n    add(vessel=A, reagent=a, amount=0 mol)\n  }\n',
         "amount must be positive", 6, 1),
        ('  reagents {\n    a: sp:a 1 C @R1 reagent\n  }\n' + _STEP,
         "expected a quantity in mol/g/mL", 3, 15),
    ],
)
def test_parse_error_positions(body, message, line, col):
    with pytest.raises(ParseError) as info:
        parse_program('procedure "x" {\n' + body + '}\n')
    assert (info.value.message, info.value.line, info.value.col) == (message, line, col)


_CLEAN = "    clean(vessel=A)\n"


@pytest.mark.parametrize(
    "lines, message, line, col",
    [
        # a syntax error on line 3, a bad character on line 14
        (["    clean(vessel=A B)\n", *[_CLEAN] * 10, "    clean(vessel=A$)\n"],
         "unexpected character '$'", 14, 19),
        # the parser meets the first of two bad characters itself
        (["    clean(vessel=A$)\n", _CLEAN, "    clean(vessel=A%)\n"],
         "unexpected character '$'", 3, 19),
        (["    clean(vessel=A B)\n", *[_CLEAN] * 10, '  }\n  meta {\n    target = "t\n'],
         "unterminated string", 16, 14),
    ],
)
def test_a_lexical_error_anywhere_comes_first(lines, message, line, col):
    with pytest.raises(ParseError) as info:
        parse_program('procedure "x" {\n  steps {\n' + "".join(lines) + "  }\n}\n")
    assert (info.value.message, info.value.line, info.value.col) == (message, line, col)


def test_one_step_text_on_three_lines_gives_three_ops():
    text = 'procedure "x" {\n  steps {\n' + "    clean(vessel=A, reaction_step=1)\n" * 3 + "  }\n}\n"
    steps = parse_program(text).steps
    assert [op.line for op in steps] == [3, 4, 5]
    assert steps[0].params == steps[1].params == steps[2].params == {"vessel": "A", "reaction_step": 1}
    assert steps[0] is not steps[1]
    # a repeat shares its first parse's read-only params instead of copying them
    assert steps[1].params is steps[0].params and steps[2].params is steps[0].params


def test_a_malformed_copy_of_a_repeated_step_is_the_error():
    hot = "    heat_stir(vessel=A, temp=80 C, time=60 s)\n"
    with pytest.raises(ParseError) as info:
        parse_program('procedure "x" {\n  steps {\n' + hot + hot
                      + "    heat_stir(vessel=A, temp=80 C, time=60 s, temp=80 C)\n" + hot + "  }\n}\n")
    assert str(info.value) == "5:47: duplicate parameter 'temp'"


_HOT = "heat_stir(vessel=A, temp=80 C, time=60 s)"


@pytest.mark.parametrize(
    "variant",
    [
        "heat_stir(vessel=A,\n      temp=80 C, time=60 s)",
        "heat_stir(vessel=A,  # hot\n      temp=80 C, time=60 s)",
        'heat_stir(vessel="A", temp=80 C, time=60 s)',
        "heat_stir (vessel=A, temp=80 C, time=60 s)",
    ],
)
def test_a_step_written_otherwise_equals_its_one_line_form(variant):
    text = f'procedure "x" {{\n  steps {{\n    {_HOT}\n    {variant}\n    {variant}\n    {_HOT}\n  }}\n}}\n'
    steps = parse_program(text).steps
    assert all(op == steps[0] for op in steps)
    span = variant.count("\n") + 1
    assert [op.line for op in steps] == [3, 4, 4 + span, 4 + 2 * span]


def test_a_quoted_name_must_be_an_identifier():
    # a vessel written as "my flask" would reach the canonical text as an
    # unquoted hardware entry that does not parse again
    with pytest.raises(ParseError) as info:
        parse_program('procedure "p" { steps { clean(vessel="my flask") } }')
    assert str(info.value) == "1:38: parameter 'vessel' takes an identifier"
    prog = parse_program('procedure "p" { steps { clean(vessel="RX1") } }')
    assert prog.steps[0].params["vessel"] == "RX1"
    assert "    clean(vessel=RX1)\n" in format_program(prog)


def test_a_value_that_is_no_identifier_is_written_quoted():
    # only a program built in code can hold one; its text keeps the value
    # one token, so reading it back names the parameter at fault
    step = UnitOperation(OpKind.CLEAN, {"vessel": 'my "big" flask'})
    text = format_program(ChemProgram("p", [], [], [step]))
    assert '    clean(vessel="my \\"big\\" flask")\n' in text
    with pytest.raises(ParseError, match="parameter 'vessel' takes an identifier"):
        parse_program(text)


def test_a_bool_parameter_has_no_canonical_text():
    step = UnitOperation(OpKind.CLEAN, {"vessel": "A", "reaction_step": True})
    with pytest.raises(TypeError, match="bool is not a quantity"):
        format_program(ChemProgram("p", [], [], [step]))


def test_a_parameter_set_to_none_is_not_given():
    # a step built in code may set an optional parameter to None; every tool
    # reads it as not given, and its text leaves it out
    graph = build_default_graph()
    step = UnitOperation(OpKind.CLEAN, {"vessel": "RX1", "solvent": None})
    prog = ChemProgram("p", [], [], [step])
    text = format_program(prog)
    assert "    clean(vessel=RX1)\n" in text
    again = parse_program(text)
    assert check_params(prog) == check_params(again) == []
    assert validate_program(prog, graph) == validate_program(again, graph)
    assert chempile(prog, graph).feasible and chempile(again, graph).feasible
    # a dry step without a species dries off the solvents into waste
    solvent = parse_program('procedure "p" {\n  reagents {\n    w: sp:w 1 mol @R1 solvent\n'
                            '  }\n  steps {\n    add(vessel=RX1, reagent=w)\n  }\n}\n')
    dry = UnitOperation(OpKind.DRY, {"vessel": "RX1", "time": Quantity(60.0, "s"),
                                     "species": None, "to": None})
    prog = ChemProgram("p", solvent.reagents, solvent.hardware, [*solvent.steps, dry])
    again = parse_program(format_program(prog))
    assert lower_program(prog).ops == lower_program(again).ops
    assert lower_program(prog).ops[1][1].species == "solvents"


def test_a_required_parameter_set_to_none_is_missing():
    prog = ChemProgram("p", [], [], [UnitOperation(OpKind.CLEAN, {"vessel": None})])
    text = format_program(prog)
    assert "    clean()\n" in text
    again = parse_program(text)
    for p in (prog, again):
        assert [(f.code, f.message) for f in check_params(p)] == [
            ("missing_param", "clean requires parameter 'vessel'")]
        assert lower_program(p).error.endswith("clean requires parameter 'vessel'")


def test_quantity_takes_base_units_only():
    with pytest.raises(ValueError, match="not a base unit: 'h'"):
        Quantity(1.0, "h")


@pytest.mark.parametrize("args", [(0,), (1, 0)])
def test_synthetic_program_needs_a_stage_and_an_op(args):
    with pytest.raises(ValueError, match="reaction_steps and ops_per_step must be >= 1"):
        synthetic_program(*args)


GEN_CORPUS = FIXTURES.parent / "scripts" / "gen_corpus.py"


def _gen_corpus(*args: str):
    env = {**os.environ, "PYTHONPATH": str(Path(chemvm.__file__).parents[1])}
    return subprocess.run([sys.executable, str(GEN_CORPUS), *args],
                          capture_output=True, text=True, env=env)


def test_gen_corpus_writes_one_program_per_chain_length(tmp_path):
    out = _gen_corpus("--out-dir", str(tmp_path / "c"), "--max-steps", "2", "--ops-per-step", "3")
    paths = [tmp_path / "c" / f"synthetic_0{k}.chem" for k in (1, 2)]
    assert (out.returncode, out.stdout, out.stderr) == (0, "".join(f"{p}\n" for p in paths), "")
    assert [len(parse_program(p.read_text(encoding="utf-8")).steps) for p in paths] == [3, 6]


def test_gen_corpus_rejects_an_empty_step_and_writes_nothing(tmp_path):
    # exit 2 and one error line, as `chemvm` does, not a traceback
    out = _gen_corpus("--out-dir", str(tmp_path / "c"), "--ops-per-step", "0")
    assert (out.returncode, out.stdout, out.stderr) == \
        (2, "", "error: reaction_steps and ops_per_step must be >= 1\n")
    assert not (tmp_path / "c").exists()


@pytest.mark.parametrize("steps", ["0", "-3"])
def test_gen_corpus_rejects_no_chain_and_writes_nothing(tmp_path, steps):
    out = _gen_corpus("--out-dir", str(tmp_path / "c"), "--max-steps", steps)
    assert (out.returncode, out.stdout, out.stderr) == \
        (2, "", "error: max_steps must be an integer >= 1\n")
    assert not (tmp_path / "c").exists()


def test_an_unexpected_string_is_quoted_unescaped():
    with pytest.raises(ParseError) as info:
        parse_program(r'procedure "p" { steps { "x\ty" } }')
    assert str(info.value) == "1:25: expected 'ident', got 'x\\ty'"


def _codes(report):
    return [f.code for f in report.findings]


def test_validate_clean_fixture(default_graph):
    report = validate_program(parse_program(fixture_text("atropine_3step.chem")), default_graph)
    assert report.ok
    assert report.findings == ()


def test_validate_missing_param(default_graph):
    prog = parse_program('procedure "x" {\n  steps {\n    heat_stir(vessel=RX1, temp=80 C)\n  }\n}\n')
    report = validate_program(prog, default_graph)
    assert _codes(report) == ["missing_param"]
    assert "requires parameter 'time'" in report.findings[0].message


def test_validate_undeclared_reagent_built_program(default_graph):
    report = validate_program(undeclared_reagent_program(), default_graph)
    assert [f.as_dict() for f in report.findings] == [{
        "code": "undeclared_reference",
        "message": "step references undeclared reagent 'zz'",
        "where": "step 2 (add, line 0)",
    }]


def test_validate_temp_out_of_range(default_graph):
    prog = parse_program('procedure "x" {\n  steps {\n    heat_stir(vessel=RX1, temp=500 C, time=60 s)\n  }\n}\n')
    report = validate_program(prog, default_graph)
    assert _codes(report) == ["param_out_of_range"]
    assert "outside [-200, 400]" in report.findings[0].message


def test_validate_nonpositive_time_built_program(default_graph):
    prog = ChemProgram(name="x", reagents=[], hardware=[], steps=[
        UnitOperation(OpKind.HEAT_STIR, {
            "vessel": "RX1", "temp": Quantity(80.0, "C"), "time": Quantity(0.0, "s")}),
    ])
    report = validate_program(prog, default_graph)
    assert _codes(report) == ["param_out_of_range"]


def test_validate_missing_capability(default_graph):
    prog = parse_program(
        'procedure "x" {\n  hardware {\n    RX1: reactor\n  }\n'
        '  steps {\n    filter(vessel=RX1, species=a, to=product)\n  }\n}\n')
    report = validate_program(prog, default_graph)
    assert _codes(report) == ["missing_capability"]


def test_validate_unsatisfied_hardware_kind(default_graph):
    prog = parse_program(
        'procedure "x" {\n  hardware {\n    XX9: chromatograph\n    YY1: chromatograph\n  }\n'
        '  steps {\n    dry(vessel=F1, time=600 s)\n  }\n}\n')
    report = validate_program(prog, default_graph)
    assert _codes(report) == ["vessel_class_exhausted"]
    assert report.findings[0].message == "no free node of kind Chromatograph for YY1"
    assert report.findings[0].where == "YY1"


def test_validate_too_many_source_flasks(default_graph):
    decls = "".join(f"    r{i}: sp:r{i} 1 mol @R{i} reagent\n" for i in range(1, 6))
    prog = parse_program(
        'procedure "x" {\n  reagents {\n' + decls + '  }\n'
        '  steps {\n    add(vessel=RX1, reagent=r1, amount=1 mol)\n  }\n}\n')
    report = validate_program(prog, default_graph)
    assert _codes(report) == ["vessel_class_exhausted"]
    assert report.findings[0].message == "no free ReagentFlask for source vessel R5"
    assert report.findings[0].where == "R5"


def test_classify_tiny():
    hist = classify_steps(parse_program(fixture_text("tiny.chem")))
    assert hist.cumulative == [4]
    assert hist.per_reaction_step == [
        (1, {"AddMatter": 2, "SubtractMatter": 2, "AddEnergy": 0,
             "SubtractEnergy": 0, "Composite": 0}),
    ]
    assert hist.total_ops == 4


def test_classify_atropine_golden():
    hist = classify_steps(parse_program(fixture_text("atropine_3step.chem")))
    assert hist.cumulative == [20, 34, 47]
    assert category_totals(hist) == {
        "AddMatter": 16, "SubtractMatter": 12, "AddEnergy": 13,
        "SubtractEnergy": 6, "Composite": 4,
    }


@pytest.mark.parametrize(
    "name, totals",
    [
        ("indole_1step.chem",
         {"AddMatter": 8, "SubtractMatter": 4, "AddEnergy": 4,
          "SubtractEnergy": 2, "Composite": 3}),
        ("alkynol_1step.chem",
         {"AddMatter": 6, "SubtractMatter": 2, "AddEnergy": 4,
          "SubtractEnergy": 1, "Composite": 2}),
    ],
)
def test_classify_one_step_fixtures(name, totals):
    hist = classify_steps(parse_program(fixture_text(name)))
    assert len(hist.cumulative) == 1
    assert category_totals(hist) == totals
