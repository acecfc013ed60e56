"""The DSL scanner against the char-by-char tokenizer it replaced: the same
tokens, or the same `ParseError` at the same line and column, on seeded
mutations of program texts. The scanner's tokens carry offsets; each is
placed at a line and column by the parser's own helper before comparing.
The scanner gives true positions where the reference does not: the
end-of-input column after a trailing comment with no final newline, and
every line after an escaped newline in a string."""

import pytest

from chemvm.chemlang import ParseError, parse_program
from chemvm.chemlang.parser import _line_starts, _position, _tokenize

from _support import mutated_texts, reference_tokenize


def _placed(text):
    """`_tokenize`'s tokens as (kind, value, line, col)."""
    starts = _line_starts(text)
    return [(kind, value, *_position(starts, offset)) for kind, value, offset in _tokenize(text)]


def _scan(tokenize, text):
    try:
        return tokenize(text)
    except ParseError as exc:
        return ("error", exc.message, exc.line, exc.col)


def _trailing_comment_column(text, want, got) -> bool:
    """Whether `got` differs from `want` only in the end-of-input column,
    which the reference leaves at the `#` of a comment on the last line."""
    if not (isinstance(want, list) and isinstance(got, list) and want[:-1] == got[:-1]):
        return False
    last_line = text.rsplit("\n", 1)[-1]
    (*_, want_col), (*_, got_col) = want[-1], got[-1]
    return last_line[want_col - 1] == "#" and got_col == len(last_line) + 1


def test_scanner_agrees_with_reference_on_mutated_texts():
    trailing, errors, differ = 0, 0, []
    for text in mutated_texts(seed=0, count=10_000):
        want, got = _scan(reference_tokenize, text), _scan(_placed, text)
        if got == want:
            errors += isinstance(got, tuple)
        elif _trailing_comment_column(text, want, got):
            trailing += 1
        else:
            differ.append(text)
    assert differ == []
    # the texts reach scan errors, clean scans and the one difference
    assert 500 < errors < 5_000 and trailing > 0


@pytest.mark.parametrize("text", [
    'procedure "a\\q\\\\" {\r\n\tsteps{clean(vessel=A)}}',
    "procedure \"p\" { steps { heat_stir(vessel=A, temp=-1.5e+2 C, time=.5 h) } }",
    "-1.-.5 1e 1e-2.3 - .",
    "# comment\n",
    "",
])
def test_scanner_agrees_with_reference_on_edge_cases(text):
    assert _scan(_placed, text) == _scan(reference_tokenize, text)


def test_end_of_input_column_after_trailing_comment():
    text = 'procedure "p" {\n  steps {  # cut short'
    assert reference_tokenize(text)[-1] == ("eof", "", 2, 12)
    assert _placed(text)[-1] == ("eof", "", 2, 23)
    with pytest.raises(ParseError, match="got 'end of input'") as exc:
        parse_program(text)
    assert (exc.value.line, exc.value.col) == (2, 23)


def test_escaped_newline_in_a_string_ends_a_line():
    text = 'procedure "a\\\nb" {\n  steps { clean(vessel=A) }\n}\n'
    assert [(value, line, col) for _, value, line, col in _placed(text)][:5] == [
        ("procedure", 1, 1), ("a\nb", 1, 11), ("{", 2, 4), ("steps", 3, 3), ("{", 3, 9)]
    # the reference stays one line short from the string on
    assert reference_tokenize(text)[2:4] == [("punct", "{", 1, 18), ("ident", "steps", 2, 3)]
    with pytest.raises(ParseError) as exc:
        parse_program('procedure "a\\\nb" {\n steps { nope() } }')
    assert str(exc.value) == "3:10: unknown step kind 'nope'"


@pytest.mark.parametrize("text, message, col", [
    ('procedure "p', "unterminated string", 11),
    ('procedure "p\n" {}', "unterminated string", 11),
    ('procedure "p\\', "unterminated string", 11),
    ("procedure - {}", "unexpected character '-'", 11),
    ("procedure . {}", "unexpected character '.'", 11),
    ("procedure \f {}", "unexpected character '\\x0c'", 11),
])
def test_scan_errors_point_at_the_offending_character(text, message, col):
    with pytest.raises(ParseError) as exc:
        _tokenize(text)
    assert (exc.value.message, exc.value.line, exc.value.col) == (message, 1, col)


def test_string_escapes():
    toks = _tokenize(r'"a\"b\\c\nd\te\qf"')
    assert toks[0][:2] == ("string", 'a"b\\c\nd\te' + "qf")
