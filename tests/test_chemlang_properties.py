"""Property tests for the program generators: formatting is a fixpoint, quoted
names and meta values survive it, and the step histogram obeys its counting
invariants on arbitrary generated programs."""

import random
from dataclasses import replace

from hypothesis import given, settings, strategies as st

from chemvm.chemlang import classify_steps, format_program, parse_program
from chemvm.chemlang.corpus import random_program, synthetic_program
from chemvm.chemlang.parser import IDENT_RE

from _support import category_totals, random_program_text

# text that needs quoting and escaping: quotes, backslashes, tabs, newlines,
# comment and punctuation characters, and any other character
_AWKWARD = st.text(st.sampled_from('"\\\t\n\r #{}=@ab_1-.') | st.characters(), max_size=12)


@settings(deadline=None, max_examples=120)
@given(st.integers(min_value=0, max_value=10_000), st.booleans())
def test_format_parse_fixpoint(seed, all_kinds):
    # random_program emits 8 op kinds; random_program_text all 14, with
    # optional parameters
    rng = random.Random(seed)
    prog = parse_program(random_program_text(rng, f"p{seed}")) if all_kinds \
        else random_program(rng)
    text = format_program(prog)
    assert format_program(parse_program(text)) == text


@settings(deadline=None, max_examples=60)
@given(st.integers(min_value=0, max_value=10_000), _AWKWARD,
       st.dictionaries(st.from_regex(IDENT_RE, fullmatch=True), _AWKWARD, max_size=3))
def test_quoted_name_and_meta_values_round_trip(seed, name, metadata):
    prog = replace(random_program(random.Random(seed)), name=name, metadata=metadata)
    text = format_program(prog)
    back = parse_program(text)
    assert (back.name, back.metadata) == (name, metadata)
    assert format_program(back) == text


def test_escapes_in_canonical_text():
    prog = replace(random_program(random.Random(0)), name='a "b" \\ c\td\ne',
                   metadata={"note": "\\\"", "x": "#"})
    text = format_program(prog)
    assert text.startswith('procedure "a \\"b\\" \\\\ c\\td\\ne" {\n')
    assert '    note = "\\\\\\""\n    x = "#"\n' in text
    back = parse_program(text)
    assert (back.name, back.metadata) == (prog.name, prog.metadata)


@settings(deadline=None, max_examples=60)
@given(st.integers(min_value=0, max_value=10_000))
def test_histogram_invariants(seed):
    prog = random_program(random.Random(seed))
    hist = classify_steps(prog)
    assert hist.cumulative == sorted(hist.cumulative)
    assert hist.cumulative[-1] == len(prog.steps)
    totals = category_totals(hist)
    composites = totals["Composite"]
    assert sum(totals.values()) - composites == len(prog.steps)
    assert hist.total_ops == len(prog.steps)


@settings(deadline=None, max_examples=20)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=2, max_value=20))
def test_synthetic_program_is_linear(k, t):
    hist = classify_steps(synthetic_program(k, t))
    assert hist.cumulative == [t * (i + 1) for i in range(k)]
