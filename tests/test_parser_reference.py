"""`parse_program` against the parser it replaced (`_reference_parser`, which
tokenized the whole text up front and parsed every step through tokens):
the same program, with the same line on every reagent, hardware entry and
step, or the same `ParseError` at the same line and column, on every text.
The repeat-heavy texts reach the step memo: a step parsed once and met
again, a copy that differs from the first, and an error in a later copy."""

import random
import re

from chemvm.chemlang import ParseError, format_program, parse_program

import _reference_parser as reference
from _support import mutate, mutated_texts, program_texts

_STEPS_BLOCK = re.compile(r"(steps \{\n)(.*?)(\n  \})", re.DOTALL)
_MARKER = re.compile(r", reaction_step=(\d+)")


def _outcome(parse, text):
    try:
        prog = parse(text)
    except (ParseError, reference.ParseError) as exc:
        return ("error", exc.message, exc.code, exc.line, exc.col)
    return (format_program(prog), prog.metadata,
            [d.line for d in prog.reagents], [h.line for h in prog.hardware],
            [(op.line, op.kind, dict(op.params)) for op in prog.steps])


def _repeated(rng: random.Random, text: str) -> tuple[str, int]:
    """`text` with its steps block written three times over, each later copy
    with its `reaction_step` markers dropped or moved past the earlier
    copies', and the line on which the second copy starts."""
    m = _STEPS_BLOCK.search(text)
    body = m[2]
    top = max((int(n) for n in _MARKER.findall(body)), default=0)
    copies = [body]
    for k in (1, 2):
        if rng.random() < 0.5:
            copies.append(_MARKER.sub("", body))
        else:
            copies.append(_MARKER.sub(lambda n: f", reaction_step={int(n[1]) + k * top}", body))
    second = text[:m.end(1)].count("\n") + body.count("\n") + 2
    return text[:m.start(2)] + "\n".join(copies) + text[m.end(2):], second


def _repeat_heavy_texts(seed: int, count: int) -> list[tuple[str, int]]:
    rng = random.Random(seed)
    bases = [_repeated(rng, text) for text in program_texts()]
    mutated = []
    for _ in range(count):
        text, second = rng.choice(bases)
        mutated.append((mutate(rng, text), second))
    return bases + mutated


def test_parser_agrees_with_reference_on_mutated_texts():
    texts = mutated_texts(seed=0, count=10_000) + program_texts()
    differ = [text for text in texts
              if _outcome(parse_program, text) != _outcome(reference.parse_program, text)]
    assert differ == []


def test_parser_agrees_with_reference_on_repeated_steps():
    parsed, later_errors, differ = 0, 0, []
    for text, second in _repeat_heavy_texts(seed=1, count=2_500):
        got = _outcome(parse_program, text)
        if got != _outcome(reference.parse_program, text):
            differ.append(text)
        elif got[0] == "error":
            later_errors += got[3] >= second
        else:
            parsed += 1
    assert differ == []
    # most texts parse, and errors are reached in the repeated copies
    assert parsed > 500 and later_errors > 300
