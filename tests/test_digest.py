"""Byte identity of the program's outputs: the `scripts/digest_outputs.py`
listing, regenerated, against the committed `tests/data/digest_outputs.txt`.
A change that alters outputs on purpose regenerates the listing,

    PYTHONPATH=src python3 scripts/digest_outputs.py > tests/data/digest_outputs.txt

and says which lines changed and why."""

import contextlib
import importlib.util
import io
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LISTING = ROOT / "tests" / "data" / "digest_outputs.txt"


def _regenerate() -> list[str]:
    spec = importlib.util.spec_from_file_location(
        "digest_outputs", ROOT / "scripts" / "digest_outputs.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        script.main()
    return out.getvalue().splitlines()


def test_digest_listing_unchanged():
    got = _regenerate()
    want = LISTING.read_text(encoding="utf-8").splitlines()
    for number, (g, w) in enumerate(zip(got, want), start=1):
        assert g == w, f"line {number} differs:\n  now:       {g}\n  committed: {w}"
    assert len(got) == len(want), (
        f"{len(got)} lines now, {len(want)} committed; first unmatched: "
        f"{(got + want)[min(len(got), len(want))]}")
