"""Outputs do not depend on the string hash seed: a sample of the digest
listing's lines, computed in fresh interpreters under two `PYTHONHASHSEED`
values, comes out the same and matches the committed listing. An output
that picked up a set's iteration order would differ between the two."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LISTING = ROOT / "tests" / "data" / "digest_outputs.txt"

# fixture traces in every arm and a plan, criterion-05 lines and one mc
# line, named and hashed as scripts/digest_outputs.py names and hashes them
SAMPLE = """
import importlib.util, random, sys
spec = importlib.util.spec_from_file_location("digest_outputs", sys.argv[1])
d = importlib.util.module_from_spec(spec)
spec.loader.exec_module(d)
for name in ("atropine_3step.chem", "dec_3step.chem", "explore.chem"):
    for arm in d.FIXTURE_ARMS:
        d.digest(f"fixture/{name}/{arm}", d.fixture_trace(name, arm).to_jsonl())
    d.digest(f"fixture/{name}/plan/default", d.fixture_plan(name, "default").to_json())
db = d.load_rules(d.FIXTURES / "tiny.rules")
graph = d.build_default_graph()
for seed in range(4):
    prog = d.random_program(random.Random(seed))
    d.digest(f"c05/{seed}/validate", d.validate_program(prog, graph).to_json())
    plan = d.chempile(prog, graph)
    d.digest(f"c05/{seed}/compile", plan.to_json())
    d.digest(f"c05/{seed}/run/10000", d.run(prog, db, seed=seed).to_jsonl())
    d.digest(f"c05/{seed}/execute_plan/10000",
             d.execute_plan(plan, db, seed=seed).to_jsonl())
    d.digest(f"c05/{seed}/dec/10000",
             d.run_with_dec(prog, db, eps=0.2, seed=seed).trace.to_jsonl())
name, config = d.mc_configs()[-1]
d.digest(f"mc/{name}/csv", d.mc_to_csv(d.monte_carlo(config)))
"""


def _sample(hash_seed: str) -> list[str]:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", SAMPLE, str(ROOT / "scripts" / "digest_outputs.py")],
        env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()


def test_digest_sample_is_independent_of_the_hash_seed():
    zero, other = _sample("0"), _sample("4242")
    assert len(zero) == 3 * 4 + 4 * 5 + 1
    assert zero == other
    committed = set(LISTING.read_text(encoding="utf-8").splitlines())
    assert [line for line in zero if line not in committed] == []
