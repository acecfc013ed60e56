"""Shared helpers: fixture paths, the built-in rig's packaged file, and the
fixture programs' pinned outputs (their traces in each execution arm and
their compiled plans), a step histogram's per-category totals, a program
built in Python that names an undeclared reagent, seeded
rule-database generators, a brute-force reachability oracle the planner is
checked against, the whole-database scans the indexed matcher and planner
are checked against, the matcher without its memo and the repeating
questions the memoized one is checked on, the per-application promotion
`rules.apply_rule_events` is checked against, a seeded generator of
(program, rig) pairs for binding checks, the char-by-char tokenizer the
DSL scanner is checked against, with seeded mutations of program texts to
check it on, the unit-operation lowering that `cstm.expand_unit_op` is
checked against, the Monte Carlo kernel that `assembly.monte_carlo` is
checked against, with the configs to check it on, and the paired loop
that `dec.evaluate_correction` is checked against."""

from __future__ import annotations

import json
import math
import random
import re
from collections import deque
from dataclasses import replace
from pathlib import Path

import numpy as np

from chemvm import chempiler
from chemvm.assembly import MonteCarloConfig, loads_mc_config
from chemvm.chemlang import (
    AMBIENT_C, CATEGORIES, OP_SPECS, ChemProgram, OpKind, ParseError, Quantity, ReagentDecl,
    UnitOperation, format_program, parse_program,
)
from chemvm.chemlang.corpus import random_program
from chemvm.chempiler import (
    CompiledPlan, HardwareGraph, build_default_graph, chempile, execute_plan, loads_graph,
)
from chemvm.cstm import (
    AGITATE_S, CLEAN_CHARGE_MOL, DEFAULT_BUDGET, SEPARATE_CHARGE_MOL, SOAK_S, ExecutionTrace,
    MachineError, Primitive, run,
)
from chemvm.dec import DEFAULT_POLICY, CorrectionPolicy, run_with_dec, sign_test
from chemvm.rules import (
    PRESENCE_EPS, PROMOTION_THRESHOLD, STATUSES, RuleDatabase, RuleMatch, _inputs_present,
    limiting_extent, load_rules, loads_rules,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
# the built-in rig's file, packaged with chemvm
DEFAULT_RIG = Path(chempiler.__file__).with_name("default_rig.graph")


def fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


# fixture program -> (rule database, explore) it runs with in its pinned
# traces; `scripts/digest_outputs.py` lists their hashes as `fixture/...`
FIXTURE_RUNS = {
    "alkynol_1step.chem": ("default.rules", False),
    "atropine_3step.chem": ("default.rules", False),
    "dec_3step.chem": ("dec_chain.rules", False),
    "explore.chem": ("explore.rules", True),
    "indole_1step.chem": ("default.rules", False),
    "norule.chem": ("tiny.rules", False),
    "predicted.chem": ("predicted.rules", False),
    "tiny.chem": ("tiny.rules", False),
}
FIXTURE_ARMS = ("run", "execute_plan", "run_with_dec")
# every fixture program on the built-in rig, and tiny.chem on SMALL_RIG
FIXTURE_PLANS = [(name, "default") for name in FIXTURE_RUNS] + [("tiny.chem", "small")]

# A rig that cannot host tiny.chem: R1 is too small for its charge, there is
# no second flask, the reactor cannot react_hot, and F1 has no way to OUT.
SMALL_RIG = json.dumps({
    "nodes": [
        {"id": "R1", "kind": "ReagentFlask", "capacity": 0.5},
        {"id": "V1", "kind": "Valve"},
        {"id": "P1", "kind": "Pump", "capacity": 25.0},
        {"id": "RX1", "kind": "Reactor", "capabilities": ["heat_stir"]},
        {"id": "F1", "kind": "Filter", "capabilities": ["filter"]},
        {"id": "W", "kind": "Waste"},
        {"id": "OUT", "kind": "Product"},
    ],
    "edges": [["R1", "V1"], ["V1", "P1"], ["P1", "V1"], ["P1", "F1"],
              ["F1", "P1"], ["V1", "W"]],
})


def category_totals(hist) -> dict[str, int]:
    """A step histogram's count of each category over all reaction steps."""
    return {c: sum(counts[c] for _, counts in hist.per_reaction_step) for c in CATEGORIES}


def undeclared_reagent_program() -> ChemProgram:
    """tiny.chem with a second step that adds the undeclared reagent "zz",
    a program only Python can build: the parser rejects such text."""
    prog = parse_program(fixture_text("tiny.chem"))
    steps = list(prog.steps)
    steps.insert(1, UnitOperation(OpKind.ADD, {"vessel": "RX1", "reagent": "zz"}))
    return ChemProgram(prog.name, prog.reagents, prog.hardware, steps, prog.metadata)


def fixture_plan(name: str, rig: str) -> CompiledPlan:
    """A fixture program compiled on the built-in rig ("default") or on
    SMALL_RIG ("small")."""
    graph = build_default_graph() if rig == "default" else loads_graph(SMALL_RIG)
    return chempile(parse_program(fixture_text(name)), graph)


def fixture_trace(name: str, arm: str) -> ExecutionTrace:
    """The seed-0 trace of a fixture program in one execution arm: `run`,
    `execute_plan` on the built-in rig, or `run_with_dec` at eps 0.2."""
    rules_name, explore = FIXTURE_RUNS[name]
    prog = parse_program(fixture_text(name))
    db = load_rules(FIXTURES / rules_name)
    if arm == "run":
        return run(prog, db, seed=0, explore=explore)
    if arm == "execute_plan":
        return execute_plan(fixture_plan(name, "default"), db, seed=0, explore=explore)
    return run_with_dec(prog, db, eps=0.2, seed=0, explore=explore).trace


def random_db(seed: int) -> tuple[RuleDatabase, str, frozenset[str]]:
    """A small random rule database plus a target and a stock set.

    Every species weighs one unit of the same element, so any single-product
    rule is balanced. Rules get pairwise disjoint temperature windows so a
    program hitting one window can never trip another rule by accident.
    """
    rng = random.Random(seed)
    n_species = rng.randint(2, 6)
    ids = [f"s{i}" for i in range(n_species)]
    species = _unit_species(ids)
    n_rules = rng.randint(1, 5)
    rules = []
    for j in range(n_rules):
        inputs = rng.sample(ids, rng.randint(1, min(2, n_species)))
        outs = [s for s in ids if s not in inputs]
        if not outs:
            continue
        product = rng.choice(outs)
        rules.append({
            "id": f"r{j}",
            "reagent_pattern": {s: 1.0 for s in inputs},
            "process_window": {"temp_min": 20.0 * j + 40.0,
                               "temp_max": 20.0 * j + 50.0,
                               "duration_min": 1800.0, "duration_max": 7200.0},
            "products": {product: 1.0},
            "yield": 0.9,
            "epsilon": 0.05,
            "status": "characterised",
        })
    db = loads_rules(json.dumps({"species": species, "rules": rules}))
    target = rng.choice(ids)
    stock = frozenset(rng.sample(ids, rng.randint(1, n_species)))
    return db, target, stock


def min_applications(db: RuleDatabase, target: str, stock: frozenset[str]) -> int | None:
    """Fewest rule applications that put `target` in the available set, by
    breadth-first search over species subsets; None if no count does."""
    if target in stock:
        return 0
    seen = {stock}
    queue = deque([(stock, 0)])
    while queue:
        available, dist = queue.popleft()
        for rule in db.rules.values():
            if not set(rule.reagent_pattern) <= available:
                continue
            new = frozenset(available | set(rule.products))
            if target in new:
                return dist + 1
            if new not in seen:
                seen.add(new)
                queue.append((new, dist + 1))
    return None


def _unit_species(ids: list[str]) -> list[dict]:
    return [{"id": sid, "name": sid, "molar_mass": 10.0, "element_counts": {"U": 1}}
            for sid in ids]


def random_shared_db(seed: int) -> tuple[RuleDatabase, str, frozenset[str]]:
    """A larger random rule database (30-80 rules) whose rules share inputs
    from a small common pool, plus a target and a stock set that holds the
    common pool. Every species weighs one unit of the same element."""
    rng = random.Random(seed)
    ids = [f"s{i}" for i in range(rng.randint(8, 12))]
    common = ids[:3]
    rules = []
    for j in range(rng.randint(30, 80)):
        inputs = set(rng.sample(common, rng.randint(0, 2)))
        inputs |= set(rng.sample(ids, rng.randint(1, 2)))
        product = rng.choice([s for s in ids if s not in inputs])
        rules.append({
            "id": f"r{j:02d}",
            "reagent_pattern": {s: 1.0 for s in sorted(inputs)},
            "process_window": {"temp_min": 40.0, "temp_max": 50.0,
                               "duration_min": 1800.0, "duration_max": 7200.0},
            "products": {product: 1.0},
            "yield": 0.9,
            "epsilon": 0.05,
            "status": "characterised",
        })
    db = loads_rules(json.dumps({"species": _unit_species(ids), "rules": rules}))
    target = rng.choice(ids[3:])
    stock = frozenset(common + rng.sample(ids[3:], rng.randint(0, 2)))
    return db, target, stock


def plan_ids_linear(db: RuleDatabase, target: str, stock: frozenset[str],
                    max_depth: int) -> list[str] | None:
    """The rule ids `plan_pathway` should choose, by iterative deepening
    with every rule tried in id order at every node (no index, no shared
    set of expanded species sets); None when no sequence within
    `max_depth` makes the target."""
    if target in stock:
        return []
    rule_ids = sorted(db.rules)
    for depth in range(1, max_depth + 1):
        dead: set[tuple[frozenset[str], int]] = set()

        def dfs(available: frozenset[str], remaining: int) -> list[str] | None:
            if (available, remaining) in dead:
                return None
            for rid in rule_ids:
                rule = db.rules[rid]
                if not (set(rule.reagent_pattern) | set(rule.catalysts)) <= available:
                    continue
                new = available | set(rule.products)
                if new == available:
                    continue
                if target in new:
                    return [rid]
                if remaining > 1:
                    tail = dfs(new, remaining - 1)
                    if tail is not None:
                        return [rid] + tail
            dead.add((available, remaining))
            return None

        seq = dfs(stock, depth)
        if seq is not None:
            return seq
    return None


# Amounts a probe gives a species: absent, exactly at the presence threshold
# (still absent), the next float above it (present), and ordinary amounts.
_PROBE_AMOUNTS = (0.0, PRESENCE_EPS, math.nextafter(PRESENCE_EPS, 1.0))


def _random_rule(rng: random.Random, ids: list[str], rid: str) -> dict:
    """One rule over `ids`: 1-3 reagents, sometimes a catalyst, a priority
    of 0-2 and a process window that overlaps others on a coarse grid."""
    n_inputs, n_catalysts = rng.randint(1, 3), rng.choice((0, 0, 1))
    picked = rng.sample(ids, n_inputs + n_catalysts + 1)
    inputs, catalysts, product = picked[:n_inputs], picked[n_inputs:-1], picked[-1]
    temp_min = float(rng.randrange(20, 100, 10))
    duration_min = float(rng.choice((600, 1800, 3600)))
    out = {
        "id": rid,
        "reagent_pattern": {s: float(rng.choice((1, 2))) for s in inputs},
        "process_window": {"temp_min": temp_min,
                           "temp_max": temp_min + rng.choice((10.0, 30.0, 60.0)),
                           "duration_min": duration_min,
                           "duration_max": duration_min + rng.choice((1800.0, 5400.0))},
        "products": {product: 1.0},
        "yield": 0.9,
        "epsilon": 0.05,
        "status": rng.choice(STATUSES),
        "priority": rng.randint(0, 2),
    }
    if catalysts:
        out["catalysts"] = catalysts
    return out


def random_match_db(seed: int, n_probes: int = 40):
    """A random rule database of 50-500 rules with catalysts, priority ties,
    overlapping process windows and a few latent rules, plus `n_probes`
    (contents, conditions) pairs to match against it. Probe contents hold
    amounts at and just above the presence threshold and byproduct species
    the database does not know."""
    rng = random.Random(seed)
    ids = [f"s{i}" for i in range(rng.randint(6, 30))]
    n_rules = rng.randint(50, 500)
    rules = [_random_rule(rng, ids, f"r{j}") for j in rng.sample(range(10 * n_rules), n_rules)]
    latent = [_random_rule(rng, ids, f"l{j}") for j in range(rng.randint(1, 5))]
    db = loads_rules(json.dumps({"species": _unit_species(ids), "rules": rules,
                                 "latent": latent}))
    probes = []
    for _ in range(n_probes):
        contents = {s: rng.choice(_PROBE_AMOUNTS + (rng.uniform(0.01, 2.0),) * 3)
                    for s in rng.sample(ids, rng.randint(2, min(8, len(ids))))}
        contents[f"{rng.choice(rules)['id']}.byproduct"] = rng.uniform(0.01, 1.0)
        conditions = (rng.uniform(15.0, 170.0), rng.uniform(500.0, 9000.0))
        probes.append((contents, conditions))
    return db, probes


def random_memo_case(seed: int, n_questions: int = 60):
    """A small random rule database (2-25 rules over 5-9 species) and
    `n_questions` (contents, conditions) questions that repeat: each draws
    one of four species sets and one of four condition points, some on a
    window's edges, and gives the set's species fresh amounts just above
    `PRESENCE_EPS` or ordinary ones. Contents may also hold species at 0.0
    or exactly at the threshold, which count as absent, and a species the
    database does not know."""
    rng = random.Random(seed)
    ids = [f"s{i}" for i in range(rng.randint(5, 9))]
    rules = [_random_rule(rng, ids, f"r{j}") for j in range(rng.randint(2, 25))]
    db = loads_rules(json.dumps({"species": _unit_species(ids), "rules": rules}))
    temps = [r["process_window"][k] for r in rules for k in ("temp_min", "temp_max")]
    durations = [r["process_window"][k] for r in rules
                 for k in ("duration_min", "duration_max")]
    sets = [rng.sample(ids, rng.randint(1, min(5, len(ids)))) for _ in range(4)]
    points = [(rng.choice(temps + [rng.uniform(15.0, 170.0)]),
               rng.choice(durations + [rng.uniform(500.0, 9000.0)])) for _ in range(4)]
    questions = []
    for _ in range(n_questions):
        present = rng.choice(sets)
        contents = {s: rng.choice((math.nextafter(PRESENCE_EPS, 1.0), rng.uniform(0.01, 2.0)))
                    for s in present}
        for s in rng.sample(ids, 2):
            contents.setdefault(s, rng.choice((0.0, PRESENCE_EPS)))
        if rng.random() < 0.3:
            contents["unknown.byproduct"] = rng.uniform(0.01, 1.0)
        questions.append((contents, rng.choice(points)))
    return db, questions


def reference_match_rule(db: RuleDatabase, contents: dict[str, float],
                         conditions: tuple[float, float]) -> RuleMatch | None:
    """`rules.match_rule` as it was before it kept a memo: one pass over the
    rules filed under the present species on every call."""
    temp, duration = conditions
    best = None
    for rule in db._candidates(s for s, amount in contents.items() if amount > PRESENCE_EPS):
        if (best is None or (-rule.priority, rule.id) < (-best.priority, best.id)) \
                and rule.process_window.contains(temp, duration) \
                and _inputs_present(rule, contents):
            best = rule
    if best is None:
        return None
    rule = db.rules[best.id]
    return RuleMatch(rule, *limiting_extent(rule.reagent_pattern, contents))


def reference_apply_rule_events(db: RuleDatabase, events: list[dict]) -> RuleDatabase:
    """The database a run's rule events leave behind, made as runs made it
    before the machine counted applications itself: a plain copy of the
    database per event, each application counted from the copy before it.
    Checks each `applied` event's occurrences and status against that
    count."""
    for e in events:
        rid = e["rule_id"]
        rules, latent = dict(db.rules), dict(db.latent)
        if e["kind"] == "discovered":
            rules[rid] = replace(latent.pop(rid), status="novel", occurrences=0)
            log = {"event": "discovered", "rule": rid}
        else:
            rule = rules[rid]
            occurrences, status = rule.occurrences + 1, rule.status
            log = {"event": "occurrence", "rule": rid, "occurrences": occurrences}
            if status in ("predicted", "novel") and occurrences >= PROMOTION_THRESHOLD:
                log = {"event": "promoted", "rule": rid, "occurrences": occurrences,
                       "from": status}
                status = "characterised"
            assert (e["occurrences"], e["status_after"]) == (occurrences, status), e
            rules[rid] = replace(rule, occurrences=occurrences, status=status)
        db = RuleDatabase(dict(db.species), rules, latent, [*db.provenance, log])
    return db


def match_rule_linear(db: RuleDatabase, contents: dict[str, float],
                      conditions: tuple[float, float]) -> RuleMatch | None:
    """`match_rule` by a scan of every rule in the database."""
    temp, duration = conditions
    eligible = [rule for rule in db.rules.values()
                if all(contents.get(s, 0.0) > PRESENCE_EPS
                       for s in (*rule.reagent_pattern, *rule.catalysts))
                and rule.process_window.contains(temp, duration)]
    if not eligible:
        return None
    rule = min(eligible, key=lambda r: (-r.priority, r.id))
    return RuleMatch(rule, *limiting_extent(rule.reagent_pattern, contents))


# Vessel names the steps use: free names, and names of default-rig nodes.
VESSELS = ("A", "B", "C", "D", "RX1", "RV1", "SEP1", "F1", "CH1", "S1", "R1", "W")
SOURCES = ("R1", "R2", "R3", "R4", "R5", "SOLV", "X1")
KIND_WORDS = ("any", "reactor", "separator", "rotavap", "filter", "storage",
              "flask", "chromatograph", "Reactor", "Valve", "oven")
SINKS = ("product", "waste", "S1", "B", "F1")


# the built-in rig, read once: the output digest draws 10,000 rigs from it
_FULL_RIG = build_default_graph()


def random_rig(rng: random.Random) -> HardwareGraph:
    """A random subset of the default rig's nodes and the edges among them."""
    full = _FULL_RIG
    share = rng.choice((0.6, 0.9, 1.0))
    keep = {nid for nid in full.nodes if rng.random() < share}
    return HardwareGraph({nid: full.nodes[nid] for nid in sorted(keep)},
                         [(a, b) for a, b in full.edges if a in keep and b in keep])


def random_program_text(rng: random.Random, name: str) -> str:
    """A program whose vessels are partly declared, partly undeclared (the
    parser registers those as `any`), partly named after rig nodes, and
    which calls for station capabilities, wash solvent and flask charges."""
    reagents = [f"r{i}" for i in range(rng.randint(0, 6))]
    lines = [f'procedure "{name}" {{']
    if reagents:
        lines.append("  reagents {")
        for r in reagents:
            amount = rng.choice((0.5, 1, 200, 450))
            role = rng.choice(("reagent", "reagent", "solvent"))
            lines.append(f"    {r}: sp:{r} {amount} mol @{rng.choice(SOURCES)} {role}")
        lines.append("  }")
    declared = rng.sample(VESSELS, rng.randint(0, 4))
    if declared:
        lines.append("  hardware {")
        lines += [f"    {v}: {rng.choice(KIND_WORDS)}" for v in declared]
        lines.append("  }")
    lines.append("  steps {")
    for _ in range(rng.randint(1, 6)):
        v, to = rng.choice(VESSELS), rng.choice(SINKS)
        temp = rng.choice(("80 C", "80 C", "500 C"))
        ops = [
            f"heat_stir(vessel={v}, temp={temp}, time=60 s)",
            f"chill(vessel={v}, temp=0 C, time=60 s)",
            f"dry(vessel={v}, time=60 s)",
            f"evaporate(vessel={v}, temp=50 C, time=60 s)",
            f"distil(vessel={v}, species=x, temp=80 C, to={to})",
            f"sublime(vessel={v}, species=x, temp=80 C, to={to})",
            f"filter(vessel={v}, species=x, to={to})",
            f"crystallise(vessel={v}, temp=80 C, cool_to=0 C, species=x, to={to})",
            f"separate(vessel={v}, species=x, to={to})",
            f"clean(vessel={v})",
            f"transfer(from={v}, to={to})",
        ]
        if reagents:
            r = rng.choice(reagents)
            ops += [
                f"add(vessel={v}, reagent={r}, amount=0.1 mol)",
                f"react_hot(vessel={v}, reagent={r}, temp={temp}, time=60 s)",
                f"react_cold(vessel={v}, reagent={r}, temp=0 C, time=60 s)",
                f"separate(vessel={v}, species=x, to={to}, solvent={r})",
                f"clean(vessel={v}, solvent={r})",
            ]
        lines.append(f"    {rng.choice(ops)}")
    lines += ["  }", "}"]
    return "\n".join(lines) + "\n"


def random_binding_case(seed: int) -> tuple[ChemProgram, HardwareGraph]:
    rng = random.Random(seed)
    return parse_program(random_program_text(rng, f"p{seed}")), random_rig(rng)


# ---------------------------------------------------------------------------
# The DSL scanner's oracle and inputs

_REF_NUMBER_RE = re.compile(r"-?(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?")
_REF_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_REF_PUNCT = set("{}(),:=@")


def reference_tokenize(text: str) -> list[tuple[str, str, int, int]]:
    """The char-by-char tokenizer that `chemlang.parser._tokenize` replaced:
    (kind, text, line, col) tokens, or the same `ParseError`. It does not
    advance the column over a comment, so after a trailing comment with no
    final newline its end-of-input column is that of the `#`."""
    toks = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == '"':
            j = i + 1
            buf = []
            while j < n and text[j] != '"':
                if text[j] == "\n":
                    raise ParseError("unterminated string", line, col)
                if text[j] == "\\" and j + 1 < n:
                    esc = text[j + 1]
                    buf.append({"n": "\n", "t": "\t", '"': '"', "\\": "\\"}.get(esc, esc))
                    j += 2
                else:
                    buf.append(text[j])
                    j += 1
            if j >= n:
                raise ParseError("unterminated string", line, col)
            toks.append(("string", "".join(buf), line, col))
            col += j + 1 - i
            i = j + 1
            continue
        m = _REF_NUMBER_RE.match(text, i)
        if m and (ch.isdigit() or ch == "." or (ch == "-" and m.end() > i + 1)):
            toks.append(("number", m.group(0), line, col))
            col += m.end() - i
            i = m.end()
            continue
        m = _REF_IDENT_RE.match(text, i)
        if m:
            toks.append(("ident", m.group(0), line, col))
            col += m.end() - i
            i = m.end()
            continue
        if ch in _REF_PUNCT:
            toks.append(("punct", ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    toks.append(("eof", "", line, col))
    return toks


# what the mutations insert: the scanner's delimiters, escapes and signs,
# and a first character of each token kind
MUTATION_CHARS = '"\\#-.\n\t\r {}(),:=@_ae1'


def program_texts() -> list[str]:
    """The texts the mutations start from: the fixture programs, canonical
    texts of `random_program` seeds 0-19 and `random_program_text` seeds
    0-299."""
    texts = [path.read_text(encoding="utf-8") for path in sorted(FIXTURES.glob("*.chem"))]
    texts += [format_program(random_program(random.Random(seed))) for seed in range(20)]
    texts += [random_program_text(random.Random(seed), f"p{seed}") for seed in range(300)]
    return texts


def mutate(rng: random.Random, text: str) -> str:
    """`text` with one to three characters deleted, inserted, or swapped
    with their right neighbour, and one time in ten cut short."""
    if rng.random() < 0.1:
        text = text[:rng.randrange(len(text))]
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        op = rng.choice(("delete", "insert", "swap")) if len(chars) > 1 else "insert"
        if op == "insert":
            chars.insert(rng.randrange(len(chars) + 1), rng.choice(MUTATION_CHARS))
        elif op == "delete":
            del chars[rng.randrange(len(chars))]
        else:
            i = rng.randrange(len(chars) - 1)
            chars[i], chars[i + 1] = chars[i + 1], chars[i]
    return "".join(chars)


def mutated_texts(seed: int, count: int) -> list[str]:
    """`count` seeded mutations of `program_texts()`."""
    rng = random.Random(seed)
    texts = program_texts()
    return [mutate(rng, rng.choice(texts)) for _ in range(count)]


# ---------------------------------------------------------------------------
# The lowering's oracle

def _reference_qv(op, key: str) -> float | None:
    v = op.params.get(key)
    if v is None:
        return None
    return v.value if isinstance(v, Quantity) else float(v)


def reference_expand_unit_op(op, op_index: int, decls: dict[str, ReagentDecl]) -> list[Primitive]:
    """The lowering that `cstm.expand_unit_op` replaced, kept as its oracle.

    Lower one unit operation to its primitive sequence, whose codes are
    its `OP_SPECS` row's, drawing reagents from `decls` (reagent name ->
    declaration). Raises MachineError when the operation lacks a required
    parameter or names an undeclared reagent."""
    k = op.kind
    p = op.params
    where = f"step {op_index + 1} ({k.value}, line {op.line})"
    missing = OP_SPECS[k].required - p.keys()
    if missing:
        raise MachineError(f"{where}: {k.value} requires parameter {min(missing)!r}")
    amount = _reference_qv(op, "amount")
    temp = _reference_qv(op, "temp")
    duration = _reference_qv(op, "time")

    def prim(code, cell, **kw):
        return Primitive(code, cell, op_index, k, **kw)

    def draw(name: str, charge: float | None) -> Primitive:
        """AM of a declared reagent from its flask into the op's vessel."""
        decl = decls.get(name)
        if decl is None:
            raise MachineError(f"{where}: no reagent declaration {name!r}")
        return prim("AM", p["vessel"], ends=(decl.source_vessel, p["vessel"]),
                    reagent=decl, amount=charge)

    def charge_solvent(default: float) -> Primitive:
        """AM of the op's solvent, or of the shared reservoir when it names none."""
        solvent = p.get("solvent")
        charge = amount if amount is not None else default
        return draw(solvent, charge) if solvent else \
            prim("AM", p["vessel"], ends=(None, p["vessel"]), amount=charge)

    def take(cell: str, to: str, **kw) -> Primitive:
        """SM out of `cell` into vessel `to`."""
        return prim("SM", cell, ends=(cell, to), **kw)

    if k == OpKind.ADD:
        return [draw(p["reagent"], amount)]
    if k == OpKind.TRANSFER:
        return [
            take(p["from"], p["to"], transit=True, amount=amount),
            prim("AM", p["to"]),
        ]
    if k == OpKind.HEAT_STIR or k == OpKind.CHILL:
        code = "AE" if k == OpKind.HEAT_STIR else "SE"
        return [prim(code, p["vessel"], setpoint=temp, duration=duration)]
    if k == OpKind.REACT_HOT or k == OpKind.REACT_COLD:
        energy = "AE" if k == OpKind.REACT_HOT else "SE"
        return [
            draw(p["reagent"], amount),
            prim(energy, p["vessel"], setpoint=temp, duration=duration, expects_reaction=True),
        ]
    if k == OpKind.SEPARATE:
        return [
            charge_solvent(SEPARATE_CHARGE_MOL),
            prim("AE", p["vessel"], duration=duration if duration is not None else AGITATE_S),
            take(p["vessel"], p["to"], species=(p["species"],)),
        ]
    if k == OpKind.DRY or k == OpKind.EVAPORATE:
        selector = (p["species"],) if "species" in p else "solvents"
        return [
            prim("AE", p["vessel"], setpoint=temp, duration=duration),
            take(p["vessel"], p.get("to", "waste"), species=selector),
        ]
    if k == OpKind.CRYSTALLISE:
        return [
            prim("AE", p["vessel"], setpoint=temp,
                 duration=duration if duration is not None else SOAK_S),
            prim("SE", p["vessel"], setpoint=_reference_qv(op, "cool_to"), duration=SOAK_S),
            take(p["vessel"], p["to"], species=(p["species"],)),
        ]
    if k == OpKind.DISTIL or k == OpKind.SUBLIME:
        heat = prim("AE", p["vessel"], setpoint=temp,
                    duration=duration if duration is not None else SOAK_S)
        vapour = take(p["vessel"], p["to"], transit=True, species=(p["species"],))
        cool_to = _reference_qv(op, "cool_to")
        first = [heat, vapour] if k == OpKind.DISTIL else [vapour, heat]
        return first + [
            prim("SE", p["to"], setpoint=cool_to if cool_to is not None else AMBIENT_C,
                 duration=AGITATE_S),
            prim("AM", p["to"]),
        ]
    if k == OpKind.FILTER:
        return [take(p["vessel"], p["to"], species=(p["species"],))]
    if k == OpKind.CLEAN:
        return [
            charge_solvent(CLEAN_CHARGE_MOL),
            take(p["vessel"], "waste", reset_cell=True),
        ]
    raise ValueError(f"no expansion for {k!r}")


# ---------------------------------------------------------------------------
# The Monte Carlo kernel's oracle and configs

def reference_monte_carlo(config: MonteCarloConfig) -> dict[float, np.ndarray]:
    """`mean_n` as `assembly.monte_carlo` computed it before it reused one
    buffer: fresh arrays for the sum, the clip, `1 - eps` and the product
    of every eps0 row."""
    rng = np.random.Generator(np.random.Philox(config.seed))
    offsets = rng.normal(0.0, config.jitter_sd, size=config.n_trajectories) \
        if config.jitter_sd > 0 else np.zeros(config.n_trajectories)
    steps = np.arange(1, config.ai_max + 1, dtype=np.float64)
    max_exponent = float(np.log(np.finfo(np.float64).max))
    drift = np.exp(np.minimum(config.drift_rate * (steps - 1.0), max_exponent))
    mean_n = {}
    for eps0 in config.eps0_values:
        eps = np.clip(eps0 * drift[None, :] + offsets[:, None], 0.0, 1.0)
        survival = np.cumprod(1.0 - eps, axis=1)
        mean_n[eps0] = config.n0 * survival.mean(axis=0)
    return mean_n


def mc_configs() -> list[tuple[str, MonteCarloConfig]]:
    """Named configs the kernel is checked on: the default at seeds 0-2,
    fixtures/mc_small.json, no jitter, a drift that overflows `exp`, and
    the smallest population and depth."""
    return [
        *((f"default/{seed}", MonteCarloConfig(seed=seed)) for seed in range(3)),
        ("mc_small", loads_mc_config(fixture_text("mc_small.json"))),
        ("no_jitter", MonteCarloConfig(jitter_sd=0)),
        ("overflow", MonteCarloConfig(eps0_values=(0.0, 1.0, 0.5), drift_rate=50)),
        ("tiny", MonteCarloConfig(n_trajectories=1, ai_max=2)),
    ]


# ---------------------------------------------------------------------------
# The paired DEC loop's oracle

def reference_evaluate_correction(prog: ChemProgram, db: RuleDatabase, *,
                                  policy: CorrectionPolicy = DEFAULT_POLICY,
                                  eps: float | None = None, n_seeds: int = 200,
                                  seed0: int = 0, budget: int = DEFAULT_BUDGET) -> dict:
    """`dec.evaluate_correction` as it was before it skipped the baseline
    runs that cannot differ: both arms run on every seed."""
    b = 0  # corrected succeeded where baseline failed
    c = 0  # baseline succeeded where corrected failed
    wins_on = 0
    wins_off = 0
    for k in range(n_seeds):
        seed = seed0 + k
        on = run_with_dec(prog, db, policy=policy, seed=seed, eps=eps,
                          corrections_enabled=True, budget=budget)
        off = run_with_dec(prog, db, policy=policy, seed=seed, eps=eps,
                           corrections_enabled=False, budget=budget)
        wins_on += on.success
        wins_off += off.success
        if on.success and not off.success:
            b += 1
        elif off.success and not on.success:
            c += 1
    return {
        "n": n_seeds,
        "rate_corrected": wins_on / n_seeds,
        "rate_baseline": wins_off / n_seeds,
        "discordant_better": b,
        "discordant_worse": c,
        "p_value": sign_test(b, c),
    }
