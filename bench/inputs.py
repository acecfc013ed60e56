"""Seeded input generators for the benchmark.

Everything here is a pure function of its seed. The program under test
receives only what these functions return: rule-database text, program
text, and seed numbers.
"""

from __future__ import annotations

import json
import random

from chemvm.chemlang import (
    ChemProgram, HardwareReq, OpKind, Quantity, ReagentDecl, UnitOperation,
    format_program, random_program,
)

# Longest chain target a rules-5k job plans; the database chain is this long.
CHAIN_LENGTH = 8
CHAIN_DEPTHS = (4, 5, 6, 7, 8)
CHAIN_TARGET_MOL = 1.0

# A reactor load (feed plus activator) of the seeded synthetic programs
# stays within one 25 mL pump stroke: a transfer through the pump's
# transit line is booked as one stroke whatever it moves (see
# STROKE_PROBE), which would fail the stroke check on some seeds only.
_MAX_CHARGE_PER_ADD = 12.5
# The one program whose transfers move more than a stroke: fixed, so its
# stroke-check failure is the same share of every run.
STROKE_PROBE = {"stages": 2, "feed": 30.0, "act": 15.0, "hot": 60}


def chain_species(k: int) -> str:
    return f"c{k}"


def chain_stock(k: int) -> str:
    return f"s{k}"


def chain_rule_id(k: int, n_rules: int) -> str:
    # Chain rules sit at fixed, evenly spread places in the id order, so
    # the planner's id-ordered scan does the same work whatever the seed.
    return f"r{k * (n_rules // (CHAIN_LENGTH + 1)):05d}"


def chain_db_text(n_rules: int, seed: int) -> str:
    """A rule database of `n_rules` rules holding one characterised chain

        c0 + s1 -> c1,  c1 + s2 -> c2,  ...,  c7 + s8 -> c8

    and decoys. Every decoy needs one species (x*) that no stock or chain
    rule ever supplies, so no decoy is applicable or matches; half of the
    decoys also mention a chain species, so matching has to look past it.
    The minimal pathway to c_d from {c0, s1..sd} is therefore the first d
    chain rules, and sizing for 1 mol of c_d gives exactly 1 mol.
    """
    if n_rules < CHAIN_LENGTH:
        raise ValueError(f"need at least {CHAIN_LENGTH} rules")
    rng = random.Random(seed)
    n_decoy_species = 64
    species = []
    for k in range(CHAIN_LENGTH + 1):
        species.append({"id": chain_species(k), "name": f"chain {k}",
                        "molar_mass": 12.0 * (k + 1), "element_counts": {"C": k + 1}})
    for k in range(1, CHAIN_LENGTH + 1):
        species.append({"id": chain_stock(k), "name": f"stock {k}",
                        "molar_mass": 12.0, "element_counts": {"C": 1}})
    for j in range(n_decoy_species):
        species.append({"id": f"x{j}", "name": f"decoy {j}",
                        "molar_mass": 12.0, "element_counts": {"C": 1}})

    def window(temp: float) -> dict:
        return {"temp_min": temp - 10.0, "temp_max": temp + 10.0,
                "duration_min": 300.0, "duration_max": 3600.0}

    chain_ids = {chain_rule_id(k, n_rules): k for k in range(1, CHAIN_LENGTH + 1)}
    chain_names = [chain_species(k) for k in range(CHAIN_LENGTH)] + \
        [chain_stock(k) for k in range(1, CHAIN_LENGTH + 1)]
    rules = []
    decoy_index = 0
    for i in range(n_rules):
        rid = f"r{i:05d}"
        k = chain_ids.get(rid)
        if k is not None:
            rules.append({
                "id": rid,
                "reagent_pattern": {chain_species(k - 1): 1.0, chain_stock(k): 1.0},
                "process_window": window(float(rng.randrange(30, 150, 5))),
                "products": {chain_species(k): 1.0},
                "yield": rng.choice((0.8, 0.85, 0.9, 0.95)),
                "epsilon": 0.05,
                "status": "characterised",
                "occurrences": 2,
            })
            continue
        blocker = f"x{rng.randrange(n_decoy_species)}"
        if decoy_index % 2 == 0:
            # the chain species comes first, so its presence is checked
            # before the absent blocker
            pattern = {rng.choice(chain_names): 1.0, blocker: 1.0}
        else:
            other = f"x{rng.randrange(n_decoy_species)}"
            pattern = {blocker: 1.0} if other == blocker else {blocker: 1.0, other: 1.0}
        decoy_index += 1
        rules.append({
            "id": rid,
            "reagent_pattern": pattern,
            "process_window": window(float(rng.randrange(-40, 200, 5))),
            "products": {f"x{rng.randrange(n_decoy_species)}": 1.0},
            "yield": 0.9,
            "epsilon": 0.05,
            "status": rng.choice(("characterised", "predicted")),
        })
    return json.dumps({"species": species, "rules": rules})


def chain_stock_for(depth: int) -> frozenset[str]:
    return frozenset({chain_species(0)} | {chain_stock(k) for k in range(1, depth + 1)})


def chain_expected_ids(depth: int, n_rules: int) -> list[str]:
    return [chain_rule_id(k, n_rules) for k in range(1, depth + 1)]


def rules_round(seed: int, round_index: int) -> list[int]:
    """Target depths of one rules-5k round: each depth once, seeded order."""
    depths = list(CHAIN_DEPTHS)
    random.Random(f"{seed}/rules/{round_index}").shuffle(depths)
    return depths


def _q(value: float, unit: str) -> Quantity:
    return Quantity(float(value), unit)


def feasible_synthetic_program(stages: int, feed: float, act: float, hot: int,
                               ops_per_step: int = 15) -> ChemProgram:
    """The `chemlang.corpus.synthetic_program` template with charges the
    built-in rig can hold.

    That generator declares 1000 mol per flask, more than the rig's 500 mL
    flasks hold; here each flask holds exactly what the steps draw.
    """
    template = [
        (OpKind.ADD, {"vessel": "RX1", "reagent": "feed", "amount": _q(feed, "mol")}),
        (OpKind.HEAT_STIR, {"vessel": "RX1", "temp": _q(hot, "C"), "time": _q(300, "s")}),
        (OpKind.ADD, {"vessel": "RX1", "reagent": "act", "amount": _q(act, "mol")}),
        (OpKind.HEAT_STIR, {"vessel": "RX1", "temp": _q(hot + 20, "C"), "time": _q(300, "s")}),
        (OpKind.CHILL, {"vessel": "RX1", "temp": _q(20, "C"), "time": _q(300, "s")}),
        (OpKind.TRANSFER, {"from": "RX1", "to": "S1"}),
        (OpKind.TRANSFER, {"from": "S1", "to": "RX1"}),
        (OpKind.HEAT_STIR, {"vessel": "RX1", "temp": _q(50, "C"), "time": _q(300, "s")}),
        (OpKind.CHILL, {"vessel": "RX1", "temp": _q(15, "C"), "time": _q(300, "s")}),
        (OpKind.EVAPORATE, {"vessel": "RX1", "temp": _q(40, "C"), "time": _q(300, "s")}),
        (OpKind.HEAT_STIR, {"vessel": "RX1", "temp": _q(35, "C"), "time": _q(300, "s")}),
        (OpKind.CHILL, {"vessel": "RX1", "temp": _q(10, "C"), "time": _q(300, "s")}),
        (OpKind.TRANSFER, {"from": "RX1", "to": "S1"}),
        (OpKind.TRANSFER, {"from": "S1", "to": "RX1"}),
        (OpKind.CLEAN, {"vessel": "RX1"}),
    ]
    steps: list[UnitOperation] = []
    n_feed = n_act = 0
    for stage in range(1, stages + 1):
        for i in range(ops_per_step):
            kind, params = template[i % len(template)]
            params = dict(params)
            if i == 0:
                params["reaction_step"] = stage
            n_feed += params.get("reagent") == "feed"
            n_act += params.get("reagent") == "act"
            steps.append(UnitOperation(kind, params))
    reagents = [
        ReagentDecl("feed", "feedstock", _q(round(n_feed * feed, 3), "mol"), "R1"),
        ReagentDecl("act", "activator", _q(round(n_act * act, 3), "mol"), "R2"),
    ]
    hardware = [HardwareReq("RX1", "reactor"), HardwareReq("S1", "storage")]
    return ChemProgram(f"feasible_{stages}x{ops_per_step}", reagents, hardware, steps)


def seeded_synthetic_program(stages: int, rng: random.Random) -> ChemProgram:
    """Charges drawn so a flask never holds more than 480 mL."""
    per_add = min(_MAX_CHARGE_PER_ADD, 480.0 / stages)
    return feasible_synthetic_program(
        stages, round(per_add * rng.uniform(0.5, 1.0), 3),
        round(per_add * rng.uniform(0.5, 1.0), 3), rng.randrange(40, 90, 5))


# One corpus round: every synthetic depth once, criterion-05 programs and
# the stroke probe.
SYNTHETIC_STAGES = tuple(range(1, 21))
RANDOM_PER_ROUND = 12


def corpus_round(seed: int, round_index: int) -> list[str]:
    """Canonical texts of one corpus round, in a seeded order. Every round
    has the same make-up, so whole rounds weigh the same."""
    rng = random.Random(f"{seed}/corpus/{round_index}")
    progs = [seeded_synthetic_program(k, rng) for k in SYNTHETIC_STAGES]
    progs += [random_program(random.Random(rng.randrange(1 << 30)))
              for _ in range(RANDOM_PER_ROUND)]
    progs.append(feasible_synthetic_program(**STROKE_PROBE))
    rng.shuffle(progs)
    return [format_program(p) for p in progs]


def ladder_program_text(stages: int) -> str:
    """Feasible synthetic program of `stages` x 15 operations."""
    return format_program(seeded_synthetic_program(stages, random.Random(stages)))
