"""Declarative reaction knowledge and pathway planning.

A rule database is a JSON document with two collections, `species` and
`rules` (plus optional `latent` rules invisible to matching and planning
until discovered by exploration, and a `provenance` log, oldest event
first). Loading checks
every entry's fields and their types and raises `RuleLoadError` (a
`ValueError`) at the first fault. Rules are also checked for element-mass
balance at load time: inputs must cover outputs element-wise, and any
surplus is booked per application to an implicit byproduct that the
machine routes to waste.

Matching is multiset-superset on the reagent pattern plus catalyst
presence plus the condition point lying inside the rule's process window;
ties go to higher priority, then lexicographically smaller rule id. A rule
observed twice stops being a prediction: `promote` increments the
occurrence counter and flips predicted/novel rules to characterised at the
second occurrence.

The planner searches forward from stock, breadth first over the sets of
available species, for a rule sequence of minimal length (ties broken by
lexicographic rule-id sequence) that builds a target species, then sizes
input amounts backward through the declared yields.

Neither matching nor planning scans the whole database: an index, built
when the database is made, files each rule under one of its inputs
(reagent or catalyst), the one the fewest rules mention, ties to the
smallest species id. A rule whose inputs are all present is filed under a
present species, so only the rules filed under present species are
candidates. A database is a frozen `RuleDatabase` with read-only maps:
`promote` returns one whose rules overlay the changed rules on the shared
base, one level deep, and which shares the index, since promotion changes
no rule's inputs; `commit_discovery` returns one that builds a new index.
The provenance
log is append-only: each new version links one event onto the log of the
version it was made from, so versions share their common history and
adding an event copies nothing.

Both questions a run asks of a database are answered once. `match_rule`
keeps a memo beside the index, keyed by (the frozenset of species present
above `PRESENCE_EPS`, temperature, duration), whose value is the winning
rule's id or None: the winner depends on nothing else, since which
candidates' inputs are present, their windows, priorities and ids are all
fixed for the index's lifetime. The memo is made with the index and lives
as long as it: `promote` passes both on, and `commit_discovery` and the
loaders start both afresh. It holds one entry per distinct question; the
extent is still worked out on each call's contents, from the rule as the
asking database holds it. `promote` keeps the database it makes on the one
it was called with, one child per promoted (database, rule), and returns
that child on every later call.
"""

from __future__ import annotations

import math
from collections import ChainMap
from collections.abc import Collection, Iterable, Mapping
from dataclasses import dataclass, field, replace
from operator import attrgetter
from pathlib import Path
from types import MappingProxyType
from typing import NamedTuple

from .chemlang import ChemProgram, HardwareReq, OpKind, Quantity, ReagentDecl, UnitOperation
from .chemlang.ast import settle, settle_maps
from .chemlang.parser import IDENT_RE
from .jsonio import (
    dumps_stable, is_integer, is_number, json_entry, json_object, loads_object,
    write_text_atomic,
)

__all__ = [
    "Species",
    "ProcessWindow",
    "TransitionRule",
    "RuleDatabase",
    "RuleMatch",
    "Pathway",
    "PathwayStep",
    "RuleLoadError",
    "Unreachable",
    "UnstableTarget",
    "STATUSES",
    "PROMOTION_THRESHOLD",
    "load_rules",
    "loads_rules",
    "save_rules",
    "match_rule",
    "limiting_extent",
    "promote",
    "explore",
    "commit_discovery",
    "plan_pathway",
    "pathway_to_program",
    "assembly_bounds",
]

STATUSES = ("characterised", "predicted", "novel")
PROMOTION_THRESHOLD = 2

# Presence threshold: below this many mol a species counts as absent.
PRESENCE_EPS = 1e-12

# Nominal catalyst charge the planner allocates per step that needs one.
CATALYST_CHARGE_MOL = 0.05
# Amount of the target a planned pathway is sized to make.
_TARGET_MOL = 1.0

class RuleLoadError(ValueError):
    pass


class Unreachable(Exception):
    pass


class UnstableTarget(Exception):
    pass


@dataclass(frozen=True)
class Species:
    id: str
    name: str
    molar_mass: float
    element_counts: dict[str, int]
    stable: bool = True
    assembly_index: int | None = None
    bonds: int | None = None


@dataclass(frozen=True)
class ProcessWindow:
    temp_min: float
    temp_max: float
    duration_min: float
    duration_max: float

    def contains(self, temp: float, duration: float) -> bool:
        return (self.temp_min <= temp <= self.temp_max
                and self.duration_min <= duration <= self.duration_max)

    def midpoint(self) -> tuple[float, float]:
        return ((self.temp_min + self.temp_max) / 2.0,
                (self.duration_min + self.duration_max) / 2.0)


@dataclass(frozen=True)
class TransitionRule:
    id: str
    reagent_pattern: dict[str, float]   # species -> min amount ratio
    process_window: ProcessWindow
    products: dict[str, float]          # species -> coefficient per unit extent
    yield_fraction: float               # (0, 1]
    epsilon: float                      # [0, 1) per-application error probability
    status: str = "characterised"
    catalysts: tuple[str, ...] = ()
    occurrences: int = 0
    priority: int = 0
    # element surplus per unit extent, routed to waste as "<id>.byproduct"
    byproduct_elements: dict[str, float] = field(default_factory=dict)

    @property
    def byproduct_species(self) -> str | None:
        return f"{self.id}.byproduct" if self.byproduct_elements else None


class _Logged(NamedTuple):
    """A provenance event linked onto the log before it."""
    before: _Logged | None
    event: dict


@dataclass(frozen=True)
class RuleDatabase:
    # read-only: `MappingProxyType`s (a dict given is copied into one), and
    # after `promote` a `ChainMap` of them
    species: Mapping[str, Species]
    rules: Mapping[str, TransitionRule]
    latent: Mapping[str, TransitionRule]
    # the provenance log's newest event; read the log as `provenance`
    _log: _Logged | None = field(default=None, repr=False, compare=False)
    # input species -> the rules filed under it; built from `rules` unless
    # given (`promote` passes its source's, as no rule's inputs change)
    _index: dict[str, list[TransitionRule]] | None = field(
        default=None, repr=False, compare=False)
    # match_rule's answers, made and passed on with `_index`: (present
    # species, temp, duration) -> the winning rule's id, or None
    _matches: dict[tuple[frozenset[str], float, float], str | None] | None = field(
        default=None, repr=False, compare=False)
    # rule id -> the database `promote` made from this one for it
    _promoted: dict[str, RuleDatabase] = field(
        default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        settle_maps(self, "species", "rules", "latent")
        if self._index is None:
            settle(self, "_index", _build_index(self.rules.values()))
            settle(self, "_matches", {})

    @property
    def provenance(self) -> list[dict]:
        """The provenance events, oldest first."""
        events = []
        entry = self._log
        while entry is not None:
            events.append(entry.event)
            entry = entry.before
        events.reverse()
        return events

    def _candidates(self, present: Iterable[str]) -> list[TransitionRule]:
        """The rules filed under the `present` species: a superset of the
        rules whose inputs are all present, each once. They are the rules
        the index was built from, so their occurrences and status may be
        out of date; read those from `rules`."""
        return [rule for s in present for rule in self._index.get(s, ())]


def _build_index(rules: Collection[TransitionRule]) -> dict[str, list[TransitionRule]]:
    mentions: dict[str, int] = {}
    for rule in rules:
        for s in (*rule.reagent_pattern, *rule.catalysts):
            mentions[s] = mentions.get(s, 0) + 1
    index: dict[str, list[TransitionRule]] = {}
    for rule in rules:
        key = min((*rule.reagent_pattern, *rule.catalysts), key=lambda s: (mentions[s], s))
        index.setdefault(key, []).append(rule)
    return index


class RuleMatch(NamedTuple):
    rule: TransitionRule
    extent: float       # limiting extent before yield
    limiting: str       # species id that limits the extent


# ---------------------------------------------------------------------------
# Load / save

def assembly_bounds(bonds: int) -> tuple[int, int]:
    """(lower, upper) bounds on the assembly index of an object with
    `bonds` joints: reuse at best halves the work per step, no reuse
    means one joint per step."""
    if bonds < 1:
        raise ValueError("an object needs at least one bond")
    if bonds == 1:
        return (0, 0)
    return ((bonds - 1).bit_length(), bonds - 1)


_SPECIES_KEYS = frozenset({"id", "name", "molar_mass", "element_counts"})
_SPECIES_OPTIONAL = frozenset({"stable", "assembly_index", "bonds"})
_RULE_KEYS = frozenset({"id", "reagent_pattern", "process_window", "products", "yield",
                        "epsilon", "status"})
_RULE_OPTIONAL = frozenset({"catalysts", "occurrences", "priority"})
_WINDOW_KEYS = frozenset({"temp_min", "temp_max", "duration_min", "duration_max"})
_DB_KEYS = frozenset({"species", "rules"})
_DB_OPTIONAL = frozenset({"latent", "provenance"})


def _parse_species(obj, where: str) -> Species:
    obj, where = json_entry(obj, "species", where, _SPECIES_KEYS, _SPECIES_OPTIONAL,
                            RuleLoadError)
    sid = obj["id"]
    if not isinstance(sid, str) or not IDENT_RE.fullmatch(sid):
        raise RuleLoadError(f"{where}: id must be an identifier")
    mm = obj["molar_mass"]
    if not is_number(mm) or mm <= 0:
        raise RuleLoadError(f"{where}: molar_mass must be positive")
    counts = obj["element_counts"]
    if not isinstance(counts, dict) or not counts:
        raise RuleLoadError(f"{where}: element_counts must be a non-empty object")
    for el, n in counts.items():
        if not is_integer(n) or n <= 0:
            raise RuleLoadError(f"{where}: element count for {el!r} must be a positive integer")
    stable = obj.get("stable", True)
    if not isinstance(stable, bool):
        raise RuleLoadError(f"{where}: stable must be true or false")
    ai = obj.get("assembly_index")
    bonds = obj.get("bonds")
    if ai is not None and (not is_integer(ai) or ai < 1):
        raise RuleLoadError(f"{where}: assembly_index must be a positive integer")
    if bonds is not None and (not is_integer(bonds) or bonds < 1):
        raise RuleLoadError(f"{where}: bonds must be a positive integer")
    if ai is not None and bonds is not None:
        lo, hi = assembly_bounds(bonds)
        if not lo <= ai <= hi:
            raise RuleLoadError(
                f"{where}: assembly_index {ai} outside [{lo}, {hi}] for {bonds} bonds")
    return Species(sid, obj["name"], float(mm), dict(counts), stable, ai, bonds)


def _parse_rule(obj, species: dict[str, Species], where: str) -> TransitionRule:
    obj, where = json_entry(obj, "rule", where, _RULE_KEYS, _RULE_OPTIONAL, RuleLoadError)
    rid = obj["id"]
    if not isinstance(rid, str) or not rid:
        raise RuleLoadError(f"{where}: bad id")
    pattern = obj["reagent_pattern"]
    products = obj["products"]
    for label, mapping in (("reagent_pattern", pattern), ("products", products)):
        if not isinstance(mapping, dict) or not mapping:
            raise RuleLoadError(f"{where}: {label} must be a non-empty object")
        for sid, ratio in mapping.items():
            if sid not in species:
                raise RuleLoadError(f"{where}: unknown species {sid!r} in {label}")
            if not is_number(ratio) or ratio <= 0:
                raise RuleLoadError(f"{where}: {label}[{sid!r}] must be positive")
    catalysts = obj.get("catalysts", [])
    if not isinstance(catalysts, list):
        raise RuleLoadError(f"{where}: catalysts must be a list")
    for k in catalysts:
        if not isinstance(k, str) or k not in species:
            raise RuleLoadError(f"{where}: unknown catalyst species {k!r}")
        if k in pattern:
            raise RuleLoadError(f"{where}: catalyst {k!r} also appears in reagent_pattern")
    win = json_object(obj["process_window"], f"{where} process_window", _WINDOW_KEYS,
                      error=RuleLoadError)
    if not all(map(is_number, win.values())):
        raise RuleLoadError(f"{where}: process_window bounds must be numbers")
    window = ProcessWindow(float(win["temp_min"]), float(win["temp_max"]),
                           float(win["duration_min"]), float(win["duration_max"]))
    if window.temp_min > window.temp_max or window.duration_min > window.duration_max:
        raise RuleLoadError(f"{where}: inverted process window")
    if window.duration_min < 0:
        raise RuleLoadError(f"{where}: negative duration window")
    y = obj["yield"]
    if not is_number(y) or not (0 < y <= 1):
        raise RuleLoadError(f"{where}: yield must lie in (0, 1]")
    eps = obj["epsilon"]
    if not is_number(eps) or not (0 <= eps < 1):
        raise RuleLoadError(f"{where}: epsilon must lie in [0, 1)")
    status = obj["status"]
    if status not in STATUSES:
        raise RuleLoadError(f"{where}: status must be one of {STATUSES}")
    occurrences = obj.get("occurrences", 0)
    if not is_integer(occurrences) or occurrences < 0:
        raise RuleLoadError(f"{where}: occurrences must be a non-negative integer")
    priority = obj.get("priority", 0)
    if not is_integer(priority):
        raise RuleLoadError(f"{where}: priority must be an integer")

    # Element-mass balance: inputs (catalysts excluded) must cover products.
    inputs_el: dict[str, float] = {}
    for sid, ratio in pattern.items():
        for el, n in species[sid].element_counts.items():
            inputs_el[el] = inputs_el.get(el, 0.0) + ratio * n
    outputs_el: dict[str, float] = {}
    for sid, coeff in products.items():
        for el, n in species[sid].element_counts.items():
            outputs_el[el] = outputs_el.get(el, 0.0) + coeff * n
    for el, n_out in outputs_el.items():
        if n_out > inputs_el.get(el, 0.0) + 1e-9:
            raise RuleLoadError(
                f"{where}: products contain more {el!r} ({n_out:g}) than inputs"
                f" supply ({inputs_el.get(el, 0.0):g})"
            )
    byproduct = {
        el: n_in - outputs_el.get(el, 0.0)
        for el, n_in in sorted(inputs_el.items())
        if n_in - outputs_el.get(el, 0.0) > 1e-12
    }
    return TransitionRule(
        rid, dict(pattern), window, dict(products), float(y), float(eps),
        status, tuple(catalysts), occurrences, priority, byproduct,
    )


def loads_rules(text: str, where: str = "<string>") -> RuleDatabase:
    doc = loads_object(text, where, _DB_KEYS, _DB_OPTIONAL, RuleLoadError)
    for key in ("species", "rules", "latent", "provenance"):
        if not isinstance(doc.get(key, []), list):
            raise RuleLoadError(f"{where}: {key} must be a list")
    species: dict[str, Species] = {}
    for obj in doc["species"]:
        sp = _parse_species(obj, where)
        if sp.id in species:
            raise RuleLoadError(f"{where}: duplicate species id {sp.id!r}")
        species[sp.id] = sp
    rules: dict[str, TransitionRule] = {}
    for obj in doc["rules"]:
        rule = _parse_rule(obj, species, where)
        if rule.id in rules:
            raise RuleLoadError(f"{where}: duplicate rule id {rule.id!r}")
        rules[rule.id] = rule
    latent: dict[str, TransitionRule] = {}
    for obj in doc.get("latent", []):
        rule = _parse_rule(obj, species, where)
        if rule.id in rules or rule.id in latent:
            raise RuleLoadError(f"{where}: duplicate rule id {rule.id!r} (latent)")
        latent[rule.id] = rule
    log = None
    for event in doc.get("provenance", []):
        log = _Logged(log, event)
    return RuleDatabase(MappingProxyType(species), MappingProxyType(rules),
                        MappingProxyType(latent), log)


def load_rules(path: str | Path) -> RuleDatabase:
    path = Path(path)
    return loads_rules(path.read_text(encoding="utf-8"), where=str(path))


def _window_json(w: ProcessWindow) -> dict:
    return {"temp_min": w.temp_min, "temp_max": w.temp_max,
            "duration_min": w.duration_min, "duration_max": w.duration_max}


def _rule_json(r: TransitionRule) -> dict:
    out = {
        "id": r.id,
        "reagent_pattern": {k: r.reagent_pattern[k] for k in sorted(r.reagent_pattern)},
        "process_window": _window_json(r.process_window),
        "products": {k: r.products[k] for k in sorted(r.products)},
        "yield": r.yield_fraction,
        "epsilon": r.epsilon,
        "status": r.status,
        "occurrences": r.occurrences,
        "priority": r.priority,
    }
    if r.catalysts:
        out["catalysts"] = sorted(r.catalysts)
    return out


def _species_json(s: Species) -> dict:
    out = {
        "id": s.id,
        "name": s.name,
        "molar_mass": s.molar_mass,
        "element_counts": {k: s.element_counts[k] for k in sorted(s.element_counts)},
        "stable": s.stable,
    }
    if s.assembly_index is not None:
        out["assembly_index"] = s.assembly_index
    if s.bonds is not None:
        out["bonds"] = s.bonds
    return out


def save_rules(db: RuleDatabase, path: str | Path) -> None:
    """Atomic rewrite; this is the persistence layer for promotion."""
    doc: dict = {
        "species": [_species_json(db.species[k]) for k in sorted(db.species)],
        "rules": [_rule_json(db.rules[k]) for k in sorted(db.rules)],
    }
    if db.latent:
        doc["latent"] = [_rule_json(db.latent[k]) for k in sorted(db.latent)]
    provenance = db.provenance
    if provenance:
        doc["provenance"] = provenance
    write_text_atomic(path, dumps_stable(doc, indent=2) + "\n")


# ---------------------------------------------------------------------------
# Matching, promotion, exploration

def _inputs_present(rule: TransitionRule, contents: dict[str, float]) -> bool:
    """True when the rule's reagents and catalysts are all present in
    `contents`."""
    for s in (*rule.reagent_pattern, *rule.catalysts):
        if not contents.get(s, 0.0) > PRESENCE_EPS:
            return False
    return True


_UNSEEN = object()


def match_rule(db: RuleDatabase, contents: dict[str, float],
               conditions: tuple[float, float]) -> RuleMatch | None:
    """Best rule for the cell contents at (temperature C, duration s). The
    winner depends only on which species are present and on the
    conditions, so it is looked up in the database's memo under that key;
    on a miss, one pass over the rules filed under the present species
    keeps the eligible one first in (-priority, id) order. The extent is
    worked out on the contents themselves."""
    temp, duration = conditions
    present = frozenset([s for s, amount in contents.items() if amount > PRESENCE_EPS])
    key = (present, temp, duration)
    best_id = db._matches.get(key, _UNSEEN)
    if best_id is _UNSEEN:
        best = None
        for rule in db._candidates(present):
            if (best is None or (-rule.priority, rule.id) < (-best.priority, best.id)) \
                    and rule.process_window.contains(temp, duration) \
                    and present.issuperset(rule.reagent_pattern) \
                    and present.issuperset(rule.catalysts):
                best = rule
        best_id = db._matches[key] = None if best is None else best.id
    if best_id is None:
        return None
    rules = db.rules
    if type(rules) is ChainMap:
        # a promoted database's changed rules over its base, read without
        # the KeyError a ChainMap raises and catches on a miss in the first
        changed, base = rules.maps
        rule = changed[best_id] if best_id in changed else base[best_id]
    else:
        rule = rules[best_id]
    return RuleMatch(rule, *limiting_extent(rule.reagent_pattern, contents))


def limiting_extent(pattern: dict[str, float],
                    contents: dict[str, float]) -> tuple[float, str]:
    """Largest extent a reagent pattern can run to on these contents, and
    the species that limits it (ties go to the smallest id)."""
    extent = limiting = None
    for s, ratio in pattern.items():
        e = contents.get(s, 0.0) / ratio
        if limiting is None or e < extent or e == extent and s < limiting:
            extent, limiting = e, s
    return extent, limiting


def promote(db: RuleDatabase, rule_id: str) -> RuleDatabase:
    """Record one observed application. Copy-on-write: returns a new
    database whose rules overlay the changed ones on `db`'s base, and which
    shares `db`'s index and match memo; at the second occurrence a
    predicted/novel rule becomes characterised, with a provenance event
    either way. Databases are frozen, so the new one is made once per
    (db, rule) and kept on `db` for every later call."""
    child = db._promoted.get(rule_id)
    if child is not None:
        return child
    changed, base = {}, db.rules
    if type(base) is ChainMap:
        changed, base = base.maps
    rule = changed.get(rule_id) or base[rule_id]
    new_occ = rule.occurrences + 1
    status = rule.status
    event = {"event": "occurrence", "rule": rule_id, "occurrences": new_occ}
    if status in ("predicted", "novel") and new_occ >= PROMOTION_THRESHOLD:
        event = {"event": "promoted", "rule": rule_id, "occurrences": new_occ,
                 "from": status}
        status = "characterised"
    counted = replace(rule, occurrences=new_occ, status=status)
    rules = ChainMap(MappingProxyType({**changed, rule_id: counted}), base)
    child = db._promoted[rule_id] = RuleDatabase(
        db.species, rules, db.latent, _Logged(db._log, event), db._index, db._matches)
    return child


def explore(db: RuleDatabase, contents: dict[str, float],
            conditions: tuple[float, float], rng) -> TransitionRule | None:
    """Seeded draw of a latent rule consistent with the cell contents.

    Exploration models running an uncharacterised reaction anyway: any
    latent rule whose inputs are all present may reveal itself; the choice
    among several is a deterministic function of the rng stream.
    """
    candidates = [db.latent[k] for k in sorted(db.latent)
                  if _inputs_present(db.latent[k], contents)]
    if not candidates:
        return None
    rule = candidates[rng.randrange(len(candidates))]
    return replace(rule, status="novel", occurrences=0)


def commit_discovery(db: RuleDatabase, rule: TransitionRule) -> RuleDatabase:
    """Move an explored rule into the visible database, which builds a
    new index."""
    rules = MappingProxyType({**db.rules, rule.id: rule})
    latent = MappingProxyType({k: v for k, v in db.latent.items() if k != rule.id})
    event = {"event": "discovered", "rule": rule.id}
    return RuleDatabase(db.species, rules, latent, _Logged(db._log, event))


# ---------------------------------------------------------------------------
# Planner

@dataclass(frozen=True)
class PathwayStep:
    rule_id: str
    inputs: dict[str, float]   # stock consumed by this step (catalysts included)
    extent: float              # planned reacted extent after yield
    epsilon: float


@dataclass(frozen=True)
class Pathway:
    target: str
    steps: tuple[PathwayStep, ...]

    def rule_ids(self) -> list[str]:
        return [s.rule_id for s in self.steps]

    def to_json(self) -> str:
        payload = {
            "target": self.target,
            "steps": [
                {
                    "rule_id": s.rule_id,
                    "inputs": {k: s.inputs[k] for k in sorted(s.inputs)},
                    "extent": s.extent,
                    "epsilon": s.epsilon,
                }
                for s in self.steps
            ],
        }
        return dumps_stable(payload, indent=2) + "\n"


def plan_pathway(db: RuleDatabase, target: str, stock: set[str] | frozenset[str],
                 max_depth: int = 12) -> Pathway:
    """Minimal-length rule sequence making `target` from `stock`.

    Breadth-first search over the sets of available species, one level per
    rule application, each set expanded once. A level holds its sets in
    the order of the smallest sequence reaching them, and each set tries
    its applicable rules in id order, so the first sequence that makes the
    target is the lexicographically smallest among those of minimal
    length. A set reached again, at this level or an earlier one, is not
    kept: its smallest sequence was already found. Raises `Unreachable` if
    no sequence within `max_depth` produces the target (the search stops
    at the first level that adds no new set), `UnstableTarget` if the
    target species cannot be isolated and `ValueError` if the database has
    no such species.
    """
    if target not in db.species:
        raise ValueError(f"unknown species {target!r}")
    if not db.species[target].stable:
        raise UnstableTarget(target)
    stock = frozenset(stock)
    if target in stock:
        return Pathway(target, ())

    seen = {stock}
    level: list[tuple[frozenset[str], tuple[str, ...]]] = [(stock, ())]
    for _ in range(max_depth):
        next_level = []
        for available, seq in level:
            for rule in sorted(db._candidates(available), key=attrgetter("id")):
                if not (available.issuperset(rule.reagent_pattern)
                        and available.issuperset(rule.catalysts)):
                    continue
                new = available.union(rule.products)
                if target in new:
                    return _size_pathway(db, target, stock, [*seq, rule.id])
                if new not in seen:
                    seen.add(new)
                    next_level.append((new, (*seq, rule.id)))
        level = next_level  # empty once a level adds no new set: nothing left to expand
    raise Unreachable(f"{target} not reachable from {sorted(stock)} within {max_depth} steps")


def _size_pathway(db: RuleDatabase, target: str, stock: frozenset[str],
                  seq: list[str]) -> Pathway:
    """Backward pass: size each step's extent so later steps (and the final
    target demand) are covered through the declared yields. Every need is
    met: a step's non-stock inputs are made by an earlier step."""
    need: dict[str, float] = {target: _TARGET_MOL}
    extents: list[float] = [0.0] * len(seq)
    step_inputs: list[dict[str, float]] = [dict() for _ in seq]
    for i in range(len(seq) - 1, -1, -1):
        rule = db.rules[seq[i]]
        demanded = {p: need.pop(p) for p in rule.products if p in need}
        extent = 0.0
        for p, amt in demanded.items():
            extent = max(extent, amt / (rule.products[p] * rule.yield_fraction))
        if extent == 0.0:
            # feeds no need: the step makes a catalyst of a later one, which
            # the planner charges from stock
            extent = _TARGET_MOL
        for s, ratio in rule.reagent_pattern.items():
            amount = ratio * extent
            if s in stock:
                step_inputs[i][s] = step_inputs[i].get(s, 0.0) + amount
            else:
                need[s] = need.get(s, 0.0) + amount
        for c in rule.catalysts:
            step_inputs[i][c] = step_inputs[i].get(c, 0.0) + CATALYST_CHARGE_MOL
        extents[i] = extent * rule.yield_fraction
    steps = tuple(
        PathwayStep(seq[i], step_inputs[i], extents[i], db.rules[seq[i]].epsilon)
        for i in range(len(seq))
    )
    return Pathway(target, steps)


def pathway_to_program(pathway: Pathway, db: RuleDatabase):
    """Encode a pathway as a runnable program named `pathway_<target>`.

    The stock species are declared in the built-in rig's four unreserved
    flasks, R1 to R4, in turn. Each step charges its stock inputs into the
    reactor RX1 and drives the rule at the midpoint of its process window.
    Selective moves happen on stations that can make them: after a step
    the whole reactor contents go to the filter F1, products that later
    steps consume are filtered off to storage S1 and the residue is washed
    to waste; a consuming step takes storage back in one transfer when it
    needs everything parked there, or picks species out via the
    chromatograph CH1 when it does not. The target is harvested on F1 by
    species, so the product vessel ends up pure.
    """
    def q(value: float, unit: str) -> Quantity:
        return Quantity(float(value), unit)

    prog_name = f"pathway_{pathway.target}"
    if not pathway.steps:
        # Target already in stock: dispense it straight through.
        decls = [ReagentDecl(pathway.target, pathway.target, q(1.0, "mol"), "R1")]
        steps = [
            UnitOperation(OpKind.ADD, {"vessel": "F1", "reagent": pathway.target,
                                       "reaction_step": 1}),
            UnitOperation(OpKind.FILTER, {"vessel": "F1", "species": pathway.target,
                                          "to": "product"}),
        ]
        return ChemProgram(prog_name, decls, [HardwareReq("F1", "filter")], steps,
                           {"target": pathway.target})

    # Stock species in sorted order, R1, R2, R3, R4, R1, ...
    totals: dict[str, float] = {}
    catalyst_only: set[str] = set()
    for step in pathway.steps:
        rule = db.rules[step.rule_id]
        for s, amt in step.inputs.items():
            totals[s] = totals.get(s, 0.0) + amt
            if s in rule.catalysts and s not in rule.reagent_pattern:
                catalyst_only.add(s)
    consumed_as_reagent = {
        s for step in pathway.steps
        for s in db.rules[step.rule_id].reagent_pattern if s in step.inputs
    }
    decls: list[ReagentDecl] = []
    for i, s in enumerate(sorted(totals)):
        role = "catalyst" if s in catalyst_only and s not in consumed_as_reagent else "reagent"
        decls.append(ReagentDecl(s, s, q(totals[s], "mol"), f"R{i % 4 + 1}", role))

    n_steps = len(pathway.steps)
    rules_seq = [db.rules[s.rule_id] for s in pathway.steps]
    # Non-stock inputs of each step come out of storage, where earlier
    # steps parked them.
    carried_in = [
        sorted(set(rules_seq[i].reagent_pattern) - set(pathway.steps[i].inputs))
        for i in range(n_steps)
    ]
    needed_later = [
        sorted({s for j in range(i + 1, n_steps) for s in carried_in[j]}
               & set(rules_seq[i].products))
        for i in range(n_steps)
    ]

    steps: list[UnitOperation] = []
    parked: set[str] = set()
    vessel_temp = 25.0

    def add_step(kind: OpKind, params: dict) -> None:
        if len(steps) == block_start:  # a block's first step carries its marker
            params["reaction_step"] = k
        steps.append(UnitOperation(kind, params))

    for k, step in enumerate(pathway.steps, start=1):
        rule = rules_seq[k - 1]
        block_start = len(steps)
        carried = carried_in[k - 1]
        if carried:
            if set(carried) == parked:
                add_step(OpKind.TRANSFER, {"from": "S1", "to": "RX1"})
            else:
                # storage holds more than this step needs: pick species out
                # on the chromatograph and put the rest back
                add_step(OpKind.TRANSFER, {"from": "S1", "to": "CH1"})
                for s in carried:
                    add_step(OpKind.FILTER, {"vessel": "CH1", "species": s, "to": "RX1"})
                add_step(OpKind.TRANSFER, {"from": "CH1", "to": "S1"})
            parked -= set(carried)
        stock_inputs = sorted(step.inputs)
        for s in stock_inputs[:-1]:
            add_step(OpKind.ADD, {"vessel": "RX1", "reagent": s,
                                  "amount": q(step.inputs[s], "mol")})
        temp, duration = rule.process_window.midpoint()
        # heating cannot cool: when the reactor is still hot from the last
        # block, the cold variants bring it down to the new setpoint
        if stock_inputs:
            react_kind = OpKind.REACT_HOT if temp >= vessel_temp else OpKind.REACT_COLD
            last = stock_inputs[-1]
            add_step(react_kind, {
                "vessel": "RX1", "reagent": last, "amount": q(step.inputs[last], "mol"),
                "temp": q(temp, "C"), "time": q(duration, "s")})
        else:
            cond_kind = OpKind.HEAT_STIR if temp >= vessel_temp else OpKind.CHILL
            add_step(cond_kind, {"vessel": "RX1", "temp": q(temp, "C"), "time": q(duration, "s")})
        vessel_temp = temp
        add_step(OpKind.TRANSFER, {"from": "RX1", "to": "F1"})
        if k < n_steps:
            for p in needed_later[k - 1]:
                add_step(OpKind.FILTER, {"vessel": "F1", "species": p, "to": "S1"})
            parked |= set(needed_later[k - 1])
        else:
            add_step(OpKind.FILTER, {"vessel": "F1", "species": pathway.target, "to": "product"})
        add_step(OpKind.CLEAN, {"vessel": "F1"})

    hardware = [HardwareReq("RX1", "reactor"), HardwareReq("F1", "filter")]
    mentioned = {v for op in steps for v in op.vessels()}
    if "S1" in mentioned:
        hardware.append(HardwareReq("S1", "storage"))
    if "CH1" in mentioned:
        hardware.append(HardwareReq("CH1", "chromatograph"))
    meta = {"target": pathway.target}
    return ChemProgram(prog_name, decls, hardware, steps, meta)
