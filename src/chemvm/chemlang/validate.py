"""Static checks of a program against a hardware graph: one pass that
decides whether the program fits the rig.

`check_program` runs the parameter check `check_params`, the binding pass
`bind_vessels`, then one walk of the program's lowered primitives. The walk
routes every matter movement from its source node to its destination node
(`route`, no_route) and, on the machine's movement model (`cstm`, imported
when the pass runs, since `cstm` imports this package), screens the cells
it fills against their nodes' capacities (capacity_exceeded). Findings come
in that order: parameters, binding, routing, capacity. `validate_program`
reports them, and `chempile` builds its plan on the same pass, so the two
agree on every program and rig. The pass runs once per (program, rig): its
answer is kept on the program, as the lowering is, which is sound because
both are frozen dataclasses (`ChemProgram`, `chempiler.HardwareGraph`),
and is returned as it is kept: a frozen `ValidationReport` whose findings
are a tuple, and `MappingProxyType` views of the bindings and of the
routes, each route a tuple. The graph is duck-typed (`nodes`, `by_kind`,
`reservoir()`, `neighbors()`; nodes with `id`, `kind`, `capabilities`,
`capacity`, `reserved`) so this module does not depend on the compiler.
"""

from __future__ import annotations

import heapq
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

from ..jsonio import dumps_stable
from .ast import OP_SPECS, PARAM_UNITS, ChemProgram, OpKind, Quantity, settle

__all__ = [
    "Finding", "ValidationReport", "validate_program", "check_program",
    "bind_vessels", "check_params", "route", "RouteError", "MATTER_KINDS",
    "FLOW_KINDS", "NODE_KINDS",
]

TEMP_RANGE_C = (-200.0, 400.0)

# Node kinds that can hold material (vs. pure routing nodes).
MATTER_KINDS = frozenset({
    "ReagentFlask", "Reactor", "Separator", "Rotavap", "Filter",
    "Storage", "Chromatograph", "Waste", "Product",
})
FLOW_KINDS = frozenset({"Valve", "Pump"})
NODE_KINDS = MATTER_KINDS | FLOW_KINDS


class RouteError(Exception):
    pass


def route(graph, src: str, dst: str) -> tuple[str, ...]:
    """Shortest pump path src -> dst whose interior is valves and pumps
    only; among equal lengths the lexicographically smallest node sequence.
    """
    if src == dst:
        raise ValueError("route endpoints must differ")
    if src not in graph.nodes or dst not in graph.nodes:
        raise RouteError(f"unknown endpoint {src!r} or {dst!r}")
    heap: list[tuple[int, tuple[str, ...]]] = [(1, (src,))]
    settled: set[str] = set()
    while heap:
        n, path = heapq.heappop(heap)
        node = path[-1]
        if node == dst:
            return path
        if node in settled:
            continue
        settled.add(node)
        for nxt in graph.neighbors(node):
            if nxt in settled or nxt in path:
                continue
            if nxt != dst and graph.nodes[nxt].kind not in FLOW_KINDS:
                continue
            heapq.heappush(heap, (n + 1, path + (nxt,)))
    raise RouteError(f"no route {src} -> {dst}")

# DSL hardware-kind word -> graph node kind (None = unconstrained); any
# other word is read as a node kind itself.
_KIND_WORDS = {
    "any": None,
    "reactor": "Reactor",
    "separator": "Separator",
    "rotavap": "Rotavap",
    "filter": "Filter",
    "storage": "Storage",
    "flask": "ReagentFlask",
    "chromatograph": "Chromatograph",
}


@dataclass(frozen=True)
class Finding:
    code: str
    message: str
    where: str

    def as_dict(self) -> dict:
        return {"code": self.code, "message": self.message, "where": self.where}


@dataclass(frozen=True)
class ValidationReport:
    findings: tuple[Finding, ...] = ()     # given as any iterable

    def __post_init__(self) -> None:
        settle(self, "findings", tuple(self.findings))

    @property
    def ok(self) -> bool:
        return not self.findings

    def to_json(self) -> str:
        return dumps_stable(
            {"ok": self.ok, "findings": [f.as_dict() for f in self.findings]},
            indent=2,
        ) + "\n"


def validate_program(prog: ChemProgram, graph) -> ValidationReport:
    return check_program(prog, graph)[0]


def check_params(prog: ChemProgram) -> list[Finding]:
    """Every step's missing parameters (missing_param), reagents and
    solvents that name no declaration (undeclared_reference), and
    temperatures, times and amounts out of range (param_out_of_range)."""
    findings: list[Finding] = []
    declared = {d.name for d in prog.reagents}
    for i, op in enumerate(prog.steps):
        params = op.params
        missing = OP_SPECS[op.kind].required - params.keys()
        found = [("missing_param", f"{op.kind.value} requires parameter {key!r}")
                 for key in sorted(missing)] if missing else []
        for key in ("reagent", "solvent"):
            ref = params.get(key)
            if ref is not None and ref not in declared:
                found.append(("undeclared_reference",
                              f"step references undeclared reagent {ref!r}"))
        for key, units in PARAM_UNITS.items():
            v = params.get(key)
            if not isinstance(v, Quantity):
                continue
            if units == ("C",):
                if not TEMP_RANGE_C[0] <= v.value <= TEMP_RANGE_C[1]:
                    found.append((
                        "param_out_of_range",
                        f"{key}={v.value:g} C outside [{TEMP_RANGE_C[0]:g}, {TEMP_RANGE_C[1]:g}]",
                    ))
            elif v.value <= 0:
                found.append(("param_out_of_range", f"{key} must be positive"))
        if found:
            where = f"step {i + 1} ({op.kind.value}, line {op.line})"
            findings += [Finding(code, message, where) for code, message in found]
    return findings


def bind_vessels(prog: ChemProgram, graph
                 ) -> tuple[dict[str, str], set[str], list[Finding]]:
    """Bind every program vessel to a graph node.

    Waste and product go to the first node of their kind. Source flasks, in
    declaration order, go to the ReagentFlask of their name, else to the
    first free one. Working vessels go to the node of their name, else to
    the free node of the wanted kind that hosts every station capability
    the steps ask of them and has the fewest capabilities (a kind word that
    names no node kind matches no node). The solvent
    reservoir is never bound, and a program that draws wash solvent needs
    one. Returns the bindings (vessel -> node id), the vessels that could
    not be bound, and the findings (vessel_class_exhausted,
    missing_capability, no_reservoir).
    """
    findings: list[Finding] = []
    bindings: dict[str, str] = {}
    claimed: set[str] = set()
    unbound: set[str] = set()          # vessels reported as impossible to bind

    waste_nodes = graph.by_kind("Waste")
    product_nodes = graph.by_kind("Product")
    if waste_nodes:
        bindings["waste"] = waste_nodes[0].id
        claimed.add(waste_nodes[0].id)
    else:
        findings.append(Finding("vessel_class_exhausted", "no Waste node in graph", "waste"))
        unbound.add("waste")
    if product_nodes:
        bindings["product"] = product_nodes[0].id
        claimed.add(product_nodes[0].id)
    else:
        findings.append(Finding("vessel_class_exhausted", "no Product node in graph", "product"))
        unbound.add("product")

    reservoir = graph.reservoir()
    needs_reservoir = any(
        op.kind in (OpKind.SEPARATE, OpKind.CLEAN) and "solvent" not in op.params
        for op in prog.steps
    )
    if needs_reservoir and reservoir is None:
        findings.append(Finding("no_reservoir", "program draws wash solvent but the "
                                "graph has no reservoir flask", None))
    if reservoir is not None:
        claimed.add(reservoir.id)

    # reagent flasks, declaration order
    flask_pool = [n.id for n in graph.by_kind("ReagentFlask") if not n.reserved]
    source_vessels: list[str] = []
    for decl in prog.reagents:
        if decl.source_vessel not in source_vessels:
            source_vessels.append(decl.source_vessel)
    for v in source_vessels:
        if v in graph.nodes and graph.nodes[v].kind == "ReagentFlask" \
                and v not in claimed and not graph.nodes[v].reserved:
            bindings[v] = v
            claimed.add(v)
    for v in source_vessels:
        if v in bindings:
            continue
        free = [f for f in flask_pool if f not in claimed]
        if not free:
            findings.append(Finding("vessel_class_exhausted",
                                    f"no free ReagentFlask for source vessel {v}", v))
            unbound.add(v)
            continue
        bindings[v] = free[0]
        claimed.add(free[0])

    # working vessels: capability needs from the steps, kind from hardware reqs
    caps_needed: dict[str, set[str]] = {}
    for op in prog.steps:
        cap = OP_SPECS[op.kind].station
        v = op.params.get("vessel")
        if cap and isinstance(v, str):
            caps_needed.setdefault(v, set()).add(cap)
    for req in prog.hardware:
        if req.vessel in bindings:
            continue
        need = caps_needed.get(req.vessel, set())
        want_kind = _KIND_WORDS.get(req.kind, req.kind)
        candidates = [
            n for nid, n in sorted(graph.nodes.items())
            if n.kind in MATTER_KINDS and n.kind not in ("ReagentFlask", "Waste", "Product")
            and nid not in claimed
            and (want_kind is None or n.kind == want_kind)
        ]
        with_caps = [n for n in candidates if need <= n.capabilities]
        if not with_caps:
            if candidates and need:
                missing = need - max(candidates, key=lambda n: len(need & n.capabilities)).capabilities
                findings.append(Finding("missing_capability",
                                        f"no free node for {req.vessel} with {sorted(need)} "
                                        f"(closest lacks {sorted(missing)})", req.vessel))
            else:
                findings.append(Finding("vessel_class_exhausted",
                                        f"no free node of kind {want_kind or 'any'} for "
                                        f"{req.vessel}", req.vessel))
            unbound.add(req.vessel)
            continue
        exact = [n for n in with_caps if n.id == req.vessel]
        chosen = exact[0] if exact else sorted(
            with_caps, key=lambda n: (len(n.capabilities), n.id))[0]
        bindings[req.vessel] = chosen.id
        claimed.add(chosen.id)

    return bindings, unbound, findings


def check_program(prog: ChemProgram, graph
                  ) -> tuple[ValidationReport, Mapping[str, str], Mapping[str, tuple[str, ...]]]:
    """Whether a program fits a rig: its findings, its bindings (vessel ->
    node id) and its routes ("SRC->DST" -> node path).

    The pass runs on the first call for a rig object and is kept on the
    program (`ChemProgram._checked`, one entry, which holds the rig so its
    id is never reused); every later call for that rig returns the kept
    objects themselves, and a call with another rig object runs it again.

    One walk of the lowered primitives routes each matter movement, once
    per `SRC->DST` key, and reports each movement with no route (no_route);
    a vessel that could not be bound gets no route finding on top. The
    same walk screens capacity on a tape laid out by `init_machine` with
    the bindings naming its cells: unless a flask is charged over its
    node's capacity (every such flask is reported), each movement is
    resolved with `cstm.movement`, applied with `cstm.step_tape`, and the
    cell it filled, which `step_tape` returns, is checked with
    `cstm.over_capacity`, as `execute_plan`'s watchdog does. The first
    overfill or infeasible move ends the screen. The screen runs no
    reactions, so it is exact for movement, and energy moves, which then
    fill no cell, are skipped; a reaction that raises a cell's amount is
    caught at run time by the watchdog.
    """
    checked = prog._checked
    if checked is not None and checked[0] is graph:
        return checked[1:]
    from ..cstm import (  # deferred: cstm imports this package
        MachineError, init_machine, lower_program, movement, over_capacity,
        step_tape,
    )

    findings = check_params(prog)
    bindings, unbound, bound = bind_vessels(prog, graph)
    findings += bound
    reservoir = graph.reservoir()
    reservoir_id = None if reservoir is None else reservoir.id

    nodes = graph.nodes
    state = init_machine(prog, bindings)
    capacity: list[Finding] = []       # reported after the routing findings
    for cell in sorted(state.cells, key=lambda c: c.name):
        over = over_capacity(cell, nodes)
        if over is not None:
            capacity.append(Finding("capacity_exceeded", f"{cell.name} charged with {over[0]:g} "
                                    f"mL against capacity {over[1]:g}", cell.name))
    lowering = lower_program(prog)
    screening = not capacity and lowering.error is None
    routes: dict[str, tuple[str, ...]] = {}
    for prims in lowering.ops:         # () for a step reported above
        for prim in prims:
            if prim.code == "AE" or prim.code == "SE":
                continue
            ends = prim.ends
            if ends is not None and ends[0] not in unbound and ends[1] not in unbound:
                src, dst = ends
                src = reservoir_id if src is None else bindings.get(src, src)
                dst = bindings.get(dst, dst)
                key = f"{src}->{dst}"
                if src is not None and src != dst and key not in routes:
                    try:
                        routes[key] = route(graph, src, dst)
                    except RouteError:
                        findings.append(Finding(
                            "no_route", f"no path {src} -> {dst} (operation "
                            f"{prim.op_index + 1}, {prim.op_kind.value})", key))
            if not screening:
                continue
            try:
                move = movement(state, prim)
            except MachineError:
                screening = False
                continue
            cell = step_tape(state, prim, move)
            over = None if cell is None else over_capacity(cell, nodes)
            if over is not None:
                capacity.append(Finding(
                    "capacity_exceeded", f"{cell.name} filled with {over[0]:g} mL "
                    f"against capacity {over[1]:g} (operation {prim.op_index + 1}, "
                    f"{prim.op_kind.value})", cell.name))
                screening = False
    settle(prog, "_checked", (graph, ValidationReport(findings + capacity),
                              MappingProxyType(bindings), MappingProxyType(routes)))
    return prog._checked[1:]
