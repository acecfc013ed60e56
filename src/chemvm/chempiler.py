"""Compilation of programs onto a hardware graph.

A rig is a directed graph: matter nodes (flasks, reactors, separators,
rotavaps, filters, storage, chromatograph, waste, product) connected
through valves and a syringe pump. `loads_graph` checks a rig's structure
once, at load: each node's fields, known edge endpoints, no self-edges,
and no node with more tube partners than ports; it raises `GraphError` (a
`ValueError`). The built-in rig (`build_default_graph`) is the rig file
`default_rig.graph` packaged beside this module, read the same way. A
rig is frozen (`HardwareGraph`), so its adjacency, its per-kind node
lists and its reservoir are derived once, when it is built.
Whether a program fits a rig is decided by one static pass,
`check_program`; `chempile` adds to its bindings and routes only the
plan's cleaning steps and per-step allocations. The plan (a frozen
`CompiledPlan`) maps the program onto the rig; it does not rewrite it.

Executing a plan runs the program as written on the same machine the
abstract run uses, with the plan's bindings naming each vessel's cell
after its node; the only additions are stroke records and a capacity
watchdog. Each movement is
booked once, ahead of the primitive that starts it, as one group of
strokes along its `src->dst` route in the plan: ceil(total / pump
capacity) strokes when the route runs through a pump, one otherwise, the
last stroke carrying the remainder. A movement through the transit line
(transfer, distil, sublime) is the pump's syringe filling and emptying, so
it is booked once, ahead of the SM that fills the line. A movement whose
route is missing from the plan stops the run at q_fail. So does a cell
filled over its node's capacity: after each primitive, and the reaction it
triggered, the watchdog checks the cell that primitive filled (the cell
`cstm.step_tape` returns) with the screen's predicate
(`cstm.over_capacity`).
Amounts are mol, volumes mL, converted 1:1 nominal.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType

from .chemlang.ast import OP_SPECS, ChemProgram, OpKind, settle, settle_maps
from .chemlang.validate import Finding, ValidationReport, check_params
from .jsonio import dumps_stable, is_integer, is_number, json_entry, loads_object
from .rules import RuleDatabase
from .cstm import (
    DEFAULT_BUDGET, ExecutionTrace, Machine, MachineError, Primitive,
    VesselCell, init_machine, lower_program, movement, over_capacity, step_tape,
)

__all__ = [
    "HardwareNode",
    "HardwareGraph",
    "GraphError",
    "RouteError",
    "CompiledPlan",
    "MATTER_KINDS",
    "FLOW_KINDS",
    "NODE_KINDS",
    "load_graph",
    "loads_graph",
    "build_default_graph",
    "route",
    "bind_vessels",
    "check_program",
    "chempile",
    "execute_plan",
    "lowering_view",
]

RESERVOIR_ATTACHMENT = "solvent_reservoir"


class GraphError(ValueError):
    pass


@dataclass(frozen=True)
class HardwareNode:
    id: str
    kind: str
    capabilities: frozenset[str] = frozenset()
    capacity: float | None = None      # mL; None = unlimited
    ports: int | None = None           # max tube connections; None = unlimited
    attachments: tuple[str, ...] = ()

    @property
    def reserved(self) -> bool:
        return RESERVOIR_ATTACHMENT in self.attachments


@dataclass(frozen=True)
class HardwareGraph:
    """A rig, frozen: `nodes` is a read-only copy and `edges` a tuple, so the
    adjacency, the nodes of each kind and the reservoir are derived once, in
    sorted id order, and a program's check against it may be kept on it."""

    nodes: Mapping[str, HardwareNode]
    edges: tuple[tuple[str, str], ...]
    _adj: dict[str, tuple[str, ...]] = field(init=False, repr=False)
    _kinds: dict[str, tuple[HardwareNode, ...]] = field(init=False, repr=False)
    _reservoir: HardwareNode | None = field(init=False, repr=False)

    def __post_init__(self) -> None:
        nodes = MappingProxyType(dict(self.nodes))
        adj: dict[str, set[str]] = {n: set() for n in nodes}
        for a, b in self.edges:
            if a in adj:
                adj[a].add(b)
        ordered = [nodes[i] for i in sorted(nodes)]
        kinds: dict[str, list[HardwareNode]] = {}
        for node in ordered:
            kinds.setdefault(node.kind, []).append(node)
        settle(self, "nodes", nodes)
        settle(self, "edges", tuple(self.edges))
        settle(self, "_adj", {n: tuple(sorted(v)) for n, v in adj.items()})
        settle(self, "_kinds", {k: tuple(v) for k, v in kinds.items()})
        settle(self, "_reservoir", next((node for node in ordered if node.reserved), None))

    def neighbors(self, node: str) -> tuple[str, ...]:
        return self._adj.get(node, ())

    def by_kind(self, kind: str) -> tuple[HardwareNode, ...]:
        return self._kinds.get(kind, ())

    def reservoir(self) -> HardwareNode | None:
        return self._reservoir


# ---------------------------------------------------------------------------
# Routing, binding and the static check

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


def bind_vessels(prog: ChemProgram, graph
                 ) -> tuple[dict[str, str], set[str], list[Finding]]:
    """Bind every program vessel to a graph node.

    Waste and product go to the first node of their kind. Source flasks, in
    declaration order, go to the ReagentFlask of their name, else to the
    first free one. Working vessels go to the node of their name, else to
    the free node of the wanted kind that hosts every station capability
    the steps ask of them and has the fewest capabilities (a kind word that
    names no node kind matches no node). The solvent reservoir is never
    bound, and a program whose lowering draws from it (a primitive with no
    source, see `Primitive.ends`) needs one. Returns the bindings (vessel
    -> node id), the vessels that could not be bound, and the findings
    (vessel_class_exhausted, missing_capability, no_reservoir).
    """
    findings: list[Finding] = []
    bindings: dict[str, str] = {}
    claimed: set[str] = set()
    unbound: set[str] = set()          # vessels reported as impossible to bind

    def refuse(code: str, message: str, vessel: str) -> None:
        findings.append(Finding(code, message, vessel))
        unbound.add(vessel)

    for vessel, kind in (("waste", "Waste"), ("product", "Product")):
        nodes = graph.by_kind(kind)
        if nodes:
            bindings[vessel] = nodes[0].id
            claimed.add(nodes[0].id)
        else:
            refuse("vessel_class_exhausted", f"no {kind} node in graph", vessel)

    reservoir = graph.reservoir()
    if reservoir is not None:
        claimed.add(reservoir.id)
    elif any(prim.ends is not None and prim.ends[0] is None
             for prims in lower_program(prog).ops for prim in prims):
        findings.append(Finding("no_reservoir", "program draws wash solvent but the "
                                "graph has no reservoir flask", None))

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
            refuse("vessel_class_exhausted", f"no free ReagentFlask for source vessel {v}", v)
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
                refuse("missing_capability", f"no free node for {req.vessel} with "
                       f"{sorted(need)} (closest lacks {sorted(missing)})", req.vessel)
            else:
                refuse("vessel_class_exhausted", f"no free node of kind "
                       f"{want_kind or 'any'} for {req.vessel}", req.vessel)
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

    The pass runs `check_params`, `bind_vessels`, then one walk of the
    lowered primitives that routes and screens capacity, and its findings
    come in that order: parameters, binding, routing, capacity. Problems
    are findings rather than exceptions, so one report names everything
    wrong at once. `chemlang.validate_program` reports them and `chempile`
    builds its plan on them, so the two agree on every program and rig.

    The pass runs on the first call for a rig object and is kept on the
    program (`ChemProgram._checked`, one entry, which holds the rig so its
    id is never reused), which is sound because both are frozen; every
    later call for that rig returns the kept objects themselves, a frozen
    report and read-only maps, and a call with another rig object runs it
    again.

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


# ---------------------------------------------------------------------------
# Serialization

_NODE_KEYS = frozenset({"id", "kind"})
_NODE_OPTIONAL = frozenset({"capabilities", "capacity", "ports", "attachments"})
_GRAPH_KEYS = frozenset({"nodes"})
_GRAPH_OPTIONAL = frozenset({"edges"})


def _strings(x) -> bool:
    return isinstance(x, list) and all(isinstance(v, str) for v in x)


def _parse_node(obj, where: str) -> HardwareNode:
    obj, where = json_entry(obj, "node", where, _NODE_KEYS, _NODE_OPTIONAL, GraphError)
    if not isinstance(obj["id"], str):
        raise GraphError(f"{where}: id must be a string")
    if not isinstance(obj["kind"], str) or obj["kind"] not in NODE_KINDS:
        raise GraphError(f"{where}: unknown kind {obj['kind']!r}")
    caps = obj.get("capabilities", [])
    attachments = obj.get("attachments", [])
    if not (_strings(caps) and _strings(attachments)):
        raise GraphError(f"{where}: capabilities and attachments must be lists of strings")
    capacity = obj.get("capacity")
    if capacity is not None and (not is_number(capacity) or capacity <= 0):
        raise GraphError(f"{where}: capacity must be positive")
    ports = obj.get("ports")
    if ports is not None and (not is_integer(ports) or ports < 1):
        raise GraphError(f"{where}: ports must be a positive integer")
    return HardwareNode(obj["id"], obj["kind"], frozenset(caps),
                        capacity, ports, tuple(attachments))


def loads_graph(text: str, where: str = "<string>") -> HardwareGraph:
    """A rig from its JSON document. Besides each node's fields, rejects
    duplicate node ids, edges that are not pairs of known node ids,
    self-edges, and nodes with more tube partners (in either direction)
    than their `ports`."""
    doc = loads_object(text, where, _GRAPH_KEYS, _GRAPH_OPTIONAL, GraphError)
    edge_list = doc.get("edges", [])
    if not (isinstance(doc["nodes"], list) and isinstance(edge_list, list)):
        raise GraphError(f"{where}: nodes and edges must be lists")
    nodes: dict[str, HardwareNode] = {}
    for obj in doc["nodes"]:
        node = _parse_node(obj, where)
        if node.id in nodes:
            raise GraphError(f"{where}: duplicate node id {node.id!r}")
        nodes[node.id] = node
    edges: list[tuple[str, str]] = []
    partners: dict[str, set[str]] = {n: set() for n in nodes}
    for e in edge_list:
        if not (_strings(e) and len(e) == 2):
            raise GraphError(f"{where}: edge must be a pair of node ids, got {e!r}")
        a, b = e
        if a not in nodes or b not in nodes:
            raise GraphError(f"{where}: edge ({a!r}, {b!r}) references unknown node")
        if a == b:
            raise GraphError(f"{where}: self-edge on {a!r}")
        edges.append((a, b))
        partners[a].add(b)
        partners[b].add(a)
    for nid, node in nodes.items():
        if node.ports is not None and len(partners[nid]) > node.ports:
            raise GraphError(f"{where}: node {nid!r} has {len(partners[nid])} "
                             f"connections, {node.ports} ports")
    return HardwareGraph(nodes, edges)


def load_graph(path: str | Path) -> HardwareGraph:
    path = Path(path)
    return loads_graph(path.read_text(encoding="utf-8"), where=str(path))


def build_default_graph() -> HardwareGraph:
    """Reference bench: four reagent flasks and a solvent reservoir feeding,
    through three valves and one syringe pump, a heated/chilled reactor with
    a photo sensor, a separator with a conductivity sensor, a rotavap, a
    filter, a chromatograph, storage, waste and a product receiver."""
    return load_graph(Path(__file__).with_name("default_rig.graph"))


# ---------------------------------------------------------------------------
# Compilation

@dataclass(frozen=True)
class CompiledPlan:
    program: ChemProgram               # as written; run through `bindings`
    graph: HardwareGraph
    bindings: Mapping[str, str]        # program vessel -> node id, read-only
    routes: Mapping[str, tuple[str, ...]]   # "SRC->DST" -> node path, read-only
    cleaning: tuple[tuple[int, str], ...]   # clean ops: (op_index, node id)
    allocations: Mapping[int, tuple[str, ...]]  # reaction step -> node ids, read-only
    report: ValidationReport

    def __post_init__(self) -> None:
        settle_maps(self, "bindings", "routes", "allocations")

    @property
    def feasible(self) -> bool:
        return self.report.ok

    def to_json(self) -> str:
        payload = {
            "source": "program",
            "feasible": self.feasible,
            "bindings": {k: self.bindings[k] for k in sorted(self.bindings)},
            "routes": {k: self.routes[k] for k in sorted(self.routes)},
            "cleaning": [{"op_index": i, "vessel": v} for i, v in self.cleaning],
            "allocations": {str(k): v for k, v in sorted(self.allocations.items())},
            "findings": [f.as_dict() for f in self.report.findings],
        }
        return dumps_stable(payload, indent=2) + "\n"


def chempile(prog: ChemProgram, graph: HardwareGraph) -> CompiledPlan:
    """Bind a program onto a rig (a planned pathway compiles as
    `pathway_to_program(pathway, db)`).

    Always returns a plan; infeasibility is reported through plan.report
    findings (missing_param, param_out_of_range, undeclared_reference,
    vessel_class_exhausted, missing_capability, no_route,
    capacity_exceeded, no_reservoir).
    """
    report, bindings, routes = check_program(prog, graph)
    cleaning: list[tuple[int, str]] = []
    allocations: dict[int, list[str]] = {}
    current_step = 1
    for i, op in enumerate(prog.steps):
        if op.reaction_step is not None:
            current_step = op.reaction_step
        touched = set(op.vessels()) | ({"waste"} if op.kind == OpKind.CLEAN else set())
        alloc = allocations.setdefault(current_step, [])
        for v in sorted(bindings.get(v, v) for v in touched):
            if v not in alloc:
                alloc.append(v)
        # a clean without its vessel is a missing_param finding
        if op.kind == OpKind.CLEAN and "vessel" in op.params:
            vessel = op.params["vessel"]
            cleaning.append((i, bindings.get(vessel, vessel)))

    return CompiledPlan(prog, graph, bindings, routes, tuple(cleaning),
                        MappingProxyType({k: tuple(v) for k, v in allocations.items()}),
                        report)


# ---------------------------------------------------------------------------
# Plan execution with stroke bookkeeping

def execute_plan(plan: CompiledPlan, db: RuleDatabase, *, seed: int = 0,
                 budget: int = DEFAULT_BUDGET, explore: bool = False
                 ) -> ExecutionTrace:
    """Run a compiled plan: the abstract machine semantics, plus stroke
    records ahead of each movement and the capacity watchdog on the cell
    each primitive fills."""
    if not plan.feasible:
        raise GraphError("plan is not feasible:\n" + "\n".join(
            f"  [{f.code}] {f.message}" for f in plan.report.findings))
    graph = plan.graph
    reservoir = graph.reservoir()
    reservoir_id = reservoir.id if reservoir else None
    # each route in the plan with the capacity of its first pump (None: no
    # pump, so one stroke)
    legs = {key: (path, next((graph.nodes[n].capacity for n in path
                              if graph.nodes[n].kind == "Pump" and graph.nodes[n].capacity),
                             None))
            for key, path in plan.routes.items()}
    booked = 0      # strokes the run has booked

    def book_strokes(machine: Machine, prim: Primitive, move: tuple | None) -> None:
        nonlocal booked
        if move is None:
            return
        src, dst, _, total = move
        if total <= 0 or src is dst:
            return
        key = f"{reservoir_id if src is None else src.name}->{dst.name}"
        leg = legs.get(key)
        if leg is None:
            machine.fail(f"no route {key} in the plan")
        path, pump_cap = leg
        strokes = 1 if pump_cap is None else max(1, math.ceil(total / pump_cap - 1e-12))
        booked += strokes
        if booked > machine.budget:
            machine.fail("budget exhausted")
        per = total / strokes
        moved_so_far = 0.0
        for j in range(1, strokes + 1):
            moved = per if j < strokes else total - moved_so_far
            moved_so_far += per
            machine.records.append({
                "kind": "transfer",
                "step": machine.state.step_count,
                "op_index": prim.op_index,
                "route": path,
                "stroke": j,
                "strokes": strokes,
                "moved": moved,
                "total": total,
            })

    def watch_capacity(machine: Machine, prim: Primitive, cell: VesselCell | None) -> None:
        over = None if cell is None else over_capacity(cell, graph.nodes)
        if over is None:
            return
        held, capacity = over
        machine.fail(f"{cell.name} overfilled: {held:g} over capacity {capacity:g}", {
            "kind": "deviation",
            "code": "capacity_exceeded",
            "step": machine.state.step_count,
            "op_index": prim.op_index,
            "cell": cell.name,
            "held": held,
            "capacity": capacity,
        })

    return Machine(plan.program, db, seed=seed, explore=explore,
                   budget=budget,
                   pre_primitive=book_strokes, post_primitive=watch_capacity,
                   bindings=plan.bindings).execute()


def lowering_view(trace: ExecutionTrace, bindings: Mapping[str, str] | None = None
                  ) -> list[tuple]:
    """Comparable projection of a trace: per primitive/transition record the
    (op_index, discriminator, cell, contents, temp, controller state), with
    node ids mapped back to the program's vessel names when bindings are
    given. Two traces are equivalent lowerings when their views and halts
    agree."""
    back = {v: k for k, v in (bindings or {}).items()}
    view = []
    for r in trace.records:
        if r["kind"] == "primitive":
            tag = r["code"]
        elif r["kind"] == "transition":
            tag = f"rule:{r['rule']}"
        else:
            continue
        cell = back.get(r["cell"], r["cell"])
        contents = tuple(sorted(r["contents"].items()))
        view.append((r["op_index"], tag, cell, contents, r["temp"], r["state"]))
    return view
