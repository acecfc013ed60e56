"""Static checks of a program against a hardware graph.

The validator reports every step whose required parameters are missing or
out of range, then what the compiler reports about binding the program onto
the graph and about its capacities, in the compiler's order: the parameter
check `check_params`, the binding pass `bind_vessels` and the capacity
screen `check_capacity` live here, and `chempile` calls all three. Only
routing (`no_route`) is left to the compiler. The capacity screen walks
the program on the machine's movement model (`cstm`), imported when it
runs, since `cstm` imports this package. The graph is duck-typed (`nodes`,
`by_kind`, `reservoir()`; nodes with `id`, `kind`, `capabilities`,
`capacity`, `reserved`) so this module does not depend on the compiler.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..jsonio import dumps_stable
from .ast import (
    REQUIRED_PARAMS,
    STATION_CAPABILITY,
    ChemProgram,
    OpKind,
    Quantity,
)

__all__ = [
    "Finding", "ValidationReport", "validate_program", "bind_vessels",
    "check_capacity", "check_params", "MATTER_KINDS", "FLOW_KINDS", "NODE_KINDS",
]

TEMP_RANGE_C = (-200.0, 400.0)

# Node kinds that can hold material (vs. pure routing nodes).
MATTER_KINDS = frozenset({
    "ReagentFlask", "Reactor", "Separator", "Rotavap", "Filter",
    "Storage", "Chromatograph", "Waste", "Product",
})
FLOW_KINDS = frozenset({"Valve", "Pump"})
NODE_KINDS = MATTER_KINDS | FLOW_KINDS

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


@dataclass
class Finding:
    code: str
    message: str
    where: str

    def as_dict(self) -> dict:
        return {"code": self.code, "message": self.message, "where": self.where}


@dataclass
class ValidationReport:
    findings: list[Finding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def add(self, code: str, message: str, where: str) -> None:
        self.findings.append(Finding(code, message, where))

    def to_json(self) -> str:
        return dumps_stable(
            {"ok": self.ok, "findings": [f.as_dict() for f in self.findings]},
            indent=2,
        ) + "\n"


def validate_program(prog: ChemProgram, graph) -> ValidationReport:
    report = ValidationReport()
    check_params(prog, report)
    bindings, _, findings = bind_vessels(prog, graph)
    report.findings += findings
    check_capacity(prog, bindings, graph, report)
    return report


def check_params(prog: ChemProgram, report: ValidationReport) -> None:
    """Report every step's missing parameters (missing_param) and
    temperatures, times and amounts out of range (param_out_of_range)."""
    for i, op in enumerate(prog.steps):
        params = op.params
        missing = REQUIRED_PARAMS[op.kind] - params.keys()
        found = [("missing_param", f"{op.kind.value} requires parameter {key!r}")
                 for key in sorted(missing)] if missing else []
        for key in ("temp", "cool_to"):
            v = params.get(key)
            if isinstance(v, Quantity) and not (TEMP_RANGE_C[0] <= v.value <= TEMP_RANGE_C[1]):
                found.append((
                    "param_out_of_range",
                    f"{key}={v.value:g} C outside [{TEMP_RANGE_C[0]:g}, {TEMP_RANGE_C[1]:g}]",
                ))
        for key in ("time", "amount"):
            v = params.get(key)
            if isinstance(v, Quantity) and v.value <= 0:
                found.append(("param_out_of_range", f"{key} must be positive"))
        if found:
            where = f"step {i + 1} ({op.kind.value}, line {op.line})"
            for code, message in found:
                report.add(code, message, where)


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
    report = ValidationReport()
    bindings: dict[str, str] = {}
    claimed: set[str] = set()
    unbound: set[str] = set()          # vessels reported as impossible to bind

    waste_nodes = graph.by_kind("Waste")
    product_nodes = graph.by_kind("Product")
    if waste_nodes:
        bindings["waste"] = waste_nodes[0].id
        claimed.add(waste_nodes[0].id)
    else:
        report.add("vessel_class_exhausted", "no Waste node in graph", "waste")
        unbound.add("waste")
    if product_nodes:
        bindings["product"] = product_nodes[0].id
        claimed.add(product_nodes[0].id)
    else:
        report.add("vessel_class_exhausted", "no Product node in graph", "product")
        unbound.add("product")

    reservoir = graph.reservoir()
    needs_reservoir = any(
        op.kind in (OpKind.SEPARATE, OpKind.CLEAN) and "solvent" not in op.params
        for op in prog.steps
    )
    if needs_reservoir and reservoir is None:
        report.add("no_reservoir", "program draws wash solvent but the graph "
                   "has no reservoir flask", None)
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
            report.add("vessel_class_exhausted",
                       f"no free ReagentFlask for source vessel {v}", v)
            unbound.add(v)
            continue
        bindings[v] = free[0]
        claimed.add(free[0])

    # working vessels: capability needs from the steps, kind from hardware reqs
    caps_needed: dict[str, set[str]] = {}
    for op in prog.steps:
        cap = STATION_CAPABILITY.get(op.kind)
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
                report.add("missing_capability",
                           f"no free node for {req.vessel} with {sorted(need)} "
                           f"(closest lacks {sorted(missing)})", req.vessel)
            else:
                report.add("vessel_class_exhausted",
                           f"no free node of kind {want_kind or 'any'} for {req.vessel}",
                           req.vessel)
            unbound.add(req.vessel)
            continue
        exact = [n for n in with_caps if n.id == req.vessel]
        chosen = exact[0] if exact else sorted(
            with_caps, key=lambda n: (len(n.capabilities), n.id))[0]
        bindings[req.vessel] = chosen.id
        claimed.add(chosen.id)

    return bindings, unbound, report.findings


def check_capacity(prog: ChemProgram, bindings: dict[str, str], graph,
                   report: ValidationReport) -> None:
    """Static capacity screen, on the movement model the machine runs.

    The tape is laid out and its flasks charged by `init_machine`, with
    `bindings` naming the cells after their nodes. Every flask charged over
    its node's capacity is reported (capacity_exceeded, by node id).
    Otherwise the screen walks the program's lowering: it resolves each
    primitive's movement with `cstm.movement`, applies it with
    `cstm.step_tape`, and checks the cell it filled (`cstm.filled_cell`)
    with `cstm.over_capacity`, as `execute_plan`'s watchdog does. The first
    overfill is reported with its node and operation, and the walk stops
    there; it also stops at an infeasible move, where the run halts too.
    No reactions run, so the screen is exact for movement; a reaction that
    raises a cell's amount is caught at run time, by the watchdog, which
    checks a cell after the reaction in it.
    """
    from ..cstm import (  # deferred: cstm imports this package
        MachineError, filled_cell, init_machine, lower_program, movement,
        over_capacity, step_tape,
    )

    nodes = graph.nodes
    state = init_machine(prog, bindings)
    charged = False
    for cell in sorted(state.cells, key=lambda c: c.name):
        over = over_capacity(cell, nodes)
        if over is not None:
            report.add("capacity_exceeded", f"{cell.name} charged with {over[0]:g} mL "
                       f"against capacity {over[1]:g}", cell.name)
            charged = True
    lowering = lower_program(prog)
    if charged or lowering.error is not None:
        return
    decls = lowering.decls
    for prims in lowering.ops:
        for prim in prims:
            try:
                move = movement(state, prim, decls)
            except MachineError:
                return
            step_tape(state, prim, move)
            cell = filled_cell(state, prim)
            over = None if cell is None else over_capacity(cell, nodes)
            if over is not None:
                report.add("capacity_exceeded",
                           f"{cell.name} filled with {over[0]:g} mL against "
                           f"capacity {over[1]:g} (operation {prim.op_index + 1}, "
                           f"{prim.op_kind.value})", cell.name)
                return
