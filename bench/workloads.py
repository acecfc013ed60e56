"""The four workloads: set-up, one job, and the checks every job passes.

A job calls the library functions the CLI commands and experiment
scripts call, in the same order, and writes no files. Checks compare
against values the benchmark works out itself (from the generated inputs
or by hand) or against properties the method must have; none compares
against a stored copy of earlier output.
"""

from __future__ import annotations

import math
import random
import time
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

from chemvm import assembly, chemlang, chempiler, cstm, dec, rules

import inputs

# The paper's unit-operation table: each operation kind lowers to this
# sequence of Add/Subtract Matter/Energy primitives.
EXPANSION = {
    "add": ("AM",),
    "transfer": ("SM", "AM"),
    "heat_stir": ("AE",),
    "chill": ("SE",),
    "react_hot": ("AM", "AE"),
    "react_cold": ("AM", "SE"),
    "separate": ("AM", "AE", "SM"),
    "dry": ("AE", "SM"),
    "crystallise": ("AE", "SE", "SM"),
    "distil": ("AE", "SM", "SE", "AM"),
    "sublime": ("SM", "AE", "SE", "AM"),
    "filter": ("SM",),
    "evaporate": ("AE", "SM"),
    "clean": ("AM", "SM"),
}
PUMP_ID, PUMP_STROKE_ML = "P1", 25.0     # the built-in rig's syringe pump
RESIDUAL_MAX = 1e-9


class CheckFailed(Exception):
    pass


class StrokeFault(CheckFailed):
    """A movement through the pump booked with the wrong number of strokes.
    The program books a transfer's legs into and out of the pump as one
    stroke each whatever they move (see CHANGES.md); a job that trips this
    counts as failed, not as a wrong result of the benchmark."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def check_ledger(trace, arm: str) -> None:
    require(trace.ledger.residual <= RESIDUAL_MAX,
            f"{arm}: ledger residual {trace.ledger.residual:g}")


def check_primitives(prog, trace, arm: str) -> set[int]:
    """Each executed operation wrote exactly its table expansion; returns
    the executed operation indices."""
    by_op: dict[int, list[str]] = {}
    for r in trace.records:
        if r["kind"] == "primitive":
            by_op.setdefault(r["op_index"], []).append(r["code"])
    executed = sorted(by_op)
    require(executed == list(range(len(executed))), f"{arm}: ops ran out of order")
    if trace.halt != "q_fail":
        require(len(executed) == len(prog.steps), f"{arm}: not every op ran")
    for i in executed:
        want = EXPANSION[prog.steps[i].kind.value]
        require(tuple(by_op[i]) == want,
                f"{arm}: op {i} wrote {by_op[i]}, the table says {list(want)}")
    return set(executed)


def check_strokes(prog, trace, executed: set[int]) -> None:
    """A movement whose route runs through the pump takes ceil(amount /
    25 mL) strokes, any other one stroke; the strokes add up to the amount,
    and a completed charge moves the amount the program asked."""
    groups: list[list[dict]] = []
    for r in trace.records:
        if r["kind"] != "transfer":
            continue
        if r["stroke"] == 1:
            groups.append([])
        groups[-1].append(r)
    first_total: dict[int, float] = {}
    for g in groups:
        total = g[0]["total"]
        want = 1
        if PUMP_ID in g[0]["route"]:
            want = max(1, math.ceil(total / PUMP_STROKE_ML - 1e-9))
        if len(g) != want or any(r["strokes"] != want for r in g):
            raise StrokeFault(f"op {g[0]['op_index']}: {len(g)} strokes for {total:g} mL "
                              f"along {'-'.join(g[0]['route'])}, want {want}")
        require([r["stroke"] for r in g] == list(range(1, want + 1)),
                f"op {g[0]['op_index']}: strokes out of order")
        require(close(math.fsum(r["moved"] for r in g), total),
                f"op {g[0]['op_index']}: strokes do not add up to {total:g}")
        first_total.setdefault(g[0]["op_index"], total)
    for i, op in enumerate(prog.steps):
        amount = op.params.get("amount")
        if i in executed and "reagent" in op.params and amount is not None:
            require(close(first_total.get(i, 0.0), amount.value),
                    f"op {i}: charged {first_total.get(i, 0.0):g}, asked {amount.value:g}")


class Corpus:
    """Each job takes one program from canonical text through parse,
    validate, chempile, the three execution arms and JSONL, as the CLI's
    validate / compile / run / run --graph / dec-run commands do."""

    name = "corpus"
    speed_loop = "interpreter"      # the kind of work its jobs do (see run.py)

    def setup(self, root: Path, seed: int) -> float:
        self.db = rules.load_rules(root / "fixtures" / "tiny.rules")
        self.graph = chempiler.build_default_graph()
        return 0.0

    def round(self, seed: int, index: int) -> list:
        texts = inputs.corpus_round(seed, index)
        base = seed * 10_000_000 + index * len(texts)
        return [(text, base + i) for i, text in enumerate(texts)]

    def run(self, job):
        text, seed = job
        prog = chemlang.parse_program(text)
        report = chemlang.validate_program(prog, self.graph)
        plan = chempiler.chempile(prog, self.graph)
        abstract = cstm.run(prog, self.db, seed=seed)
        compiled = chempiler.execute_plan(plan, self.db, seed=seed)
        corrected = dec.run_with_dec(prog, self.db, eps=0.2, seed=seed)
        jsonl = (abstract.to_jsonl(), compiled.to_jsonl(), corrected.trace.to_jsonl())
        return prog, report, plan, abstract, compiled, corrected, jsonl

    def check(self, job, out) -> None:
        prog, report, plan, abstract, compiled, corrected, jsonl = out
        require(chemlang.format_program(prog) == job[0], "format(parse(text)) != text")
        require(report.ok and plan.feasible, f"{prog.name}: not feasible on the rig")
        for arm, trace in (("abstract", abstract), ("compiled", compiled),
                           ("dec", corrected.trace)):
            check_ledger(trace, arm)
        require(abstract.halt == compiled.halt, "abstract and compiled halts differ")
        require(chempiler.lowering_view(abstract)
                == chempiler.lowering_view(compiled, plan.bindings),
                "lowering views differ")
        check_primitives(prog, abstract, "abstract")
        check_strokes(prog, compiled, check_primitives(prog, compiled, "compiled"))
        for text, trace in zip(jsonl, (abstract, compiled, corrected.trace)):
            require(text.count("\n") == len(trace.records), "JSONL misses records")


class RuleChain:
    """Each job plans a chain target of depth 4-8 against the 5,000-rule
    database, encodes the pathway as a program and runs it abstractly, as
    `chemvm plan --program` followed by `chemvm run` does."""

    name = "rules-5k"
    speed_loop = "interpreter"
    n_rules = 5000

    def setup(self, root: Path, seed: int) -> float:
        start = time.perf_counter()
        text = inputs.chain_db_text(self.n_rules, seed)
        generated = time.perf_counter() - start
        self.db = rules.loads_rules(text)
        return generated

    def round(self, seed: int, index: int) -> list:
        return [(depth, seed * 10_000_000 + index)
                for depth in inputs.rules_round(seed, index)]

    def run(self, job):
        depth, seed = job
        pathway = rules.plan_pathway(self.db, inputs.chain_species(depth),
                                     inputs.chain_stock_for(depth))
        prog = rules.pathway_to_program(pathway, self.db)
        return pathway, cstm.run(prog, self.db, seed=seed)

    def check(self, job, out) -> None:
        depth = job[0]
        pathway, trace = out
        want = inputs.chain_expected_ids(depth, self.n_rules)
        require(pathway.rule_ids() == want, f"depth {depth}: planned {pathway.rule_ids()}")
        require(trace.halt == "q_out", f"depth {depth}: halted {trace.halt}")
        check_ledger(trace, "abstract")
        applied = [e["rule_id"] for e in trace.rule_events if e["kind"] == "applied"]
        require(applied == want, f"depth {depth}: applied {applied}")
        target = inputs.chain_species(depth)
        product = trace.ledger.product_by_species
        require(set(product) == {target}
                and close(product[target], inputs.CHAIN_TARGET_MOL),
                f"depth {depth}: product {product}")


EPS_CYCLE = (0.0, 0.1, 0.2, 0.3)
# Paired seeds per block: 40 on average. Spreading block sizes makes job
# times a continuum, so the median moves smoothly when the machine's speed
# changes instead of jumping between two narrow peaks.
BLOCK_SEEDS = (24, 32, 40, 48, 56)
MAJOR_SHARE = 0.45          # share of injected errors that are major
DEC_YIELD = 0.9             # every rule of dec_chain.rules
DEC_STEPS = 3
TAIL_MIN = 1e-9             # smallest binomial tail a baseline rate may sit in


def binomial_tails(k: int, n: int, p: float) -> tuple[float, float]:
    """P(X <= k) and P(X >= k) for X ~ Binomial(n, p)."""
    pmf = [math.comb(n, i) * p ** i * (1.0 - p) ** (n - i) for i in range(n + 1)]
    return math.fsum(pmf[:k + 1]), math.fsum(pmf[k:])


class DecSweep:
    """Each job is one `evaluate_correction` block of 24-56 paired seeds at
    one eps of 0.0, 0.1, 0.2, 0.3, as scripts/run_dec_experiment.py runs it
    on dec_3step.chem with dec_chain.rules. A round is every (eps, block
    size) pair once, in a seeded order."""

    name = "dec-sweep"
    speed_loop = "interpreter"

    def setup(self, root: Path, seed: int) -> float:
        fixtures = root / "fixtures"
        self.prog = chemlang.parse_program(
            (fixtures / "dec_3step.chem").read_text(encoding="utf-8"))
        self.db = rules.load_rules(fixtures / "dec_chain.rules")
        self.policy = dec.CorrectionPolicy()
        return 0.0

    def round(self, seed: int, index: int) -> list:
        pairs = [(eps, n) for eps in EPS_CYCLE for n in BLOCK_SEEDS]
        random.Random(f"{seed}/dec/{index}").shuffle(pairs)
        seed0 = seed * 10_000_000 + index * len(EPS_CYCLE) * sum(BLOCK_SEEDS)
        jobs = []
        for eps, n in pairs:
            jobs.append((eps, n, seed0))
            seed0 += n
        return jobs

    def run(self, job):
        eps, n, seed0 = job
        return dec.evaluate_correction(self.prog, self.db, policy=self.policy, eps=eps,
                                       n_seeds=n, seed0=seed0)

    def check(self, job, out) -> None:
        eps, n, seed0 = job
        require(out["n"] == n, f"eps {eps}: n = {out['n']}")
        on = round(out["rate_corrected"] * n)
        off = round(out["rate_baseline"] * n)
        b, c = out["discordant_better"], out["discordant_worse"]
        require(b - c == on - off, f"eps {eps}: discordant pairs do not match the rates")
        exact = sum(Fraction(math.comb(b + c, k)) for k in range(b, b + c + 1)) \
            / 2 ** (b + c)
        require(close(out["p_value"], float(exact), 1e-12),
                f"eps {eps}: p = {out['p_value']!r}, exact tail {float(exact)!r}")
        if eps == 0.0:
            require(on == off == n, f"eps 0: rates {on}/{n} and {off}/{n}")
            want = DEC_YIELD ** DEC_STEPS
            for enabled in (True, False):
                r = dec.run_with_dec(self.prog, self.db, policy=self.policy, eps=0.0,
                                     seed=seed0, corrections_enabled=enabled)
                got = r.trace.ledger.product_by_species
                require(r.success and set(got) == {"tgt"} and close(got["tgt"], want),
                        f"eps 0: product {got}, want {want} tgt")
            return
        p = (1.0 - MAJOR_SHARE * eps) ** DEC_STEPS
        low, high = binomial_tails(off, n, p)
        require(min(low, high) >= TAIL_MIN,
                f"eps {eps}: baseline {off}/{n} is off Binomial({n}, {p:.4f})")


class MonteCarlo:
    """Each job runs `monte_carlo` at the default size with its own seed,
    then `mc_to_csv` and `mc_to_svg`, as `chemvm mc --svg` does."""

    name = "mc"
    speed_loop = "array"
    sigma_tolerance = 6.0

    def setup(self, root: Path, seed: int) -> float:
        return 0.0

    def round(self, seed: int, index: int) -> list:
        return [seed * 1_000_000 + index]

    def run(self, job):
        result = assembly.monte_carlo(assembly.MonteCarloConfig(seed=job))
        return result, assembly.mc_to_csv(result), assembly.mc_to_svg(result)

    def check(self, job, out) -> None:
        result, csv, svg = out
        cfg = result.config
        rows = [result.mean_n[e] for e in sorted(cfg.eps0_values)]
        for eps0, row in zip(sorted(cfg.eps0_values), rows):
            require(bool((row[1:] <= row[:-1]).all()), f"eps0 {eps0}: row increases")
            # at a = 1 the mean survival is 1 - eps0 - mean(offset)
            spread = self.sigma_tolerance * cfg.jitter_sd / math.sqrt(cfg.n_trajectories)
            require(abs(row[0] / cfg.n0 - (1.0 - eps0)) <= spread,
                    f"eps0 {eps0}: a=1 survival {row[0] / cfg.n0:.6f}")
        for lo, hi in zip(rows, rows[1:]):
            require(bool((hi <= lo).all()), "a higher eps0 row lies above a lower one")
        lines = csv.splitlines()
        require(lines[0] == "eps0,assembly_index,mean_N"
                and len(lines) - 1 == len(cfg.eps0_values) * cfg.ai_max,
                f"CSV has {len(lines) - 1} data lines")
        root = ET.fromstring(svg)
        polylines = root.findall("{http://www.w3.org/2000/svg}polyline")
        require(len(polylines) == len(cfg.eps0_values), "SVG misses curves")


WORKLOADS = {w.name: w for w in (Corpus, RuleChain, DecSweep, MonteCarlo)}
