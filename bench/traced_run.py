"""The separate traced run: per-layer metrics, tracing overhead, ladders.

Every job of a fixed number of rounds per workload runs twice back to
back, once plain and once with the span wrappers installed (alternating
which goes first), so the per-layer numbers come with the overhead the
tracing itself added. The scaling ladders then time one layer at three
sizes each, untraced.
"""

from __future__ import annotations

import math
import statistics
import sys
import time

from chemvm import assembly, chemlang, chempiler, cstm, rules

import inputs
from tracing import SpanTable, Tracer

ROUNDS = {"corpus": 2, "rules-5k": 2, "dec-sweep": 4, "mc": 8}
LADDER_RULES = (("r10", 10), ("r1k", 1000), ("r5k", 5000))
LADDER_STAGES = (("ops150", 10), ("ops1500", 100), ("ops9000", 600))
LADDER_REPEATS = 3
LADDER_BUDGET = 10 ** 6


def _paired(workload, job, tally, tracer: Tracer, job_id: int,
            traced_first: bool) -> tuple[float, float]:
    """Run one job plain and traced, back to back so both see the same
    machine speed; check both outputs with the wrappers gone. Returns the
    (plain, traced) job times."""
    times = {}
    for traced in ((True, False) if traced_first else (False, True)):
        spent: list = []
        if traced:
            with tracer.installed():
                tracer.tag = (workload.name, job_id)
                out = tally.run(workload, job, spent)
        else:
            out = tally.run(workload, job, spent)
        tally.check(workload, job, out)
        times[traced] = math.fsum(spent)
    return times[False], times[True]


def _per_call_us(fn, batch_s: float = 0.02, batches: int = 7) -> float:
    """Median over batches of the per-call time of `fn()`, in microseconds."""
    start = time.perf_counter()
    fn()
    n = max(1, round(batch_s / max(time.perf_counter() - start, 1e-7)))
    samples = []
    for _ in range(batches):
        start = time.perf_counter()
        for _ in range(n):
            fn()
        samples.append((time.perf_counter() - start) / n * 1e6)
    return statistics.median(samples)


def _median_s(fn, repeats: int = LADDER_REPEATS):
    """Median wall time of `fn()` and its last result."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times), out


def ladders(corpus, seed: int, require) -> dict:
    """Per-call and per-op cost at three sizes, so growth with size shows."""
    metrics = {}
    for label, n_rules in LADDER_RULES:
        db = rules.loads_rules(inputs.chain_db_text(n_rules, seed))
        rule = db.rules[inputs.chain_rule_id(4, n_rules)]
        contents = {inputs.chain_species(3): 1.0, inputs.chain_stock(4): 1.0}
        conditions = rule.process_window.midpoint()
        match = rules.match_rule(db, contents, conditions)
        require(match is not None and match.rule.id == rule.id,
                f"{label}: chain step 4 matched {match}")
        metrics[f"rules.match_rule_us.{label}"] = (
            _per_call_us(lambda: rules.match_rule(db, contents, conditions)), "us")
    for label, stages in LADDER_STAGES:
        text = inputs.ladder_program_text(stages)
        parse_s, prog = _median_s(lambda: chemlang.parse_program(text))
        ops = len(prog.steps)
        run_s, abstract = _median_s(
            lambda: cstm.run(prog, corpus.db, budget=LADDER_BUDGET))
        plan = chempiler.chempile(prog, corpus.graph)
        require(plan.feasible, f"{label}: {plan.report.findings}")
        exec_s, compiled = _median_s(
            lambda: chempiler.execute_plan(plan, corpus.db, budget=LADDER_BUDGET))
        for arm, trace in (("abstract", abstract), ("compiled", compiled)):
            require(trace.halt == "q_out" and trace.ledger.residual <= 1e-9,
                    f"{label} {arm}: {trace.halt}, residual {trace.ledger.residual:g}")
        require(chempiler.lowering_view(abstract)
                == chempiler.lowering_view(compiled, plan.bindings),
                f"{label}: lowering views differ")
        metrics[f"chemlang.parse_us_per_op.{label}"] = (parse_s / ops * 1e6, "us")
        metrics[f"cstm.run_us_per_op.{label}"] = (run_s / ops * 1e6, "us")
        metrics[f"chempiler.execute_plan_us_per_op.{label}"] = (exec_s / ops * 1e6, "us")
    return metrics


def traced_metrics(workloads, root, seed: int, tally) -> dict:
    tracer = Tracer()
    setups = {}
    with tracer.installed():
        for name, cls in workloads.WORKLOADS.items():
            tracer.tag = (name, -1)
            setups[name] = cls()
            setups[name].setup(root, seed)

    n_jobs: dict = {}
    overhead: dict = {}
    for name, workload in setups.items():
        jobs = [job for index in range(ROUNDS[name]) for job in workload.round(seed, index)]
        pairs = [_paired(workload, job, tally, tracer, i, i % 2 == 1)
                 for i, job in enumerate(jobs)]
        n_jobs[name] = len(jobs)
        plain = math.fsum(p for p, _ in pairs)
        overhead[name] = (math.fsum(t for _, t in pairs) - plain) / plain * 100.0

    tables = {name: SpanTable.of(tracer, name) for name in setups}

    def ms_per_job(span: str, workload: str):
        return tables[workload].self_s.get(span, 0.0) * 1e3 / n_jobs[workload], "ms"

    def calls_per_job(span: str, workload: str):
        return tables[workload].calls.get(span, 0) / n_jobs[workload], "count"

    def us_per_call(span: str, workload: str):
        table = tables[workload]
        return table.self_s.get(span, 0.0) / max(table.calls.get(span, 0), 1) * 1e6, "us"

    def counted_per_job(key: str, workload: str):
        return tracer.counters.get((workload, key), 0) / n_jobs[workload], "count"

    corpus = tables["corpus"]
    corpus_ops = sum(len(chemlang.parse_program(job[0]).steps)
                     for index in range(ROUNDS["corpus"])
                     for job in setups["corpus"].round(seed, index))
    run_incl = corpus.incl_s.get("cstm.run", 0.0)
    mc_cfg = assembly.MonteCarloConfig()
    n_rows, n_traj, ai = len(mc_cfg.eps0_values), mc_cfg.n_trajectories, mc_cfg.ai_max
    metrics = {
        "chemlang.parse_ms": ms_per_job("chemlang.parse_program", "corpus"),
        "chemlang.parse_us_per_op": (
            corpus.self_s.get("chemlang.parse_program", 0.0) / corpus_ops * 1e6, "us"),
        "chemlang.validate_ms": ms_per_job("chemlang.validate_program", "corpus"),
        "chempiler.chempile_ms": ms_per_job("chempiler.chempile", "corpus"),
        "chempiler.route_calls": calls_per_job("chempiler.route", "corpus"),
        "chempiler.route_ms": ms_per_job("chempiler.route", "corpus"),
        "chempiler.execute_plan_self_ms": ms_per_job("chempiler.execute_plan", "corpus"),
        "chempiler.execute_plan_over_run": (
            corpus.incl_s.get("chempiler.execute_plan", 0.0) / run_incl, "ratio"),
        "chempiler.execute_plan_over_run.base_run_ms": (
            run_incl * 1e3 / n_jobs["corpus"], "ms"),
        "cstm.run_ms": ms_per_job("cstm.run", "corpus"),
        "cstm.apply_primitive_calls": calls_per_job("cstm.apply_primitive", "corpus"),
        "cstm.apply_primitive_us": us_per_call("cstm.apply_primitive", "corpus"),
        "cstm.init_machine_us": us_per_call("cstm.init_machine", "dec-sweep"),
        "jsonio.to_jsonl_ms": ms_per_job("jsonio.to_jsonl", "corpus"),
        "jsonio.trace_kb": (
            counted_per_job("jsonio.trace_bytes", "corpus")[0] / 1e3, "kB"),
        "rules.loads_rules_ms": (
            tables["rules-5k"].incl_s.get("rules.loads_rules", 0.0) * 1e3, "ms"),
        "rules.match_rule_calls": calls_per_job("rules.match_rule", "rules-5k"),
        "rules.match_rule_us": us_per_call("rules.match_rule", "rules-5k"),
        "rules.match_hit_ratio": (
            counted_per_job("rules.match_hits", "rules-5k")[0]
            / calls_per_job("rules.match_rule", "rules-5k")[0], "ratio"),
        "rules.promote_us": us_per_call("rules.promote", "rules-5k"),
        "rules.plan_pathway_ms": ms_per_job("rules.plan_pathway", "rules-5k"),
        "dec.evaluate_correction_ms": ms_per_job("dec.evaluate_correction", "dec-sweep"),
        "dec.run_with_dec_us": us_per_call("dec.run_with_dec", "dec-sweep"),
        "dec.checkpoint_calls": calls_per_job("cstm.Machine.checkpoint", "dec-sweep"),
        "dec.restore_calls": calls_per_job("cstm.Machine.restore", "dec-sweep"),
        "dec.actions_tune": counted_per_job("dec.action.tune", "dec-sweep"),
        "dec.actions_redose": counted_per_job("dec.action.redose_extend", "dec-sweep"),
        "dec.actions_revert": counted_per_job("dec.action.revert_replan", "dec-sweep"),
        "rng.substream_calls": calls_per_job("rng.substream", "dec-sweep"),
        "rng.substream_us": us_per_call("rng.substream", "dec-sweep"),
        "assembly.monte_carlo_ms": ms_per_job("assembly.monte_carlo", "mc"),
        # four (trajectories x steps) float64 arrays are live at the peak of
        # monte_carlo: the previous row's eps and survival, the new drift
        # sum and its clipped copy
        "assembly.monte_carlo_mb_computed": (
            (4 * n_traj * ai + n_rows * ai + n_traj + ai) * 8 / 1e6, "MB"),
        "assembly.mc_to_csv_ms": ms_per_job("assembly.mc_to_csv", "mc"),
        "assembly.mc_to_svg_ms": ms_per_job("assembly.mc_to_svg", "mc"),
    }
    for name, pct in overhead.items():
        metrics[f"trace.overhead_pct.{name}"] = (pct, "%")

    def require(ok: bool, message: str) -> None:
        if not ok:
            tally.wrong += 1
            print(f"check failed: ladder: {message}", file=sys.stderr)

    metrics.update(ladders(setups["corpus"], seed, require))
    return metrics
