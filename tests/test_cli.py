"""Command-line surface: exit codes, output shapes, manifests, persistence,
and fixed-seed determinism."""

import contextlib
import hashlib
import io
import json
import math
import shutil
import sys
import warnings

import pytest

from chemvm.chemlang import format_program
from chemvm.chemlang.corpus import synthetic_program
from chemvm.cli import HALT_EXIT, main
from chemvm.cstm import read_trace_jsonl

from _support import DEFAULT_RIG, FIXTURES, fixture_text


def cli(*argv, stdin=None):
    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    if stdin is not None:
        sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([str(a) for a in argv])
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_halt_exit_map():
    assert HALT_EXIT == {"q_out": 0, "q_uout": 10, "q_nout": 11, "q_fail": 12}


def test_parse_roundtrip_stdout():
    code, out, _ = cli("parse", FIXTURES / "tiny.chem")
    assert code == 0
    assert out.startswith('procedure "tiny coupling" {')
    again, out2, _ = cli("parse", "-", stdin=out)
    assert again == 0 and out2 == out


def test_parse_error_exit_1():
    code, _, err = cli("parse", "-", stdin="nope")
    assert code == 1
    assert "parse error" in err


def test_parse_out_writes_manifest(tmp_path):
    target = tmp_path / "fmt.chem"
    code, out, _ = cli("parse", FIXTURES / "tiny.chem", "--out", target)
    assert code == 0 and out == ""
    manifest = json.loads((tmp_path / "fmt.chem.manifest.json").read_text())
    assert sorted(manifest) == ["command", "inputs", "outputs", "seed",
                                "subcommand", "version"]
    assert manifest["subcommand"] == "parse"
    assert manifest["outputs"][str(target)] == sha256(target)
    assert str(FIXTURES / "tiny.chem") in manifest["inputs"]


def test_no_manifest_without_outputs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, _ = cli("parse", FIXTURES / "tiny.chem")
    assert code == 0
    assert list(tmp_path.iterdir()) == []


def test_validate_ok_and_findings(tmp_path):
    code, out, _ = cli("validate", FIXTURES / "atropine_3step.chem")
    assert code == 0
    assert json.loads(out) == {"ok": True, "findings": []}
    bad = tmp_path / "bad.chem"
    bad.write_text('procedure "x" {\n  steps {\n'
                   '    heat_stir(vessel=RX1, temp=80 C)\n  }\n}\n')
    code, out, _ = cli("validate", bad)
    assert code == 2
    doc = json.loads(out)
    assert not doc["ok"]
    assert doc["findings"][0]["code"] == "missing_param"


@pytest.mark.parametrize("prog, rules, extra, exit_code, halt", [
    ("tiny.chem", "tiny.rules", (), 0, "q_out"),
    ("predicted.chem", "predicted.rules", (), 10, "q_uout"),
    ("explore.chem", "explore.rules", ("--explore",), 11, "q_nout"),
    ("norule.chem", "tiny.rules", (), 12, "q_fail"),
])
def test_run_exit_tracks_halt(prog, rules, extra, exit_code, halt):
    code, out, _ = cli("run", FIXTURES / prog, "--rules", FIXTURES / rules, *extra)
    assert code == exit_code
    doc = json.loads(out)
    assert doc["halt"] == halt
    assert "ledger" in doc


def test_run_trace_and_manifest(tmp_path):
    trace = tmp_path / "t.jsonl"
    code, _, _ = cli("run", FIXTURES / "tiny.chem", "--rules",
                     FIXTURES / "tiny.rules", "--trace", trace, "--seed", 4)
    assert code == 0
    lines = [json.loads(line) for line in trace.read_text().splitlines()]
    assert lines[-1]["kind"] == "halt"
    manifest = json.loads((tmp_path / "t.jsonl.manifest.json").read_text())
    assert manifest["seed"] == 4
    assert manifest["outputs"][str(trace)] == sha256(trace)


def test_run_persist_rules_promotes(tmp_path):
    rules = tmp_path / "p.rules"
    shutil.copy(FIXTURES / "predicted.rules", rules)
    halts = []
    for _ in range(3):
        code, out, _ = cli("run", FIXTURES / "predicted.chem",
                           "--rules", rules, "--persist-rules")
        halts.append(json.loads(out)["halt"])
    assert halts == ["q_uout", "q_out", "q_out"]


def test_parse_onto_its_input_records_the_input_as_read(tmp_path):
    # the manifest hashes the bytes the command read, not the file it wrote over them
    prog = tmp_path / "x.chem"
    shutil.copy(FIXTURES / "tiny.chem", prog)
    read = sha256(prog)
    code, _, _ = cli("parse", prog, "--out", prog)
    assert code == 0 and sha256(prog) != read
    manifest = json.loads((tmp_path / "x.chem.manifest.json").read_text())
    assert manifest["inputs"] == {str(prog): read}
    assert manifest["outputs"] == {str(prog): sha256(prog)}


@pytest.mark.parametrize("trace", [True, False])
def test_persist_rules_records_the_rules_as_read_and_as_written(tmp_path, trace):
    # with or without a trace, the rewritten rules file is an output of the
    # run, and the manifest hashes the rules the run read
    rules, prog = tmp_path / "p.rules", FIXTURES / "predicted.chem"
    shutil.copy(FIXTURES / "predicted.rules", rules)
    read = sha256(rules)
    flags = ["--trace", tmp_path / "t.jsonl"] if trace else []
    code, _, _ = cli("run", prog, "--rules", rules, "--persist-rules", *flags)
    assert code == 10 and sha256(rules) != read
    anchor = tmp_path / ("t.jsonl" if trace else "p.rules")
    manifest = json.loads((tmp_path / f"{anchor.name}.manifest.json").read_text())
    assert list(manifest["inputs"].items()) == [(str(rules), read), (str(prog), sha256(prog))]
    assert list(manifest["outputs"]) == [str(anchor)] + ([str(rules)] if trace else [])
    assert manifest["outputs"][str(rules)] == sha256(rules)


def test_any_input_may_be_stdin_and_is_not_recorded(tmp_path):
    trace = tmp_path / "t.jsonl"
    code, out, _ = cli("run", FIXTURES / "tiny.chem", "--rules", "-", "--trace", trace,
                       stdin=fixture_text("tiny.rules"))
    assert code == 0 and json.loads(out)["halt"] == "q_out"
    manifest = json.loads((tmp_path / "t.jsonl.manifest.json").read_text())
    assert manifest["inputs"] == {str(FIXTURES / "tiny.chem"): sha256(FIXTURES / "tiny.chem")}


def test_persist_rules_cannot_write_back_to_stdin(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = cli("run", FIXTURES / "predicted.chem", "--rules", "-", "--persist-rules",
                         stdin=fixture_text("predicted.rules"))
    assert (code, out) == (2, "")
    assert err == "error: --persist-rules needs a --rules file to write back to, not stdin\n"
    assert list(tmp_path.iterdir()) == []


def test_stdin_named_twice_is_read_once():
    # each later `-` gets the text the first read, not an empty stdin
    tiny = FIXTURES / "tiny.chem"
    code, out, err = cli("stats", "-", "-", stdin=fixture_text("tiny.chem"))
    _, want_out, want_err = cli("stats", tiny, tiny)
    # the CSV takes stdout, so the summary, which names the paths, is on stderr
    assert (code, out, err) == (0, want_out, want_err.replace(str(tiny), "-"))


def test_an_output_of_dash_is_stdout_and_not_listed(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, _ = cli("parse", FIXTURES / "tiny.chem", "--out", "-")
    assert (code, out) == (0, cli("parse", FIXTURES / "tiny.chem")[1])
    assert list(tmp_path.iterdir()) == []
    # beside a file output, the manifest lists only the file
    config = FIXTURES / "mc_small.json"
    code, out, _ = cli("mc", "--config", config, "--out", "-", "--svg", "d.svg")
    assert (code, out) == (0, cli("mc", "--config", config)[1])
    manifest = json.loads((tmp_path / "d.svg.manifest.json").read_text())
    assert list(manifest["outputs"]) == ["d.svg"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.svg", "d.svg.manifest.json"]


def test_an_input_reads_as_read_text_decodes_it(tmp_path):
    # universal newlines: CRLF and CR line ends parse as LF ones; the
    # manifest still hashes the bytes on disk
    crlf = tmp_path / "crlf.chem"
    crlf.write_bytes(fixture_text("tiny.chem").replace("\n", "\r\n").encode())
    code, out, _ = cli("parse", crlf, "--out", tmp_path / "fmt.chem")
    assert code == 0
    _, canonical, _ = cli("parse", FIXTURES / "tiny.chem")
    assert (tmp_path / "fmt.chem").read_text() == canonical
    manifest = json.loads((tmp_path / "fmt.chem.manifest.json").read_text())
    assert manifest["inputs"] == {str(crlf): sha256(crlf)}


def test_run_on_graph(tmp_path):
    code, out, _ = cli("run", FIXTURES / "tiny.chem", "--rules",
                       FIXTURES / "tiny.rules", "--graph", DEFAULT_RIG)
    assert code == 0
    assert json.loads(out)["halt"] == "q_out"
    fat = tmp_path / "fat.chem"
    fat.write_text('procedure "x" {\n  reagents {\n'
                   '    a: sp:a 600 mol @R1 reagent\n  }\n'
                   '  steps {\n    add(vessel=RX1, reagent=a, amount=600 mol)\n'
                   '  }\n}\n')
    code, _, err = cli("run", fat, "--rules", FIXTURES / "tiny.rules",
                       "--graph", DEFAULT_RIG)
    assert code == 2
    assert "infeasible" in err and "capacity_exceeded" in err


def test_missing_input_exit_2():
    code, _, err = cli("run", FIXTURES / "tiny.chem", "--rules", "/nonexistent.rules")
    assert code == 2
    assert "error" in err


def test_plan_writes_pathway_and_program(tmp_path):
    pw = tmp_path / "pw.json"
    prog = tmp_path / "pw.chem"
    code, _, _ = cli("plan", "--rules", FIXTURES / "default.rules",
                     "--target", "ind", "--stock", "anl,pyv",
                     "--out", pw, "--program", prog)
    assert code == 0
    doc = json.loads(pw.read_text())
    assert [s["rule_id"] for s in doc["steps"]] == ["r_ind"]
    assert prog.read_text().startswith('procedure "pathway_ind" {')
    run_code, out, _ = cli("run", prog, "--rules", FIXTURES / "default.rules")
    assert run_code == 0
    assert json.loads(out)["halt"] == "q_out"


def test_plan_unreachable_exit_3():
    code, _, err = cli("plan", "--rules", FIXTURES / "default.rules",
                       "--target", "atr", "--stock", "tro", "--depth", 2)
    assert code == 3
    assert "no pathway" in err


def test_plan_unknown_target_exit_2():
    code, _, err = cli("plan", "--rules", FIXTURES / "default.rules",
                       "--target", "nope")
    assert code == 2


def test_compile_plan_json(tmp_path):
    out_path = tmp_path / "plan.json"
    code, _, _ = cli("compile", FIXTURES / "tiny.chem", "--out", out_path)
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["feasible"]
    assert doc["routes"]["R1->RX1"] == ["R1", "V1", "P1", "V2", "RX1"]


def test_compile_infeasible_exit_1(tmp_path):
    fat = tmp_path / "fat.chem"
    fat.write_text('procedure "x" {\n  reagents {\n'
                   '    a: sp:a 600 mol @R1 reagent\n  }\n'
                   '  steps {\n    add(vessel=RX1, reagent=a, amount=600 mol)\n'
                   '  }\n}\n')
    code, out, _ = cli("compile", fat)
    assert code == 1
    assert not json.loads(out)["feasible"]


def test_step_without_required_parameter(tmp_path):
    # validate and compile report it; run and dec-run halt before the step
    bad = tmp_path / "bad.chem"
    bad.write_text('procedure "x" {\n  reagents {\n'
                   '    a: sp:a 1 mol @R1 reagent\n  }\n  steps {\n'
                   '    add(vessel=RX1, reagent=a, amount=0.5 mol)\n'
                   '    heat_stir(vessel=RX1, temp=80 C)\n'
                   '    filter(vessel=F1, to=product)\n  }\n}\n')
    code, out, _ = cli("validate", bad)
    assert code == 2
    findings = json.loads(out)["findings"]
    assert [(f["code"], f["message"]) for f in findings] == [
        ("missing_param", "heat_stir requires parameter 'time'"),
        ("missing_param", "filter requires parameter 'species'"),
    ]
    code, out, _ = cli("compile", bad)
    assert code == 1
    assert json.loads(out)["findings"] == findings
    reason = "step 2 (heat_stir, line 7): heat_stir requires parameter 'time'"
    assert findings[0]["where"] + ": " + findings[0]["message"] == reason
    rules = FIXTURES / "tiny.rules"
    for argv in (("run", bad, "--rules", rules),
                 ("dec-run", bad, "--rules", rules)):
        trace = tmp_path / "t.jsonl"
        code, out, _ = cli(*argv, "--trace", trace)
        assert code == HALT_EXIT["q_fail"]
        last = json.loads(trace.read_text().splitlines()[-1])
        assert (last["halt"], last["reason"], last["step"]) == ("q_fail", reason, 0)
    code, _, err = cli("run", bad, "--rules", rules, "--graph", DEFAULT_RIG)
    assert code == 2
    assert "infeasible: missing_param" in err


def test_stats_csv_and_fit(tmp_path):
    paths = []
    for k in (1, 2, 3):
        p = tmp_path / f"syn{k}.chem"
        p.write_text(format_program(synthetic_program(k, 15)))
        paths.append(p)
    code, out, _ = cli("stats", *paths)
    assert code == 0
    header = out.splitlines()[0]
    assert header == ("program,reaction_step,AddMatter,SubtractMatter,"
                      "AddEnergy,SubtractEnergy,Composite,ops,cumulative")
    csv_path = tmp_path / "h.csv"
    code, out, _ = cli("stats", *paths, "--out", csv_path)
    assert code == 0
    doc = json.loads(out)
    assert doc["aggregate"] == {"n": 3, "slope": 15.0, "r2": 1.0}
    fits = {p["reaction_steps"]: (p["slope"], p["r2"]) for p in doc["programs"]}
    assert fits[1] == (None, None)
    assert fits[2] == (15.0, 1.0)
    assert csv_path.read_text().startswith(header)


@pytest.mark.parametrize("argv, text", [
    (("run", "tiny.chem", "--rules", "BAD"), '{"species": ["x"], "rules": []}'),
    (("compile", "tiny.chem", "--graph", "BAD"), '{"nodes": [], "edges": 5}'),
    (("dec-run", "tiny.chem", "--rules", "tiny.rules", "--policy", "BAD"),
     '{"max_reverts": 2.5}'),
    (("mc", "--config", "BAD"), "[1]"),
])
def test_malformed_input_file_exits_2(tmp_path, argv, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    argv = [bad if a == "BAD" else FIXTURES / a if "." in a else a for a in argv]
    code, out, err = cli(*argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1


def test_plan_unknown_target_exits_2():
    code, out, err = cli("plan", "--rules", FIXTURES / "tiny.rules", "--target", "zz")
    assert (code, out, err) == (2, "", "error: unknown species 'zz'\n")


def test_stats_aggregate_over_one_length_has_no_slope(tmp_path):
    tiny = FIXTURES / "tiny.chem"
    code, out, _ = cli("stats", tiny, tiny, "--out", tmp_path / "h.csv")
    assert code == 0
    assert json.loads(out)["aggregate"] == {"n": 2, "slope": None, "r2": None}


def test_mc_outputs(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_trajectories": 40, "ai_max": 12}))
    csv_path = tmp_path / "mc.csv"
    svg_path = tmp_path / "mc.svg"
    code, _, _ = cli("mc", "--config", cfg, "--out", csv_path, "--svg", svg_path)
    assert code == 0
    assert csv_path.read_text().splitlines()[0] == "eps0,assembly_index,mean_N"
    assert svg_path.read_text().startswith("<svg ")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n_traj": 5}))
    code, _, err = cli("mc", "--config", bad)
    assert code == 2
    assert "unknown field(s) ['n_traj']" in err


@pytest.mark.parametrize("config, flags, message", [
    ({"n_trajectories": "5"}, (), "n_trajectories must be an integer >= 1"),
    ({"eps0_values": 5}, (), "eps0_values must be a non-empty list"),
    ({"eps0_values": [0.1, 1.5]}, (), "eps0_values must be a non-empty list"),
    ({"ai_max": 0}, (), "ai_max must be an integer >= 2"),
    ({"ai_max": 1}, ("--svg", "mc.svg"), "ai_max must be an integer >= 2"),
    ({"n0": 0}, (), "n0 must be a finite number >= 1"),
    ({"jitter_sd": -0.1}, (), "jitter_sd must be a finite number >= 0"),
    ({}, ("--seed", -1), "seed must be an integer >= 0"),
    # JSON text, since json.dumps writes no number that parses to inf
    ('{"drift_rate": 1e400}', (), "drift_rate must be a finite number"),
])
def test_mc_rejects_unusable_config(tmp_path, config, flags, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config if isinstance(config, str) else json.dumps(config))
    flags = [tmp_path / f if str(f).endswith(".svg") else f for f in flags]
    code, out, err = cli("mc", "--config", cfg, "--out", tmp_path / "mc.csv", *flags)
    assert code == 2
    assert message in err
    assert not (tmp_path / "mc.csv").exists() and not (tmp_path / "mc.svg").exists()


def test_mc_overflowing_drift_gives_finite_csv(tmp_path):
    # exp(10 * 119) overflows; a zero starting rate must still read as 0 * drift
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"eps0_values": [0.0, 0.1], "drift_rate": 10,
                               "n_trajectories": 40}))
    csv_path = tmp_path / "mc.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, _, err = cli("mc", "--config", cfg, "--out", csv_path)
    assert code == 0, err
    rows = [line.split(",") for line in csv_path.read_text().splitlines()[1:]]
    assert {eps0 for eps0, _, _ in rows} == {"0", "0.1"}
    assert all(math.isfinite(float(value)) for _, _, value in rows)


@pytest.mark.parametrize("bonds", [5.0, "x", 0])
def test_bad_bonds_exit_2(tmp_path, bonds):
    doc = json.loads(fixture_text("tiny.rules"))
    doc["species"][0]["bonds"] = bonds
    rules = tmp_path / "bad.rules"
    rules.write_text(json.dumps(doc))
    code, _, err = cli("run", FIXTURES / "tiny.chem", "--rules", rules)
    assert code == 2
    assert "bonds must be a positive integer" in err


def test_dec_run_single_and_compare():
    code, out, _ = cli("dec-run", FIXTURES / "dec_3step.chem",
                       "--rules", FIXTURES / "dec_chain.rules",
                       "--inject-eps", 0.3, "--seed", 5)
    assert code == 0
    doc = json.loads(out)
    assert doc["halt"] == "q_out" and doc["success"]
    code, out, _ = cli("dec-run", FIXTURES / "dec_3step.chem",
                       "--rules", FIXTURES / "dec_chain.rules",
                       "--inject-eps", 0.3, "--compare", "--seeds", 12)
    assert code == 0
    doc = json.loads(out)
    assert doc == {
        "n": 12, "rate_corrected": 1.0,
        "rate_baseline": pytest.approx(7 / 12),
        "discordant_better": 5, "discordant_worse": 0,
        "p_value": pytest.approx(1 / 32),
    }


def test_dec_run_compare_runs_under_the_budget():
    args = ("dec-run", FIXTURES / "dec_3step.chem", "--rules", FIXTURES / "dec_chain.rules",
            "--compare", "--seeds", 5)
    code, out, _ = cli(*args, "--budget", 1)
    assert code == 0
    doc = json.loads(out)
    assert (doc["rate_corrected"], doc["rate_baseline"]) == (0.0, 0.0)
    code, out, _ = cli(*args, "--budget", 12)
    assert json.loads(out)["rate_baseline"] > 0.0


def test_dec_run_compare_writes_its_table_to_trace(tmp_path):
    # --trace and --out are one option: with --compare it names the table's file
    table = tmp_path / "cmp.json"
    args = ("dec-run", FIXTURES / "dec_3step.chem", "--rules", FIXTURES / "dec_chain.rules",
            "--compare", "--seeds", 3)
    code, out, err = cli(*args, "--trace", table)
    assert (code, out, err) == (0, "", "")
    assert table.read_text() == cli(*args)[1]
    manifest = json.loads((tmp_path / "cmp.json.manifest.json").read_text())
    assert list(manifest["outputs"]) == [str(table)]


def test_dec_run_out_writes_the_single_run_trace(tmp_path):
    trace = tmp_path / "x.json"
    args = ("dec-run", FIXTURES / "tiny.chem", "--rules", FIXTURES / "tiny.rules")
    code, out, err = cli(*args, "--out", trace)
    assert (code, err) == (0, "")
    records = read_trace_jsonl(trace.read_text())
    assert records[-1]["kind"] == "halt" and records[-1]["halt"] == "q_out"
    assert out == cli(*args)[1] and json.loads(out)["halt"] == "q_out"
    assert (tmp_path / "x.json.manifest.json").exists()


@pytest.mark.parametrize("command", ["run", "dec-run"])
def test_a_trace_on_stdout_is_the_trace_alone(command):
    # the summary goes to stderr, so stdout reads back as the JSON-lines trace
    args = (command, FIXTURES / "tiny.chem", "--rules", FIXTURES / "tiny.rules")
    code, out, err = cli(*args, "--trace", "-")
    assert code == 0
    assert read_trace_jsonl(out)[-1]["kind"] == "halt"
    assert err == cli(*args)[1]


def test_stats_stdout_is_the_csv_alone(tmp_path):
    csv_path = tmp_path / "h.csv"
    tiny = FIXTURES / "tiny.chem"
    code, out, err = cli("stats", tiny)
    assert code == 0
    assert cli("stats", tiny, "--out", csv_path)[1] == err
    assert out == csv_path.read_text()


@pytest.mark.parametrize("argv", [
    ("plan", "--rules", FIXTURES / "default.rules", "--target", "ind", "--stock", "anl,pyv",
     "--program", "-"),
    ("mc", "--config", FIXTURES / "mc_small.json", "--svg", "-"),
], ids=["plan", "mc"])
def test_two_documents_for_stdout_exit_2(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = cli(*argv)
    assert (code, out) == (2, "")
    assert err == "error: two outputs go to stdout; give one of them a file\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flags, message", [
    (("--compare", "--seeds", 0), "seeds must be at least 1, not 0"),
    (("--compare", "--seeds", -2), "seeds must be at least 1, not -2"),
    (("--inject-eps", "nan"), "inject eps must be a number in [0, 1], not nan"),
    (("--inject-eps", -1), "inject eps must be a number in [0, 1], not -1.0"),
    (("--inject-eps", 1.5, "--compare", "--seeds", 3),
     "inject eps must be a number in [0, 1], not 1.5"),
])
def test_dec_run_rejects_unusable_seeds_and_eps(flags, message):
    code, out, err = cli("dec-run", FIXTURES / "dec_3step.chem",
                         "--rules", FIXTURES / "dec_chain.rules", *flags)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, message", [
    (("run", "tiny.chem", "--rules", "tiny.rules", "--budget", -1), "budget must be an integer >= 1"),
    (("run", "tiny.chem", "--rules", "tiny.rules", "--budget", 0), "budget must be an integer >= 1"),
    (("run", "tiny.chem", "--rules", "tiny.rules", "--seed", -1), "seed must be an integer >= 0"),
    (("dec-run", "dec_3step.chem", "--rules", "dec_chain.rules", "--budget", 0),
     "budget must be an integer >= 1"),
    (("dec-run", "dec_3step.chem", "--rules", "dec_chain.rules", "--seed", -1),
     "seed must be an integer >= 0"),
    (("dec-run", "dec_3step.chem", "--rules", "dec_chain.rules", "--compare", "--seed", -3),
     "seed must be an integer >= 0"),
    (("plan", "--rules", "default.rules", "--target", "atr", "--stock", "tro", "--depth", -5),
     "depth must be an integer >= 1"),
    (("plan", "--rules", "default.rules", "--target", "atr", "--stock", "tro", "--depth", 0),
     "depth must be an integer >= 1"),
])
def test_out_of_range_options_exit_2(argv, message):
    code, out, err = cli(*(FIXTURES / a if str(a).endswith((".chem", ".rules")) else a
                           for a in argv))
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("command", ["run", "dec-run"])
def test_budget_counts_machine_steps(command, capsys):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    assert "--budget BUDGET machine steps a run may take (default 10000)" \
        in " ".join(capsys.readouterr().out.split())
    # tiny.chem takes 6 steps, whatever records the arm writes
    args = (command, FIXTURES / "tiny.chem", "--rules", FIXTURES / "tiny.rules", "--budget")
    assert [cli(*args, budget)[0] for budget in (5, 6)] == [12, 0]


def test_dec_run_policy_file():
    code, out, _ = cli("dec-run", FIXTURES / "dec_3step.chem",
                       "--rules", FIXTURES / "dec_chain.rules",
                       "--policy", FIXTURES / "policy_default.json",
                       "--inject-eps", 0.0, "--seed", 1)
    assert code == 0
    assert json.loads(out)["deviations"] == 0


def test_mc_seeded_runs_are_byte_identical(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_trajectories": 30, "ai_max": 10}))
    outs = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        code, stdout, _ = cli("mc", "--config", cfg, "--seed", 9, "--out", path)
        assert code == 0
        outs.append((path.read_bytes(), stdout))
    assert outs[0] == outs[1]
