"""Detectability math and the error-propagation Monte Carlo."""

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chemvm import assembly
from chemvm.assembly import (
    _SUM_BLOCK,
    DEFAULT_EPS0,
    N_AVOGADRO,
    MonteCarloConfig,
    NotDetectable,
    assembly_bounds,
    detection_horizon,
    max_error_for,
    mc_to_csv,
    mc_to_svg,
    monte_carlo,
    n_min,
    survival_fraction,
)
from chemvm.jsonio import fmt_num

from _support import FIXTURES, mc_configs, reference_monte_carlo


def test_survival_fraction_frozen_oracle():
    assert abs(survival_fraction(0.05, 20) - 0.3584859224085419) < 1e-15
    assert survival_fraction(0.0, 100) == 1.0
    assert survival_fraction(0.5, 0) == 1.0


def test_n_min_frozen_oracle():
    assert n_min(1e6, [0.05] * 20) == pytest.approx(2789509.8175162612, rel=1e-12)
    assert n_min(1e6, []) == pytest.approx(1e6)
    assert n_min(1e6, [1.0]) == math.inf


def test_n_min_closed_form_consistency():
    for phi in (1e6, 1e8):
        for eps in (0.0, 0.01, 0.05, 0.2):
            for a in (1, 20, 120):
                expected = phi / (1.0 - eps) ** a
                assert n_min(phi, [eps] * a) == pytest.approx(expected, rel=1e-12)


def test_max_error_round_trip():
    for a in (1, 20, 120):
        n = 7.5e6
        eps = max_error_for(1e6, n, a)
        assert 0.0 <= eps < 1.0
        assert n_min(1e6, [eps] * a) == pytest.approx(n, rel=1e-9)


def test_max_error_not_detectable():
    with pytest.raises(NotDetectable):
        max_error_for(1e6, 1e5, 20)


@pytest.mark.parametrize("eps, a", [(-0.1, 5), (1.5, 5), (0.1, -1)])
def test_survival_fraction_validation(eps, a):
    with pytest.raises(ValueError):
        survival_fraction(eps, a)


@pytest.mark.parametrize("func, args, message", [
    (n_min, (0.0, [0.1]), "detection threshold must be positive"),
    (n_min, (1e6, [0.1, 1.5]), r"error rate must lie in \[0, 1\], got 1.5"),
    (max_error_for, (0.0, 1e8, 5), "need phi > 0 and a >= 1"),
    (max_error_for, (1e6, 1e8, 0), "need phi > 0 and a >= 1"),
    (assembly_bounds, (0,), "an object needs at least one bond"),
    (n_min, (math.nan, [0.1]), "detection threshold must be positive and finite"),
    (n_min, (math.inf, [0.1]), "detection threshold must be positive and finite"),
    (n_min, (1e6, [math.nan]), r"error rate must lie in \[0, 1\], got nan"),
    (max_error_for, (math.nan, 5, 3), "need phi > 0 and a >= 1"),
    (max_error_for, (math.inf, 5, 3), "phi, n and a must be finite"),
    (max_error_for, (1e6, math.inf, 3), "phi, n and a must be finite"),
    (max_error_for, (1e6, math.nan, 3), "phi, n and a must be finite"),
    (max_error_for, (1e6, 1e8, math.inf), "phi, n and a must be finite"),
    (survival_fraction, (math.nan, 5), r"error rate must lie in \[0, 1\], got nan"),
    (survival_fraction, (0.1, math.nan), "assembly index must be non-negative and finite"),
    (survival_fraction, (0.1, math.inf), "assembly index must be non-negative and finite"),
    (survival_fraction, (0.1, 2.5), "assembly index must be an integer"),
    (survival_fraction, (0.1, True), "assembly index must be an integer"),
    (max_error_for, (1e6, 1e8, 2.5), "assembly index must be an integer"),
    (max_error_for, (1e6, 1e8, True), "assembly index must be an integer"),
], ids=["phi", "eps", "max-phi", "max-a", "bonds", "phi-nan", "phi-inf", "eps-nan",
        "max-phi-nan", "max-phi-inf", "max-n-inf", "max-n-nan", "max-a-inf",
        "survival-eps-nan", "survival-a-nan", "survival-a-inf", "survival-a-fraction",
        "survival-a-bool", "max-a-fraction", "max-a-bool"])
def test_detectability_inputs_are_checked(func, args, message):
    with pytest.raises(ValueError, match=message):
        func(*args)


def test_assembly_bounds_pinned():
    assert assembly_bounds(8) == (3, 7)
    assert assembly_bounds(65536) == (16, 65535)
    assert assembly_bounds(2) == (1, 1)
    assert assembly_bounds(1) == (0, 0)


def test_assembly_bounds_are_ceil_log2_to_linear():
    for bonds in list(range(2, 200)) + [2 ** 10, 2 ** 16]:
        lower, upper = assembly_bounds(bonds)
        assert upper == bonds - 1
        # lower bound is exactly the ceiling of log2(bonds)
        assert 2 ** lower >= bonds
        assert 2 ** (lower - 1) < bonds
        assert lower <= upper


def test_config_is_frozen():
    cfg = MonteCarloConfig()
    assert cfg.eps0_values == DEFAULT_EPS0
    assert cfg.n0 == N_AVOGADRO
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.ai_max = 10


SMALL = MonteCarloConfig(n_trajectories=64, ai_max=24)


@pytest.fixture(scope="module")
def small_result():
    return monte_carlo(SMALL)


def test_mc_axis_and_shape(small_result):
    assert small_result.assembly_indices == list(range(1, SMALL.ai_max + 1))
    assert set(small_result.mean_n) == set(SMALL.eps0_values)
    for row in small_result.mean_n.values():
        assert len(row) == SMALL.ai_max


def test_mc_curves_non_increasing(small_result):
    for row in small_result.mean_n.values():
        assert np.all(np.diff(row) <= 0)


def test_mc_curves_ordered_by_eps0(small_result):
    ordered = sorted(SMALL.eps0_values)
    for lo, hi in zip(ordered, ordered[1:]):
        assert np.all(small_result.mean_n[lo] >= small_result.mean_n[hi])


def test_mc_seed_determinism():
    again = monte_carlo(SMALL)
    base = monte_carlo(SMALL)
    for eps in SMALL.eps0_values:
        assert np.array_equal(again.mean_n[eps], base.mean_n[eps])
    moved = monte_carlo(dataclasses.replace(SMALL, seed=1))
    assert any(not np.array_equal(moved.mean_n[eps], base.mean_n[eps])
               for eps in SMALL.eps0_values)


def test_mc_degenerate_matches_analytic():
    cfg = MonteCarloConfig(n_trajectories=16, ai_max=30,
                           drift_rate=0.0, jitter_sd=0.0)
    result = monte_carlo(cfg)
    for eps in cfg.eps0_values:
        analytic = np.array([cfg.n0 * survival_fraction(eps, a)
                             for a in result.assembly_indices])
        assert np.allclose(result.mean_n[eps], analytic, rtol=1e-12, atol=0.0)


def test_mc_csv_layout(small_result):
    lines = mc_to_csv(small_result).strip().splitlines()
    assert lines[0] == "eps0,assembly_index,mean_N"
    assert len(lines) == 1 + len(SMALL.eps0_values) * SMALL.ai_max
    first = lines[1].split(",")
    assert first[0] == "0.01" and first[1] == "1"


def test_mc_svg_self_contained(small_result):
    svg = mc_to_svg(small_result, 1e6)
    assert svg.startswith("<svg ")
    assert svg.rstrip().endswith("</svg>")
    assert "polyline" in svg
    assert "href" not in svg


def test_detection_horizon_semantics(small_result):
    phi = 1e23
    horizon = detection_horizon(small_result, phi)
    assert set(horizon) == set(SMALL.eps0_values)
    for eps, ai in horizon.items():
        row = small_result.mean_n[eps]
        if ai is None:
            assert np.all(row >= phi)
        else:
            idx = small_result.assembly_indices.index(ai)
            assert row[idx] < phi
            assert np.all(row[:idx] >= phi)


@pytest.mark.parametrize("phi", [0.0, -1.0, math.nan, math.inf])
def test_detection_horizon_rejects_a_floor_that_is_not_positive_and_finite(small_result, phi):
    # no mean copy number falls below such a floor, so without the check
    # every row would read None, "never falls below"
    with pytest.raises(ValueError, match="detection threshold must be positive and finite"):
        detection_horizon(small_result, phi)


EXPERIMENT = FIXTURES.parent / "scripts" / "run_mc_experiment.py"


def _experiment(*args: str):
    env = {**os.environ, "PYTHONPATH": str(Path(assembly.__file__).parents[1])}
    return subprocess.run([sys.executable, str(EXPERIMENT), *args],
                          capture_output=True, text=True, env=env)


@pytest.fixture()
def small_config(tmp_path):
    path = tmp_path / "small.json"
    path.write_text(json.dumps({"n_trajectories": 8, "ai_max": 4}), encoding="utf-8")
    return str(path)


def test_the_mc_script_rejects_a_config_with_an_unknown_field(tmp_path):
    # exit 2 and one error line, as `chemvm mc` does, and no file written
    config = tmp_path / "bad.json"
    config.write_text('{"n_traj": -1}', encoding="utf-8")
    out = _experiment("--config", str(config), "--out-dir", str(tmp_path / "out"))
    assert (out.returncode, out.stdout, out.stderr) == \
        (2, "", f"error: {config}: unknown field(s) ['n_traj']\n")
    assert not (tmp_path / "out").exists()


def test_the_mc_script_rejects_a_missing_config(tmp_path):
    missing = tmp_path / "missing.json"
    out = _experiment("--config", str(missing), "--out-dir", str(tmp_path / "out"))
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1
    assert str(missing) in out.stderr
    assert not (tmp_path / "out").exists()


def test_the_mc_script_rejects_a_negative_seed(tmp_path, small_config):
    out = _experiment("--config", small_config, "--seed", "-3",
                      "--out-dir", str(tmp_path / "out"))
    assert (out.returncode, out.stdout, out.stderr) == \
        (2, "", "error: seed must be an integer >= 0\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("phi", ["-1", "nan"])
def test_the_mc_script_rejects_a_floor_that_is_not_positive_and_finite(
        tmp_path, small_config, phi):
    out = _experiment("--config", small_config, "--phi", phi,
                      "--out-dir", str(tmp_path / "out"))
    assert (out.returncode, out.stdout, out.stderr) == \
        (2, "", "error: detection threshold must be positive and finite\n")
    assert not (tmp_path / "out").exists()


def test_the_mc_script_writes_its_table_and_plot(tmp_path, small_config):
    out = _experiment("--config", small_config, "--out-dir", str(tmp_path / "out"))
    assert (out.returncode, out.stderr) == (0, "")
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["mc.csv", "mc.svg"]
    assert "detection horizon at phi = 1e+06 copies:" in out.stdout


# populations at the edges of the kernel's summing tiles, with and without
# jitter; kept out of mc_configs(), whose configs the digest listing pins
BLOCK_EDGES = [
    (f"n{n}/ai{ai}/sd{sd:g}", MonteCarloConfig(n_trajectories=n, ai_max=ai, jitter_sd=sd))
    for n in (_SUM_BLOCK - 1, _SUM_BLOCK, _SUM_BLOCK + 1, 2 * _SUM_BLOCK + 1)
    for ai in (2, 120) for sd in (0.005, 0)
]


# the kernel that reuses one buffer against the one that built fresh arrays;
# bytes, since array_equal takes -0.0 for 0.0
@pytest.mark.parametrize("name, config", mc_configs() + BLOCK_EDGES)
@pytest.mark.parametrize("seed", [0, 1, 7, 123])
def test_mc_kernel_matches_reference(name, config, seed):
    config = dataclasses.replace(config, seed=seed)
    expected = reference_monte_carlo(config)
    result = monte_carlo(config)
    assert list(result.mean_n) == list(expected)
    for eps0, row in expected.items():
        assert result.mean_n[eps0].tobytes() == row.tobytes()


@settings(deadline=None, max_examples=500)
@given(st.floats(allow_nan=False, allow_infinity=False)
       | st.sampled_from([-0.0, 1e15, -1e15, 1e15 - 1, 2.0 ** 53, N_AVOGADRO, 0.5]))
def test_fmt_num_is_the_int_round_trip_on_finite_floats(x):
    # the expression fmt_num tested before it asked float.is_integer
    old = str(int(x)) if x == int(x) and abs(x) < 1e15 else repr(x)
    assert fmt_num(x) == old


@pytest.mark.parametrize("x, text", [(math.inf, "inf"), (-math.inf, "-inf"), (math.nan, "nan")])
def test_fmt_num_prints_non_finite_floats_as_repr(x, text):
    assert fmt_num(x) == text


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_mc_outputs_pinned(small_result):
    # what the fresh-array kernel and the per-scalar formatters wrote for SMALL
    assert _sha256(mc_to_csv(small_result)) == \
        "6029ba431c02ab1ac4bdc0edcf2b559f77a3f2a4520d2184533cc00696af1129"
    assert _sha256(mc_to_svg(small_result)) == \
        "5cde5f90dba8a7b1448ddc553897100ce86f36be4964ea595c11c1e66c585b69"
    assert _sha256(mc_to_svg(small_result, 1e6)) == \
        "e133ac2259970d3da30eea857e1af71c6002534a520014480d46c8a075c178d3"
