import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType, SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import ssblow
from ssblow.cli import main
from ssblow import io as io_mod
from ssblow.field import make_chart_rhs, make_rhs, phase_from_chart
from ssblow.integrate import EventSpec, IntegrationControls, integrate
import ssblow.orbits
from ssblow.orbits import (
    FATE_ONLY_CONTROLS,
    classify_fate,
    launch_from_Q1_chart,
    sigma_star,
    standard_fate_events,
)
from ssblow.params import validate_params


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_params_text(capsys):
    code, out, _ = run_cli(capsys, "params", "--m", "1.5", "--sigma", "3")
    assert code == 0
    assert "alpha: 10.0" in out
    assert "xi_max: 0.66666" in out


def test_params_json_writes_infinite_xi_max_as_null(capsys):
    code, out, _ = run_cli(capsys, "params", "--m", "1.5", "--sigma", "2.001", "--format", "json")
    assert code == 0
    assert json.loads(out)["results"]["xi_max"] is None


def test_params_and_verify_take_no_integration_controls(tmp_path, capsys):
    for cmd in (["params"], ["verify", "--all", "--n", "10"]):
        for flag in ("--rel-tol", "--abs-tol", "--max-step", "--max-time"):
            code, _, _ = run_cli(capsys, *cmd, "--m", "1.5", "--sigma", "3", flag, "7")
            assert code == 2, (cmd, flag)
        cfg = tmp_path / "cap.cfg"
        cfg.write_text("max_step=7\n")
        code, _, err = run_cli(capsys, *cmd, "--m", "1.5", "--sigma", "3", "--config", str(cfg))
        assert code == 2
        assert "unknown config key" in err


def test_params_json_full_precision(capsys):
    code, out, _ = run_cli(capsys, "params", "--m", "1.5", "--sigma", "3", "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["schema"] == 1
    assert rep["results"]["alpha"] == 10.0
    assert rep["results"]["xi_max"] == 2.0 / 3.0
    assert rep["results"]["P2"] == [0.01, 0.04, 0.0]
    # floats are rendered with 17 significant digits
    assert "0.66666666666666663" in out


def test_params_rejects_sigma_2(capsys):
    code, _, err = run_cli(capsys, "params", "--m", "1.5", "--sigma", "2")
    assert code == 2
    assert "sigma must exceed 2" in err


def test_params_rejects_bad_m(capsys):
    code, _, err = run_cli(capsys, "params", "--m", "1.0", "--sigma", "3")
    assert code == 2
    assert "m must exceed 1" in err


def test_classify_p2_sigma3(tmp_path, capsys):
    out_csv = tmp_path / "traj.csv"
    code, out, _ = run_cli(
        capsys, "classify", "--m", "1.5", "--sigma", "3", "--source", "p2",
        "--out", str(out_csv), "--format", "json",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["results"]["fate"] == "enters_parabola"
    assert -0.1 < rep["results"]["lambda_hat"] < 0.0
    eta, pts = io_mod.read_trajectory_csv(out_csv)
    assert len(eta) > 100
    assert np.all(np.diff(eta) > 0)


def test_classify_p2_sigma34(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "--m", "1.5", "--sigma", "3.4", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["results"]["fate"] == "enters_q3"


def test_classify_p0(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "--m", "1.5", "--sigma", "3", "--source", "p0",
        "--K", "0.3", "--format", "json",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["results"]["fate"] == "enters_parabola"
    assert -0.05 < rep["results"]["lambda_hat"] < 0.0


def test_classify_q1_chart_leg_keeps_its_own_controls(capsys):
    """The chart leg ends where Z is about 1e-7, so it runs under its own
    controls whatever the CLI's: lambda_hat at z0 = 1e-15 is within 1e-9 of
    both legs run at rel_tol 1e-13, abs_tol 1e-15, and the phase leg's cap
    moves it by less than 1e-11."""
    pr = validate_params(1.5, 3.0)
    start = launch_from_Q1_chart(1e-6, pr) + np.array([0.0, 0.0, 1e-15])
    handoff = EventSpec(id="handoff", guard=lambda p: 1e-2 - p[0])
    tight = IntegrationControls(rel_tol=1e-13, abs_tol=1e-15, max_step=0.01, max_time=100.0)
    hit = integrate(make_chart_rhs(pr), start, [handoff], tight).event
    phase = integrate(
        make_rhs(pr), phase_from_chart(hit.point), standard_fate_events(pr),
        IntegrationControls(rel_tol=1e-13, abs_tol=1e-15),
    )
    lam_tight = classify_fate(phase, pr).lambda_hat

    lams = []
    for cap in ([], ["--max-step", "0.1"], ["--max-step", "5"]):
        code, out, _ = run_cli(
            capsys, "classify", "--m", "1.5", "--sigma", "3", "--source", "q1",
            "--z0", "1e-15", "--format", "json", *cap,
        )
        assert code == 0
        lams.append(json.loads(out)["results"]["lambda_hat"])
    assert abs(lams[0] - lam_tight) < 1e-9
    assert abs(lams[1] - lams[2]) < 1e-11


def test_classify_trajectory_csv_round_trip(tmp_path, capsys):
    out_csv = tmp_path / "t.csv"
    code, _, _ = run_cli(
        capsys, "classify", "--m", "1.5", "--sigma", "3.4", "--out", str(out_csv)
    )
    assert code == 0
    eta, pts = io_mod.read_trajectory_csv(out_csv)
    # re-emitting the parsed values reproduces the file byte-for-byte
    text = out_csv.read_text()

    class Frame:
        pass

    t = Frame()
    t.eta, t.points = eta, pts
    out2 = tmp_path / "t2.csv"
    io_mod.write_trajectory_csv(out2, t)
    assert out2.read_text() == text


def test_classify_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli(capsys, "classify", "--m", "1.5", "--sigma", "3", "--out", str(a))
    run_cli(capsys, "classify", "--m", "1.5", "--sigma", "3", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_sigma_star_one_step(capsys):
    code, out, _ = run_cli(
        capsys, "sigma-star", "--m", "1.5", "--lo", "3.0", "--hi", "3.4",
        "--tol", "0.2", "--format", "json",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["results"]["bracket"] == [3.2, 3.4]
    assert rep["results"]["iterations"] == 1


def test_sigma_star_deterministic_reports(capsys):
    args = ("sigma-star", "--m", "1.5", "--lo", "3.0", "--hi", "3.4",
            "--tol", "0.2", "--format", "json")
    code_a, out_a, _ = run_cli(capsys, *args)
    code_b, out_b, _ = run_cli(capsys, *args)
    assert code_a == code_b == 0
    assert out_a == out_b


def test_sigma_star_bracket_error(capsys):
    code, _, err = run_cli(
        capsys, "sigma-star", "--m", "1.5", "--lo", "3.3", "--hi", "3.4", "--tol", "0.05"
    )
    assert code == 2
    assert "fates agree" in err and "widen the bracket" in err


def test_profile_p2(tmp_path, capsys):
    out_csv = tmp_path / "profile.csv"
    code, out, _ = run_cli(
        capsys, "profile", "--m", "1.5", "--sigma", "3", "--origin", "p2",
        "--out", str(out_csv), "--format", "json",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["results"]["fate"] == "interface"
    assert rep["results"]["xi0"] <= 2.0 / 3.0 + 1e-4
    assert rep["results"]["ssode_residual"] < 1e-4
    xi, f, df = io_mod.read_profile_csv(out_csv)
    assert np.all(np.diff(xi) > 0) and np.all(f >= 0)


def test_profile_p2_via_phase(capsys):
    code, out, _ = run_cli(
        capsys, "profile", "--m", "1.5", "--sigma", "3", "--origin", "p2",
        "--via", "phase", "--format", "json",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["results"]["fate"] == "enters_parabola"
    assert rep["results"]["xi0"] <= 2.0 / 3.0 + 1e-4
    assert rep["results"]["ssode_residual"] < 1e-4


def test_profile_p1_single_amplitude(capsys):
    code, out, _ = run_cli(
        capsys, "profile", "--m", "1.5", "--sigma", "3", "--origin", "p1",
        "--a", "0.5", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["results"]["fate"] == "positive"


def test_profile_p0(capsys):
    code, out, _ = run_cli(
        capsys, "profile", "--m", "1.5", "--sigma", "3", "--origin", "p0",
        "--K", "0.05", "--format", "json",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["results"]["fate"] == "interface"
    assert abs(rep["results"]["g_slope"]) < 0.05


@pytest.mark.parametrize(
    "origin, flags, named",
    [
        ("p1", ["--a", "1e-13", "--via", "phase"], "--via"),
        ("p0", ["--via", "phase"], "--via"),
        ("p2", ["--a-bracket", "1e-13", "1e-10"], "--a-bracket"),
        ("p0", ["--a-bracket", "1e-13", "1e-10"], "--a-bracket"),
        ("p2", ["--a", "0.5"], "--a needs"),
        ("p0", ["--a", "0.5"], "--a needs"),
        ("p1", ["--a", "0.5", "--a-bracket", "1e-13", "1e-10"], "--a and --a-bracket"),
        ("p1", ["--a", "0.5", "--a-tol", "1e-3"], "--a-tol"),
        ("p2", ["--K", "3"], "--K needs"),
        ("p1", ["--a", "1e-13", "--K", "3"], "--K needs"),
        ("p2", ["--via", "phase", "--xi-start", "0.01"], "--xi-start"),
    ],
    ids=[
        "p1-via", "p0-via", "p2-a-bracket", "p0-a-bracket",
        "p2-a", "p0-a", "p1-a-with-a-bracket", "p1-a-tol-without-a-bracket",
        "p2-K", "p1-K", "phase-xi-start",
    ],
)
def test_profile_rejects_a_flag_its_origin_would_ignore(origin, flags, named, capsys):
    """--via phase is for origin p2, --a and --a-bracket for origin p1 only,
    --a and --a-bracket exclude each other, --a-tol needs --a-bracket, --K
    is for origin p0 only and --xi-start for the direct integration only."""
    code, out, err = run_cli(
        capsys, "profile", "--m", "1.5", "--sigma", "3", "--origin", origin, *flags,
        "--format", "json",
    )
    assert code == 2
    assert named in err
    assert out == ""


@pytest.mark.parametrize(
    "source, flag, named",
    [
        ("p2", ["--K", "3"], "--K needs --source p0"),
        ("p2", ["--z0", "1e-7"], "--z0 needs --source p0 or q1"),
        ("p0", ["--delta", "1e-6"], "--delta needs --source p2 or q1"),
        ("q1", ["--K", "0.3"], "--K needs --source p0"),
    ],
    ids=["p2-K", "p2-z0", "p0-delta", "q1-K"],
)
def test_classify_rejects_a_launch_flag_its_source_would_ignore(source, flag, named, capsys):
    """p2 launches with --delta, p0 with --K and --z0, q1 with --delta and
    --z0; any other launch flag ends in exit 2, even at its default value."""
    code, out, err = run_cli(
        capsys, "classify", "--m", "1.5", "--sigma", "3", "--source", source, *flag,
        "--format", "json",
    )
    assert code == 2
    assert named in err
    assert out == ""


def test_config_block_holds_only_the_values_used(tmp_path, capsys):
    """The config block of classify and profile names the launch and start
    values the run used, defaults included, and no others; a config-file
    value that the run would ignore is refused like the flag."""
    expected = {
        ("classify", "p2"): {"delta": 1e-6},
        ("classify", "p0"): {"K": 0.1, "z0": 1e-5},
        ("classify", "q1"): {"delta": 1e-6, "z0": 1e-5},
    }
    for (cmd, source), used in expected.items():
        code, out, _ = run_cli(
            capsys, cmd, "--m", "1.5", "--sigma", "3", "--source", source,
            "--max-time", "1", "--format", "json",
        )
        assert code in (0, 3)
        config = json.loads(out)["config"]
        assert {k: config[k] for k in ("delta", "K", "z0") if k in config} == used, source
    profiles = {
        ("p2", "ode"): {"xi_start": 1e-4},
        ("p2", "phase"): {},
        ("p0", "ode"): {"K": 0.05, "xi_start": 1e-4},
        ("p1", "ode"): {"a": 1e-13, "xi_start": 1e-4},
    }
    for (origin, via), used in profiles.items():
        extra = ["--a", "1e-13"] if origin == "p1" else []
        code, out, _ = run_cli(
            capsys, "profile", "--m", "1.5", "--sigma", "3", "--origin", origin, "--via", via,
            *extra, "--format", "json",
        )
        assert code == 0, origin
        config = json.loads(out)["config"]
        keys = ("a", "a_bracket", "a_tol", "K", "xi_start")
        assert {k: config[k] for k in keys if k in config} == used, (origin, via)
    cfg = tmp_path / "k.cfg"
    cfg.write_text("K=0.1\n")
    code, _, err = run_cli(capsys, "classify", "--m", "1.5", "--sigma", "3", "--config", str(cfg))
    assert code == 2
    assert "--K needs" in err


def test_profile_p1_bisection(capsys):
    code, out, _ = run_cli(
        capsys, "profile", "--m", "1.5", "--sigma", "3", "--origin", "p1",
        "--a-bracket", "1e-13", "1e-10", "--a-tol", "1e-13", "--format", "json",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["results"]["fate"] == "interface"
    assert rep["results"]["xi0"] <= 2.0 / 3.0 + 1e-4


def test_verify_all(capsys, tmp_path):
    out_json = tmp_path / "verify.json"
    code, out, _ = run_cli(
        capsys, "verify", "--all", "--m", "1.5", "--sigma", "3",
        "--n", "2000", "--seed", "42", "--out", str(out_json), "--format", "json",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["results"]["all_passed"] is True
    on_disk = json.loads(out_json.read_text())
    assert on_disk["results"]["all_passed"] is True


def test_verify_text_shows_plain_python_values(capsys):
    """The text channel prints gate values as plain floats and bools, never
    numpy reprs such as np.float64(...)."""
    code, out, _ = run_cli(
        capsys, "verify", "--all", "--m", "1.5", "--sigma", "3", "--n", "200"
    )
    assert code == 0
    assert "'n_dot_e3': -0.25" in out
    assert "np." not in out


def test_verify_single_barrier_strict_margin(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--barrier", "cylinder", "--m", "1.5", "--sigma", "3",
        "--n", "2000", "--format", "json",
    )
    assert code == 0
    entry = json.loads(out)["results"]["barriers"][0]
    assert entry["barrier"] == "cylinder"
    assert entry["worst_margin"] < 0.0


def test_verify_unknown_barrier(capsys):
    code, _, err = run_cli(
        capsys, "verify", "--barrier", "nonexistent", "--m", "1.5", "--sigma", "3"
    )
    assert code == 2
    assert "unknown barrier" in err
    assert "cylinder" in err  # the catalog is listed


def test_verify_output_byte_stable(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli(capsys, "verify", "--all", "--m", "1.5", "--sigma", "3", "--n", "1000",
            "--seed", "9", "--out", str(a))
    run_cli(capsys, "verify", "--all", "--m", "1.5", "--sigma", "3", "--n", "1000",
            "--seed", "9", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_sweep_fates_and_csv(tmp_path, capsys):
    out_csv = tmp_path / "sweep.csv"
    code, out, _ = run_cli(
        capsys, "sweep", "--m", "1.5", "--sigmas", "2.6,3.0,3.4",
        "--out", str(out_csv), "--format", "json",
    )
    assert code == 0
    rows = io_mod.read_sweep_csv(out_csv)
    assert [r[1] for r in rows] == ["enters_parabola", "enters_parabola", "enters_q3"]
    assert rows[0][2] is not None and rows[2][2] is None
    assert rows[0][0] == 2.6
    # rows follow the grid as given, in both the serial and the pool path
    for jobs in ("1", "2"):
        code, out, _ = run_cli(
            capsys, "sweep", "--m", "1.5", "--sigmas", "3.4,3", "--jobs", jobs, "--format", "json"
        )
        assert code == 0
        rows = json.loads(out)["results"]["rows"]
        assert [(r["sigma"], r["fate"]) for r in rows] == [
            (3.4, "enters_q3"), (3.0, "enters_parabola")
        ]


def test_sweep_paper_grid(tmp_path, capsys):
    """The five-point grid spanning both figure regimes; the slow crawl at
    sigma=2.2 needs a larger eta budget and step cap."""
    out_csv = tmp_path / "sweep.csv"
    code, out, _ = run_cli(
        capsys, "sweep", "--m", "1.5", "--sigmas", "2.2,2.6,3.0,3.285,3.4",
        "--max-time", "80000", "--max-step", "0.5", "--out", str(out_csv),
        "--format", "json",
    )
    assert code == 0
    rows = io_mod.read_sweep_csv(out_csv)
    fates = [r[1] for r in rows]
    assert fates[:3] == ["enters_parabola"] * 3
    assert fates[3] in ("enters_parabola", "enters_vertex_neighborhood")
    assert fates[4] == "enters_q3"
    # lambda decreases along the parabola-entering part of the grid
    lams = [r[2] for r in rows[:4]]
    assert all(l is not None for l in lams)
    assert lams == sorted(lams, reverse=True)
    # the near-critical entry is close to the vertex
    pr = __import__("ssblow.params", fromlist=["beta_over_alpha"])
    boa = pr.beta_over_alpha(pr.validate_params(1.5, 3.285))
    assert abs(rows[3][2] + boa / 2.0) < 0.01


def test_sweep_empty_grid(capsys):
    code, _, err = run_cli(capsys, "sweep", "--m", "1.5", "--sigmas", "")
    assert code == 2
    assert "empty sigma grid" in err


def test_sweep_parallel_determinism(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli(capsys, "sweep", "--m", "1.5", "--sigmas", "3.0,3.4", "--out", str(a))
    run_cli(capsys, "sweep", "--m", "1.5", "--sigmas", "3.0,3.4", "--jobs", "2",
            "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_config_file_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sigma=3.4\nmax_time=5000\n# comment line\n")
    code, out, _ = run_cli(
        capsys, "classify", "--m", "1.5", "--sigma", "3.4", "--config", str(cfg),
        "--format", "json",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["results"]["fate"] == "enters_q3"

    # a flag given explicitly beats the config file
    cfg2 = tmp_path / "run2.cfg"
    cfg2.write_text("K=0.05\n")
    code, out, _ = run_cli(
        capsys, "classify", "--m", "1.5", "--sigma", "3", "--source", "p0",
        "--K", "0.3", "--config", str(cfg2), "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["config"]["K"] == 0.3


def test_config_value_takes_effect_unless_flag_given(tmp_path, capsys):
    cfg = tmp_path / "short.cfg"
    cfg.write_text("max_time=1\n")
    args = ("classify", "--m", "1.5", "--sigma", "3", "--config", str(cfg), "--format", "json")
    code, out, _ = run_cli(capsys, *args)
    assert code == 3
    assert json.loads(out)["results"]["diagnostics"]["final_eta"] == 1.0
    # an explicit flag wins even when it equals the built-in default
    code, _, _ = run_cli(capsys, *args, "--max-time", "10000")
    assert code == 0


def test_config_values_are_converted(tmp_path, capsys):
    cfg = tmp_path / "p1.cfg"
    cfg.write_text("a=1e-13\n")
    code, out, _ = run_cli(
        capsys, "profile", "--m", "1.5", "--sigma", "3", "--origin", "p1",
        "--config", str(cfg), "--format", "json",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["config"]["a"] == 1e-13
    assert rep["results"]["fate"] == "interface"


def test_config_list_and_choice_values(tmp_path, capsys):
    cfg = tmp_path / "lists.cfg"
    cfg.write_text("barrier=cylinder midplane\nn=200\n")
    code, out, _ = run_cli(
        capsys, "verify", "--m", "1.5", "--sigma", "3", "--config", str(cfg), "--format", "json"
    )
    assert code == 0
    entries = json.loads(out)["results"]["barriers"]
    assert [e["barrier"] for e in entries] == ["cylinder", "midplane"]
    assert all(e["samples_tested"] == 200 for e in entries)
    cfg.write_text("a_bracket=1e-13 1e-10\n")
    code, out, _ = run_cli(
        capsys, "profile", "--m", "1.5", "--sigma", "3", "--origin", "p1",
        "--config", str(cfg), "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["config"]["a_bracket"] == [1e-13, 1e-10]
    cfg.write_text("source=p9\n")
    code, _, err = run_cli(capsys, "classify", "--m", "1.5", "--sigma", "3", "--config", str(cfg))
    assert code == 2
    assert "must be one of" in err


def test_max_step_defaults_and_overrides(tmp_path):
    """Fate-only commands leave the step to error control, the others cap
    it at 5; a flag or a config value still sets the cap."""
    from ssblow.cli import _set_config_defaults, build_parser

    sweep = ["sweep", "--m", "1.5", "--sigmas", "3"]
    star = ["sigma-star", "--m", "1.5", "--lo", "3", "--hi", "3.4"]
    classify = ["classify", "--m", "1.5", "--sigma", "3"]
    parse = lambda argv: build_parser().parse_args(argv)
    assert parse(sweep).max_step == parse(star).max_step == math.inf
    assert parse(classify).max_step == 5.0
    assert parse(sweep + ["--max-step", "0.1"]).max_step == 0.1
    cfg = tmp_path / "cap.cfg"
    cfg.write_text("max_step=0.1\n")
    parser = build_parser()
    argv = star + ["--config", str(cfg)]
    _set_config_defaults(parser, parser.parse_args(argv))
    assert parser.parse_args(argv).max_step == 0.1


def test_control_flag_defaults_are_the_library_controls(monkeypatch, capsys):
    """At its flags' defaults each integrating command runs its orbits
    under the controls of its library path: IntegrationControls() for
    classify and profile, the controls of sigma_star for sigma-star, and
    FATE_ONLY_CONTROLS for sweep."""
    seen = []

    def spy(field, start, events, controls=None):
        seen.append(controls or IntegrationControls())
        return integrate(field, start, events, controls)

    monkeypatch.setattr(ssblow.orbits, "integrate", spy)
    sigma_star(1.5, (3.0, 3.4), 0.2)
    library = {
        "classify": IntegrationControls(),
        "profile": IntegrationControls(),
        "sigma-star": seen[0],
        "sweep": FATE_ONLY_CONTROLS,
    }
    argvs = {
        "classify": ["--sigma", "3"],
        "profile": ["--sigma", "3", "--via", "phase"],
        "sigma-star": ["--lo", "3", "--hi", "3.4", "--tol", "0.2"],
        "sweep": ["--sigmas", "3"],
    }
    for cmd, expected in library.items():
        seen.clear()
        code, out, _ = run_cli(capsys, cmd, "--m", "1.5", *argvs[cmd], "--format", "json")
        assert code == 0, cmd
        assert seen and all(c == expected for c in seen), cmd
        config = json.loads(out)["config"]
        for key in ("rel_tol", "abs_tol", "max_time"):
            assert config[key] == getattr(expected, key), (cmd, key)
        # an infinite step cap is written to JSON as null
        assert config["max_step"] == (None if expected.max_step == math.inf else expected.max_step)


def test_config_block_names_the_controls(capsys):
    args = ("classify", "--m", "1.5", "--sigma", "3", "--source", "p2", "--format", "json")
    _, out, _ = run_cli(capsys, *args)
    code, short, _ = run_cli(capsys, *args, "--max-time", "10")
    assert code == 3
    default, short = json.loads(out)["config"], json.loads(short)["config"]
    assert default != short
    assert (default["max_time"], short["max_time"]) == (1e4, 10.0)


def test_classify_json_carries_step_counters(capsys):
    code, out, _ = run_cli(
        capsys, "classify", "--m", "1.5", "--sigma", "3.4", "--format", "json"
    )
    assert code == 0
    diag = json.loads(out)["results"]["diagnostics"]
    assert diag["n_rhs"] == 6 * (diag["n_steps"] + diag["n_rejected"]) + 2


def test_classify_with_infinite_max_time_runs_to_its_event(capsys):
    """--max-time inf takes the steps of the default budget: the P2 orbit at
    (1.5, 3) enters the parabola at eta about 2.2e3, well inside 1e4."""
    reports = []
    for budget in ("inf", "1e4"):
        code, out, _ = run_cli(
            capsys, "classify", "--m", "1.5", "--sigma", "3", "--source", "p2",
            "--max-time", budget, "--format", "json",
        )
        assert code == 0
        reports.append(json.loads(out)["results"])
    assert reports[0]["fate"] == "enters_parabola"
    assert reports[0]["diagnostics"]["n_steps"] > 0
    assert reports[0] == reports[1]


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("does_not_exist=1\n")
    code, _, err = run_cli(
        capsys, "params", "--m", "1.5", "--sigma", "3", "--config", str(cfg)
    )
    assert code == 2
    assert "unknown config key" in err


def test_inconclusive_exit_code(capsys):
    # a tiny budget cannot resolve the fate: distinct exit code, fate recorded
    code, out, _ = run_cli(
        capsys, "classify", "--m", "1.5", "--sigma", "3", "--max-time", "10",
        "--format", "json",
    )
    assert code == 3
    rep = json.loads(out)
    assert rep["results"]["fate"] == "inconclusive"
    assert rep["warnings"]


def test_fmt_round_trip_exactness():
    rng = np.random.default_rng(0)
    for x in rng.uniform(-1e6, 1e6, 100):
        assert float(io_mod.fmt(x)) == x
    for x in (2.0 / 3.0, 1e-300, 1.5e300, 0.1):
        assert float(io_mod.fmt(x)) == x


def test_read_sweep_csv_rejects_wrong_header(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("eta,X,Y,Z\n0,1,2,3\n")
    with pytest.raises(ValueError, match="not a sweep CSV"):
        io_mod.read_sweep_csv(bad)


@pytest.mark.parametrize("reader", [io_mod.read_trajectory_csv, io_mod.read_profile_csv])
def test_trajectory_and_profile_readers_reject_a_wrong_header(reader, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("sigma,fate,lambda_hat,xi0\n3,enters_q3,,\n")
    with pytest.raises(ValueError, match="not a (trajectory|profile) CSV"):
        reader(bad)


def test_one_row_csvs_round_trip(tmp_path):
    traj = SimpleNamespace(eta=np.array([0.5]), points=np.array([[1.0, -2.0, 3.0]]))
    frame = SimpleNamespace(xi=np.array([0.25]), f=np.array([1e-3]), df=np.array([-4.0]))
    io_mod.write_trajectory_csv(tmp_path / "t.csv", traj)
    io_mod.write_profile_csv(tmp_path / "p.csv", frame)
    eta, pts = io_mod.read_trajectory_csv(tmp_path / "t.csv")
    assert np.array_equal(eta, traj.eta) and np.array_equal(pts, traj.points)
    back = io_mod.read_profile_csv(tmp_path / "p.csv")
    assert all(np.array_equal(a, b) for a, b in zip(back, (frame.xi, frame.f, frame.df)))


def test_csv_rows_are_fmt_joined(tmp_path):
    """Rows are the %.17g text of every value, extremes and -0.0 included."""
    values = np.array([[-0.0, 5e-324, 1e308, -1e308], [0.1, 2.0 / 3.0, -5e-324, 1.0]])
    traj = SimpleNamespace(eta=values[:, 0], points=values[:, 1:])
    io_mod.write_trajectory_csv(tmp_path / "t.csv", traj)
    rows = "".join(",".join(io_mod.fmt(v) for v in row) + "\n" for row in values)
    expected = "eta,X,Y,Z\n" + rows
    assert (tmp_path / "t.csv").read_text() == expected
    eta, pts = io_mod.read_trajectory_csv(tmp_path / "t.csv")
    assert np.array_equal(np.column_stack((eta, pts)), values)
    assert math.copysign(1.0, eta[0]) == -1.0


def test_cli_runs_without_scipy(tmp_path):
    code = (
        "import sys, ssblow.cli\n"
        "rc = ssblow.cli.main(['verify', '--all', '--m', '1.5', '--sigma', '3', '--n', '200',"
        " '--format', 'json'])\n"
        "assert rc == 0, rc\n"
        "print(sorted(name for name in sys.modules if name.startswith('scipy')))\n"
    )
    src = str(Path(ssblow.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


_PUBLIC_SURFACE = {
    "params": [
        "DomainError", "Exponents", "ParameterError", "Params", "beta_over_alpha",
        "derive_exponents", "interface_xi_of_lambda", "lambda_range", "p2_coordinates",
        "parabola_point", "parabola_z", "validate_params",
    ],
    "field": [
        "CriticalPoint", "EigenData", "VertexNormalForm", "center_family_P0",
        "classify_critical_points", "eigen_data", "infinity_chart_field",
        "infinity_chart_jacobian", "jacobian", "make_chart_rhs", "make_rhs",
        "p2_chart_coordinates", "p2_unstable_eigenvalue", "p2_unstable_eigenvector",
        "phase_from_chart", "vector_field",
        "vertex_center_slope", "vertex_normal_form", "vertex_normal_form_coeffs",
    ],
    "integrate": ["EventHit", "EventSpec", "IntegrationControls", "Trajectory", "integrate"],
    "orbits": [
        "BracketError", "FATE_ONLY_CONTROLS", "FateKind", "InconclusiveError", "OrbitFate",
        "ShootResult", "classify_fate", "lambda_of_sigma", "launch_from_P0", "launch_from_P2",
        "launch_from_Q1_chart", "parabola_entry_distance", "q1_to_p2_connection",
        "run_p0_orbit", "run_p2_orbit", "run_q1_orbit", "sigma_star", "standard_fate_events",
    ],
    "profiles": [
        "InconclusiveProfile", "InterfaceReport", "ProfileBracketError", "ProfileFrame",
        "SsodeResult", "find_good_profile_P1", "integrate_ssode", "interface_slopes",
        "p0_behavior_exponent", "p2_behavior_prefactor", "reconstruct_profile", "ssode_residual",
    ],
    "barriers": [
        "BarrierSpec", "ConfigurationError", "VerificationReport", "barrier_catalog",
        "dregion_constants", "dregion_gates", "empirical_sigma0", "plane3_constants",
        "plane3_gate", "region_membership", "verify_barrier",
    ],
    "io": [
        "dump_report", "fmt", "read_profile_csv", "read_sweep_csv", "read_trajectory_csv",
        "write_profile_csv", "write_sweep_csv", "write_trajectory_csv",
    ],
}


def test_public_surface_is_pinned():
    """Names leave or join a module's __all__ only on purpose, each resolves
    in its module, and the package re-exports IntegrationControls alone, so
    that every other name has one import path."""
    for name, pinned in _PUBLIC_SURFACE.items():
        module = importlib.import_module("ssblow." + name)
        assert sorted(module.__all__) == pinned, name
        assert all(hasattr(module, attr) for attr in pinned), name
    reexported = [
        n for n, v in vars(ssblow).items() if not n.startswith("_") and not isinstance(v, ModuleType)
    ]
    assert reexported == ["IntegrationControls"]
    import ssblow.integrate as integrate_module

    assert isinstance(integrate_module, ModuleType)
    assert integrate_module.__name__ == "ssblow.integrate"


def test_cli_import_leaves_out_the_process_pool():
    """Only sweep --jobs > 1 pays for concurrent.futures and multiprocessing."""
    code = (
        "import sys, ssblow.cli\n"
        "print(sorted(name for name in sys.modules"
        " if name.split('.')[0] in ('concurrent', 'multiprocessing')))\n"
    )
    src = str(Path(ssblow.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def _mostly(good, bad):
    """One of the good values, and one time in eight a bad one."""
    return st.integers(0, 7).flatmap(lambda k: st.sampled_from(bad if k == 0 else good))


_FORMAT = _mostly(["text", "json"], ["xml"])
_MAX_STEP = _mostly(["0.05", "1", "5", "inf"], ["0", "-1", "nan", "x"])
# per command: its flags, each with good and now and then bad values; every
# good combination runs in well under 1 s (measured: at most 0.3 s)
_FLAGS = {
    "params": {"--format": _FORMAT},
    "classify": {
        "--format": _FORMAT,
        "--source": _mostly(["p2", "p0", "q1"], ["p9"]),
        "--K": _mostly(["0.1", "0.3", "1"], ["0", "-1", "1e300", "nan", "x"]),
        "--z0": _mostly(["1e-5", "1e-7", "1e-15"], ["0", "-1", "1e300", "x"]),
        "--delta": _mostly(["1e-6", "1e-5"], ["1", "-1e-6", "nan"]),
        "--max-step": _MAX_STEP,
        "--rel-tol": _mostly(["1e-8", "1e-10"], ["1e-14", "0", "inf"]),
    },
    "verify": {
        "--format": _FORMAT,
        "--seed": _mostly(["0", "7", "42"], ["-1", "x"]),
        "--barrier": _mostly(["midplane", "cylinder"], ["nope", ""]),
    },
    # p0 keeps K >= 0.05 (and sigma <= 4 below): its start is stiff at
    # small K and large sigma
    "profile": {
        "--format": _FORMAT,
        "--origin": _mostly(["p2", "p0", "p1"], ["p9"]),
        "--via": _mostly(["ode", "phase"], ["fd"]),
        "--a": _mostly(["0.5", "1e-8"], ["-1", "0", "nan", "x"]),
        "--K": _mostly(["0.05", "0.3", "1"], ["0", "-1", "x"]),
        "--max-step": _MAX_STEP,
        "--rel-tol": _mostly(["1e-8", "1e-10"], ["1e-14", "0"]),
    },
    "sigma-star": {
        "--format": _FORMAT,
        "--tol": _mostly(["1e-2", "1e-3"], ["0", "-1", "nan", "x"]),
        "--max-step": _mostly(["5", "inf"], ["0", "nan"]),
    },
    "sweep": {
        "--format": _FORMAT,
        "--max-step": _mostly(["5", "inf"], ["0", "nan"]),
    },
}
# per command: config keys and good values; _BAD_LINES are bad in every command
_KEYS = {
    "params": {"format": ["json", "text"]},
    "classify": {"format": ["json"], "source": ["p0", "q1"], "K": ["0.3"], "delta": ["1e-5"]},
    "verify": {
        "format": ["json"], "seed": ["3"], "all": ["yes", "no"], "barrier": ["midplane cylinder"]
    },
    "profile": {"format": ["json"], "origin": ["p0", "p1"], "a": ["0.5"], "via": ["phase"]},
    "sigma-star": {"format": ["json"], "tol": ["1e-2"]},
    "sweep": {"format": ["json"], "sigmas": ["3,3.4"]},
}
_BAD_LINES = ["no_such_key=1", "format=xml", "m=x", "no equals sign"]


@st.composite
def _cli_case(draw):
    """argv and config lines for params, verify (n <= 200), classify and
    profile (max-time <= 50), sigma-star on brackets near sigma* and sweep
    over at most three sigmas with --jobs 1; no config key sets a budget,
    so every run stays short."""
    cmd = draw(st.sampled_from(sorted(_FLAGS)))
    argv = [cmd, "--m", draw(_mostly(["1.5", "1.2", "1.8"], ["1", "2", "nan", "x", ""]))]
    if cmd == "sigma-star":
        argv += [
            "--lo", draw(_mostly(["3", "3.2"], ["1.9", "3.6", "x"])),
            "--hi", draw(_mostly(["3.4", "3.6"], ["3", "nan"])),
        ]
    elif cmd == "sweep":
        argv += [
            "--sigmas", draw(_mostly(["3", "2.6,3.0,3.4", "3.4,3"], ["3,x", "", "1.9,3", "nan"])),
            "--jobs", "1",
        ]
    else:
        good = ["3", "3.4", "2.5"] if cmd == "profile" else ["3", "3.4", "2.5", "6"]
        argv += ["--sigma", draw(_mostly(good, ["2", "2.0001", "-1", "inf", "x"]))]
    if cmd in ("classify", "profile"):
        argv += ["--max-time", draw(_mostly(["50", "20", "1"], ["0", "-3", "nan"]))]
    elif cmd == "verify":
        argv += ["--n", str(draw(_mostly(range(100, 201), range(-5, 100))))]
        if draw(st.booleans()):
            argv.append("--all")
    for flag in draw(st.lists(st.sampled_from(sorted(_FLAGS[cmd])), max_size=3, unique=True)):
        argv += [flag, draw(_FLAGS[cmd][flag])]
    good = [k + "=" + v for k, vals in sorted(_KEYS[cmd].items()) for v in vals] + ["# note", ""]
    config = draw(st.none() | st.lists(_mostly(good, _BAD_LINES), max_size=3))
    return argv, config


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(case=_cli_case())
@example(case=(["classify", "--m", "1.5", "--sigma", "3", "--max-time", "50",
                "--source", "p0", "--K", "1e300"], None))
@example(case=(["classify", "--m", "1.5", "--sigma", "3", "--max-time", "50",
                "--source", "q1", "--z0", "1e300"], None))
def test_cli_exit_code_contract(case, tmp_path_factory, capsys):
    """Any such argv and config file ends in exit 0, 2, 3 or 4, and never in
    a traceback.  The pinned starts are so large that the first step's
    field overflows, which once raised OverflowError; they end in exit 3."""
    argv, config = case
    if config is not None:
        path = tmp_path_factory.mktemp("cfg") / "run.cfg"
        path.write_text("\n".join(config) + "\n")
        argv = argv + ["--config", str(path)]
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 2, 3, 4), (argv, config, err)
    assert "Traceback" not in err
