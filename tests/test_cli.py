import importlib
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path
from types import ModuleType, SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import ssblow
from ssblow.barriers import ConfigurationError
from ssblow.cli import _COMMANDS, build_parser, main
from ssblow import io as io_mod
from ssblow.field import make_chart_rhs, make_rhs, phase_from_chart
from ssblow.integrate import EventSpec, IntegrationControls, integrate
import ssblow.orbits
from ssblow.orbits import (
    FATE_ONLY_CONTROLS,
    BracketError,
    classify_fate,
    launch_from_Q1_chart,
    run_p2_orbit,
    sigma_star,
    standard_fate_events,
)
from ssblow.params import DomainError, ParameterError, validate_params


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def usage_error(capsys, error, *argv):
    """argv's command raises exactly error, and main maps that to exit 2
    with 'error: ' on stderr; returns stderr."""
    args = build_parser().parse_args(list(argv))
    with pytest.raises(error) as raised:
        _COMMANDS[args.cmd](args)
    assert raised.type is error
    code, _, err = run_cli(capsys, *argv)
    assert code == 2 and err.startswith("error: "), (code, err)
    return err


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
    err = usage_error(capsys, ParameterError, "params", "--m", "1.5", "--sigma", "2")
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


def test_classify_and_profile_p0_name_one_profile_by_default(capsys):
    """classify --source p0 and profile --origin p0 read --K as the tail
    coefficient, with the one default 0.05: at (1.5, 3) the default P0
    orbit from z0 = 1e-5 enters the parabola at the interface that the
    direct run from the same height, xi = (alpha^2 z0 / m)^(1/(sigma-2)),
    finds."""
    code, out, _ = run_cli(
        capsys, "classify", "--m", "1.5", "--sigma", "3", "--source", "p0", "--format", "json"
    )
    assert code == 0
    orbit = json.loads(out)
    assert orbit["results"]["fate"] == "enters_parabola"
    code, out, _ = run_cli(
        capsys, "profile", "--m", "1.5", "--sigma", "3", "--origin", "p0",
        "--xi-start", repr(10.0**2 * 1e-5 / 1.5), "--format", "json",  # alpha = 10, sigma - 2 = 1
    )
    assert code == 0
    direct = json.loads(out)
    assert orbit["config"]["K"] == direct["config"]["K"] == 0.05
    assert direct["results"]["fate"] == "interface"
    assert abs(orbit["results"]["xi0"] - direct["results"]["xi0"]) < 1e-7


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


@pytest.mark.parametrize("z0", ["1e-2", "1", "1e3", "1e12"])
def test_classify_q1_chart_leg_ends_at_the_y_floor(z0, capsys):
    """From z0 = 1e-2 on at (1.5, 3) the chart leg's Y = y / w falls below
    the Y floor before w reaches the handoff (from z0 = 1e3 on, before it
    could underflow its step).  The chart leg ends there, as the Y-floor
    escape to Q3 with X = 1 / w at least 100 and F = Z - z_max, where a
    phase leg started below the floor would never arm its floor guard."""
    code, out, _ = run_cli(
        capsys, "classify", "--m", "1.5", "--sigma", "3", "--source", "q1",
        "--z0", z0, "--format", "json",
    )
    assert code == 0
    res = json.loads(out)["results"]
    assert res["fate"] == "enters_q3"
    assert [e[0] for e in res["diagnostics"]["events"]] == ["y_floor"]
    x, y, _ = res["entry_point"]
    assert x >= 100.0
    # the event is located in eta, and at z0 = 1e12 the chart leg reaches
    # the floor by eta 1e-9, where Y is off the floor by 2.3e-4 of it
    assert y == pytest.approx(-1e3, rel=1e-3)


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
    # both ends escape to Q3, then both enter the parabola
    for lo, hi in (("3.3", "3.4"), ("3.0", "3.1")):
        err = usage_error(
            capsys, BracketError, "sigma-star", "--m", "1.5", "--lo", lo, "--hi", hi, "--tol", "0.05"
        )
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
        ("classify", "p0"): {"K": 0.05, "z0": 1e-5},
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


@pytest.mark.parametrize(
    "error, flags, named",
    [
        (DomainError, ["--origin", "p0", "--K", "1e-12"], "non-physical start"),
        pytest.param(
            BracketError, ["--origin", "p1", "--a-bracket", "1e-10", "2e-10"], "a sign change at both ends",
            id="sign-change-at-both-ends",
        ),
        # an interface at 1e-13 and a positive fate at 1
        pytest.param(
            BracketError, ["--origin", "p1", "--a-bracket", "1e-13", "1"], "no sign change at either end",
            id="no-sign-change-at-either-end",
        ),
    ],
)
def test_profile_start_and_bracket_errors_exit_2(error, flags, named, capsys):
    """A bracket whose ends lie on the same side of the sign change exits 2
    with a message naming that side, even where their fates differ."""
    err = usage_error(capsys, error, "profile", "--m", "1.5", "--sigma", "3", *flags)
    assert named in err


@pytest.mark.parametrize(
    "argv",
    [
        ["sigma-star", "--lo", "3", "--hi", "3.4", "--tol", "nan"],
        ["sigma-star", "--lo", "3", "--hi", "3.4", "--tol", "inf"],
        ["profile", "--sigma", "3", "--origin", "p1", "--a-bracket", "1e-13", "1e-10",
         "--a-tol", "nan"],
        ["classify", "--sigma", "3", "--source", "p0", "--K", "nan"],
        ["classify", "--sigma", "3", "--source", "p0", "--K", "inf"],
        ["profile", "--sigma", "3", "--origin", "p0", "--K", "nan"],
        ["profile", "--sigma", "3", "--origin", "p1", "--a", "nan"],
        ["profile", "--sigma", "3", "--origin", "p1", "--a", "inf"],
        ["classify", "--sigma", "3", "--source", "q1", "--z0", "nan"],
        ["classify", "--sigma", "3", "--source", "q1", "--z0", "-1"],
    ],
    ids=lambda argv: " ".join(argv[:1] + argv[-2:]),
)
def test_non_finite_launch_shot_and_search_values_exit_2(argv, capsys):
    """Bad input, not an inconclusive run: a finite start whose field
    overflows is exit 3 (test_cli_exit_code_contract), these are exit 2."""
    code, _, err = run_cli(capsys, *argv[:1], "--m", "1.5", *argv[1:])
    assert code == 2 and err.startswith("error: "), (code, err)


@pytest.mark.parametrize(
    "argv",
    [
        ["params", "--sigma", "inf"],
        ["classify", "--sigma", "inf"],
        ["profile", "--sigma", "inf"],
        ["verify", "--sigma", "inf"],
        ["sweep", "--sigmas", "3,inf"],
        ["sigma-star", "--lo", "3", "--hi", "inf"],
    ],
    ids=lambda argv: argv[0],
)
def test_an_infinite_sigma_exits_2(argv, capsys):
    """Params refuses sigma = inf, which derive_exponents cannot take; sweep
    and sigma-star check every sigma of the grid or bracket before the
    first run."""
    code, out, err = run_cli(capsys, *argv[:1], "--m", "1.5", *argv[1:])
    assert (code, out, err) == (2, "", "error: sigma must be finite\n")


def test_a_profile_whose_residual_overflows_exits_3(capsys):
    """At K = 1e300 the frame is finite (f up to 5.4e283), but the flux
    m f^(m-1) f' of ssode_residual overflows: exit 3 with the reason named,
    and no numpy warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(
            capsys, "profile", "--m", "1.5", "--sigma", "3", "--origin", "p0", "--K", "1e300",
            "--format", "json",
        )
    assert (code, err) == (3, "")
    rep = json.loads(out)
    assert rep["results"]["ssode_residual"] is None
    assert rep["warnings"] == ["ssode_residual is not finite: a term of the profile equation overflows"]


@pytest.mark.parametrize("origin", ["p0", "p2"])
def test_a_profile_near_m_1_keeps_the_rows_where_f_is_positive(origin, capsys):
    """At m = 1.02, f = ((m-1) g / m)^(1/(m-1)) underflows to 0 on part of
    the run: the frame drops those rows, and the interface lies below
    xi_max 0.98.  The residual is reported but checks little here: it is
    relative to max(1, |alpha f|), and f is of order 1e-170."""
    code, out, _ = run_cli(
        capsys, "profile", "--m", "1.02", "--sigma", "3", "--origin", origin, "--format", "json"
    )
    assert code == 0
    res = json.loads(out)["results"]
    assert res["fate"] == "interface" and res["xi0"] < 0.98
    assert res["n_samples"] >= 5 and "ssode_residual" in res


def test_a_profile_whose_frame_is_empty_exits_3(tmp_path, capsys):
    """At m = 1.01 every f of the p0 run underflows to 0, so no sample is
    left to test the profile equation: exit 3 with the reason named,
    although the pressure run finds an interface."""
    code, out, err = run_cli(
        capsys, "profile", "--m", "1.01", "--sigma", "3", "--origin", "p0",
        "--out", str(tmp_path / "profile.csv"), "--format", "json",
    )
    assert (code, err) == (3, "")
    rep = json.loads(out)
    assert rep["results"]["fate"] == "interface" and rep["results"]["n_samples"] == 0
    assert "ssode_residual" not in rep["results"]
    assert rep["warnings"] == ["the frame keeps 0 samples, too few to test the profile equation"]


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


@pytest.mark.parametrize("sigma", ["3", "3.2875", "3.4"])
def test_classify_text_shows_plain_python_values(sigma, capsys):
    """A fate's lambda_hat and z_gap are Python floats, from the tube, the
    z_limit bracket and the midplane alike, so the text channel prints no
    numpy repr such as np.float64(...)."""
    code, out, _ = run_cli(capsys, "classify", "--m", "1.5", "--sigma", sigma)
    assert code == 0
    assert "'z_gap': " in out
    assert "np." not in out


@pytest.mark.parametrize(
    "flags, config",
    [
        (["--all", "--barrier", "midplane"], None),
        (["--all"], "barrier=midplane\n"),
        (["--barrier", "midplane"], "all=yes\n"),
    ],
    ids=["flags", "barrier-in-file", "all-in-file"],
)
def test_verify_all_and_barrier_exclude_each_other(flags, config, tmp_path, capsys):
    """--all checks every barrier, so together with --barrier, as a flag or
    a config key, it is refused with exit 2."""
    argv = ["verify", "--m", "1.5", "--sigma", "3", "--n", "100", *flags]
    if config is not None:
        cfg = tmp_path / "v.cfg"
        cfg.write_text(config)
        argv += ["--config", str(cfg)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: --all and --barrier exclude each other\n"


@pytest.mark.parametrize("value", ["ture", "", "2", "y", "enabled"])
def test_config_refuses_a_malformed_boolean(value, tmp_path, capsys):
    """A store_true key takes 1/0, true/false, yes/no or on/off, in any
    case; anything else is exit 2, not a silent false."""
    cfg = tmp_path / "v.cfg"
    cfg.write_text("all=%s\n" % value)
    argv = ("verify", "--m", "1.5", "--sigma", "3", "--n", "100", "--config", str(cfg))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: config key 'all' must be one of")
    for good in ("1", "0", "True", "false", "YES", "no", "on", "Off"):
        cfg.write_text("all=%s\n" % good)
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0, good


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
    err = usage_error(
        capsys, ConfigurationError, "verify", "--barrier", "nonexistent", "--m", "1.5", "--sigma", "3"
    )
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
    assert fates[3] == "enters_parabola"
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


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_refuses_fewer_than_one_job(jobs, capsys):
    err = usage_error(capsys, ParameterError, "sweep", "--m", "1.5", "--sigmas", "3", "--jobs", jobs)
    assert "--jobs" in err


def test_sweep_parallel_determinism(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli(capsys, "sweep", "--m", "1.5", "--sigmas", "3.0,3.4", "--out", str(a))
    run_cli(capsys, "sweep", "--m", "1.5", "--sigmas", "3.0,3.4", "--jobs", "2",
            "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_sweep_rows_carry_the_run_counters(tmp_path, capsys):
    """Each sweep JSON row carries the run record (Trajectory.record) as
    classify reports it, here of the fate-only run from the series launch;
    two sweeps give the same bytes, and the CSV keeps its four columns."""
    argv = ["sweep", "--m", "1.5", "--sigmas", "3.0,3.4", "--format", "json"]
    code, out, _ = run_cli(capsys, *argv, "--out", str(tmp_path / "sweep.csv"))
    assert code == 0
    assert run_cli(capsys, *argv, "--out", str(tmp_path / "sweep.csv"))[1] == out
    rows = json.loads(out)["results"]["rows"]
    for row in rows:
        traj, fate = run_p2_orbit(validate_params(1.5, row["sigma"]), FATE_ONLY_CONTROLS, delta=None)
        assert row["fate"] == fate.kind and row["lambda_hat"] == fate.lambda_hat
        for key, value in traj.record.items():
            assert row[key] == value == fate.diagnostics[key], key
    assert rows[0]["termination"] == "event" and rows[0]["n_steps"] > 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == "sigma,fate,lambda_hat,xi0"
    assert all(line.count(",") == 3 for line in lines)


@pytest.mark.parametrize(
    "flags",
    [
        ("--origin", "p2"),
        ("--origin", "p2", "--via", "phase"),
        ("--origin", "p1", "--a-bracket", "1e-13", "1e-10"),
        ("--origin", "p0"),
        ("--origin", "p1", "--a", "1e-13"),
    ],
)
def test_profile_reports_carry_the_run_counters(capsys, flags):
    """Each profile JSON report carries the run record of the run it
    reports, as classify and sweep rows do, with no key null, and two runs
    give the same bytes."""
    argv = ["profile", "--m", "1.5", "--sigma", "3", *flags, "--format", "json"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert run_cli(capsys, *argv)[1] == out
    results = json.loads(out)["results"]
    assert results["termination"] == "event" and results["n_steps"] > 0
    assert results["n_rhs"] == 6 * (results["n_steps"] + results["n_rejected"]) + 2
    assert all(type(results[k]) is int for k in ("n_steps", "n_rejected", "n_rhs"))
    assert results["final_eta"] > 0.0


@pytest.mark.parametrize(
    "launch, reason",
    [
        (["--source", "p2"], None),
        (["--source", "p2", "--max-time", "10"], "run ended by max_time"),
        (["--source", "p0", "--K", "0.3"], None),
        (["--source", "q1", "--z0", "1e-15"], None),
        (["--source", "q1", "--z0", "0.01"], None),
        (["--source", "q1", "--z0", "1e300"], "chart leg ended by step_underflow"),
    ],
    ids=["p2", "p2-short", "p0", "q1", "q1-floor", "q1-no-handoff"],
)
def test_classify_diagnostics_are_the_fates_record(launch, reason, monkeypatch, capsys):
    """classify emits the diagnostics of the fate it classifies whole: the
    run record with no key null, events, and F (z_gap) of a decisive fate,
    equal to the bit, or the reason of an inconclusive one.  A Q1 chart leg
    that ends without its handoff (the first step underflows from
    z0 = 1e300) reports its own record, whose counters were once null."""
    fates = []

    def recorded(traj, params):
        fates.append(classify_fate(traj, params))
        return fates[-1]

    monkeypatch.setattr(ssblow.orbits, "classify_fate", recorded)
    code, out, _ = run_cli(capsys, "classify", "--m", "1.5", "--sigma", "3", *launch, "--format", "json")
    assert code == (0 if reason is None else 3)
    (fate,) = fates
    diag = json.loads(out)["results"]["diagnostics"]
    assert diag == json.loads(json.dumps(fate.diagnostics))
    assert all(type(diag[k]) is int for k in ("n_steps", "n_rejected", "n_rhs"))
    assert type(diag["termination"]) is str and type(diag["final_eta"]) in (int, float)
    if reason is None:
        assert diag["z_gap"] == fate.diagnostics["z_gap"] and "reason" not in diag
    else:
        assert diag["reason"].startswith(reason) and "z_gap" not in diag


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


def test_list_valued_flag_replaces_the_config_files_list(tmp_path, capsys):
    """flags > config file holds for a list-valued key: --barrier replaces
    the file's barrier list instead of adding to it."""
    cfg = tmp_path / "b.cfg"
    cfg.write_text("barrier=midplane\n")
    argv = ("verify", "--m", "1.5", "--sigma", "3", "--n", "100", "--config", str(cfg), "--format", "json")
    for flags, ids in (((), ["midplane"]), (("--barrier", "cylinder"), ["cylinder"])):
        code, out, _ = run_cli(capsys, *argv, *flags)
        assert code == 0
        report = json.loads(out)
        assert report["config"]["barriers"] == ids
        assert [entry["barrier"] for entry in report["results"]["barriers"]] == ids


@pytest.mark.parametrize("flag, value", [("--abs-tol", "1e-13"), ("--max-time", "5000")])
def test_profile_via_ode_refuses_the_controls_it_does_not_read(flag, value, tmp_path, capsys):
    """The direct integration reads only --rel-tol and --max-step, so
    --abs-tol and --max-time, as a flag or a config key, end in exit 2
    there; the phase reconstruction reads and reports them."""
    argv = ("profile", "--m", "1.5", "--sigma", "3", "--origin", "p2")
    assert "needs --via phase" in usage_error(capsys, ParameterError, *argv, flag, value)
    key = flag[2:].replace("-", "_")
    cfg = tmp_path / "c.cfg"
    cfg.write_text("%s=%s\n" % (key, value))
    code, _, err = run_cli(capsys, *argv, "--config", str(cfg))
    assert code == 2 and "needs --via phase" in err
    code, out, _ = run_cli(capsys, *argv, "--via", "phase", flag, value, "--format", "json")
    assert code == 0
    assert json.loads(out)["config"][key] == float(value)


@pytest.mark.parametrize("step", ["50", "0.01"])
def test_profile_via_ode_config_names_the_controls_it_used(step, monkeypatch, capsys):
    """The config block of the direct integration holds rel_tol and the
    step cap that its run used, the flag's cap capped at 0.05, and no
    abs_tol or max_time."""
    seen = []

    def spy(field, start, events, controls=None):
        seen.append(controls)
        return integrate(field, start, events, controls)

    monkeypatch.setattr(ssblow.profiles, "integrate", spy)
    code, out, _ = run_cli(
        capsys, "profile", "--m", "1.5", "--sigma", "3", "--origin", "p2",
        "--rel-tol", "1e-9", "--max-step", step, "--format", "json",
    )
    assert code == 0
    (used,) = seen
    config = json.loads(out)["config"]
    assert (config["rel_tol"], config["max_step"]) == (used.rel_tol, used.max_step) == (1e-9, min(float(step), 0.05))
    assert "abs_tol" not in config and "max_time" not in config


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


def test_control_flag_defaults_are_the_library_controls(monkeypatch, capsys, tmp_path):
    """At its flags' defaults each integrating command runs its orbits
    under the controls of its library path: IntegrationControls() for
    classify with --out and for profile, those of sigma_star for
    sigma-star, and FATE_ONLY_CONTROLS for sweep.  classify without --out
    reads no sample, so it runs IntegrationControls() on step ends only.
    sigma_star's first pass at a sigma runs at looser tolerances than its
    controls, FATE_ONLY_CONTROLS by default, and the sigma-star config
    reports those controls, the ones its reruns use."""
    seen = []

    def spy(field, start, events, controls=None):
        seen.append(controls or IntegrationControls())
        return integrate(field, start, events, controls)

    monkeypatch.setattr(ssblow.orbits, "integrate", spy)
    sigma_star(1.5, (3.0, 3.4), 0.2)
    library_search = set(seen)
    assert any(c.rel_tol > FATE_ONLY_CONTROLS.rel_tol for c in library_search)
    cases = [
        ("classify", ["--sigma", "3"], replace(IntegrationControls(), sample_step=math.inf), None),
        ("classify", ["--sigma", "3", "--out", str(tmp_path / "t.csv")], IntegrationControls(), None),
        ("profile", ["--sigma", "3", "--via", "phase"], IntegrationControls(), None),
        ("sigma-star", ["--lo", "3", "--hi", "3.4", "--tol", "0.2"], FATE_ONLY_CONTROLS, library_search),
        ("sweep", ["--sigmas", "3"], FATE_ONLY_CONTROLS, None),
    ]
    for cmd, argv, expected, runs in cases:
        seen.clear()
        code, out, _ = run_cli(capsys, cmd, "--m", "1.5", *argv, "--format", "json")
        assert code == 0, argv
        assert seen and set(seen) == (runs or {expected}), argv
        config = json.loads(out)["config"]
        for key in ("rel_tol", "abs_tol", "max_time"):
            assert config[key] == getattr(expected, key), (argv, key)
        # an infinite step cap is written to JSON as null
        assert config["max_step"] == (None if expected.max_step == math.inf else expected.max_step)


@pytest.mark.parametrize(
    "launch",
    [["--source", "p2"], ["--source", "p0", "--K", "0.3"], ["--source", "q1", "--z0", "1e-15"]],
    ids=["p2", "p0", "q1"],
)
def test_classify_reports_the_same_without_out(launch, tmp_path, capsys):
    """classify without --out stores step ends only; its JSON is the one
    with --out apart from trajectory_csv."""
    args = ("classify", "--m", "1.5", "--sigma", "3", *launch, "--format", "json")
    code, out, _ = run_cli(capsys, *args)
    code_out, with_out, _ = run_cli(capsys, *args, "--out", str(tmp_path / "t.csv"))
    assert code == code_out == 0
    report = json.loads(with_out)
    assert report["results"].pop("trajectory_csv") == str(tmp_path / "t.csv")
    assert json.loads(out) == report


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
        "CriticalPoint", "EigenData", "center_family_P0", "classify_critical_points",
        "eigen_data", "infinity_chart_jacobian", "jacobian", "make_chart_rhs", "make_rhs",
        "p2_chart_coordinates", "p2_unstable_eigenvalue", "p2_unstable_eigenvector",
        "phase_from_chart",
    ],
    "integrate": ["EventHit", "EventSpec", "IntegrationControls", "Trajectory", "integrate"],
    "orbits": [
        "BracketError", "FATE_ONLY_CONTROLS", "FateKind", "InconclusiveError", "OrbitFate",
        "ShootResult", "classify_fate", "launch_from_P0", "launch_from_P2",
        "launch_from_Q1_chart", "q1_to_p2_connection",
        "run_p0_orbit", "run_p2_orbit", "run_q1_orbit", "sigma_star", "standard_fate_events",
    ],
    "profiles": [
        "InterfaceReport", "ProfileFrame", "SsodeResult", "find_good_profile_P1",
        "integrate_ssode", "interface_slopes", "reconstruct_profile", "ssode_residual",
    ],
    "barriers": [
        "BarrierSpec", "ConfigurationError", "VerificationReport", "barrier_catalog",
        "dregion_constants", "dregion_gates", "empirical_sigma0", "plane3_constants",
        "plane3_gate", "verify_barrier",
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


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["params", "--sigma", "3"], False),
        (["classify", "--sigma", "3", "--source", "p2"], False),
        (["classify", "--sigma", "3", "--source", "p0"], False),
        (["classify", "--sigma", "3", "--source", "q1"], False),
        (["sigma-star", "--lo", "3", "--hi", "3.4"], False),
        (["sweep", "--sigmas", "2.6,3.0,3.4", "--jobs", "1"], False),
        (["profile", "--sigma", "3", "--origin", "p2"], True),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else "numpy" if v else "no numpy",
)
def test_commands_that_only_classify_leave_out_numpy(argv, loaded, tmp_path):
    """params, classify without --out, sigma-star and sweep run in a fresh
    interpreter without importing numpy; profile builds arrays, and shows
    that the probe sees numpy where it is loaded."""
    code = (
        "import sys, ssblow.cli\n"
        "rc = ssblow.cli.main(sys.argv[1:])\n"
        "assert rc == 0, rc\n"
        "print('numpy' in sys.modules)\n"
    )
    src = str(Path(ssblow.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv[:1], "--m", "1.5", *argv[1:]],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == str(loaded)


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
    """argv and config lines for params, verify (n <= 200), classify (max-time
    <= 50), profile (max-time <= 50 with --via phase; the direct
    integration bounds its own run), sigma-star on brackets near sigma* and sweep
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
    budget = _mostly(["50", "20", "1"], ["0", "-3", "nan"])
    if cmd == "classify":
        argv += ["--max-time", draw(budget)]
    elif cmd == "profile" and draw(st.booleans()):
        # the direct integration refuses --max-time; it bounds its own run
        argv += ["--via", "phase", "--max-time", draw(budget)]
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
@example(case=(["profile", "--m", "1.5", "--sigma", "1e6", "--origin", "p1", "--a", "0.5"], None))
def test_cli_exit_code_contract(case, tmp_path_factory, capsys):
    """Any such argv and config file ends in exit 0, 2, 3 or 4, and never in
    a traceback.  The pinned classify starts are so large that the first
    step's field overflows, which once raised OverflowError; they end in
    exit 3.  In the pinned profile run a trial stage past xi = 1 once
    overflowed xi^sigma the same way."""
    argv, config = case
    if config is not None:
        path = tmp_path_factory.mktemp("cfg") / "run.cfg"
        path.write_text("\n".join(config) + "\n")
        argv = argv + ["--config", str(path)]
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 2, 3, 4), (argv, config, err)
    assert "Traceback" not in err
