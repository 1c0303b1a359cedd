import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import transportbc
from transportbc import (ConvergenceError, GridSpec, PowerPlusDatum,
                         SchemeStencil, format_stencil, make_builtin)
from transportbc import cli
from transportbc.cli import main

from _reference import REFERENCE_SUP_ERRORS, lagrange_weights


def _lines(capsys):
    return capsys.readouterr().out.splitlines()


def test_verify_default_scheme_passes(capsys):
    assert main(["verify"]) == 0
    out = _lines(capsys)
    assert any("all checks passed" in ln for ln in out)
    assert any(ln.startswith("consistency order 2") for ln in out)
    assert any("stable" in ln for ln in out)
    assert any("boundary form center value" in ln for ln in out)


def test_verify_rejects_unstable_ratio(capsys):
    assert main(["verify", "--lambda", "1.1"]) == 1
    out = capsys.readouterr().out
    assert "UNSTABLE" in out
    assert "FAIL" in out


def test_verify_accepts_custom_stencil_string(capsys):
    text = format_stencil(make_builtin("upwind", 1.0, 0.6))
    assert main(["verify", "--scheme", text]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out


def test_custom_stencil_flag_conflicts(capsys):
    text = format_stencil(make_builtin("upwind", 1.0, 0.6))
    assert main(["verify", "--scheme", text, "--a", "2.0"]) == 1
    assert "conflicts" in capsys.readouterr().err
    assert main(["verify", "--scheme", text, "--lambda", "0.5"]) == 1
    assert capsys.readouterr().err == ("error: --lambda conflicts with the "
                                       "lambda= value in --scheme\n")
    # a flag equal to the string's value is no conflict
    assert main(["verify", "--scheme", text, "--lambda", "0.6"]) == 0
    capsys.readouterr()


def test_scheme_name_normalization(capsys):
    assert main(["verify", "--scheme", "Lax-Wendroff"]) == 0
    capsys.readouterr()


def test_run_header_and_columns(capsys):
    assert main(["run", "--J", "40"]) == 0
    out = _lines(capsys)
    header = [ln for ln in out if ln.startswith("# ")]
    assert any(ln == "# n_steps=29" for ln in header)
    grid = GridSpec(L=1.0, J=40, lam=0.7)
    assert any(ln == f"# t_final={29 * grid.dt!r}" for ln in header)
    cols = next(ln for ln in out if not ln.startswith("#"))
    assert cols == "x_mid,numeric,exact,error"
    data = [ln for ln in out if not ln.startswith("#")][1:]
    assert len(data) == 40


def test_run_multi_kb_columns_and_t_zero(capsys):
    assert main(["run", "--J", "8", "--T", "0", "--kb", "0,1,2"]) == 0
    out = _lines(capsys)
    cols = next(ln for ln in out if not ln.startswith("#"))
    assert cols == ("x_mid,numeric_kb0,numeric_kb1,numeric_kb2,"
                    "exact,error_kb0,error_kb1,error_kb2")
    data = [ln.split(",") for ln in out if not ln.startswith("#")][1:]
    datum = PowerPlusDatum(0.5, 3.0)
    for row in data:
        x = float(row[0])
        assert float(row[1]) == pytest.approx(float(datum(x)), abs=1e-15)
        # at T=0 every closure shows the initial samples, error exactly 0
        assert row[1] == row[2] == row[3] == row[4]
        assert row[5] == row[6] == row[7] == "0.0"


def test_parser_is_reused_and_keeps_its_defaults(capsys):
    assert cli._parser() is cli._parser()
    assert main(["run", "--J", "8", "--T", "0", "--kb", "0,2"]) == 0
    assert "# kb=0,2" in _lines(capsys)
    assert main(["run", "--J", "8", "--T", "0"]) == 0
    assert "# kb=1" in _lines(capsys)
    assert cli._parser().parse_args(["run"]).kb == [1]


def test_small_lambda_builtins_are_accepted(capsys):
    assert main(["verify", "--scheme", "lax-wendroff", "--lambda",
                 "1e-4"]) == 0
    assert "all checks passed" in capsys.readouterr().out
    assert main(["energy-check", "--scheme", "upwind", "--lambda",
                 "1e-5"]) == 0
    assert capsys.readouterr().err == ""


def test_run_requires_grid_size(capsys):
    assert main(["run"]) == 1
    assert "--J" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["run", "--J", "abc"],
    ["run", "--J", "10", "--kb", "1,x"],
    ["no-such-command"],
    [],
    ["spectral", "--res", "x"],
    ["verify", "--no-such-flag"],
    ["run", "--convention", "nodal"],
], ids=["int", "int_list", "command", "no_command", "res", "flag", "choice"])
def test_usage_errors_exit_1(argv, capsys):
    # argparse's own exit code 2 would read as a numerical failure
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: " in captured.err and "usage: " in captured.err
    # the message names the flag, not the package's private helpers
    assert not re.search(r"\b_\w", captured.err), captured.err


@pytest.mark.parametrize("argv", [["--help"], ["run", "--help"]])
def test_help_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "usage: " in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["run", "--J", "10", "--J-list", "1,2"],
    ["convergence", "--J-list", "10,20", "--J", "7"],
    ["spectral", "--J", "8", "--L", "2"],
    ["spectral", "--J", "8", "--T", "1"],
    ["spectral", "--J", "8", "--datum", "u02"],
    ["spectral", "--J", "8", "--convention", "midpoint"],
    ["spectral", "--J", "8", "--J-list", "8"],
    ["verify", "--sch", "upwind"],
    ["run", "--J", "8", "--lam", "0.5"],
    ["spectral", "--J", "8", "--pseudo"],
    ["--he"],
], ids=["run_J_list", "convergence_J", "spectral_L", "spectral_T",
        "spectral_datum", "spectral_convention", "spectral_J_and_J_list",
        "prefix_scheme", "prefix_lambda", "prefix_pseudospectrum",
        "prefix_help"])
def test_unread_and_abbreviated_flags_are_refused(argv, capsys):
    # a command takes only the flags it reads, and only in full: a prefix
    # would let a dropped flag come back as another flag's abbreviation
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: " in captured.err and "usage: " in captured.err
    assert not re.search(r"\b_\w", captured.err), captured.err


def test_res_needs_pseudospectrum(capsys):
    assert main(["spectral", "--J", "8", "--res", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "--res" in captured.err and "--pseudospectrum" in captured.err
    assert main(["spectral", "--J", "8", "--pseudospectrum"]) == 0
    out = _lines(capsys)
    assert "# res=64" in out
    assert len([ln for ln in out if not ln.startswith("#")]) == 1 + 64 * 64


# argv covering each command's modes; together they must read every flag
# the command declares
_MODES = {
    "verify": [["verify"]],
    "run": [["run", "--J", "8", "--T", "0"]],
    "convergence": [["convergence", "--J-list", "10,20"]],
    "spectral": [["spectral", "--J", "8"], ["spectral", "--J-list", "8,12"],
                 ["spectral", "--J", "8", "--pseudospectrum", "--res", "3"]],
    "energy-check": [["energy-check", "--trials", "3"]],
}


def _declared_and_read(argv, capsys) -> tuple[set, set]:
    reads = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    args = cli.build_parser().parse_args(argv, namespace=Recording())
    declared = set(vars(args))
    reads.clear()  # argparse reads the namespace while it parses
    assert cli._COMMANDS[args.command](args) == 0
    capsys.readouterr()
    return declared, reads


def test_modes_cover_every_command():
    assert set(_MODES) == set(cli._COMMANDS)


@pytest.mark.parametrize("command", sorted(_MODES))
def test_every_declared_flag_is_read(command, capsys):
    declared, read = set(), set()
    for argv in _MODES[command]:
        d, r = _declared_and_read(argv, capsys)
        declared |= d
        read |= r
    assert declared - read == set()


@pytest.mark.parametrize("argv, named", [
    (["run", "--J", "5", "--kb", "1,1"], "--kb value 1 "),
    (["spectral", "--J", "8", "--kb", "2,1,2"], "--kb value 2 "),
    (["spectral", "--J-list", "20,20"], "--J-list value 20 "),
    (["spectral", "--J-list", "8,12,8", "--kb", "1"], "--J-list value 8 "),
], ids=["run_kb", "spectral_kb", "spectral_J", "spectral_J_apart"])
def test_repeated_list_values_rejected(argv, named, capsys):
    # a repeated value would repeat a CSV column (run) or row (spectral)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert named in captured.err


def test_convergence_table_matches_reference(capsys):
    assert main(["convergence", "--J-list", "10,20,40", "--kb", "2",
                 "--datum", "u01"]) == 0
    out = _lines(capsys)
    cols = next(ln for ln in out if not ln.startswith("#"))
    assert cols == "J,dx,error_final,error_sup,observed_order"
    data = [ln.split(",") for ln in out if not ln.startswith("#")][1:]
    assert [int(r[0]) for r in data] == [10, 20, 40]
    assert data[0][4] == "nan"
    for row in data:
        ref = REFERENCE_SUP_ERRORS[3.0][2][int(row[0])]
        assert float(row[3]) == pytest.approx(ref, rel=1e-3)
    assert float(data[2][4]) == pytest.approx(2.0, abs=0.3)


def test_convergence_takes_single_kb(capsys):
    assert main(["convergence", "--J-list", "10,20", "--kb", "1,2"]) == 1
    assert "exactly one" in capsys.readouterr().err


def test_spectral_table_rows(capsys):
    assert main(["spectral", "--J-list", "8,12", "--kb", "1,2"]) == 0
    out = _lines(capsys)
    cols = next(ln for ln in out if not ln.startswith("#"))
    assert cols == "J,kb,rho,norm"
    data = [ln.split(",") for ln in out if not ln.startswith("#")][1:]
    assert [(int(r[0]), int(r[1])) for r in data] == [
        (8, 1), (12, 1), (8, 2), (12, 2)]
    for row in data:
        rho, norm = float(row[2]), float(row[3])
        assert 0.0 < rho <= norm + 1e-10


def _radius_conditions(out):
    """``{(J, kb): condition}`` from the ``rho_condition_J_kb`` header."""
    key = "# rho_condition_J_kb="
    line = next(ln for ln in out if ln.startswith(key))
    fields = [item.split(":") for item in line[len(key):].split(",")]
    return {(int(J), int(kb)): float(c) for J, kb, c in fields}


def test_spectral_labels_radius_condition(capsys):
    # one condition number per row, in row order, formatted %.1e; the CSV
    # columns stay J,kb,rho,norm
    assert main(["spectral", "--J-list", "8,12,80", "--kb", "1,3"]) == 0
    out = _lines(capsys)
    assert next(ln for ln in out if not ln.startswith("#")) == "J,kb,rho,norm"
    data = [ln.split(",") for ln in out if not ln.startswith("#")][1:]
    keys = [(int(r[0]), int(r[1])) for r in data]
    assert keys == [(8, 1), (12, 1), (80, 1), (8, 3), (12, 3), (80, 3)]
    conditions = _radius_conditions(out)
    assert list(conditions) == keys
    assert all(1.0 <= c < 10.0 for c in conditions.values())
    assert any(ln.startswith("# rho_condition_J_kb=8:1:1.0e+00,")
               for ln in out)
    # the r=3, p=2 Lagrange stencil: a radius that has stopped converging
    # at J=160 is flagged by a condition number above 1e3
    wide = format_stencil(SchemeStencil(
        r=3, p=2, coeffs=lagrange_weights(3, 2, 0.7), velocity_a=1.0,
        lam=0.7))
    assert main(["spectral", "--scheme", wide, "--J", "160", "--kb",
                 "2"]) == 0
    assert _radius_conditions(_lines(capsys))[160, 2] > 1e3


def test_spectral_needs_grid(capsys):
    assert main(["spectral"]) == 1
    assert "--J" in capsys.readouterr().err


def test_pseudospectrum_grid_output(capsys):
    assert main(["spectral", "--pseudospectrum", "--J", "8", "--kb", "1",
                 "--res", "5"]) == 0
    out = _lines(capsys)
    assert any(ln == "# res=5" for ln in out)
    cols = next(ln for ln in out if not ln.startswith("#"))
    assert cols == "re,im,sigma_min"
    data = [ln.split(",") for ln in out if not ln.startswith("#")][1:]
    assert len(data) == 25
    assert all(float(r[2]) >= 0.0 for r in data)
    assert main(["spectral", "--pseudospectrum", "--J-list", "8,12"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("argv, named", [
    (["--J", "4000"], "J=4000: len(kb) * sum(J^3) = 6.40e+10"),
    (["--J", "200", "--pseudospectrum"], "J=200, res=64: res^2 * J^3"),
    (["--J-list", "1000,800", "--kb", "1,2"], "J=1000: len(kb)"),
])
def test_spectral_refuses_work_past_the_flop_budget(argv, named, capsys):
    # dense work of J^3 per matrix, or per pseudospectrum grid point, is
    # refused before any matrix is made, so the refusal is quick
    start = time.perf_counter()
    assert main(["spectral"] + argv) == 1
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and named in captured.err
    assert "flop budget 2.50e+09" in captured.err


def test_spectral_work_within_the_budget_is_run(monkeypatch, capsys):
    for argv in (["--J", "40", "--kb", "2", "--pseudospectrum", "--res",
                  "48"], ["--J-list", "20,40", "--kb", "1,2"]):
        assert main(["spectral"] + argv) == 0
    capsys.readouterr()

    # the acceptance sweeps' largest J passes the budget and is assembled
    def assemble(J, stencil, kb):
        raise ValueError(f"assembling J={J}")

    monkeypatch.setattr(cli, "assemble_transition_matrix", assemble)
    assert main(["spectral", "--J", "1280"]) == 1
    assert "assembling J=1280" in capsys.readouterr().err


def test_energy_check_stable_scheme(capsys):
    assert main(["energy-check", "--trials", "25", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "dissipation nonpositive on all trials" in out
    assert "FAIL" not in out


def test_energy_check_no_trials(capsys):
    assert main(["energy-check", "--trials", "0"]) == 0
    assert "nothing to check" in capsys.readouterr().out


def test_energy_check_unstable_note(capsys):
    assert main(["energy-check", "--lambda", "1.1", "--trials", "10"]) == 0
    out = capsys.readouterr().out
    assert "not l2-stable" in out
    assert "FAIL" not in out


def test_energy_check_scales_residuals_by_the_balance_terms(capsys):
    # an unstable stencil with large coefficients: its worst trial has
    # residual 2.3e-10 on lhs 5.9e5 and energy 6.9, rounding of the terms,
    # so the residual relative to max(1, energy, |lhs|, |rhs|) is at
    # rounding and no residual FAIL is printed
    assert main(["energy-check", "--scheme",
                 "r=2,p=1,a=-2:1,-1:100,0:-200,1:100;vel=1;lambda=2",
                 "--trials", "200"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "not l2-stable" in out
    line, = (s for s in out.splitlines() if s.startswith("max relative"))
    assert 0.0 < float(line.split()[-1]) < 1e-15


# energy-check and verify texts and exit codes recorded before energy-check
# balanced its trials in batches: the builtins, an unstable ratio, a
# consistent r=3, p=1 stencil, a stable and an unstable custom one and an
# inconsistent one (exit 1), at several trial counts and seeds
GOLDEN = json.loads(
    (Path(__file__).parent / "golden_energy_verify.json").read_text())


def _call(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return {"exit": code, "stdout": captured.out, "stderr": captured.err}


@pytest.mark.parametrize("case", GOLDEN,
                         ids=[f"{i}-{c['argv'][0]}"
                              for i, c in enumerate(GOLDEN)])
def test_recorded_outputs_are_reproduced(case, capsys):
    got = _call(case["argv"], capsys)
    assert got == {k: case[k] for k in ("exit", "stdout", "stderr")}


@pytest.mark.parametrize("chunk", [1, 2 ** 30])
def test_energy_check_output_does_not_depend_on_chunk(chunk, monkeypatch,
                                                      capsys):
    cases = [c for c in GOLDEN if c["argv"][0] == "energy-check"]
    assert any("1500" in c["argv"] for c in cases)  # spans several chunks
    monkeypatch.setattr(cli, "_TRIAL_CHUNK", chunk)
    for case in cases:
        got = _call(case["argv"], capsys)
        assert got == {k: case[k] for k in ("exit", "stdout", "stderr")}


# coefficients whose sums leave the float range; in the second, the
# first moment's terms overflow to both infinities
HUGE_STENCIL = "r=1,p=0,a=-1:1.7e308,0:1.7e308;vel=1;lambda=1"
HUGE_WINGS = ("r=2,p=2,a=-2:1e308,-1:-1e308,0:1,1:-1e308,2:1e308;vel=1;"
              "lambda=0.5")


@pytest.mark.parametrize("argv, out, err", [
    (["verify", "--scheme", HUGE_STENCIL],
     "consistency order 0\nl2 symbol max modulus inf at theta=0.0: UNSTABLE\n"
     "boundary certificate skipped (needs first-order consistency)\n"
     "FAIL: consistency order 0 < 1 (moment 0 fails)\n"
     "FAIL: amplification symbol exceeds modulus 1\n", ""),
    (["energy-check", "--scheme", HUGE_STENCIL], "",
     "error: boundary form needs a first-order consistent stencil "
     "(moment 0 fails)\n"),
    (["verify", "--scheme", HUGE_WINGS],
     "consistency order 0\nl2 symbol max modulus inf at "
     "theta=3.141592653589793: UNSTABLE\n"
     "boundary certificate skipped (needs first-order consistency)\n"
     "FAIL: consistency order 0 < 1 (moment 1 fails)\n"
     "FAIL: amplification symbol exceeds modulus 1\n", ""),
], ids=["verify", "energy-check", "verify_infinite_terms"])
def test_overflowing_stencil_is_reported(argv, out, err, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out.endswith(out)
    assert captured.err == err


def test_subnormal_end_coefficient_gets_a_verdict(capsys):
    scheme = "r=2,p=1,a=-2:1e-320,-1:0.5,0:0.25,1:0.25;vel=1;lambda=0.5"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["verify", "--scheme", scheme]) == 1
    captured = capsys.readouterr()
    assert "l2 symbol max modulus 1.0 at theta=0.0: stable" in captured.out
    assert "FAIL: consistency order 0 < 1 (moment 1 fails)" in captured.out
    assert captured.err == ""


@pytest.mark.parametrize("command", ["verify", "energy-check"])
def test_one_point_stencil_is_refused(command, capsys):
    # consistent to the tolerance (lambda * a = 1e-13), but with r = 0 the
    # stencil does not reach a left neighbour
    scheme = "r=0,p=0,a=0:1;vel=1;lambda=1e-13"
    assert main([command, "--scheme", scheme]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: boundary form needs r >= 1")


# a shift by two cells plus 1e200 times a second difference: first-order
# consistent, with an energy form whose products overflow
OVERFLOWING_FORM = ("r=2,p=1,a=-2:1,-1:1e200,0:-2e200,1:1e200;vel=1;"
                    "lambda=2")


@pytest.mark.parametrize("argv", [["verify"],
                                  ["energy-check", "--trials", "3"]])
def test_overflowing_energy_form_is_refused(argv, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + ["--scheme", OVERFLOWING_FORM]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: the stencil's energy form leaves the "
                            "float range\n")


@pytest.mark.parametrize("flags, verdict", [
    ([], "FAIL: positive dissipation sum for a stable scheme"),
    (["--lambda", "1.1"], "dissipation sum positive on some trials "
                          "(expected: scheme is not l2-stable)"),
], ids=["stable", "unstable"])
def test_energy_check_failures_exit_2(flags, verdict, monkeypatch, capsys):
    # a balance whose residual and dissipation sum are both too large, as
    # a wrong energy split would give them
    def balance(stencil, values, lengths):
        n = len(lengths)
        return np.zeros(n), np.full(n, 1e-11), np.full(n, 1e-11), np.ones(n)

    monkeypatch.setattr(cli, "_balance_rows", balance)
    assert main(["energy-check", "--trials", "4"] + flags) == 2
    out = capsys.readouterr().out.splitlines()
    assert out[2:] == ["max relative balance residual 1e-11",
                       "max dissipation sum 1e-11",
                       "FAIL: balance residual exceeds 1e-12", verdict]


def test_unconverged_radius_exits_2(monkeypatch, capsys):
    def radius(matrix):
        raise ConvergenceError("LAPACK dhseqr did not converge")

    monkeypatch.setattr(cli, "_radius_and_condition", radius)
    assert main(["spectral", "--J", "10"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: LAPACK dhseqr did not converge\n"


def test_energy_check_rejects_negative_trials(capsys):
    assert main(["energy-check", "--trials", "-3"]) == 1
    captured = capsys.readouterr()
    assert "--trials" in captured.err
    assert captured.out == ""


def test_non_finite_inputs_rejected(capsys):
    for argv in (["run", "--J", "4", "--L", "inf"],
                 ["run", "--J", "10", "--datum", "power:nan:2"],
                 ["run", "--J", "10", "--datum", "power:0.5:inf"],
                 ["convergence", "--J-list", "10,20", "--T", "inf"],
                 ["run", "--J", "10", "--T", "nan"]):
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err.startswith("error: "), argv
        assert "finite" in captured.err, argv


def test_vanishing_time_step_rejected(capsys):
    # dt underflows to a subnormal (T / dt overflows) or to zero, or is so
    # small that T / dt is finite but past 2**53 steps
    for argv in (["run", "--J", "10", "--lambda", "1e-320"],
                 ["run", "--J", "10", "--lambda", "5e-324"],
                 ["run", "--J", "10", "--lambda", "1e-300"],
                 ["convergence", "--J-list", "10,20", "--L", "1e-320"]):
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err.startswith("error: "), argv
        assert "too small" in captured.err, argv


def test_non_finite_stencils_rejected(capsys):
    for scheme in ("r=1,p=0,a=-1:0.5,0:0.5;vel=1;lambda=inf",
                   "r=1,p=0,a=-1:nan,0:0.5;vel=1;lambda=0.5",
                   "r=1,p=0,a=-1:0.5,0:inf;vel=1;lambda=0.5",
                   "r=1,p=0,a=-1:0.5,0:0.5;vel=inf;lambda=0.5"):
        for argv in (["run", "--J", "10", "--scheme", scheme],
                     ["verify", "--scheme", scheme]):
            assert main(argv) == 1, argv
            captured = capsys.readouterr()
            assert captured.out == "", argv
            assert captured.err.startswith("error: "), argv
            assert "finite" in captured.err, argv


def test_repeated_stencil_key_rejected(capsys):
    scheme = "r=1,p=1,r=2,a=-1:0.595,0:0.51,1:-0.105;vel=1;lambda=0.7"
    assert main(["verify", "--scheme", scheme]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: r= given twice\n"


def test_unknown_datum_rejected(capsys):
    assert main(["run", "--J", "10", "--datum", "u99"]) == 1
    assert "unknown datum" in capsys.readouterr().err
    assert main(["run", "--J", "10", "--datum", "power:0.5"]) == 1
    assert "power:c:alpha" in capsys.readouterr().err


def test_output_files_are_byte_identical(tmp_path):
    f1 = tmp_path / "a.csv"
    f2 = tmp_path / "b.csv"
    argv = ["run", "--J", "20", "--kb", "1,2", "--T", "0.25"]
    assert main(argv + ["--out", str(f1)]) == 0
    assert main(argv + ["--out", str(f2)]) == 0
    b1 = f1.read_bytes()
    assert b1 == f2.read_bytes()
    assert b1.endswith(b"\n")
    assert b1.startswith(b"# command=run\n# scheme=")


def test_console_script_entry_point():
    # What an install generates for the console script, run without one:
    # pyproject maps the name to a callable, and the wrapper's body is
    # ``sys.exit(main())`` with the command line in sys.argv.
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert scripts == {"transportbc": "transportbc.cli:main"}
    module, func = scripts["transportbc"].split(":")
    wrapper = f"import sys; from {module} import {func}; sys.exit({func}())"
    env = dict(os.environ,
               PYTHONPATH=str(Path(transportbc.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", wrapper, "verify"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "all checks passed" in proc.stdout
    proc = subprocess.run([sys.executable, "-c", wrapper, "verify",
                           "--lambda", "1.1"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 1, proc.stderr


def test_module_entry_point():
    # ``python -m transportbc`` runs the CLI from a checkout, no install
    env = dict(os.environ,
               PYTHONPATH=str(Path(transportbc.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-m", "transportbc", "verify"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "all checks passed" in proc.stdout
    proc = subprocess.run([sys.executable, "-m", "transportbc", "verify",
                           "--lambda", "1.1"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 1, proc.stderr
    assert "UNSTABLE" in proc.stdout


@pytest.mark.skipif(shutil.which("transportbc") is None,
                    reason="transportbc is not installed on PATH")
def test_installed_console_script():
    exe = shutil.which("transportbc")
    assert exe is not None, "console script not on PATH"
    proc = subprocess.run([exe, "verify"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "all checks passed" in proc.stdout


def test_floats_render_with_repr(capsys):
    assert main(["run", "--J", "4", "--T", "0"]) == 0
    out = _lines(capsys)
    data = [ln for ln in out if not ln.startswith("#")][1:]
    first = data[0].split(",")
    # x_mid of the first cell on J=4 is 0.125; repr keeps it terse
    assert first[0] == "0.125"
    grid = GridSpec(L=1.0, J=4, lam=0.7)
    datum = PowerPlusDatum(0.5, 3.0)
    assert first[1] == repr(float(datum(grid.cell_midpoints[0])))


_HUGE = "1" + "0" * 400  # an integer past the float range


@pytest.mark.parametrize("argv, named", [
    # dx = L / J underflows to 0.0; the cell average would divide by it
    (["run", "--scheme", "lax_friedrichs", "--a", "0.7", "--J", "2", "--T",
      "0", "--L", "5e-324", "--datum", "u02", "--convention",
      "cell_average"], "L / J"),
    # (L - c)^3 overflows in the reference values
    (["run", "--scheme", "upwind", "--J", "7", "--T", "1", "--L", "1e308"],
     "L = 1e+308 is too long"),
    (["convergence", "--scheme", "upwind", "--J-list", "7", "--T", "1",
      "--L", "1e308"], "L = 1e+308 is too long"),
    (["run", "--J", "7", "--L", "1e200", "--convention", "cell_average"],
     "L = 1e+200 is too long"),
    # about 2.9e14 steps: their list alone does not fit in memory
    (["run", "--scheme", "lax_friedrichs", "--a", "0.5", "--lambda", "1e-13",
      "--J", "40", "--L", "0.7"], "dt"),
    (["convergence", "--J-list", "2,5", "--L", "1e-13"], "dt"),
    # a coefficient of 1e308 times the kb = 2 closure's weight 2
    (["spectral", "--scheme", "r=1,p=1,a=-1:0.65,0:0.0,1:1e308;vel=1.0;"
      "lambda=0.3", "--J", "10", "--kb", "2"], "transition matrix"),
    # a J whose dense matrix, or whose one level, would not fit in memory;
    # refused before any array is made, zero steps too
    (["spectral", "--J", "10000000"], "J=10000000"),
    (["spectral", "--J", "10000000", "--pseudospectrum", "--res", "2"],
     "J=10000000"),
    (["run", "--J", "100000000000000", "--T", "0"], "J = 100000000000000"),
    (["convergence", "--J-list", "100000000000000", "--T", "0"],
     "J = 100000000000000"),
    # integers past the float range
    (["run", "--J", _HUGE], "cell count J is past the float range"),
    (["convergence", "--J-list", "10," + _HUGE], "cell count J is past"),
    (["spectral", "--J", _HUGE], "sum(J^3) = 1.00e+1200 exceeds"),
    (["spectral", "--J-list", "20," + _HUGE], "sum(J^3) = 1.00e+1200"),
    (["spectral", "--J", "40", "--pseudospectrum", "--res", _HUGE],
     "res^2 * J^3 = 6.40e+804 exceeds"),
    # C(1100, 550) is past the float range; an order of 30000 would take
    # minutes to build its weights
    (["run", "--J", "2000", "--kb", "1100"], "k_b = 1100 is too large"),
    (["spectral", "--J", "1200", "--kb", "1100"], "k_b = 1100 is too large"),
    (["run", "--J", "40", "--kb", "30000"], "k_b = 30000 is too large"),
    # a form that passes its center check, with trials whose balance
    # overflows: refused by the balance kernel that energy-check calls
    (["energy-check", "--scheme", "r=2,p=1,a=-2:1,-1:1.5e153,0:-3e153,"
      "1:1.5e153;vel=1;lambda=2"], "leaves the float range"),
], ids=["underflowing_dx", "overflowing_reference_run",
        "overflowing_reference_convergence", "overflowing_antiderivative",
        "tiny_time_step_run", "tiny_time_step_convergence",
        "overflowing_transition_matrix", "huge_matrix", "huge_pseudospectrum",
        "huge_run", "huge_convergence", "huge_int_run",
        "huge_int_convergence", "huge_int_spectral", "huge_int_spectral_list",
        "huge_int_pseudospectrum", "large_kb_run", "large_kb_spectral",
        "huge_kb_run", "overflowing_energy_balance"])
def test_inputs_beyond_the_float_range_are_refused(argv, named, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and named in captured.err
    assert captured.err.count("\n") == 1


def test_a_large_form_passes_its_center_check(capsys):
    # entries near 4e16: the center -2 is lost to rounding of their size,
    # which is not a failed check, and the stencil is then found unstable
    argv = ["verify", "--scheme", "r=2,p=1,a=-2:1,-1:1e8,0:-2e8,1:1e8;"
            "vel=1;lambda=2"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "FAIL: amplification symbol exceeds modulus 1" in captured.out


@pytest.mark.parametrize("argv", [
    ["run", "--scheme", "r=1,p=1,a=-1:0.855,0:1e308,1:-0.045;vel=1.0;"
     "lambda=0.9", "--J", "10", "--T", "1"],
    ["convergence", "--scheme", "r=1,p=2,a=-1:-0.1,0:1e308,1:1,2:0.25;"
     "vel=2;lambda=0.7", "--J-list", "3,10", "--kb", "0", "--T", "1"],
    # twelve coefficients: the march steps by its loop, not np.correlate
    ["convergence", "--scheme", "r=6,p=5,a=-6:0.25,-5:-0.1,-4:0.5,-3:-0.1,"
     "-2:1e300,-1:3,0:0.25,1:1e-300,2:-3,3:0.25,4:1e300,5:1;vel=2;"
     "lambda=0.7", "--J-list", "3", "--kb", "2", "--L", "2", "--datum",
     "power:0:2"],
], ids=["run", "convergence", "convergence_wide"])
def test_a_march_that_overflows_fails_its_check(argv, capsys):
    # the values pass 1e308 within a few steps; inf and nan are not printed,
    # and neither kernel of the march warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("numerical check failed: the march left the "
                            "float range\n")
