"""The names the benchmark in ``perfbench/`` reaches into the package by.

The benchmark's tracer wraps package callables by module and qualified
name, and its workloads pass keyword arguments by name.  A rename breaks a
benchmark run without failing any other test, so this one installs the
tracer as the benchmark does and binds those keywords.
"""
import importlib
import inspect
import sys
from pathlib import Path

import numpy as np

import transportbc
from transportbc import cli, energy, solver, spectral

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _class_attr(module, qualname):
    owner, _, attr = qualname.rpartition(".")
    cls = getattr(sys.modules[f"transportbc.{module}"], owner)
    return vars(cls)[attr]


def test_tracer_installs_on_every_target_and_uninstalls(monkeypatch,
                                                        tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracer")
    before = {key: vars(mod).copy() for key, mod in sys.modules.items()
              if key.startswith("transportbc")}
    methods = {(m, q): _class_attr(m, q)
               for m, q in tracing.TARGETS + (("rng", "Xoshiro256StarStar."
                                                      "next_u64"),)
               if "." in q}

    tracer = tracing.Tracer()
    tracer.install()
    try:
        for key, original in methods.items():
            assert _class_attr(*key) is not original, key
        assert cli.main is not before["transportbc.cli"]["main"]
        out = tmp_path / "check.txt"
        assert cli.main(["energy-check", "--trials", "3", "--out",
                         str(out)]) == 0
        # energy-check draws its trials in one symmetric_runs walk, which
        # the tracer does not wrap, so the wrapped draws are made directly
        gen = transportbc.Xoshiro256StarStar(0)
        for _ in range(3):
            gen.symmetric(5 + gen.integer(28))
        energy.verify_energy_balance(
            transportbc.make_builtin("upwind", 1.0, 0.7), np.ones(3))
    finally:
        tracer.uninstall()
    summary = tracer.summarize()
    assert summary["consistent"]
    assert summary["calls"]["cli.main"] == 1
    assert summary["calls"]["rng.Xoshiro256StarStar.integer"] == 3
    assert summary["calls"]["rng.Xoshiro256StarStar.symmetric"] == 3
    assert summary["calls"]["energy.verify_energy_balance"] == 1
    assert summary["counts"]["rng.draws"] >= 3
    after = {key: vars(mod) for key, mod in sys.modules.items()
             if key.startswith("transportbc")}
    for key, attrs in before.items():
        for attr, value in attrs.items():
            assert after[key][attr] is value, f"{key}.{attr} not restored"
    for key, original in methods.items():
        assert _class_attr(*key) is original, key


def test_workload_keywords_bind():
    lw = transportbc.make_builtin("lax_wendroff", 1.0, 0.7)
    matrix = spectral.assemble_transition_matrix(8, lw, 1)
    inspect.signature(spectral.operator_norm_l2).bind(
        matrix, rtol=1e-9, max_iter=20)
    inspect.signature(spectral.power_norm_envelope).bind(
        matrix, 4, rtol=1e-9)
    datum = solver.CallableDatum(np.zeros_like, support_min=0.6)
    grid = solver.GridSpec(L=1.0, J=8, lam=0.7)
    inspect.signature(solver.run_halfline_outflow).bind(
        datum, grid, lw, kb=1, steps=2)
    run = solver.run_interval(datum, grid, lw, transportbc.BoundarySpec(1),
                              0.1, record="full_history",
                              convention="cell_average")
    solver.error_metrics(run, convention="midpoint")
    energy.verify_energy_balance(lw, np.ones(3))
