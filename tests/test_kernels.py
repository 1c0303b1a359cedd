"""The bit gates and golden CLI outputs under other CPU kernels.

numpy's OpenBLAS, built with ``DYNAMIC_ARCH``, picks its kernels from the
CPU at load time, and numpy dispatches some loops by CPU feature; either
can change the last bits of a sum.  No pinned sum goes through BLAS, so
the tests below must pass whatever is picked.  Each setting is run in a
child pytest with the variable set on the child only, one child at a
time.  ``np.correlate`` is on the march's path; for the up to 11
coefficients it is given there it is numpy's own small-kernel loop, not a
BLAS dot, and ``test_march_is_bit_exact_against_scalar_loop`` watches it.
"""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import transportbc

HERE = Path(__file__).resolve().parent

GATES = [
    "test_cli.py::test_recorded_outputs_are_reproduced",
    "test_cli.py::test_energy_check_output_does_not_depend_on_chunk",
    "test_solver.py::test_interval_march_matches_stepped_runs",
    "test_solver.py::test_halfline_march_matches_stepped_runs",
    "test_solver.py::test_march_is_bit_exact_against_scalar_loop",
    "test_solver.py::test_live_columns_match_full_width_evaluation",
    "test_solver.py::test_wide_block_norms_match_per_row_sums",
    "test_solver.py::test_identity_march_gives_the_matrix_powers",
    "test_spectral.py::test_transition_columns_are_bit_exact_march_steps",
    "test_energy.py::test_balance_rows_are_bit_exact_per_row",
    "test_energy.py::test_energy_balance_lhs_is_bit_exact_against_scalar_loop",
    "test_energy.py::test_energy_balance_refuses_the_float_range",
    "test_rng.py::test_mixed_draws_match_scalar_stream",
    "test_rng.py::test_table_rows_match_scalar_stream",
    "test_rng.py::test_table_blocks_match_scalar_stream",
    "test_rng.py::test_symmetric_runs_match_scalar_stream",
]


def _dynamic_openblas() -> str | None:
    """Why the BLAS kernel cannot be chosen, or None if it can."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "numpy does not report its BLAS build"
    config = f"{blas.get('name', '')} {blas.get('openblas configuration', '')}"
    if "openblas" not in config.lower() or "DYNAMIC_ARCH" not in config:
        return f"numpy's BLAS is not an OpenBLAS with DYNAMIC_ARCH: {config}"
    return None


def _avx512_dispatch() -> str | None:
    """Why numpy's AVX-512 loops cannot be switched off, or None."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        return "numpy does not report its CPU features"
    if not __cpu_features__.get("AVX512_SKX"):
        return "this CPU has no AVX512_SKX loops to switch off"
    return None


SETTINGS = [
    ("OPENBLAS_CORETYPE", "Haswell", _dynamic_openblas),
    ("OPENBLAS_CORETYPE", "Prescott", _dynamic_openblas),
    ("NPY_DISABLE_CPU_FEATURES", "X86_V4,AVX512_ICL,AVX512_SPR",
     _avx512_dispatch),
]


@pytest.mark.parametrize("name, value, unavailable", SETTINGS,
                         ids=[f"{n}={v}" for n, v, _ in SETTINGS])
def test_bit_gates_hold_under_other_kernels(name, value, unavailable):
    reason = unavailable()
    if reason is not None:
        pytest.skip(reason)
    src = str(Path(transportbc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, **{name: value})
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         *(str(HERE / gate) for gate in GATES)],
        capture_output=True, text=True, timeout=300, env=env, cwd=HERE.parent)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
