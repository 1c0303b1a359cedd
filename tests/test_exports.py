import inspect

import pytest

import transportbc
from transportbc import energy, solver, spectral


def test_every_export_resolves():
    for name in transportbc.__all__:
        assert getattr(transportbc, name, None) is not None, name
    assert len(set(transportbc.__all__)) == len(transportbc.__all__)
    namespace = {}
    exec("from transportbc import *", namespace)
    assert set(transportbc.__all__) <= set(namespace)


@pytest.mark.parametrize("module, names", [
    ("energy", ("SymmetricForm", "QuadDecomposition",
                "amplification_expression", "build_amplification_form",
                "decompose_zero_sum_form")),
    ("spectral", ("eigenvalue_path", "build_report", "SpectralReport")),
    ("energy", ("_cached_stability",)),
    ("boundary", ("backward_difference",)),
    ("solver", ("exact_solution", "_shifted_reference")),
    ("energy", ("BoundaryForm", "_difference_coordinates_inverse")),
    ("spectral", ("_log_rho",)),
], ids=["energy_split", "spectral_paths", "stability_cache",
        "backward_difference", "reference_path", "boundary_form",
        "balancing_loop"])
def test_removed_names_are_gone(module, names):
    for name in names:
        assert name not in transportbc.__all__
        assert not hasattr(transportbc, name)
        assert not hasattr(getattr(transportbc, module), name)


@pytest.mark.parametrize("function, parameter", [
    (energy.verify_energy_balance, "strict"),
    (spectral.power_norm_envelope, "budget"),
    (solver._march, "fill_final"),
], ids=["strict", "budget", "fill_final"])
def test_removed_parameters_are_gone(function, parameter):
    assert parameter not in inspect.signature(function).parameters


@pytest.mark.parametrize("owner, name", [
    (transportbc.SchemeStencil, "coeff"),
    (transportbc.FieldState, "get"),
    (transportbc.FieldState, "set"),
    (transportbc.FieldState, "_pos"),
], ids=["coeff", "get", "set", "_pos"])
def test_removed_methods_are_gone(owner, name):
    assert not hasattr(owner, name)
