import pytest

import transportbc


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
], ids=["energy_split", "spectral_paths", "stability_cache",
        "backward_difference"])
def test_removed_names_are_gone(module, names):
    for name in names:
        assert name not in transportbc.__all__
        assert not hasattr(transportbc, name)
        assert not hasattr(getattr(transportbc, module), name)
