import transportbc


def test_every_export_resolves():
    for name in transportbc.__all__:
        assert getattr(transportbc, name, None) is not None, name
    assert len(set(transportbc.__all__)) == len(transportbc.__all__)
    namespace = {}
    exec("from transportbc import *", namespace)
    assert set(transportbc.__all__) <= set(namespace)


def test_removed_energy_split_names_are_gone():
    for name in ("SymmetricForm", "QuadDecomposition",
                 "amplification_expression", "build_amplification_form",
                 "decompose_zero_sum_form"):
        assert name not in transportbc.__all__
        assert not hasattr(transportbc, name)
        assert not hasattr(transportbc.energy, name)
