import numpy as np
import pytest

from transportbc import FieldState


def test_layout_and_views():
    s = FieldState(J=4, r=2, p=3)
    assert s.values.shape == (9,)
    assert np.all(s.values == 0.0)
    s.interior[:] = [1.0, 2.0, 3.0, 4.0]
    # interior view is live
    assert s.values[2:6] == pytest.approx([1.0, 2.0, 3.0, 4.0])
    s.left_ghosts[:] = -1.0
    s.right_ghosts[:] = 9.0
    assert s.values[0] == -1.0 and s.values[-1] == 9.0


def test_copy_is_independent():
    s = FieldState(J=3, r=1, p=1)
    s.interior[:] = [1.0, 2.0, 3.0]
    c = s.copy()
    c.interior[0] = 99.0
    assert s.interior[0] == 1.0
    assert c.time_index == s.time_index


def test_explicit_values_roundtrip():
    vals = np.arange(7, dtype=float)
    s = FieldState(J=3, r=2, p=2, time_index=5, values=vals.copy())
    assert s.time_index == 5
    assert s.values == pytest.approx(vals)
    with pytest.raises(ValueError):
        FieldState(J=3, r=2, p=2, values=np.zeros(5))


def test_validation():
    with pytest.raises(ValueError):
        FieldState(J=0, r=1, p=1)
    with pytest.raises(ValueError):
        FieldState(J=3, r=-1, p=1)


@pytest.mark.parametrize("name", ["J", "r", "p"])
def test_counts_must_be_integers(name):
    counts = dict(J=3, r=1, p=1)
    for value in (1.5, "2", None):
        with pytest.raises(ValueError, match=rf"\b{name} must be an integer"):
            FieldState(**{**counts, name: value})
    s = FieldState(**{**counts, name: np.int64(2)})
    assert type(getattr(s, name)) is int
