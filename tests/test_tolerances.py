import dataclasses

import pytest

from affinvar.tolerances import TOL, Tolerances, current, tolerances


def test_scope_rescales_check_tolerances():
    base = Tolerances()
    with tolerances(feasibility=1e-6) as scoped:
        assert current() is scoped
        assert TOL.feasibility == pytest.approx(1e-6, rel=1e-12)
        for f in dataclasses.fields(Tolerances):
            ratio = 1.0 if f.name in ("sym_rtol", "box") else 100.0
            assert getattr(TOL, f.name) == pytest.approx(
                getattr(base, f.name) * ratio, rel=1e-12)
    assert current() == base


def test_nested_scope_restored_when_block_raises():
    with tolerances(feasibility=1e-6) as outer:
        with pytest.raises(RuntimeError):
            with tolerances(feasibility=1e-4):
                assert TOL.feasibility == pytest.approx(1e-4, rel=1e-12)
                raise RuntimeError
        assert current() is outer
        assert TOL.feasibility == pytest.approx(1e-6, rel=1e-12)
    assert current() == Tolerances()


def test_tolerances_cannot_be_assigned():
    with pytest.raises(dataclasses.FrozenInstanceError):
        current().feasibility = 1e-6
    with pytest.raises(AttributeError):
        TOL.feasibility = 1e-6
    assert current() == Tolerances()
