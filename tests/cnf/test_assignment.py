"""Unit tests for (partial) truth assignments."""

import numpy as np
import pytest

from repro.cnf.assignment import Assignment
from repro.errors import AssignmentError


class TestConstruction:
    def test_from_mapping(self):
        a = Assignment({1: True, 2: False})
        assert a[1] is True and a[2] is False

    def test_from_literals(self):
        a = Assignment.from_literals([1, -2, 3])
        assert a.as_dict() == {1: True, 2: False, 3: True}

    def test_all_false_true(self):
        assert Assignment.all_false([1, 2]).as_dict() == {1: False, 2: False}
        assert Assignment.all_true([3]).as_dict() == {3: True}

    def test_rejects_non_bool(self):
        with pytest.raises(AssignmentError):
            Assignment({1: 1})

    def test_rejects_bad_variable(self):
        with pytest.raises(Exception):
            Assignment({0: True})

    @pytest.mark.parametrize(
        "literals",
        [
            [0], [3, 0], [False],                   # variable 0
            [1.5], [2, -1.0], [np.int64(3)],        # not an int
            ["x"], [None],                          # no abs()
            [True], [1, -1], [-(2**31), 2**70],     # accepted
        ],
    )
    def test_from_literals_matches_the_validating_constructor(self, literals):
        """The one-pass build raises exactly what validating every
        variable through the constructor raises, and accepts the rest."""

        def outcome(build):
            try:
                return build().as_dict()
            except Exception as exc:  # noqa: BLE001 - compared, not hidden
                return type(exc), str(exc)

        assert outcome(lambda: Assignment.from_literals(literals)) == outcome(
            lambda: Assignment({abs(lit): lit > 0 for lit in literals})
        )

    def test_view_is_read_only_and_live(self):
        a = Assignment({1: True})
        view = a.view()
        with pytest.raises(TypeError):
            view[2] = False
        a[2] = False
        assert dict(view) == {1: True, 2: False}


class TestAccess:
    def test_get_default(self):
        a = Assignment({1: True})
        assert a.get(2) is None
        assert a.get(2, False) is False

    def test_getitem_unassigned_raises(self):
        with pytest.raises(AssignmentError):
            Assignment({})[4]

    def test_contains_and_len(self):
        a = Assignment({1: True, 5: False})
        assert 5 in a and 2 not in a
        assert len(a) == 2
        assert list(a) == [1, 5]


class TestMutation:
    def test_flip_in_place(self):
        a = Assignment({1: True})
        a.flip(1)
        assert a[1] is False

    def test_flip_unassigned_raises(self):
        with pytest.raises(AssignmentError):
            Assignment({}).flip(3)

    def test_flipped_copy(self):
        a = Assignment({1: True})
        b = a.flipped(1)
        assert a[1] is True and b[1] is False

    def test_unassign(self):
        a = Assignment({1: True}).unassign(1)
        assert 1 not in a


class TestCombinators:
    def test_restricted_to(self):
        a = Assignment({1: True, 2: False, 3: True})
        assert a.restricted_to([1, 3]).as_dict() == {1: True, 3: True}

    def test_merged_with_overrides(self):
        base = Assignment({1: True, 2: True})
        patch = Assignment({2: False, 3: False})
        merged = base.merged_with(patch)
        assert merged.as_dict() == {1: True, 2: False, 3: False}
        # originals untouched
        assert base[2] is True

    def test_agreement(self):
        a = Assignment({1: True, 2: False, 3: True})
        b = Assignment({1: True, 2: True, 3: True})
        assert a.agreement_with(b) == 2
        assert a.agreement_fraction(b) == pytest.approx(2 / 3)

    def test_agreement_empty(self):
        assert Assignment({}).agreement_fraction(Assignment({1: True})) == 1.0

    def test_to_literals_roundtrip(self):
        a = Assignment({2: False, 7: True})
        assert Assignment.from_literals(a.to_literals()) == a

    def test_copy_independent(self):
        a = Assignment({1: True})
        b = a.copy()
        b.flip(1)
        assert a[1] is True

