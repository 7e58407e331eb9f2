"""Typed request/response records and their wire codecs."""

import dataclasses

import pytest

from repro.cnf.assignment import Assignment
from repro.cnf.clause import Clause
from repro.cnf.formula import CNFFormula
from repro.cnf.packed import PackedCNF
from repro.core.change import (
    AddClause,
    AddVariable,
    ChangeSet,
    RemoveClause,
    RemoveVariable,
)
from repro.service.requests import ChangeRequest, SolveRequest, SolveResponse
from repro.service.wire import (
    WireError,
    batch_request_from_wire,
    batch_request_to_wire,
    change_request_from_wire,
    change_request_to_wire,
    changes_from_wire,
    changes_to_wire,
    response_from_wire,
    response_to_wire,
    solve_request_from_wire,
    solve_request_to_wire,
)


@pytest.fixture
def formula():
    return CNFFormula([[1, -2], [2, 3], [-1, -3]])


class TestSolveRequest:
    def test_frozen(self, formula):
        request = SolveRequest(formula=formula)
        with pytest.raises(dataclasses.FrozenInstanceError):
            request.seed = 3

    def test_at_most_one_source(self, formula):
        with pytest.raises(ValueError, match="at most one"):
            SolveRequest(formula=formula, packed_bytes=formula.packed().to_bytes())

    def test_source_or_session_required(self):
        with pytest.raises(ValueError, match="formula source or a session"):
            SolveRequest()

    def test_sourceless_session_request_is_valid(self):
        request = SolveRequest(session="tenant-a")
        assert not request.has_source

    def test_bad_ec_mode_rejected(self, formula):
        with pytest.raises(ValueError, match="ec_mode"):
            ChangeRequest("s", ChangeSet(), ec_mode="yolo")


class TestResponse:
    def test_tri_state_satisfiable(self):
        assert SolveResponse("sat", Assignment({1: True})).satisfiable is True
        assert SolveResponse("unsat").satisfiable is False
        assert SolveResponse("unknown").satisfiable is None

    def test_with_context(self):
        response = SolveResponse("sat", Assignment({1: True}))
        tagged = response.with_context(session="a", regime="tightening")
        assert (tagged.session, tagged.regime) == ("a", "tightening")
        assert response.session is None   # the original is untouched


class TestWireCodecs:
    def test_solve_request_ships_packed_bytes(self, formula):
        request = SolveRequest(
            formula=formula, deadline=2.5, seed=7,
            hint=Assignment({1: True}),
        )
        header, payload = solve_request_to_wire(request)
        assert payload == formula.packed().to_bytes()
        rebuilt = solve_request_from_wire(header, payload)
        assert rebuilt.packed_bytes == payload
        assert rebuilt.deadline == 2.5 and rebuilt.seed == 7
        assert rebuilt.hint.as_dict() == {1: True}
        # The daemon-side formula is semantically the client's.
        roundtripped = PackedCNF.from_bytes(rebuilt.packed_bytes).to_formula()
        assert {c.literals for c in roundtripped.clauses} == {
            c.literals for c in formula.clauses
        }

    def test_retired_keys_parse_as_if_absent(self, formula):
        header, payload = solve_request_to_wire(
            SolveRequest(formula=formula, seed=7)
        )
        assert not {"use_cache", "lead", "dimacs_path"} & set(header)
        old = {**header, "use_cache": False, "lead": "dpll"}
        assert solve_request_from_wire(old, payload) == solve_request_from_wire(
            header, payload
        )
        header, payload = batch_request_to_wire([formula.packed()], seed=7)
        assert not {"use_cache", "lead"} & set(header)
        _, options = batch_request_from_wire(
            {**header, "use_cache": False, "lead": "dpll"}, payload
        )
        assert options == {"deadline": None, "seed": 7}

    def test_a_solve_frame_without_an_instance_is_refused(self):
        with pytest.raises(WireError, match="packed payload or a session"):
            solve_request_from_wire({"op": "solve", "dimacs_path": "x.cnf"}, b"")
        rebuilt = solve_request_from_wire({"op": "solve", "session": "t"}, b"")
        assert rebuilt.session == "t" and not rebuilt.has_source

    def test_change_request_round_trips_every_change_kind(self):
        changes = ChangeSet([
            AddClause(Clause([1, 2])),
            RemoveClause(Clause([-1, 3])),
            AddVariable(),
            RemoveVariable(2),
        ])
        request = ChangeRequest("tenant", changes, deadline=1.0, seed=3,
                                ec_mode="force")
        rebuilt = change_request_from_wire(change_request_to_wire(request))
        assert rebuilt.session == "tenant" and rebuilt.ec_mode == "force"
        kinds = [type(c).__name__ for c in rebuilt.changes]
        assert kinds == ["AddClause", "RemoveClause", "AddVariable",
                         "RemoveVariable"]
        assert rebuilt.changes.changes[0].clause.literals == (1, 2)

    def test_changes_unknown_kind_rejected(self):
        with pytest.raises(WireError, match="unknown change kind"):
            changes_from_wire([{"kind": "replace-universe"}])

    def test_changes_codec_preserves_loosening_classification(self):
        loosening = ChangeSet([RemoveClause(Clause([1])), AddVariable(9)])
        rebuilt = changes_from_wire(changes_to_wire(loosening))
        assert rebuilt.is_loosening_only

    def test_response_round_trips(self):
        response = SolveResponse(
            "sat", Assignment({1: True, 2: False}), fingerprint="abc",
            source="cache", winner=None, wall_time=0.25, from_cache=True,
            session="t", regime="loosening", detail="d",
        )
        rebuilt = response_from_wire(response_to_wire(response))
        assert rebuilt == response

    def test_unsat_response_round_trips_without_model(self):
        response = SolveResponse("unsat", source="cdcl", winner="cdcl")
        rebuilt = response_from_wire(response_to_wire(response))
        assert rebuilt.assignment is None and rebuilt.status == "unsat"
