"""Shared fixtures for the repro test suite."""

from __future__ import annotations

import random

import pytest

from repro.cnf.assignment import Assignment
from repro.cnf.formula import CNFFormula
from repro.cnf.generators import random_planted_ksat


@pytest.fixture
def fresh_fp_memo(monkeypatch) -> dict:
    """An empty fp-v2 memo for one test (the real memo lives as long as
    the process, so a value seen by an earlier test would answer).

    ``raising=False`` lets the fp-v2 golden values run unchanged against
    a kernel without a memo."""
    from repro.cnf import packed

    memo: dict = {}
    monkeypatch.setattr(packed, "_FP_MEMO", memo, raising=False)
    return memo


@pytest.fixture
def rng() -> random.Random:
    """Deterministic RNG for tests."""
    return random.Random(12345)


@pytest.fixture
def paper_formula() -> CNFFormula:
    """The paper's §1 motivating instance F (with f2 = v2 + v3' + v5).

    F = (v1+v3'+v5')(v2+v3'+v5)(v2+v4+v5)(v3'+v4')
    """
    return CNFFormula([[1, -3, -5], [2, -3, 5], [2, 4, 5], [-3, -4]])


@pytest.fixture
def paper_solution_s() -> Assignment:
    """Solution S from the paper's §1 example."""
    return Assignment({1: False, 2: True, 3: True, 4: False, 5: False})


@pytest.fixture
def paper_solution_e() -> Assignment:
    """Solution E from the paper's §1 example (the EC-friendly one)."""
    return Assignment({1: True, 2: True, 3: False, 4: True, 5: False})


@pytest.fixture
def planted_small():
    """A 20-variable planted-satisfiable 3-SAT instance and its witness."""
    return random_planted_ksat(20, 60, rng=7)


@pytest.fixture
def planted_medium():
    """A 60-variable planted-satisfiable 3-SAT instance and its witness."""
    return random_planted_ksat(60, 200, rng=11)
