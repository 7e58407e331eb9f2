"""Root-node cutting planes for 0-1 models.

Two classic families that match the EC encodings' structure:

* **knapsack cover cuts** — for a row ``sum a_j x_j <= b`` with positive
  coefficients over binaries, any minimal cover ``C`` (``sum_{j in C} a_j >
  b``) yields ``sum_{j in C} x_j <= |C| - 1``;
* **clique cuts** — pairwise conflicts ``x_i + x_j <= 1`` (the paper's
  variable-consistency rows, eq. 6) are merged into larger cliques of a
  conflict graph, giving ``sum_{j in K} x_j <= 1``.

Both separators take an LP relaxation point and only return violated cuts,
so they can run in rounds.  The ablation benchmark measures their effect.
"""

from __future__ import annotations

from typing import Mapping

import networkx as nx

from repro.ilp.constraint import Constraint, Sense
from repro.ilp.model import ILPModel
from repro.ilp.variable import VarType

_EPS = 1e-6


def knapsack_cover_cuts(
    model: ILPModel, lp_point: Mapping[str, float], max_cuts: int = 50
) -> list[Constraint]:
    """Separate violated minimal-cover inequalities at *lp_point*."""
    cuts: list[Constraint] = []
    for con in model.constraints:
        if con.sense is not Sense.LE or len(con.terms) < 2:
            continue
        if any(coef <= 0 for coef in con.terms.values()):
            continue
        if any(model.var(nm).vartype is not VarType.BINARY for nm in con.terms):
            continue
        # Greedy cover: add items by decreasing LP value until weight > rhs.
        items = sorted(
            con.terms.items(), key=lambda kv: lp_point.get(kv[0], 0.0), reverse=True
        )
        cover: list[str] = []
        weight = 0.0
        for name, coef in items:
            cover.append(name)
            weight += coef
            if weight > con.rhs + _EPS:
                break
        else:
            continue  # row can never be violated; no cover exists
        # Make the cover minimal by dropping unneeded items.
        for name in sorted(cover, key=lambda nm: con.terms[nm]):
            if weight - con.terms[name] > con.rhs + _EPS:
                cover.remove(name)
                weight -= con.terms[name]
        lhs_val = sum(lp_point.get(nm, 0.0) for nm in cover)
        if lhs_val > len(cover) - 1 + _EPS:
            cuts.append(
                Constraint({nm: 1.0 for nm in cover}, Sense.LE, len(cover) - 1)
            )
            if len(cuts) >= max_cuts:
                break
    return cuts


def conflict_graph(model: ILPModel) -> nx.Graph:
    """Graph with an edge per pairwise-conflict row ``x_i + x_j <= 1``."""
    g = nx.Graph()
    for con in model.constraints:
        if (
            con.sense is Sense.LE
            and len(con.terms) == 2
            and abs(con.rhs - 1.0) <= _EPS
            and all(abs(c - 1.0) <= _EPS for c in con.terms.values())
        ):
            u, v = con.terms
            g.add_edge(u, v)
    return g


def clique_cuts(
    model: ILPModel, lp_point: Mapping[str, float], max_cuts: int = 50
) -> list[Constraint]:
    """Separate violated clique inequalities from the conflict graph.

    Uses a greedy clique growth seeded at each high-value vertex; exact
    maximum-clique separation is NP-hard and unnecessary here.
    """
    g = conflict_graph(model)
    cuts: list[Constraint] = []
    seen: set[frozenset] = set()
    for seed in sorted(g.nodes, key=lambda nm: lp_point.get(nm, 0.0), reverse=True):
        clique = {seed}
        candidates = set(g.neighbors(seed))
        while candidates:
            best = max(candidates, key=lambda nm: lp_point.get(nm, 0.0))
            clique.add(best)
            candidates &= set(g.neighbors(best))
        if len(clique) < 3:
            continue
        key = frozenset(clique)
        if key in seen:
            continue
        seen.add(key)
        if sum(lp_point.get(nm, 0.0) for nm in clique) > 1.0 + _EPS:
            cuts.append(Constraint({nm: 1.0 for nm in clique}, Sense.LE, 1.0))
            if len(cuts) >= max_cuts:
                break
    return cuts


def strengthen_with_cuts(
    model: ILPModel,
    rounds: int = 3,
    max_cuts_per_round: int = 50,
) -> tuple[ILPModel, int]:
    """Iteratively add violated cuts at the LP relaxation optimum.

    Returns the strengthened model copy and the number of cuts added.
    """
    from repro.ilp.lp_backend import ScipyBackend
    from repro.ilp.status import SolveStatus

    out = model.copy()
    total = 0
    backend = ScipyBackend()
    for _ in range(rounds):
        a_ub, b_ub, a_eq, b_eq = out.constraint_matrices()
        c = out.objective_vector()
        if out.is_maximization:
            c = -c
        res = backend.solve(c, a_ub, b_ub, a_eq, b_eq, out.bounds())
        if res.status is not SolveStatus.OPTIMAL:
            break
        point = {v.name: float(res.x[v.index]) for v in out.variables}
        new = knapsack_cover_cuts(out, point, max_cuts_per_round)
        new += clique_cuts(out, point, max_cuts_per_round - len(new))
        if not new:
            break
        out.add_constraints(new)
        total += len(new)
    return out, total
