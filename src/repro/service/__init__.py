"""Unified service layer: one typed request/response API over the repo.

* :mod:`repro.service.requests` -- the frozen :class:`SolveRequest` /
  :class:`ChangeRequest` / :class:`SolveResponse` records every front
  door speaks;
* :mod:`repro.service.service`  -- the :class:`SolverService` facade:
  one shared :class:`~repro.engine.engine.PortfolioEngine`, a table of
  named :class:`~repro.engine.session.IncrementalSession`\\ s
  (multi-tenant: many sessions, one pool), pluggable cache backends via
  :class:`~repro.engine.config.EngineConfig`, and
  :meth:`~repro.service.service.SolverService.submit` returning a
  future-like :class:`PendingSolve`;
* :mod:`repro.service.wire`     -- length-prefixed JSON + packed-bytes
  frames;
* :mod:`repro.service.address`  -- :func:`parse_address`, the one
  grammar behind every ``--connect``/``--peer``/``--node`` flag
  (``unix://PATH``, ``tcp://HOST:PORT``, or a bare socket path);
* :mod:`repro.service.server`   -- the one frame server (listeners,
  auth, op log, drain) behind ``repro serve`` and ``repro route``;
* :mod:`repro.service.daemon`   -- :class:`ServiceDaemon`, the ``repro
  serve`` ops over the frame server, with anti-entropy cache sync;
* :mod:`repro.service.client`   -- :class:`ServiceClient`, the thin
  connection used by ``repro solve --connect``.
"""

from repro.service.address import Address, parse_address
from repro.service.client import ServiceClient
from repro.service.daemon import ServiceDaemon
from repro.service.requests import (
    ChangeRequest,
    SolveRequest,
    SolveResponse,
)
from repro.service.service import PendingSolve, SolverService

__all__ = [
    "Address",
    "ChangeRequest",
    "PendingSolve",
    "ServiceClient",
    "ServiceDaemon",
    "SolveRequest",
    "SolveResponse",
    "SolverService",
    "parse_address",
]
