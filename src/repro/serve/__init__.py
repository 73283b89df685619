"""Concurrent multi-tenant serving over document stores.

See :mod:`repro.serve.server` for the serving disciplines (snapshot-
epoch reads, request collapsing, admission control).
"""

from repro.serve.server import QueryServer, Request, ServeResult

__all__ = [
    "QueryServer",
    "Request",
    "ServeResult",
]
