"""Reference implementations the production scheduler is pinned against.

``repro`` ships one scheduler loop (:mod:`repro.lap.fastpath`, behind
:meth:`repro.lap.runtime.LAPRuntime.execute`) and structure-of-arrays
residency levels.  This package keeps the plain formulations they
replaced -- an event loop with per-task policy dispatch and per-task
tracer calls, and ``OrderedDict`` LRU residency levels -- so the
equivalence and property suites can require byte-identical results from
both.  It is test code: importable when ``tests/`` is on ``sys.path``
(pytest arranges that; scripts insert it themselves).
"""

from oracle.memory import (LocalStore, ReferenceMemoryHierarchy,
                           TaskMemoryEvent, TileResidency)
from oracle.runtime import ReferenceRuntime, reference_execute, reference_loop

__all__ = [
    "LocalStore", "ReferenceMemoryHierarchy", "ReferenceRuntime",
    "TaskMemoryEvent", "TileResidency", "reference_execute", "reference_loop",
]
