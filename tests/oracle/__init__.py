"""Reference implementations the production code is pinned against.

``repro`` ships one scheduler loop (:mod:`repro.lap.fastpath`, behind
:meth:`repro.lap.runtime.LAPRuntime.execute`), structure-of-arrays
residency levels and NumPy passes for the LAC's rank-1 and Householder
inner loops.  This package keeps the plain formulations they replaced --
an event loop with per-task policy dispatch and per-task tracer calls,
``OrderedDict`` LRU residency levels, per-PE / per-element LAC loops and
the scalar energy re-key of a recorded schedule -- so the equivalence and
property suites can require byte-identical results from both.  It is test
code: importable when ``tests/`` is on ``sys.path`` (pytest arranges that;
scripts insert it themselves).
"""

from oracle.lac import (reference_apply_householder, reference_lac,
                        reference_rank1_update_step, reference_rank1_updates)
from oracle.memory import (LocalStore, ReferenceMemoryHierarchy,
                           TaskMemoryEvent, TileResidency, columns_of,
                           reference_rekey_energy_j)
from oracle.runtime import ReferenceRuntime, reference_execute, reference_loop

__all__ = [
    "LocalStore", "ReferenceMemoryHierarchy", "ReferenceRuntime",
    "TaskMemoryEvent", "TileResidency", "columns_of",
    "reference_apply_householder",
    "reference_execute", "reference_lac", "reference_loop",
    "reference_rank1_update_step", "reference_rank1_updates",
    "reference_rekey_energy_j",
]
