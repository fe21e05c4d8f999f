"""Project-specific rule families of the static analysis pass.

Importing this package registers every bundled rule with the registry in
:mod:`repro.analysis.core`.  Each module maps to one invariant family of
``INVARIANTS.md``:

* :mod:`.privacy` — I1, no query plaintext in operator-visible channels;
* :mod:`.determinism` — I2, bit-identical results;
* :mod:`.optional_deps` — I3, numpy/scipy stay optional;
* :mod:`.concurrency` — module-state hygiene under the parallel engine;
* :mod:`.resources` — page-store/file lifetime hygiene;
* :mod:`.performance` — one protocol round is one retrieval batch.
"""

from __future__ import annotations

from . import concurrency, determinism, optional_deps, performance, privacy, resources

__all__ = [
    "concurrency",
    "determinism",
    "optional_deps",
    "performance",
    "privacy",
    "resources",
]
