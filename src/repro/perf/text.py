"""Public fast-path surface for the single-pass text substrate.

The implementation lives in :mod:`repro.text.scanner` so that
:mod:`repro.text.features` can import it as a plain sibling submodule
without pulling in this package -- :mod:`repro.perf` also hosts the
compiled classifier and CSR kernels, which import the ML layer, which
imports :mod:`repro.text`, and a module-level hop back into
``repro.perf`` from inside ``repro.text``'s own initialisation would
close that loop.

Import from here in pipeline/benchmark/kernel code; the names are
identical objects to the ones in :mod:`repro.text.scanner`.
"""

from repro.text.scanner import (
    ScannedPage,
    TermInterner,
    default_interner,
    scan_html,
    vectorize_batch,
)

__all__ = [
    "TermInterner",
    "ScannedPage",
    "scan_html",
    "vectorize_batch",
    "default_interner",
]
