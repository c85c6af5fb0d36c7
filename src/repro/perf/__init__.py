"""Vectorized kernels for the crawl hot path.

The paper puts classification (2.4) and link analysis (2.5) *inside*
the crawl loop, so their per-document cost directly bounds crawl
throughput.  This package holds the compiled kernels those layers run
on, on numpy alone (sparse sums go through
:class:`repro.ml.common.CsrRows`); the dict-walking formulations every
kernel is parity-tested against live with the tests
(``tests/core/reference.py``, ``tests/analysis/reference.py``).

* :mod:`repro.perf.compiled` -- the hierarchical classifier compiled
  into per-level CSR-style weight blocks with their idf columns (one
  sparse gather from the cohort's term counts + one ``CsrRows.matvec``
  per stacked row per descent wave instead of per-node dict dot
  products; a page is weighted only on selected features);
* :mod:`repro.perf.csr_hits` -- HITS / Bharat-Henzinger distillation as
  alternating ``CsrRows`` matvecs over int-indexed CSR adjacency;
* :mod:`repro.perf.text` -- the single-pass HTML scanner, the
  memoizing :class:`~repro.perf.text.TermInterner`, and
  :func:`~repro.perf.text.vectorize_batch`, tf*idf rows for a whole
  micro-batch.
"""

from repro._lazy import lazy_exports
from repro.perf.text import (
    ScannedPage,
    TermInterner,
    default_interner,
    scan_html,
    vectorize_batch,
)

#: names resolved lazily (PEP 562): :mod:`repro.perf.compiled` and
#: :mod:`repro.perf.csr_hits` pull in the ML layer (numpy SVMs) and
#: through it all of :mod:`repro.text`; deferring them keeps
#: ``import repro.perf`` cheap for callers that only want the text
#: substrate.
__getattr__ = lazy_exports(__name__, {
    "CompiledClassifier": "repro.perf.compiled",
    "compile_classifier": "repro.perf.compiled",
    "CsrAdjacency": "repro.perf.csr_hits",
    "hits_csr": "repro.perf.csr_hits",
    "bharat_henzinger_csr": "repro.perf.csr_hits",
})

__all__ = [
    "CompiledClassifier",
    "compile_classifier",
    "CsrAdjacency",
    "hits_csr",
    "bharat_henzinger_csr",
    "ScannedPage",
    "TermInterner",
    "default_interner",
    "scan_html",
    "vectorize_batch",
]
