"""Top-k query kernel: bound-then-verify.

The query-serving tier (paper section 3.6; the "millions of users" half
of an information portal) must not run the exact scorer over every
stored document per query.  :func:`verified_topk` adds every query
term's normalised impacts -- slices of the arrays
:class:`repro.search.index.InvertedIndex` derives once per epoch --
into one dense per-corpus array (a handful of numpy operations,
O(documents) by design), reads the k-th largest of those approximate
scores with ``np.partition``, and hands only the documents that reach
it to the caller's *exact* scorer.

Rank-exactness contract: the approximate score is the exact one with
its additions and divisions in another order -- a sum of a handful of
non-negative products, so the two differ by a few ulp (~1e-15
relative).  Every document within a relative :data:`VERIFY_SLACK`
(1e-9) of the k-th approximate score is verified, ties included, so
the verified set contains the true top k under the ``(-score, row)``
order and the returned scores come from the caller's exact scorer,
which gives the brute-force ranker's floats -- bit-identical results,
not merely close ones.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

__all__ = ["VERIFY_SLACK", "verified_topk"]

#: relative width of the band below the k-th approximate score whose
#: documents are verified too; six orders of magnitude above the
#: rounding error it has to cover (see module docstring)
VERIFY_SLACK = 1e-9


def verified_topk(
    runs: Sequence[tuple[np.ndarray, np.ndarray, float]],
    size: int,
    members: np.ndarray,
    static: np.ndarray | None,
    k: int,
    score: Callable[[int], float],
) -> list[tuple[float, int]]:
    """The top ``k`` of ``members`` under ``(-score, position)``.

    ``runs`` holds one ``(rows, impacts, factor)`` triple per query
    term: the corpus rows containing the term, their normalised impacts
    ``weight / |doc|`` and the term's share ``w_cosine * q_t / |q|``.
    ``members`` is the ascending rows the filter keeps (``size`` rows
    in the corpus) and ``static`` the query-independent score component
    parallel to it (``None`` for all zeros).  ``score`` maps a position
    in ``members`` to the document's *exact* final score and is invoked
    once per verified document: ``k`` of them, plus whatever ties the
    k-th within :data:`VERIFY_SLACK`.

    Returns ``(score, position)`` pairs, best first.  When fewer than
    ``k`` members score above zero, the remaining slots fill with
    zero-score members in position (hence doc-id) order, which is the
    order the tie-break gives them.
    """
    keep = min(k, len(members))
    if keep <= 0:
        return []
    bound = np.zeros(size)
    for rows, impacts, factor in runs:
        bound[rows] += factor * impacts
    bound = bound[members]
    if static is not None:
        bound += static
    cut = len(bound) - keep
    kth = np.partition(bound, cut)[cut]
    if kth > 0.0:
        verify = np.flatnonzero(bound >= kth * (1.0 - VERIFY_SLACK))
    else:
        positive = np.flatnonzero(bound > 0.0)
        zeros = np.flatnonzero(bound <= 0.0)[: keep - len(positive)]
        verify = np.concatenate((positive, zeros))
    scored = [(score(position), position) for position in verify.tolist()]
    scored.sort(key=lambda pair: (-pair[0], pair[1]))
    return scored[:keep]
