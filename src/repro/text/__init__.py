"""Text-processing substrate: scanning, stemming, weighting, features.

This package implements the IR pipeline BINGO! applies to every fetched
document (paper section 2.2): HTML stripping, tokenization, stopword
elimination, Porter stemming, and tf*idf term weighting, plus the richer
feature spaces of section 3.4 (term pairs, anchor texts).
There is one document analyzer, :mod:`repro.text.scanner`; its
:class:`~repro.text.scanner.ScannedPage` is what
:func:`repro.text.features.space_counts` turns into per-space counts.
"""

from repro.text.stemmer import PorterStemmer, stem
from repro.text.stopwords import ANCHOR_STOPWORDS, STOPWORDS
from repro.text.vectorizer import (
    CorpusStatistics,
    SparseVector,
    TfIdfVectorizer,
    cosine_similarity,
)
from repro.text.features import (
    AnchorTextSpace,
    CombinedSpace,
    FeatureSpace,
    TermPairSpace,
    TermSpace,
)

__all__ = [
    "ANCHOR_STOPWORDS",
    "AnchorTextSpace",
    "CombinedSpace",
    "CorpusStatistics",
    "FeatureSpace",
    "PorterStemmer",
    "SparseVector",
    "STOPWORDS",
    "TermPairSpace",
    "TermSpace",
    "TfIdfVectorizer",
    "cosine_similarity",
    "stem",
]
