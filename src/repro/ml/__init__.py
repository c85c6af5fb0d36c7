"""Machine-learning substrate: SVM, estimators, alternative classifiers.

Implements from scratch everything BINGO! borrows from the ML
literature: the linear soft-margin SVM with its distance-from-hyperplane
confidence (section 2.4), the xi-alpha leave-one-out estimators of
Joachims 2000 (sections 2.4 and 3.5), alternative classifiers for the
meta-classification of section 3.5, and the meta decision function
itself.
"""

from repro.ml.common import BinaryClassifier, FeatureIndexer
from repro.ml.svm import LinearSVM
from repro.ml.xialpha import XiAlphaEstimate, xi_alpha_estimate
from repro.ml.naive_bayes import NaiveBayesClassifier
from repro.ml.maxent import MaxEntClassifier
from repro.ml.rocchio import RocchioClassifier
from repro.ml.meta import MetaClassifier, MetaVerdict

__all__ = [
    "BinaryClassifier",
    "FeatureIndexer",
    "LinearSVM",
    "MaxEntClassifier",
    "MetaClassifier",
    "MetaVerdict",
    "NaiveBayesClassifier",
    "RocchioClassifier",
    "XiAlphaEstimate",
    "xi_alpha_estimate",
]
