"""Experiment runners reproducing every table and figure of the paper.

Each runner returns the :class:`ExperimentTable` objects it renders,
rows holding raw values; ``benchmarks/bench_paper.py`` records every table and
asserts the paper's claims on it, and ``examples/`` and the CLI print them:

* :mod:`repro.experiments.portal` -- Table 1 (crawl summary) and Tables
  2/3 (portal precision/recall vs the DBLP-style registry);
* :mod:`repro.experiments.expert` -- Figures 4/5 (expert-search seeds and
  the post-processed top-10);
* :mod:`repro.experiments.meta_bench` -- the section 3.5 claim that meta
  classification lifts precision from ~80% to >90%;
* :mod:`repro.experiments.featsel` -- MI feature-selection quality
  (section 2.3) and the xi-alpha feature budget (section 3.5);
* :mod:`repro.experiments.ablations` -- design-choice ablations (focus
  rules and tunnelling, archetype thresholding, negative examples,
  feature spaces, node learners);
* :mod:`repro.experiments.common` -- the experiment Web, page counts,
  single-topic training and the mean over seeds they share;
* :mod:`repro.experiments.reporting` -- plain-text table rendering.
"""

from repro.experiments.reporting import ExperimentTable

__all__ = ["ExperimentTable"]
