"""A tour of the design-choice ablations (paper sections 3.1-3.4).

Each of the four improvements that turned the "fairly mixed success"
first prototype into the published system is switched off in isolation:

* A1 -- sharp/soft focus and tunnelling (3.3);
* A2 -- the archetype mean-confidence threshold vs topic drift (3.2);
* A3 -- systematic vs arbitrary negative examples (3.1);
* A4 -- feature spaces and xi-alpha model selection (3.4/3.5).

Run with::

    python examples/ablation_tour.py
"""

from __future__ import annotations

from repro.experiments.ablations import (
    run_archetype_ablation,
    run_feature_space_ablation,
    run_focus_ablation,
    run_negatives_ablation,
)


def main() -> None:
    print(run_focus_ablation(budget=450).render())
    print()
    print(run_archetype_ablation(seeds=(59, 61)).render())
    print()
    print(run_negatives_ablation().render())
    print()
    print(run_feature_space_ablation().render())


if __name__ == "__main__":
    main()
