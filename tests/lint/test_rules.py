"""Golden-fixture tests: one bad/clean pair per shipped rule.

For every rule, ``fixtures/<rule>/bad.py`` must reproduce exactly the
findings recorded in ``expected.json`` (true positives at stable
locations), and ``fixtures/<rule>/clean.py`` must produce zero findings
under the *full* rule set (no false positives, including from sibling
rules).  A rule whose verdict depends on the module's package carries
a second input of the same name inside the fixture's own ``repro``
package (``fixtures/no-wall-clock/repro/bad.py`` is module
``repro.bad``).
"""

from __future__ import annotations

import json

import pytest

from repro.lint.engine import LintEngine
from repro.lint.registry import all_rules
from repro.lint.reporters import render_json

from tests.lint.conftest import FIXTURES, normalize

RULE_IDS = sorted(path.name for path in FIXTURES.iterdir() if path.is_dir())


def inputs(rule_id: str, name: str) -> list:
    return sorted((FIXTURES / rule_id).rglob(name))


def test_every_shipped_rule_has_a_fixture() -> None:
    assert RULE_IDS == [rule.id for rule in all_rules()]


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_bad_fixture_matches_expected_findings(rule_id: str) -> None:
    engine = LintEngine(
        rules=[rule for rule in all_rules() if rule.id == rule_id]
    )
    findings = normalize(
        engine.run(inputs(rule_id, "bad.py")), FIXTURES / rule_id
    )
    assert findings, f"{rule_id}: bad.py produced no findings"
    assert all(finding.rule == rule_id for finding in findings)
    expected = json.loads(
        (FIXTURES / rule_id / "expected.json").read_text()
    )
    assert json.loads(render_json(findings)) == expected


@pytest.mark.parametrize("rule_id", RULE_IDS)
def test_clean_fixture_has_zero_findings(rule_id: str) -> None:
    engine = LintEngine()  # full rule set: no cross-rule false positives
    assert engine.run(inputs(rule_id, "clean.py")) == []


def test_rules_have_descriptions_and_rationales() -> None:
    for rule in all_rules():
        assert rule.id
        assert rule.description
        assert rule.rationale, f"{rule.id} is missing its rationale"
