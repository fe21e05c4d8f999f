"""Golden-fixture tests: every rule fires where expected and only there.

The fixture trees under ``fixtures/firing`` and ``fixtures/clean`` mirror the
repository layout (``src/repro/engine/...``) so the rules' path scoping is
exercised exactly as it is against the real tree.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import all_rules, run_analysis

FIXTURES = Path(__file__).parent / "fixtures"
FIRING = FIXTURES / "firing"
CLEAN = FIXTURES / "clean"

#: Every finding the firing tree must produce: (path, line, rule id).
EXPECTED_FIRING = {
    ("src/repro/engine/wallclock.py", 7, "det-wallclock"),
    ("src/repro/engine/unseeded.py", 7, "det-unseeded-random"),
    ("src/repro/schemes/set_order.py", 5, "det-set-iteration"),
    ("src/repro/schemes/set_order.py", 11, "det-set-iteration"),
    ("src/repro/engine/leaky_log.py", 5, "privacy-taint"),
    ("src/repro/engine/leaky_log.py", 9, "privacy-taint"),
    ("src/repro/engine/adversary_log.py", 9, "privacy-queries-seen"),
    ("src/repro/network/eager_deps.py", 3, "optdeps-import"),
    ("src/repro/network/eager_deps.py", 6, "optdeps-import"),
    ("src/repro/pir/module_cache.py", 3, "conc-module-state"),
    ("src/repro/pir/module_cache.py", 7, "conc-module-state"),
    ("benchmarks/storage_probe.py", 7, "res-unclosed-store"),
    ("benchmarks/storage_probe.py", 12, "res-unclosed-store"),
    ("src/repro/serving/leaky_server.py", 9, "privacy-taint"),
    ("src/repro/serving/leaky_server.py", 10, "privacy-queries-seen"),
    ("src/repro/schemes/serial_fetch.py", 4, "perf-serial-fetch"),
    ("src/repro/schemes/serial_fetch.py", 7, "perf-serial-fetch"),
    ("src/repro/schemes/serial_fetch.py", 8, "perf-serial-fetch"),
    ("src/repro/serving/forked_client.py", 6, "det-mask-draw"),
    ("src/repro/pir/xor_pir.py", 6, "det-mask-draw"),
}

ALL_RULE_IDS = sorted({rule_id for _, _, rule_id in EXPECTED_FIRING})


@pytest.fixture(scope="module")
def firing_findings():
    result = run_analysis([FIRING], root=FIRING)
    assert not result.parse_errors
    return result.findings


@pytest.fixture(scope="module")
def clean_findings():
    result = run_analysis([CLEAN], root=CLEAN)
    assert not result.parse_errors
    return result.findings


def test_firing_tree_matches_golden_set(firing_findings):
    actual = {(f.path, f.line, f.rule_id) for f in firing_findings}
    assert actual == EXPECTED_FIRING


def test_clean_tree_produces_no_findings(clean_findings):
    assert [(f.path, f.line, f.rule_id) for f in clean_findings] == []


@pytest.mark.parametrize("rule_id", ALL_RULE_IDS)
def test_each_rule_has_a_firing_fixture(firing_findings, rule_id):
    fired = [f for f in firing_findings if f.rule_id == rule_id]
    assert fired, f"no firing fixture exercises {rule_id}"
    for finding in fired:
        assert finding.message
        assert finding.hint  # every finding carries a fix hint
        assert finding.source_line  # and the offending source text


def test_registry_covers_five_families():
    rules = all_rules()
    families = {rule.family for rule in rules}
    assert len(families) >= 5
    assert {rule.id for rule in rules} >= set(ALL_RULE_IDS)


def test_rule_scoping_keeps_out_of_scope_files_silent(tmp_path):
    # the same wall-clock read outside the bit-identity surface is legal
    target = tmp_path / "src" / "repro" / "bench"
    target.mkdir(parents=True)
    (target / "timing.py").write_text(
        "import time\n\n\ndef timestamp():\n    return time.time()\n"
    )
    result = run_analysis([tmp_path], root=tmp_path)
    assert result.findings == []
