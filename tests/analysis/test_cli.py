"""CLI tests: exit codes, JSON output, baseline workflow and --diff mode."""

from __future__ import annotations

import json
import subprocess
from pathlib import Path

from repro.analysis.cli import main

FIXTURES = Path(__file__).parent / "fixtures"

VIOLATION = "import time\n\n\ndef stamp():\n    return time.time()\n"


def _engine_tree(root: Path, text: str = VIOLATION) -> Path:
    target = root / "src" / "repro" / "engine"
    target.mkdir(parents=True, exist_ok=True)
    path = target / "mod.py"
    path.write_text(text)
    return path


def test_clean_tree_exits_zero(capsys):
    code = main(["--root", str(FIXTURES / "clean")])
    out = capsys.readouterr().out
    assert code == 0
    assert "0 findings" in out


def test_firing_tree_exits_one_with_locations(capsys):
    code = main(["--root", str(FIXTURES / "firing")])
    out = capsys.readouterr().out
    assert code == 1
    assert "src/repro/engine/wallclock.py:7" in out
    assert "[det-wallclock]" in out
    assert "hint:" in out


def test_json_report_structure(capsys):
    code = main(["--json", "--root", str(FIXTURES / "firing")])
    document = json.loads(capsys.readouterr().out)
    assert code == 1
    assert document["counts"]["findings"] == len(document["findings"]) > 0
    sample = document["findings"][0]
    assert {"rule", "path", "line", "message", "hint", "fingerprint"} <= set(sample)


def test_explicit_paths_override_default_roots(capsys):
    code = main([
        str(FIXTURES / "firing" / "src" / "repro" / "engine" / "wallclock.py"),
        "--root", str(FIXTURES / "firing"),
    ])
    out = capsys.readouterr().out
    assert code == 1
    assert "1 finding," in out


def test_list_rules_groups_by_family(capsys):
    code = main(["--list-rules"])
    out = capsys.readouterr().out
    assert code == 0
    for family in ("privacy", "determinism", "optional-deps", "concurrency",
                   "resources", "performance"):
        assert f"{family}:" in out
    assert "det-wallclock" in out


def test_write_baseline_then_clean_run(tmp_path, capsys):
    _engine_tree(tmp_path)
    assert main(["--root", str(tmp_path)]) == 1
    assert main(["--write-baseline", "--root", str(tmp_path)]) == 0
    capsys.readouterr()

    code = main(["--root", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "1 baselined" in out

    # --no-baseline resurfaces the grandfathered finding
    assert main(["--no-baseline", "--root", str(tmp_path)]) == 1


def test_bad_baseline_is_a_usage_error(tmp_path, capsys):
    _engine_tree(tmp_path)
    (tmp_path / ".repro-lint-baseline.json").write_text("[]")
    code = main(["--root", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "bad baseline" in err


def _git(repo: Path, *args: str) -> None:
    subprocess.run(
        ["git", "-c", "user.email=ci@test", "-c", "user.name=ci", *args],
        cwd=str(repo), check=True, capture_output=True,
    )


def test_diff_mode_reports_only_changed_lines(tmp_path, capsys):
    path = _engine_tree(tmp_path)
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "commit", "-qm", "seed")

    # add a second violation below the committed one
    path.write_text(VIOLATION + "\n\ndef stamp_ns():\n    return time.time_ns()\n")
    code = main(["--diff", "HEAD", "--root", str(tmp_path), "--no-baseline"])
    out = capsys.readouterr().out
    assert code == 1
    assert "mod.py:9" in out  # the new violation
    assert "mod.py:5" not in out  # the pre-existing one is out of diff scope

    # a full (non-diff) run still sees both
    capsys.readouterr()
    assert main(["--root", str(tmp_path), "--no-baseline"]) == 1
    assert "mod.py:5" in capsys.readouterr().out


def test_diff_mode_with_bad_ref_is_a_usage_error(tmp_path, capsys):
    _engine_tree(tmp_path)
    _git(tmp_path, "init", "-q")
    code = main(["--diff", "no-such-ref", "--root", str(tmp_path)])
    assert code == 2
    assert "git diff" in capsys.readouterr().err
