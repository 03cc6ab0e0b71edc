import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def _ci(*args):
    env = {k: v for k, v in os.environ.items() if k != "GITHUB_STEP_SUMMARY"}
    return subprocess.run([sys.executable, str(ROOT / "tools" / "ci.py"), *args],
                          capture_output=True, text=True, timeout=120, env=env)


def test_workflow_runs_each_step_of_the_script_once(monkeypatch):
    # Read as text, since PyYAML is not a dependency: past the install and
    # the base worktree, every run line is one tools/ci.py step, and the
    # steps are the script's own, in its order.
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import ci
    runs = re.findall(r"^\s+run: (.*)$", WORKFLOW.read_text(), re.M)
    assert runs[0] == 'python -m pip install -e ".[test]"' and runs[1] == "|"
    steps = []
    for line in runs[2:]:
        match = re.fullmatch(r'python tools/ci\.py --steps ([\w-]+)( --base "\$RUNNER_TEMP/base")?', line)
        assert match, line
        steps.append(match[1])
        assert bool(match[2]) == (match[1] in (*ci.NEEDS_BASE, "lines")), line
    assert steps == list(ci.STEPS)


def test_lines_step_against_this_tree_reports_no_difference():
    done = _ci("--steps", "lines", "--base", str(ROOT))
    assert done.returncode == 0, done.stderr
    assert "difference: +0 lines" in done.stdout
    assert "- `lines`: passed" in done.stdout


def test_unknown_step_exits_2_and_names_it():
    done = _ci("--steps", "lines,no-such-step")
    assert done.returncode == 2
    assert "no-such-step" in done.stderr
    assert "=== lines" not in done.stdout


def test_steps_that_need_a_base_are_skipped_without_one():
    done = _ci("--steps", "golden-diff,ab")
    assert done.returncode == 0, done.stderr
    assert "- `golden-diff`: skipped, it needs --base" in done.stdout
    assert "- `ab`: skipped, it needs --base" in done.stdout
