import copy
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
from golden_diff import compare_summaries  # noqa: E402

SUMMARY = {"runs": [
    {"variant": "a0.5", "repeat": rep, "seed": 1 + rep, "csv_path": f"this/sym_a0.5_rep{rep}.csv",
     "converged": True, "diverged": False, "iterations": 120 + rep, "iterations_to_tolerance": 118,
     "final_error": 9e-7, "wall_time_s": 0.01}
    for rep in range(2)
]}


def test_summaries_with_equal_runs_compare_equal():
    # Other directories, wall times and errors are not compared.
    parent = copy.deepcopy(SUMMARY)
    for run in parent["runs"]:
        run.update(csv_path=run["csv_path"].replace("this", "parent"), wall_time_s=0.5, final_error=8e-7)
    assert compare_summaries(SUMMARY, parent) == ("  summary runs equal", False)


def test_a_moved_iteration_count_names_the_first_entry_that_differs():
    parent = copy.deepcopy(SUMMARY)
    parent["runs"][1]["iterations"] = 122
    line, differs = compare_summaries(SUMMARY, parent)
    assert differs and line.startswith("  summary run 1 differs:")
    assert "'iterations': 121" in line and "'iterations': 122" in line
