"""Tests of the benchmark's own logic: statistics, spans, failure
counting and seed plumbing. Run with ``python3 -m pytest perfbench/tests``."""

import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import lowrank_gd as lg
import checks
import layers
import run
import stats
from spans import Span, Tracer, children_of, covered, self_time

TINY_SYM = {
    "kind": "sym", "dim": 30, "rank": 2,
    "spectrum": {"experiment": {"hi": 3, "lo": 2}},
    "eta": 0.05, "epsilon": 1e-6, "max_iters": 20000,
    "init": {"scheme": "moderate", "alpha": [0.5, 0.01], "seed": 4},
    "repeats": 2,
}


# --- tail percentile -----------------------------------------------------------

def test_tail_has_ten_samples_beyond_it():
    value, pct, n = stats.tail(range(1, 101))
    assert (value, pct, n) == (90, 90.0, 100)
    assert sum(s > value for s in range(1, 101)) == stats.TAIL_BEYOND


def test_tail_percentile_tracks_the_sample_count():
    value, pct, n = stats.tail(range(21))
    assert n == 21 and value == 10 and pct == pytest.approx(100 * 11 / 21)


def test_tail_stops_at_p90_with_many_samples():
    value, pct, n = stats.tail(range(1, 201))
    assert (value, pct, n) == (180, 90.0, 200)


def test_tail_refuses_fewer_than_21_samples():
    for samples in ([5, 1, 3, 2, 4] * 4, []):
        with pytest.raises(ValueError):
            stats.tail(samples)


# --- spans and self time --------------------------------------------------------

def test_covered_merges_overlaps():
    assert covered([(3, 5), (1, 2), (1.5, 4), (7, 8)]) == pytest.approx(5.0)
    assert covered([]) == 0.0


def test_self_time_subtracts_the_union_of_children_on_any_thread():
    parent = Span(1, "harness.run_experiment", None, thread=1, start=0.0, end=10.0)
    spans = [
        parent,
        Span(2, "harness.job", 1, thread=2, start=1.0, end=4.0),
        Span(3, "harness.job", 1, thread=3, start=2.0, end=6.0),
        Span(4, "harness.job", 1, thread=2, start=9.0, end=12.0),
        Span(5, "linalg.svd", 2, thread=2, start=1.5, end=2.5),
    ]
    # Children cover [1, 6] and [9, 10] of the parent; the grandchild
    # counts only against its own parent.
    assert self_time(parent, children_of(spans)) == pytest.approx(4.0)
    assert self_time(spans[1], children_of(spans)) == pytest.approx(2.0)


def test_pool_thread_spans_adopt_the_root_as_parent():
    tracer = Tracer()
    outer = tracer.begin("harness.run_experiment")
    tracer.root = outer.id
    barrier = threading.Barrier(2, timeout=10)

    def job(_):
        span = tracer.begin("harness.job")
        barrier.wait()
        inner = tracer.end(tracer.begin("linalg.svd"))
        tracer.end(span)
        return span, inner

    with ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(job, range(2)))
    tracer.root = None
    tracer.end(outer)

    jobs = [span for span, _ in results]
    assert {s.parent for s in jobs} == {outer.id}
    assert len({s.thread for s in jobs}) == 2 and outer.thread not in {s.thread for s in jobs}
    assert [inner.parent for _, inner in results] == [s.id for s in jobs]
    expected = outer.duration - covered((s.start, s.end) for s in jobs)
    assert self_time(outer, children_of(tracer.spans)) == pytest.approx(expected)


def test_span_since_adopts_spans_finished_inside_it():
    tracer = Tracer()
    run_span = tracer.begin("sym_gd.run")
    tracer.end(tracer.begin("sym_gd.error"))
    tracer.mark("error_end")
    svd = tracer.end(tracer.begin("linalg.svd"))
    record = tracer.span_since("error_end", "sym_gd.record")
    tracer.end(run_span)
    assert record.parent == run_span.id and svd.parent == record.id
    assert tracer.span_since("error_end", "sym_gd.record") is None


def test_instrument_traces_a_tiny_experiment_and_restores_the_library(tmp_path):
    config = lg.parse_config(TINY_SYM)
    originals = (lg.harness.run_experiment, lg.sym_gd.run, lg.linalg.singular_values,
                 lg.spectrum.Target.__dict__["matrix"])
    tracer = Tracer()
    with layers.instrument(lg, tracer):
        summary = lg.harness.run_experiment(config, out_dir=tmp_path).summary
    assert (lg.harness.run_experiment, lg.sym_gd.run, lg.linalg.singular_values,
            lg.spectrum.Target.__dict__["matrix"]) == originals

    m = layers.layer_metrics(tracer.spans)
    iters = sum(r["iterations"] for r in summary["runs"])
    records = m["sym_gd.records"][0]
    assert m["harness.jobs"][0] == m["harness.csv_files"][0] == len(summary["runs"]) == 4
    assert m["sym_gd.iters"][0] == iters
    assert records == iters + len(summary["runs"])  # record_every=1 plus the terminal record
    assert m["harness.csv_rows"][0] == records
    assert m["linalg.svd_calls"][0] == 4 * records
    assert 0 < m["linalg.svd_ms"][0] < m["sym_gd.loop_ms"][0]
    assert m["sym_gd.step_us_per_iter"][0] > 0 and m["harness.summary_write_ms"][0] > 0
    assert m["asym_gd.iters"][0] == 0 and m["spectrum.dense_matrix_bytes"][0] == 0
    record_spans = [s for s in tracer.spans if s.name == "sym_gd.record"]
    svd_parents = {s.parent for s in tracer.spans if s.name == "linalg.svd"}
    assert svd_parents <= {s.id for s in record_spans}


# --- failure counting ------------------------------------------------------------

def _summary(tmp_path, rows_by_name, runs):
    for name, text in rows_by_name.items():
        (tmp_path / name).write_text(text)
    return {"runs": [
        {"csv_path": str(tmp_path / name), "diverged": div, "converged": conv,
         "iterations": iters, "variant": "a1", "repeat": 0, "seed": 0}
        for name, div, conv, iters in runs
    ]}


def test_failure_counting_names_each_cause(tmp_path):
    good = "iter,error\n0,1\n5,1e-7\n"
    summary = _summary(tmp_path, {
        "ok.csv": good,
        "diverged.csv": "iter,error\n0,1\n3,1e13\n",
        "budget.csv": "iter,error\n0,1\n9,0.5\n",
        "bad.csv": "iter,error\n0,1\n5,not-a-number\n",
        "short.csv": "iter,error\n0,1\n4,1e-7\n",
    }, [
        ("ok.csv", False, True, 5),
        ("diverged.csv", True, False, 3),
        ("budget.csv", False, False, 9),
        ("bad.csv", False, True, 5),
        ("short.csv", False, True, 5),
        ("missing.csv", False, True, 5),
    ])
    failures, digests = checks.experiment_failures(summary, 1e-6, None)
    assert set(failures) == {"diverged.csv", "budget.csv", "bad.csv", "short.csv", "missing.csv"}
    assert any("diverged" in r for r in failures["diverged.csv"])
    assert any("budget" in r for r in failures["budget.csv"])
    assert any("exceeds epsilon" in r for r in failures["budget.csv"])
    assert any("unparseable" in r for r in failures["bad.csv"])
    assert any("ends at iteration" in r for r in failures["short.csv"])
    assert digests["missing.csv"] is None

    bench = run.Bench(lg, None, None, 0, tmp_path)
    bench.count(summary, failures)
    assert (bench.attempted, bench.failed) == (6, 5)
    assert len(bench.reasons) == 5


def test_changed_csv_bytes_fail_against_the_reference(tmp_path):
    summary = _summary(tmp_path, {"a.csv": "iter,error\n0,1\n5,1e-7\n"}, [("a.csv", False, True, 5)])
    _, reference = checks.experiment_failures(summary, 1e-6, None)
    assert checks.experiment_failures(summary, 1e-6, reference)[0] == {}
    (tmp_path / "a.csv").write_text("iter,error\n0,1\n5,2e-7\n")
    failures, _ = checks.experiment_failures(summary, 1e-6, reference)
    assert failures == {"a.csv": ["CSV bytes differ from the first run of this seed"]}
    assert checks.experiment_failures({"runs": []}, 1e-6, reference)[0] == {
        "a.csv": ["run of the first experiment is missing"]}


def test_oracle_agrees_with_the_harness_and_catches_a_wrong_csv(tmp_path):
    config = lg.parse_config(TINY_SYM)
    summary = lg.harness.run_experiment(config, out_dir=tmp_path).summary
    assert checks.oracle_failures(lg, config, summary) == {}
    first = Path(next(r["csv_path"] for r in summary["runs"] if r["repeat"] == 0))
    lines = first.read_text().splitlines()
    fields = lines[-1].split(",")
    fields[1] = repr(float(fields[1]) * 0.5)
    first.write_text("\n".join(lines[:-1] + [",".join(fields)]) + "\n")
    failures = checks.oracle_failures(lg, config, summary)
    assert list(failures) == [first.name] and "disagrees" in failures[first.name][0]


def test_blocked_oracle_matches_the_dense_one():
    target = lg.make_diagonal_target(lg.experiment_spectrum(3, 2, 2, 600), 600, 2)
    x = 0.3 * lg.gaussian_factor(600, 2, seed=3)
    dense = checks.dense_sym_error(lg, target, x)
    limit = checks.DENSE_LIMIT
    checks.DENSE_LIMIT = 100
    try:
        blocked = checks.dense_sym_error(lg, target, x)
    finally:
        checks.DENSE_LIMIT = limit
    assert blocked == pytest.approx(dense, rel=1e-12)


def test_snapshot_sees_added_and_modified_files(tmp_path):
    (tmp_path / "kept.txt").write_text("a")
    (tmp_path / "bench").mkdir()
    (tmp_path / "__pycache__").mkdir()
    before = checks.snapshot(tmp_path, exclude=[tmp_path / "bench"])
    (tmp_path / "bench" / "scratch.csv").write_text("ignored")
    (tmp_path / "__pycache__" / "mod.pyc").write_text("ignored")
    (tmp_path / "new.txt").write_text("b")
    (tmp_path / "kept.txt").write_text("changed")
    after = checks.snapshot(tmp_path, exclude=[tmp_path / "bench"])
    assert checks.changed_files(before, after) == ["kept.txt", "new.txt"]


# --- seed plumbing -----------------------------------------------------------------

class _Stop(Exception):
    pass


def test_seed_argument_reaches_seed_override(monkeypatch):
    seen = []

    def fake_run_experiment(config, out_dir=None, seed_override=None):
        seen.append(seed_override)
        raise _Stop

    def fake_probe(mode, src, config_path, *rest):
        if mode == "setup":
            return {"setup_s": 0.1, "import_s": 0.1, "parse_s": 0.0, "target_s": 0.0}
        seed, out_dir = rest
        seen.append(seed)
        Path(out_dir).mkdir()
        return {"peak_rss_mb": 1.0}

    monkeypatch.setattr(run, "_probe", fake_probe)
    monkeypatch.setattr(lg.harness, "run_experiment", fake_run_experiment)
    with pytest.raises(_Stop):
        run.main(["--workload", "sym-trace", "--seed", "1234", "--seconds", "1"])
    assert seen == [1234, 1234]  # the memory probe, then the in-process experiment


def test_seed_override_sets_the_base_seed_of_every_repeat(tmp_path):
    bench = run.Bench(lg, lg.parse_config(TINY_SYM), None, 77, tmp_path)
    _, summary = bench.experiment("reference")
    assert (bench.attempted, bench.failed) == (4, 0)
    assert summary["seed_base"] == 77
    assert sorted({r["seed"] for r in summary["runs"]}) == [77, 78]


# --- oracle variants and spread verdicts --------------------------------------------

def test_variant_params_covers_every_asym_variant_the_harness_writes(tmp_path):
    config = lg.parse_config({**TINY_SYM, "kind": "asym", "regularized": "both", "repeats": 1})
    target = lg.make_diagonal_target(config.values, config.dim, config.rank)
    assert checks.variant_params(lg, config, target) == {
        "a0.5_reg": (0.5, True), "a0.5_unreg": (0.5, False),
        "a0.01_reg": (0.01, True), "a0.01_unreg": (0.01, False)}


def test_verdicts_gate_spread_and_median_shift_but_not_setup_spread():
    import spread
    bounds = {"setup_s": (0.25, "lower"), "iters_per_s": (0.1, "higher")}
    steady = [1.0] * 9 + [1.01]
    noisy = [0.5, 1.0, 1.5, 0.5, 1.0, 1.5, 0.5, 1.0, 1.5, 1.0]
    v = spread.verdicts([{"setup_s": noisy, "iters_per_s": steady},
                         {"setup_s": noisy, "iters_per_s": [0.8 * x for x in steady]}], bounds)
    assert v["setup_s"]["ok"] and v["setup_s"]["spreads"][0] > 0.25
    assert v["iters_per_s"]["worse_by"] == pytest.approx(0.2) and not v["iters_per_s"]["ok"]
