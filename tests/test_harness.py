import copy
import csv
import json
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from lowrank_gd import (
    ConfigError,
    emit_plot,
    load_config,
    make_diagonal_target,
    parse_config,
    run_experiment,
    small_alpha_bound,
)
from lowrank_gd import asym_gd, eigenspace, harness, sym_gd
from lowrank_gd.cli import main as cli_main

MINIMAL_SYM = {
    "kind": "sym",
    "dim": 2,
    "rank": 1,
    "spectrum": {"explicit": [2, 1]},
    "eta": 0.003,
    "epsilon": 1e-6,
    "max_iters": 100000,
    "init": {"scheme": "moderate", "alpha": 0.5, "seed": 1},
    "repeats": 1,
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


# --- config loading -----------------------------------------------------------

def test_load_minimal_sym_config(tmp_path):
    cfg = load_config(write_config(tmp_path, MINIMAL_SYM))
    assert cfg.kind == "sym" and cfg.dim == 2 and cfg.alphas == [0.5]


def test_unknown_key_is_named(tmp_path):
    payload = dict(MINIMAL_SYM, etaa=0.1)
    with pytest.raises(ConfigError, match="etaa"):
        load_config(write_config(tmp_path, payload))


def test_unknown_init_key_is_named():
    payload = dict(MINIMAL_SYM, init={"alpha": 0.5, "sead": 1})
    with pytest.raises(ConfigError, match="init.sead"):
        parse_config(payload)


def test_missing_key_is_named():
    payload = {k: v for k, v in MINIMAL_SYM.items() if k != "eta"}
    with pytest.raises(ConfigError, match="'eta'"):
        parse_config(payload)


# Every numeric key with a value outside its range. spectrum.explicit takes
# any finite number, so its entry leaves the float range instead.
OUT_OF_RANGE = {
    "dim": 0, "rank": 4, "eta": 1.5, "epsilon": -1.0, "max_iters": 0,
    "init.alpha": 0.0, "init.seed": -3, "init.multiplier": 0.0, "repeats": 0, "record_every": 0,
    "spectrum.experiment.hi": 2.0, "spectrum.experiment.lo": 1.0, "spectrum.equal_top": 0.5,
    "spectrum.explicit": 10**400,
}
BAD_NUMBERS = {"nan": float("nan"), "infinity": float("inf"), "string": "2", "null": None,
               "boolean": True, "list": [2]}


def _with_number(key, value):
    """A valid d=4, r=2 config with ``value`` at ``key``; list-valued keys
    get it as one entry."""
    config = copy.deepcopy(dict(MINIMAL_SYM, dim=4, rank=2, spectrum={"experiment": {"hi": 7, "lo": 2}}))
    if key == "spectrum.equal_top":
        config["spectrum"] = {"equal_top": value}
    elif key == "spectrum.explicit":
        config["spectrum"] = {"explicit": [3.0, value, 1.0, 1.0]}
    elif key == "init.alpha":
        config["init"]["alpha"] = [0.5, value]
    else:
        *path, last = key.split(".")
        node = config
        for part in path:
            node = node[part]
        node[last] = value
    return config


@pytest.mark.parametrize("key, value", [
    pytest.param(key, value, id=f"{key}-{case}")
    for key in OUT_OF_RANGE
    for case, value in dict(BAD_NUMBERS, out_of_range=OUT_OF_RANGE[key]).items()
])
def test_invalid_value_is_named(key, value):
    parse_config(_with_number(key, 1 if key == "eta" else 3))  # the config parses with a good value
    with pytest.raises(ConfigError, match=re.escape(f"invalid value for '{key}'")):
        parse_config(_with_number(key, value))


# Every enumerated key, on a config of a kind that accepts it.
CHOICE_CONFIGS = {
    "kind": MINIMAL_SYM,
    "init.scheme": MINIMAL_SYM,
    "regularized": dict(MINIMAL_SYM, kind="asym"),
    "method": dict(MINIMAL_SYM, kind="eig"),
}


@pytest.mark.parametrize("value", ["SYM", "tiny", 1, 1.0, ["rgd"], None], ids=repr)
@pytest.mark.parametrize("key", CHOICE_CONFIGS)
def test_invalid_choice_is_named(key, value):
    config = copy.deepcopy(CHOICE_CONFIGS[key])
    *path, last = key.split(".")
    (config[path[0]] if path else config)[last] = value
    # 1 and 1.0 equal true, which "regularized" accepts: the rule compares types.
    message = rf"invalid value for '{key}': expected one of \[.*\], got {re.escape(repr(value))}$"
    with pytest.raises(ConfigError, match=message):
        parse_config(config)


def test_colliding_alpha_variant_names_are_rejected():
    # 0.5 and 0.5000001 both format as "a0.5": their runs would write the
    # same CSV and the second would overwrite the first.
    with pytest.raises(ConfigError, match=r"'init.alpha': 0.5 and 0.5000001 share the variant name 'a0.5'"):
        parse_config(dict(MINIMAL_SYM, init={"alpha": [0.5, 0.001, 0.5000001], "seed": 1}))
    with pytest.raises(ConfigError, match="'a0.001'"):
        parse_config(dict(MINIMAL_SYM, kind="asym", init={"alpha": [0.001, 0.001]}))
    assert parse_config(dict(MINIMAL_SYM, init={"alpha": [0.5, 0.50001]})).alphas == [0.5, 0.50001]


def test_parse_error_reported(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(path)


@pytest.mark.parametrize("case", ["directory", "not_utf8"])
def test_cli_names_an_unreadable_config(tmp_path, capsys, case):
    path = tmp_path / "config.json"
    if case == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"\xff\xfe{")
    assert cli_main(["run", "--config", str(path)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"config error: cannot read config file {path}")


def test_shipped_configs_load():
    configs = Path(__file__).resolve().parent.parent / "configs"
    magnitudes = load_config(configs / "sym_magnitudes.json")
    assert magnitudes.kind == "sym" and magnitudes.dim == 1000 and magnitudes.rank == 10
    assert magnitudes.eta == 0.05 and magnitudes.repeats == 5
    assert magnitudes.alphas == [0.5, 0.5 / 1000, 0.5 / 1000**2]
    np.testing.assert_allclose(magnitudes.values[:3], [7.0, 7.0 - 5.0 / 9.0, 7.0 - 10.0 / 9.0])
    for name in ("asym_regularization.json", "eig_descending.json", "eig_equal_top.json", "bench_retraction.json"):
        load_config(configs / name)


# --- experiment output ----------------------------------------------------------

def test_sym_experiment_end_to_end(tmp_path):
    cfg = parse_config(dict(MINIMAL_SYM, repeats=2, out_dir=str(tmp_path / "out")))
    result = run_experiment(cfg)
    assert not result.diverged
    assert len(result.csv_paths) == 2
    for path in result.csv_paths:
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows, "csv has data rows"
        assert float(rows[-1]["error"]) <= 1e-6
        assert set(rows[0]) == {
            "iter", "error", "sigma1_x", "sigma1_j", "sigmar_u",
            "ratio", "sigma1_p", "in_r", "in_r2",
        }
    # summary's iterations-to-tolerance equals the first row at or below eps
    summary = json.loads(Path(result.summary_path).read_text())
    for run_info, path in zip(summary["runs"], result.csv_paths):
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        first = next(int(row["iter"]) for row in rows if float(row["error"]) <= cfg.epsilon)
        assert run_info["iterations_to_tolerance"] == first


def test_rerun_is_byte_identical(tmp_path):
    cfg = parse_config(dict(MINIMAL_SYM, repeats=3, out_dir=str(tmp_path / "a")))
    first = run_experiment(cfg)
    blobs1 = [Path(p).read_bytes() for p in first.csv_paths]
    second = run_experiment(cfg)
    blobs2 = [Path(p).read_bytes() for p in second.csv_paths]
    assert blobs1 == blobs2


def test_asym_experiment_variants(tmp_path):
    payload = {
        "kind": "asym", "dim": 6, "rank": 2,
        "spectrum": {"explicit": [3.0, 2.0, 1.0, 0.5, 0.3, 0.1]},
        "eta": 0.05, "epsilon": 1e-4, "max_iters": 20000,
        "init": {"alpha": [0.2, 1.0], "seed": 2}, "repeats": 2,
        "out_dir": str(tmp_path / "asym"),
    }
    result = run_experiment(parse_config(payload))
    # two alphas x (reg, unreg) x two repeats
    assert len(result.csv_paths) == 8
    with open(result.csv_paths[0], newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert set(rows[0]) == {"iter", "error", "balance"}


def test_asym_indefinite_spectrum_takes_the_dense_path(tmp_path):
    # The SVD truncation of diag(3, 2, 1, -5) at rank 2 keeps 5 and 3, so the
    # diagonal fast path (which would keep 3 and 2) must not be taken here.
    payload = {
        "kind": "asym", "dim": 4, "rank": 2,
        "spectrum": {"explicit": [3.0, 2.0, 1.0, -5.0]},
        "eta": 0.05, "epsilon": 1e-6, "max_iters": 20000,
        "init": {"alpha": 0.5, "seed": 1}, "repeats": 1, "regularized": True,
        "out_dir": str(tmp_path / "asym"),
    }
    (run,) = run_experiment(parse_config(payload)).summary["runs"]
    assert run["converged"] and run["iterations"] == 303
    assert run["final_error"] == pytest.approx(9.580858357552376e-07, rel=1e-9)


def test_eig_experiment_methods(tmp_path):
    payload = {
        "kind": "eig", "dim": 12, "rank": 2,
        "spectrum": {"equal_top": 3.0},
        "eta": 0.05, "epsilon": 1e-4, "max_iters": 10000,
        "init": {"alpha": 1.0, "seed": 1}, "repeats": 1,
        "out_dir": str(tmp_path / "eig"),
    }
    result = run_experiment(parse_config(payload))
    names = sorted(Path(p).name for p in result.csv_paths)
    assert names == ["eig_a1_rf_rep0.csv", "eig_a1_rgd_rep0.csv"]
    with open(result.csv_paths[0], newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert set(rows[0]) == {"iter", "proj_error"}
    assert float(rows[-1]["proj_error"]) <= 1e-4


def test_bench_summary_shape(tmp_path):
    payload = {
        "kind": "bench", "dim": 40, "rank": 3,
        "spectrum": {"experiment": {"hi": 7, "lo": 2}},
        "eta": 0.05, "epsilon": 1e-4, "max_iters": 10000,
        "init": {"alpha": 1.0, "seed": 1}, "repeats": 4,
        "out_dir": str(tmp_path / "bench"),
    }
    result = run_experiment(parse_config(payload))
    bench = result.summary["bench"]
    assert set(bench["methods"]) == {"retraction_free", "rgd"}
    for stats in bench["methods"].values():
        assert stats["runs"] == 4
        assert stats["total_wall_time_s"] > 0
    assert bench["saving_fraction"] is not None


def test_bench_record_every_reaches_csv_rows(tmp_path):
    payload = {
        "kind": "bench", "dim": 40, "rank": 3,
        "spectrum": {"experiment": {"hi": 7, "lo": 2}},
        "eta": 0.05, "epsilon": 1e-4, "max_iters": 10000,
        "init": {"alpha": 1.0, "seed": 1}, "repeats": 2, "record_every": 7,
        "out_dir": str(tmp_path / "bench"),
    }
    result = run_experiment(parse_config(payload))
    for run_info in result.summary["runs"]:
        with open(run_info["csv_path"], newline="") as fh:
            iters = [int(row["iter"]) for row in csv.DictReader(fh)]
        n = run_info["iterations"]
        assert iters == list(range(0, n, 7)) + [n]


def test_bench_jobs_run_at_the_alpha_their_scheme_derives():
    payload = {
        "kind": "bench", "dim": 40, "rank": 3,
        "spectrum": {"experiment": {"hi": 7, "lo": 2}},
        "eta": 0.05, "epsilon": 1e-4, "max_iters": 10000,
        "init": {"scheme": "small", "alpha": 1.0, "multiplier": 2.0, "seed": 1}, "repeats": 2,
    }
    cfg = parse_config(payload)
    target = make_diagonal_target(cfg.values, cfg.dim, cfg.rank)
    bound = small_alpha_bound(target, cfg.eta, 2.0)
    jobs = harness._build_jobs(cfg, target, cfg.seed)
    assert len(jobs) == 4 and bound < 1.0
    assert all(params["alpha"] == bound for _, _, _, params in jobs)


SMALL_SYM = {
    "kind": "sym", "dim": 40, "rank": 3,
    "spectrum": {"experiment": {"hi": 7, "lo": 2}},
    "eta": 0.05, "epsilon": 1e-4, "max_iters": 20, "init": {"scheme": "small", "seed": 1},
}


@pytest.mark.parametrize("alpha", [{}, {"alpha": [0.5, 0.1]}], ids=["no_alpha", "alpha_list"])
def test_small_scheme_runs_and_names_the_bound_once(tmp_path, alpha):
    # init.alpha is ignored under "small": one run per repeat, named and
    # classified by the alpha it starts from.
    cfg = parse_config(dict(SMALL_SYM, init=dict(SMALL_SYM["init"], **alpha), out_dir=str(tmp_path)))
    bound = small_alpha_bound(make_diagonal_target(cfg.values, cfg.dim, cfg.rank), cfg.eta)
    assert cfg.alphas == [bound]
    summary = run_experiment(cfg).summary
    (run,) = summary["runs"]
    assert run["variant"] == f"a{bound:g}" and Path(run["csv_path"]).name == f"sym_a{bound:g}_rep0.csv"
    assert summary["alpha_regimes"] == {f"{bound:g}": "small"}
    assert sorted(p.name for p in tmp_path.glob("*.csv")) == [f"sym_a{bound:g}_rep0.csv"]


def test_overflow_check_draws_each_seed_once(tmp_path, monkeypatch):
    # 3 alphas x 2 repeats: 2 draws for the check and 6 for the runs.
    calls = []
    draw = harness.initialization.gaussian_factor
    monkeypatch.setattr(harness.initialization, "gaussian_factor",
                        lambda *args: calls.append(args) or draw(*args))
    run_experiment(parse_config(dict(MINIMAL_SYM, init={"alpha": [0.5, 0.2, 0.1], "seed": 1}, repeats=2,
                                     max_iters=10, out_dir=str(tmp_path))))
    assert len(calls) == 8


TINY_PER_KIND = {
    "sym": dict(MINIMAL_SYM, repeats=2),
    "asym": dict(MINIMAL_SYM, kind="asym", eta=0.05, epsilon=1e-4, init={"alpha": [0.5, 1.0]}),
    "eig": dict(MINIMAL_SYM, kind="eig", dim=6, rank=2, eta=0.05, epsilon=1e-4, max_iters=2000,
                spectrum={"experiment": {"hi": 3, "lo": 2}}, method="rgd"),
    "bench": dict(MINIMAL_SYM, kind="bench", dim=6, rank=2, eta=0.05, epsilon=1e-4, max_iters=2000,
                  spectrum={"experiment": {"hi": 3, "lo": 2}}, repeats=2),
}


def test_each_kind_runs_the_solver_its_module_holds_when_the_job_runs(tmp_path, monkeypatch):
    # A wrapper set on the solver's module after import is the one a job
    # calls, as perfbench's instrumentation relies on.
    calls = {}

    def counting(module, name):
        solver = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return solver(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    for module, name in ((sym_gd, "run"), (asym_gd, "run_asym"), (eigenspace, "run_eig")):
        counting(module, name)
    solver_of = {"sym": "run", "asym": "run_asym", "eig": "run_eig", "bench": "run_eig"}
    for kind, payload in TINY_PER_KIND.items():
        calls.clear()
        result = run_experiment(parse_config(dict(payload, out_dir=str(tmp_path / kind))))
        assert calls == {solver_of[kind]: len(result.summary["runs"])}
        assert len(result.summary["runs"]) == {"sym": 2, "asym": 4, "eig": 1, "bench": 4}[kind]


def test_unwritable_out_dir(tmp_path):
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    cfg = parse_config(dict(MINIMAL_SYM, out_dir=str(blocker / "sub")))
    with pytest.raises(OSError):
        run_experiment(cfg)


# --- plotting --------------------------------------------------------------------

def _fake_csv(path, errors):
    with open(path, "w") as fh:
        fh.write("iter,error\n")
        for i, e in enumerate(errors):
            fh.write(f"{i},{e}\n")


def test_emit_plot_multi_curve(tmp_path):
    paths = []
    for k in range(3):
        p = tmp_path / f"curve{k}.csv"
        _fake_csv(p, np.geomspace(1.0, 10.0 ** (-3 - k), 50))
        paths.append(p)
    out = emit_plot(paths, tmp_path / "plot.svg")
    tree = ET.parse(out)  # valid XML
    polylines = [e for e in tree.iter() if e.tag.endswith("polyline")]
    assert len(polylines) == 3


def test_emit_plot_single_curve_and_zero_floor(tmp_path):
    p = tmp_path / "curve.csv"
    _fake_csv(p, [1.0, 1e-8, 0.0])  # exact zero must be clipped, not -inf
    out = emit_plot([p], tmp_path / "plot.svg")
    tree = ET.parse(out)
    polylines = [e for e in tree.iter() if e.tag.endswith("polyline")]
    assert len(polylines) == 1
    assert "inf" not in polylines[0].attrib["points"]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_emit_plot_leaves_non_finite_errors_out_of_the_axes(tmp_path):
    # An overflowed run records an inf error, then NaN; a healthy curve
    # plotted next to it keeps finite points and the labels stay numbers.
    healthy = run_experiment(parse_config(dict(MINIMAL_SYM, out_dir=str(tmp_path / "healthy")))).csv_paths
    overflowed = run_experiment(parse_config(dict(OVERFLOWING, out_dir=str(tmp_path / "overflow")))).csv_paths
    tree = ET.parse(emit_plot(healthy + overflowed, tmp_path / "plot.svg"))
    polylines = [e.attrib["points"].split() for e in tree.iter() if e.tag.endswith("polyline")]
    with open(healthy[0], newline="") as fh:
        assert len(polylines[0]) == len(list(csv.DictReader(fh)))
    points = [float(v) for line in polylines for point in line for v in point.split(",")]
    y_labels = [float(e.text) for e in tree.iter() if e.attrib.get("dominant-baseline") == "middle"]
    assert points and len(y_labels) == 5
    assert all(np.isfinite(points)) and all(np.isfinite(y_labels))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_emit_plot_labels_a_curve_with_no_finite_error(tmp_path):
    # The overflowed run's CSV holds inf, then NaN: no empty polyline, and
    # its legend label says why it has no curve.
    healthy = run_experiment(parse_config(dict(MINIMAL_SYM, out_dir=str(tmp_path / "healthy")))).csv_paths
    overflowed = run_experiment(parse_config(dict(OVERFLOWING, out_dir=str(tmp_path / "overflow")))).csv_paths
    tree = ET.parse(emit_plot(healthy + overflowed, tmp_path / "plot.svg"))
    assert len([e for e in tree.iter() if e.tag.endswith("polyline")]) == 1
    labels = [e.text for e in tree.iter() if e.attrib.get("text-anchor") == "end" and "fill" in e.attrib]
    assert labels == [Path(healthy[0]).stem, f"{Path(overflowed[0]).stem} (no finite error)"]


def test_emit_plot_rejects_empty_csv(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("iter,error\n")
    with pytest.raises(ValueError, match="no data rows"):
        emit_plot([p], tmp_path / "plot.svg")


# --- CLI ----------------------------------------------------------------------------

def test_cli_run_success(tmp_path, capsys):
    cfg_path = write_config(tmp_path, dict(MINIMAL_SYM, out_dir=str(tmp_path / "cli_out")))
    code = cli_main(["run", "--config", str(cfg_path), "--plot"])
    assert code == 0
    out = capsys.readouterr().out
    assert "summary:" in out
    assert (tmp_path / "cli_out" / "errors.svg").exists()


def test_cli_config_error_exit_code(tmp_path, capsys):
    cfg_path = write_config(tmp_path, dict(MINIMAL_SYM, etaa=1))
    assert cli_main(["run", "--config", str(cfg_path)]) == 2
    assert "etaa" in capsys.readouterr().err


def test_cli_divergence_exit_code(tmp_path, capsys):
    diverging = dict(
        MINIMAL_SYM,
        eta=1.0,
        init={"scheme": "moderate", "alpha": 1e8, "seed": 1},
        max_iters=1000,
        out_dir=str(tmp_path / "div"),
    )
    cfg_path = write_config(tmp_path, diverging)
    assert cli_main(["run", "--config", str(cfg_path)]) == 1
    assert "diverged" in capsys.readouterr().out


def test_cli_seed_override(tmp_path):
    cfg_path = write_config(tmp_path, dict(MINIMAL_SYM, out_dir=str(tmp_path / "s1")))
    assert cli_main(["run", "--config", str(cfg_path), "--seed", "9"]) == 0
    summary = json.loads((tmp_path / "s1" / "summary.json").read_text())
    assert summary["seed_base"] == 9 and summary["runs"][0]["seed"] == 9


def test_cli_bench_requires_bench_kind(tmp_path, capsys):
    cfg_path = write_config(tmp_path, MINIMAL_SYM)
    assert cli_main(["bench", "--config", str(cfg_path)]) == 2


def _cli_subprocess(tmp_path, payload, command="run", *options):
    """Run the CLI in a fresh interpreter, so a traceback would reach stderr."""
    cfg_path = write_config(tmp_path, dict(payload, out_dir=str(tmp_path / "out")))
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "lowrank_gd.cli", command, "--config", str(cfg_path), *options],
        capture_output=True, text=True, env=env, timeout=120,
    )


def _assert_config_error(proc, key):
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = [line for line in proc.stderr.splitlines() if line.startswith("config error:")]
    assert len(lines) == 1 and key in lines[0]


def test_cli_rejects_eta_above_one(tmp_path):
    _assert_config_error(_cli_subprocess(tmp_path, dict(MINIMAL_SYM, eta=2.0)), "'eta'")


def test_cli_rejects_a_nan_eta(tmp_path):
    proc = _cli_subprocess(tmp_path, dict(MINIMAL_SYM, eta=float("nan")))
    assert '"eta": NaN' in (tmp_path / "config.json").read_text()
    _assert_config_error(proc, "'eta'")


@pytest.mark.parametrize("kind", ["sym", "eig", "bench"])
def test_cli_rejects_indefinite_spectrum(tmp_path, kind):
    payload = dict(MINIMAL_SYM, kind=kind, dim=4, rank=2, spectrum={"explicit": [3, 2, 1, -1]})
    command = "bench" if kind == "bench" else "run"
    _assert_config_error(_cli_subprocess(tmp_path, payload, command), "'spectrum'")


def test_cli_rejects_non_numeric_explicit_spectrum(tmp_path):
    payload = dict(MINIMAL_SYM, spectrum={"explicit": ["a", "b"]})
    _assert_config_error(_cli_subprocess(tmp_path, payload), "'spectrum.explicit'")


NEGATIVE_ASYM = dict(MINIMAL_SYM, kind="asym", dim=4, rank=2, eta=0.05,
                     spectrum={"explicit": [-1, -2, -3, -4]})


def test_cli_asym_without_positive_eigenvalue_reports_unknown_theory(tmp_path):
    # The step size bound needs a positive top eigenvalue; the summary
    # reports it as unknown instead of crashing after the runs.
    proc = _cli_subprocess(tmp_path, NEGATIVE_ASYM)
    assert "Traceback" not in proc.stderr
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert proc.returncode == (1 if summary["any_diverged"] else 0), proc.stderr
    assert summary["eta_within_theory"] is None
    assert summary["alpha_regimes"] == {"0.5": "unknown"}
    assert len(summary["runs"]) == 2


def test_cli_rejects_small_scheme_without_a_bound(tmp_path):
    payload = dict(NEGATIVE_ASYM, init={"scheme": "small", "alpha": 0.5, "seed": 1})
    _assert_config_error(_cli_subprocess(tmp_path, payload), "'init.scheme'")


def test_cli_rejects_negative_seed_before_running(tmp_path):
    _assert_config_error(_cli_subprocess(tmp_path, MINIMAL_SYM, "run", "--seed", "-1"), "--seed")
    assert not (tmp_path / "out").exists()


def test_cli_reports_unwritable_output_directory(tmp_path):
    blocker = tmp_path / "a_file"
    blocker.write_text("")
    proc = _cli_subprocess(tmp_path, MINIMAL_SYM, "run", "--out", str(blocker / "sub"))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: output directory {blocker / 'sub'} is not writable")


def test_cli_eig_run_retracts_a_small_scale_frame(tmp_path):
    # Gram eigenvalues near 6e-15 at alpha 1e-7: the rank test of the
    # retraction is relative, so the rgd run completes instead of crashing.
    payload = dict(MINIMAL_SYM, kind="eig", dim=50, rank=2, spectrum={"experiment": {"hi": 7, "lo": 2}},
                   eta=0.05, epsilon=1e-4, max_iters=2000, method="rgd",
                   init={"scheme": "moderate", "alpha": 1e-7, "seed": 1})
    proc = _cli_subprocess(tmp_path, payload)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["runs"][0]["converged"]


# lambda_1^3 leaves the float range, and the iterates overflow to inf or NaN.
OVERFLOWING = dict(MINIMAL_SYM, dim=20, rank=2, eta=1.0, max_iters=50, init={"alpha": 100.0, "seed": 1},
                   spectrum={"explicit": [1.7e308, 1e308] + [1] * 18})


@pytest.mark.parametrize("kind, variant", [("sym", {}), ("eig", {"method": "retraction_free"}),
                                           ("eig", {"method": "rgd"}), ("asym", {})],
                         ids=["sym", "eig-rf", "eig-rgd", "asym"])
def test_cli_run_on_an_overflowing_spectrum_diverges_without_a_traceback(tmp_path, kind, variant):
    # Neither the terminal record nor the final state of an overflowed
    # iterate may raise; the CSVs and the summary are written. The summary's
    # theory fields are computed after every run: the step size bound
    # underflows towards 0 instead of raising OverflowError.
    proc = _cli_subprocess(tmp_path, dict(OVERFLOWING, kind=kind, **variant))
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["any_diverged"] and summary["runs"][0]["diverged"]
    assert all(Path(run["csv_path"]).exists() for run in summary["runs"])
    assert summary["eta_within_theory"] is False
    assert summary["alpha_regimes"] == {"100": "moderate"}


@pytest.mark.parametrize("kind, key, value", [("sym", "method", "rgd"), ("sym", "regularized", True),
                                            ("eig", "regularized", "both"), ("asym", "method", "both")])
def test_cli_rejects_the_variant_key_of_another_kind(tmp_path, kind, key, value):
    proc = _cli_subprocess(tmp_path, dict(MINIMAL_SYM, kind=kind, **{key: value}))
    _assert_config_error(proc, f"unknown config keys for kind '{kind}': {key}")


@pytest.mark.parametrize("kind", ["sym", "asym", "eig"])
def test_cli_names_an_init_alpha_that_overflows_the_initial_factor(tmp_path, kind):
    # 1e308 passes the number rule, but seed 3 draws an entry above 1.8, so
    # the scaled initial factor overflows before any run starts.
    payload = dict(MINIMAL_SYM, kind=kind, eta=0.05, max_iters=100, init={"alpha": 1e308, "seed": 3})
    proc = _cli_subprocess(tmp_path, payload)
    _assert_config_error(proc, "'init.alpha'")
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and "1e+308" in lines[0] and "seed 3" in lines[0]


def test_cli_checks_every_alpha_before_the_first_run_writes(tmp_path):
    # Only the second alpha overflows its draw; the config fails by name
    # before the first job writes its CSV, and no summary is written.
    payload = dict(MINIMAL_SYM, init={"alpha": [0.5, 1e308], "seed": 3})
    proc = _cli_subprocess(tmp_path, payload)
    _assert_config_error(proc, "'init.alpha'")
    out = tmp_path / "out"
    assert not list(out.glob("*.csv")) and not (out / "summary.json").exists()


def test_cli_rejects_a_bench_alpha_list(tmp_path):
    # A bench config times the two methods at one alpha; a list fails by
    # name before any run writes.
    payload = dict(MINIMAL_SYM, kind="bench", dim=6, rank=2, spectrum={"experiment": {"hi": 3, "lo": 2}},
                   eta=0.05, epsilon=1e-4, max_iters=2000, init={"alpha": [1.0, 1e-9], "seed": 1})
    _assert_config_error(_cli_subprocess(tmp_path, payload, "bench"), "'init.alpha': kind 'bench'")
    out = tmp_path / "out"
    assert not list(out.glob("*.csv")) and not (out / "summary.json").exists()


def test_cli_bench_takes_out_and_seed(tmp_path, capsys):
    payload = dict(MINIMAL_SYM, kind="bench", dim=6, rank=2, spectrum={"experiment": {"hi": 3, "lo": 2}},
                   eta=0.05, epsilon=1e-4, max_iters=2000, repeats=2, out_dir=str(tmp_path / "unused"))
    out = tmp_path / "bench_out"
    assert cli_main(["bench", "--config", str(write_config(tmp_path, payload)),
                     "--out", str(out), "--seed", "7"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["seed_base"] == 7
    assert sorted({run["seed"] for run in summary["runs"]}) == [7, 8]
    assert not (tmp_path / "unused").exists()


def _per_value_row(row) -> str:
    """The CSV rule value by value: bools as 0/1, integers in full, every
    other value as float with 17 significant digits."""
    def fmt(v):
        if isinstance(v, bool):
            return "1" if v else "0"
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        return format(float(v), ".17g")
    return ",".join(fmt(v) for v in row) + "\n"


@pytest.mark.parametrize("row", [
    (0, 0.5, float("nan"), float("inf"), -float("inf"), True, False),
    (12345678901234567890, np.int64(-7), np.float64(1 / 3), np.float64(-0.0), np.True_, np.False_),
    (5e-324, 2.2250738585072014e-308 / 3, -1e-310, 1.7976931348623157e308, np.float64(np.nan)),
    (np.int32(3), np.float32(0.1), 1, -2.5e-17),
])
def test_csv_row_format_matches_the_per_value_rule(row):
    assert harness._row_format(row) % row == _per_value_row(row)

