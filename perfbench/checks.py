"""Correctness checks on benchmark outputs; all run outside timed regions.

A solver run counts as failed when any of these hold:

* it diverged, or hit the iteration budget without converging;
* its CSV is missing or unparseable, or ends at another iteration than
  the summary reports;
* its final recorded error exceeds epsilon;
* its CSV bytes differ from the first run of the same seed in this
  benchmark invocation;
* it is the run re-solved through the public API for its variant, and
  the dense oracle error of that re-solve disagrees with the CSV's final
  error or misses epsilon.
"""

import csv
import hashlib
import math
import os
from pathlib import Path

import numpy as np

# Relative and absolute agreement required between a CSV's final error
# and the dense oracle error of the same run re-solved.
ORACLE_RTOL = 1e-6
ORACLE_ATOL = 1e-12

# Largest dimension for which the oracle materializes best_rank_r in
# full; larger diagonal targets are evaluated in row blocks.
DENSE_LIMIT = 2048
ROW_BLOCK = 256

# Directory names skipped when checking that a run left the checkout
# unchanged: version control, caches and build output.
SKIP_DIRS = {".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_build"}


def read_csv(path):
    """(final iteration, final error, sha256) of a run's CSV.

    Raises ValueError if the file lacks an iter/error header or a row
    does not parse as numbers; OSError if it cannot be read.
    """
    data = Path(path).read_bytes()
    rows = list(csv.reader(data.decode().splitlines()))
    if not rows:
        raise ValueError("empty file")
    header = rows[0]
    err_col = next((c for c in ("error", "proj_error") if c in header), None)
    if not header or header[0] != "iter" or err_col is None:
        raise ValueError(f"unexpected header {header}")
    if len(rows) < 2:
        raise ValueError("no data rows")
    col = header.index(err_col)
    last_iter = last_err = None
    for row in rows[1:]:
        if len(row) != len(header):
            raise ValueError(f"row of {len(row)} fields under a {len(header)}-column header")
        values = [float(v) for v in row]
        last_iter, last_err = int(values[0]), values[col]
    return last_iter, last_err, hashlib.sha256(data).hexdigest()


def run_failures(run: dict, epsilon: float, reference: dict | None):
    """Reasons one summary run failed, and its CSV digest (None if unreadable).

    ``reference`` maps CSV file names to the digests of the first
    experiment of this seed; None for that first experiment itself.
    """
    reasons = []
    if run["diverged"]:
        reasons.append("diverged")
    elif not run["converged"]:
        reasons.append("hit the iteration budget without converging")
    name = Path(run["csv_path"]).name
    try:
        last_iter, last_err, digest = read_csv(run["csv_path"])
    except (OSError, ValueError, UnicodeDecodeError) as exc:
        return reasons + [f"CSV missing or unparseable: {exc}"], None
    if last_iter != run["iterations"]:
        reasons.append(f"CSV ends at iteration {last_iter}, summary says {run['iterations']}")
    if not last_err <= epsilon:
        reasons.append(f"final recorded error {last_err:.3e} exceeds epsilon {epsilon:.1e}")
    if reference is not None and reference.get(name) != digest:
        reasons.append("CSV bytes differ from the first run of this seed")
    return reasons, digest


def experiment_failures(summary: dict, epsilon: float, reference: dict | None):
    """({csv name: [reasons]} for failed runs, {csv name: digest})."""
    failures, digests = {}, {}
    for run in summary["runs"]:
        name = Path(run["csv_path"]).name
        reasons, digest = run_failures(run, epsilon, reference)
        digests[name] = digest
        if reasons:
            failures[name] = reasons
    if reference is not None:
        for name in sorted(set(reference) - set(digests)):
            failures[name] = ["run of the first experiment is missing"]
    return failures, digests


# ---------------------------------------------------------------------------
# Dense oracle

def variant_params(lg, config, target) -> dict:
    """Variant name -> (alpha, regularized flag or eigen method) of the
    runs the harness writes for ``config``."""
    if config.kind == "bench":
        short = {"retraction_free": "rf", "rgd": "rgd"}
        return {short[m]: (config.alphas[0], m) for m in config.methods}
    return {name: (params["alpha"], params.get("regularized", params.get("method")))
            for name, _, _, params in lg.harness._build_jobs(config, target, 0)}


def dense_sym_error(lg, target, x) -> float:
    """||Sigma_r - X X^T||_F with Sigma_r from the dense best_rank_r oracle;
    above DENSE_LIMIT, the same matrix is formed ROW_BLOCK rows at a time."""
    d, r = target.dim, target.rank
    if d <= DENSE_LIMIT:
        return float(np.linalg.norm(lg.best_rank_r(target).sigma_r_matrix - x @ x.T, "fro"))
    if target.basis is not None:
        raise ValueError("blocked oracle needs a diagonal target")
    truncated = np.zeros(d)
    truncated[:r] = target.eigenvalues[:r]
    sq = 0.0
    for lo in range(0, d, ROW_BLOCK):
        hi = min(lo + ROW_BLOCK, d)
        block = -(x[lo:hi] @ x.T)
        idx = np.arange(lo, hi)
        block[idx - lo, idx] += truncated[lo:hi]
        sq += float(np.sum(block * block))
    return math.sqrt(sq)


def oracle_error(lg, config, target, seed: int, alpha: float, param) -> float:
    """Re-solve one run through the public solver API and measure its final
    iterate against the dense oracle."""
    d, r = config.dim, config.rank
    solver_cfg = lg.SolverConfig(eta=config.eta, epsilon=config.epsilon,
                                 max_iters=config.max_iters, record_every=config.max_iters)
    if config.kind == "sym":
        x0 = alpha * lg.gaussian_factor(d, r, seed)
        trace = lg.run(lg.FactorState(x0), target, solver_cfg)
        return dense_sym_error(lg, target, trace.final_state.x)
    if config.kind == "asym":
        n0, n1 = lg.gaussian_pair(d, d, r, seed)
        trace = lg.run_asym(lg.AsymState(alpha * n0, alpha * n1), target.matrix, solver_cfg,
                            regularized=param)
        x, y = trace.final_state.x, trace.final_state.y
        return float(np.linalg.norm(lg.best_rank_r(target).sigma_r_matrix - x @ y.T, "fro"))
    l0 = alpha * lg.gaussian_factor(d, r, seed)
    trace = lg.run_eig(lg.EigState(l0), target, solver_cfg, method=param)
    l = trace.final_state.l
    return float(np.linalg.norm(lg.best_rank_r(target).projector - l @ l.T, "fro"))


def oracle_failures(lg, config, summary: dict) -> dict:
    """Re-solve the first repeat of every variant and compare with its CSV.

    Returns {csv name: [reason]} for the runs that disagree."""
    target = lg.make_diagonal_target(config.values, config.dim, config.rank)
    params = variant_params(lg, config, target)
    failures = {}
    for run in summary["runs"]:
        if run["repeat"] != 0:
            continue
        name = Path(run["csv_path"]).name
        try:
            _, csv_err, _ = read_csv(run["csv_path"])
        except (OSError, ValueError, UnicodeDecodeError):
            continue  # already counted by run_failures
        alpha, param = params[run["variant"]]
        err = oracle_error(lg, config, target, run["seed"], alpha, param)
        if not err <= config.epsilon:
            failures[name] = [f"oracle error {err:.3e} of the re-solve misses epsilon"]
        elif abs(err - csv_err) > ORACLE_RTOL * max(err, csv_err) + ORACLE_ATOL:
            failures[name] = [f"oracle error {err:.6e} disagrees with CSV final error {csv_err:.6e}"]
    return failures


# ---------------------------------------------------------------------------
# Checkout integrity

def snapshot(root, exclude=()) -> dict:
    """{relative path: (size, mtime_ns)} of every file under ``root``
    outside SKIP_DIRS and the ``exclude`` directories."""
    root = Path(root)
    exclude = {Path(p).resolve() for p in exclude}
    state = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames
                       if d not in SKIP_DIRS and (Path(dirpath) / d).resolve() not in exclude]
        for name in filenames:
            path = Path(dirpath) / name
            st = path.lstat()
            state[str(path.relative_to(root))] = (st.st_size, st.st_mtime_ns)
    return state


def changed_files(before: dict, after: dict) -> list:
    """Paths added, removed or modified between two snapshots."""
    return sorted(p for p in set(before) | set(after) if before.get(p) != after.get(p))
