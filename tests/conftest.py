"""Shared helpers for sampling targets and states in the theory's regimes."""

import ctypes
import math

import numpy as np
import pytest

from lowrank_gd import (
    AsymState,
    EigState,
    FactorState,
    approximation_error,
    asym_error,
    balance_gap,
    best_rank_r,
    in_region_r,
    make_diagonal_target,
    proj_error,
    retract,
)
from lowrank_gd import linalg
from lowrank_gd.sym_gd import DEFAULT_REGION_SLACK


def openblas_core() -> str:
    """Core name of the OpenBLAS kernel that numpy loaded (``SkylakeX``,
    ``Haswell``, ...), read through ctypes from the BLAS library mapped into
    this process, or "unknown". An OpenBLAS built with DYNAMIC_ARCH picks
    its kernel by CPU at load time; ``OPENBLAS_CORETYPE`` overrides it."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "blas" in line.lower() and "/" in line})
    except OSError:
        return "unknown"
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename",
                       "openblas_get_corename64_", "openblas_get_corename"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_char_p
                return fn().decode()
    return "unknown"


def floor_target(d, flat, r=10):
    """A diagonal target: r values from 3 down to 2 over a flat floor of 0.5
    (``flat``; ``Sigma.split`` then has s = r) or over a tail falling from 1
    to 0.5 (s = d - 1)."""
    tail = np.full(d - r, 0.5) if flat else np.linspace(1.0, 0.5, d - r)
    return make_diagonal_target(np.concatenate([np.linspace(3.0, 2.0, r), tail]), d, r)


def multi_block_target(tail, r=10, flat=False):
    """A ``floor_target`` whose d x r factors fill two row blocks of the
    step kernels' one-block scratch (``linalg.block_rows``), plus ``tail``
    rows."""
    return floor_target(2 * linalg.block_rows(10**9, r) + tail, flat, r)


def random_orthogonal(rng, n):
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return q


def pad_square(state):
    """Zero-pad the shorter factor so both live in max(d1, d2) rows: the
    oracle that relates a rectangular problem to its square embedding."""
    d = max(state.x.shape[0], state.y.shape[0])
    x = np.zeros((d, state.rank))
    y = np.zeros((d, state.rank))
    x[: state.x.shape[0]] = state.x
    y[: state.y.shape[0]] = state.y
    return AsymState(x, y)


def random_psd_target(rng, d, r, equal_top=False):
    """Random diagonal PSD target with a safely positive eigengap."""
    vals = np.sort(rng.uniform(0.2, 5.0, d))[::-1]
    if vals[r - 1] - vals[r] < 0.05:
        vals[r:] *= 0.5
        vals = np.sort(vals)[::-1]
    if equal_top:
        vals[:r] = vals[0]
    return make_diagonal_target(vals, d, r)


def sample_state_in_region(rng, target):
    """Rejection sampling of factor states inside the absorbing region."""
    d, r = target.dim, target.rank
    lam1, lamr, gap = target.lambda_top, target.lambda_r, target.gap
    while True:
        su = np.sqrt(rng.uniform(gap / 4 * 1.02, min(2 * lam1, lamr) * 0.7, size=r))
        u = (random_orthogonal(rng, r) * su) @ random_orthogonal(rng, r)
        j = rng.normal(size=(d - r, r))
        j *= math.sqrt(rng.uniform(0.0, (lamr - gap / 2) * 0.8)) / np.linalg.norm(j, 2)
        state = FactorState(np.vstack([u, j]))
        if in_region_r(state, target, 0.0):
            return state


def scaled_random_state(rng, d, r, sigma1_cap):
    """Random d x r factor rescaled so sigma_1 is a uniform fraction of the cap."""
    x = rng.normal(size=(d, r))
    s1 = np.linalg.norm(x, 2)
    return x * (rng.uniform(0.05, 1.0) * sigma1_cap / s1)


# --- textbook oracles: the updates with fresh arrays, in the operation order
# --- Sigma v, minus x G, times eta, plus x; diagnostics from direct formulas

def textbook_sym_step(x, lam, eta):
    """X + eta (Sigma X - X (X^T X)) for Sigma = diag(lam)."""
    acc = lam[:, None] * x
    acc = acc - x @ (x.T @ x)
    return x + eta * acc


def textbook_asym_step(x, y, lam, eta, regularized):
    """The two-factor update for Sigma = diag(lam), the balancing term
    -(eta/2) X (X^T X - Y^T Y) (and + for Y) applied after the plain step."""
    gram_x, gram_y = x.T @ x, y.T @ y
    x_next = x + eta * (lam[:, None] * y - x @ gram_y)
    y_next = y + eta * (lam[:, None] * x - y @ gram_x)
    if regularized:
        imbalance = gram_x - gram_y
        x_next = x_next - (0.5 * eta) * (x @ imbalance)
        y_next = y_next + (0.5 * eta) * (y @ imbalance)
    return x_next, y_next


def textbook_rf_step(l, lam, eta):
    """L + eta (Sigma L - L (L^T Sigma L)) for Sigma = diag(lam)."""
    sl = lam[:, None] * l
    return l + eta * (sl - l @ (l.T @ sl))


def _sv(m):
    return np.linalg.svd(m, compute_uv=False)


def textbook_records(kind, state, target, eta, epsilon, max_iters, variant=None):
    """The records of repeated textbook steps from ``state`` (an array, or
    a pair for "asym"), one per iteration until the solver's stopping rule
    holds or ``max_iters`` runs out. ``variant`` is the asym ``regularized``
    flag or the eig method. The sym error is the library's block identity:
    a dense ||Sigma_r - X X^T||_F loses relative accuracy near 1e-6."""
    lam, r, slack = target.eigenvalues, target.rank, DEFAULT_REGION_SLACK
    oracle = best_rank_r(target)
    records = []
    for t in range(max_iters + 1):
        if kind == "sym":
            x = state
            s1x, s1j, sru = _sv(x)[0], _sv(x[r:])[0], _sv(x[:r])[-1]
            in_r2 = s1x**2 <= 2 * target.lambda_top + slack and s1j**2 <= target.lambda_r - target.gap / 2 + slack
            err = approximation_error(FactorState(x), target)
            records.append({
                "iter": t, "error": err, "sigma1_x": s1x, "sigma1_j": s1j, "sigmar_u": sru,
                "ratio": (s1j / sru) ** 2, "sigma1_p": _sv(np.diag(target.leading) - x[:r] @ x[:r].T)[0],
                "in_r": in_r2 and sru**2 >= target.gap / 4 - slack, "in_r2": in_r2,
            })
            done = err <= epsilon
        elif kind == "asym":
            pair = AsymState(*state)
            err, balance = asym_error(pair, target, r), balance_gap(pair)
            records.append({"iter": t, "error": err, "balance": balance})
            done = err <= epsilon and (not variant or balance <= epsilon)
        else:
            if variant == "rgd":
                state = retract(state)
            err = proj_error(EigState(state), oracle)
            records.append({"iter": t, "proj_error": err})
            done = err <= epsilon
        if done or t == max_iters:
            return records
        if kind == "sym":
            state = textbook_sym_step(state, lam, eta)
        elif kind == "asym":
            state = textbook_asym_step(*state, lam, eta, variant)
        else:
            state = textbook_rf_step(state, lam, eta)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
