import math
import re
from pathlib import Path

import numpy as np
import pytest

from lowrank_gd import (
    FactorState,
    check_condition_1,
    gaussian_factor,
    gaussian_pair,
    in_region_r2,
    kappa,
    make_diagonal_target,
    small_alpha_bound,
    warmup_budget,
)
from lowrank_gd import experiment_spectrum, load_config, local_iteration_budget

ROOT = Path(__file__).resolve().parent.parent

TOY = make_diagonal_target([2.0, 1.0], 2, 1)


def col(*vals):
    return np.array(vals, dtype=float).reshape(-1, 1)


# --- gaussian_factor ---------------------------------------------------------

def test_gaussian_factor_deterministic():
    a = gaussian_factor(16, 3, seed=42)
    b = gaussian_factor(16, 3, seed=42)
    np.testing.assert_array_equal(a, b)


def test_gaussian_factor_seed_sensitivity():
    assert np.any(gaussian_factor(4, 2, seed=1) != gaussian_factor(4, 2, seed=2))


def test_gaussian_factor_variance():
    n = gaussian_factor(10000, 1, seed=7)
    assert np.var(n) == pytest.approx(1e-4, rel=0.05)


def test_gaussian_pair_scale_and_determinism():
    x1, y1 = gaussian_pair(40, 30, 2, seed=5)
    x2, y2 = gaussian_pair(40, 30, 2, seed=5)
    np.testing.assert_array_equal(x1, x2)
    np.testing.assert_array_equal(y1, y2)
    assert x1.shape == (40, 2) and y1.shape == (30, 2)


# --- kappa and the small-alpha bound ----------------------------------------

def test_kappa_hand_example():
    assert kappa(TOY, 0.05) == pytest.approx(math.log(1.05) / math.log(1.075), rel=1e-12)
    assert kappa(TOY, 0.05) == pytest.approx(0.6747, abs=1e-4)


def test_kappa_zero_tail():
    target = make_diagonal_target([2.0, 0.0], 2, 1)
    assert kappa(target, 0.1) == 0.0


def test_kappa_experiment_target():
    wide = make_diagonal_target(experiment_spectrum(7.0, 2.0, 10, 1000), 1000, 10)
    # cut sits at lambda_r = 2, lambda_{r+1} = 1, same as the toy
    assert kappa(wide, 0.05) == pytest.approx(kappa(TOY, 0.05))


def test_kappa_rejects_degenerate_denominator():
    target = make_diagonal_target([2.0, 1.0, 0.0], 3, 1)
    # lambda_r - gap/2 = 2 - 0.5 = 1.5 fine; craft a degenerate one instead
    degenerate = make_diagonal_target([1.0, -1.0], 2, 1)
    assert target.gap > 0
    with pytest.raises(ValueError, match="degenerate"):
        kappa(degenerate, 0.05)


def test_small_alpha_bound_kappa_zero():
    target = make_diagonal_target([2.0] + [0.0] * 99, 100, 1)
    assert kappa(target, 0.05) == 0.0
    assert small_alpha_bound(target, 0.05) == pytest.approx(0.01)


def test_small_alpha_bound_kappa_one_third():
    # with eta = 1: 1 + lambda_2 = (1 + (lambda_1 - gap/2))^(1/3) makes kappa exactly 1/3
    vals = [0.562] + [0.1] * 9
    target = make_diagonal_target(vals, 10, 1)
    assert kappa(target, 1.0) == pytest.approx(1.0 / 3.0, rel=1e-12)
    # exponent (1 + 1/3) / (1 - 1/3) = 2
    assert small_alpha_bound(target, 1.0) == pytest.approx(1e-2, rel=1e-10)


def test_small_alpha_bound_monotone_in_kappa_and_d():
    bounds = []
    for lam2 in (0.5, 0.9, 1.2):
        target = make_diagonal_target([2.0, lam2] + [0.1] * 8, 10, 1)
        k = kappa(target, 0.05)
        bounds.append((k, small_alpha_bound(target, 0.05)))
    ks = [k for k, _ in bounds]
    bs = [b for _, b in bounds]
    assert ks == sorted(ks)
    assert bs == sorted(bs, reverse=True)
    small_d = make_diagonal_target([2.0, 1.0] + [0.5] * 8, 10, 1)
    big_d = make_diagonal_target([2.0, 1.0] + [0.5] * 98, 100, 1)
    assert small_alpha_bound(big_d, 0.05) < small_alpha_bound(small_d, 0.05)


def test_small_alpha_bound_multiplier():
    assert small_alpha_bound(TOY, 0.05, 3.0) == pytest.approx(3 * small_alpha_bound(TOY, 0.05))


# --- condition 1 -------------------------------------------------------------

def test_condition_1_rejects_zero_init():
    report = check_condition_1(FactorState(col(0.0, 0.0)), TOY, 0.05)
    assert not report.holds
    assert not report.clauses[2].holds  # strict positivity of the signal


def test_condition_1_hand_example():
    report = check_condition_1(FactorState(col(0.01, 1e-6)), TOY, 0.05)
    assert report.holds and all(c.holds for c in report.clauses)
    # recompute the fourth clause by hand
    k = math.log(1.05) / math.log(1.075)
    c1 = 1.0 ** (1 - k / 2) / (2 ** (3 - k) * math.sqrt(2.0))
    assert report.clauses[3].margin == pytest.approx(c1 * 0.01 ** (1 + k) - 1e-12, rel=1e-9)


def test_condition_1_signal_window_upper():
    state = FactorState(col(math.sqrt(0.5), 1e-8))  # sigma_r^2(U0) = gap/2
    report = check_condition_1(state, TOY, 0.05)
    assert not report.clauses[2].holds
    assert not report.holds


def test_condition_1_implies_region_r2(rng):
    hits = 0
    while hits < 25:
        d, r = 7, 2
        vals = np.sort(rng.uniform(0.2, 3.0, d))[::-1]
        if vals[r - 1] - vals[r] < 0.1:
            continue
        target = make_diagonal_target(vals, d, r)
        alpha = 10.0 ** rng.uniform(-6, -1)
        state = FactorState(alpha * gaussian_factor(d, r, int(rng.integers(2**32))))
        report = check_condition_1(state, target, 0.01)
        if report.holds:
            hits += 1
            assert in_region_r2(state, target, 0.0)


def svd_condition_margins(x, target, eta):
    """The four clause margins with sigma_1(X), sigma_1(J) and sigma_r(U)
    taken from SVDs of the raw d x r blocks (valid for a diagonal target)."""
    r = target.rank
    s1x2 = np.linalg.svd(x, compute_uv=False)[0] ** 2
    s1j2 = np.linalg.svd(x[r:], compute_uv=False)[0] ** 2
    sru = np.linalg.svd(x[:r], compute_uv=False)[-1]
    lam1, lam_r, gap = target.lambda_top, target.lambda_r, target.gap
    k = kappa(target, eta)
    c1 = gap ** (1.0 - k / 2.0) / (2.0 ** (3.0 - k) * math.sqrt(lam1))
    return [lam1 - s1x2, lam_r - gap / 2.0 - s1j2, min(sru**2, gap / 4.0 - sru**2),
            c1 * sru ** (1.0 + k) - s1j2]


def test_condition_1_gram_margins_match_svd_formula(rng):
    # sigma_1(X) and sigma_1(J) come from the r x r Gram blocks; on diagonal
    # targets every margin matches the SVD formula to 1e-12 relative.
    cases = []
    while len(cases) < 40:
        vals = np.sort(rng.uniform(0.2, 3.0, 7))[::-1]
        if vals[1] - vals[2] >= 0.1:
            alpha = 10.0 ** rng.uniform(-6, -1)
            cases.append((make_diagonal_target(vals, 7, 2), alpha * gaussian_factor(7, 2, int(rng.integers(2**32))), 0.01))
    cfg = load_config(ROOT / "configs" / "sym_magnitudes.json")
    shipped = make_diagonal_target(cfg.values, cfg.dim, cfg.rank)
    cases += [(shipped, a * gaussian_factor(cfg.dim, cfg.rank, cfg.seed), cfg.eta) for a in cfg.alphas]
    for target, x, eta in cases:
        report = check_condition_1(FactorState(x), target, eta)
        want = svd_condition_margins(x, target, eta)
        for clause, margin in zip(report.clauses, want):
            assert clause.margin == pytest.approx(margin, rel=1e-12, abs=0.0), clause.name


# --- warm-up budget ----------------------------------------------------------

def test_warmup_budget_zero_inside_region():
    state = FactorState(col(0.5, 0.0))  # sigma_r^2 = 0.25 = gap/4
    assert warmup_budget(state, TOY, 0.05) == 0


def test_warmup_budget_formula():
    state = FactorState(col(0.01, 0.0))  # sigma_r^2 = 1e-4
    assert warmup_budget(state, TOY, 0.05) == 313


def test_warmup_budget_half_region():
    s = math.sqrt(TOY.gap / 8.0)
    state = FactorState(col(s, 0.0))
    expected = math.ceil((2.0 / (0.05 * TOY.gap)) * math.log(2.0))
    assert warmup_budget(state, TOY, 0.05) == expected


# --- bad arguments -----------------------------------------------------------

BAD_ARGUMENT_USERS = {
    # from outside gap/4 and from inside it, where the budget is 0 for any eta
    "warmup_budget": lambda eta: warmup_budget(FactorState(col(0.01, 0.0)), TOY, eta),
    "warmup_budget inside": lambda eta: warmup_budget(FactorState(col(0.5, 0.0)), TOY, eta),
    "local_iteration_budget": lambda eta=0.05, epsilon=1e-6: local_iteration_budget(TOY, eta, epsilon),
    "small_alpha_bound": lambda multiplier: small_alpha_bound(TOY, 0.05, multiplier),
}


@pytest.mark.parametrize("user, argument, value", [
    *((name, "eta", v) for name in ("warmup_budget", "warmup_budget inside", "local_iteration_budget")
      for v in (-0.05, 0.0, math.nan, math.inf)),
    *(("local_iteration_budget", "epsilon", v) for v in (-1.0, 0.0, math.nan, math.inf)),
    *(("small_alpha_bound", "multiplier", v) for v in (-1.0, 0.0, math.nan, math.inf)),
])
def test_budgets_and_bounds_reject_a_bad_argument_by_name(user, argument, value):
    # Without the check, warmup_budget returned a negative budget for a
    # negative eta and 0 for any eta inside gap/4, and small_alpha_bound a
    # negative, zero or NaN bound; NaN and 0 failed without naming the
    # argument.
    call = BAD_ARGUMENT_USERS[user]
    call(**{argument: 1.0 if argument == "multiplier" else 0.05})
    with pytest.raises(ValueError, match=f"^{argument} must be positive and finite"):
        call(**{argument: value})


@pytest.mark.parametrize("user, argument, value", [
    ("warmup_budget", "eta", 1e-320),
    ("local_iteration_budget", "epsilon", 1e-320),
    ("local_iteration_budget", "eta", 1e-300),
    ("local_iteration_budget", "eta", 1e-320),
])
def test_budgets_name_a_tiny_argument_that_overflows_them(user, argument, value):
    # Positive and finite, yet the budget leaves the float range: math.ceil
    # raised OverflowError on the infinite budget, and the last case
    # ZeroDivisionError on a denominator that underflowed to 0.
    with pytest.raises(ValueError, match=re.escape(f"{argument}={value}")):
        BAD_ARGUMENT_USERS[user](**{argument: value})
