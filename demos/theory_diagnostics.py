"""Machine-checking the convergence theory on a single trajectory.

Starts inside the absorbing region at the largest step size the local
theory covers and watches three certified quantities along the run: the
noise-to-signal ratio (must contract by (1 - eta*gap/3) every step), the
signal residual (must stay under its geometric envelope), and region
membership (must never be lost). Also prints the closed-form iteration
budgets next to what the run actually needed.

Run:  python3 demos/theory_diagnostics.py
"""

import numpy as np

import lowrank_gd as lg

rng = np.random.default_rng(12)
target = lg.make_diagonal_target([2.0, 1.8, 1.5, 0.6, 0.5, 0.4, 0.3, 0.2], 8, 3)
eta = lg.max_step_size(target)
print(f"eigengap {target.gap}, step size eta = gap^2 / (36 lambda_1^3) = {eta:.5f}")

# rejection-sample a start inside the region
while True:
    u = np.diag(rng.uniform(np.sqrt(target.gap / 4) * 1.1, 1.0, 3))
    j = 0.05 * rng.normal(size=(5, 3))
    state = lg.FactorState(np.vstack([u, j]))
    if lg.in_region_r(state, target, 0.0):
        break

epsilon = 1e-6
budget = lg.local_iteration_budget(target, eta, epsilon)
print(f"closed-form local budget for epsilon={epsilon:g}: {budget} iterations")

ratio_factor = 1.0 - eta * target.gap / 3.0
envelope_scale = 100.0 * target.lambda_top**2 / (eta * target.gap**2)
envelope_decay = 1.0 - eta * target.gap / 4.0

ratio_prev = lg.noise_signal_ratio(state, target)
ratio_ok = envelope_ok = region_ok = True
t = 0
while lg.approximation_error(state, target) > epsilon:
    state = lg.gd_step(state, target, eta)
    t += 1
    region_ok &= lg.in_region_r(state, target, 1e-8)
    ratio = lg.noise_signal_ratio(state, target)
    ratio_ok &= ratio <= ratio_factor * ratio_prev + 1e-12
    ratio_prev = ratio
    envelope_ok &= lg.signal_residual(state, target) <= envelope_scale * envelope_decay**t + 1e-8

print(f"reached epsilon in {t} iterations ({t / budget:.1%} of the certified budget)")
print(f"never left the region:            {region_ok}")
print(f"ratio contracted at every step:   {ratio_ok}")
print(f"residual stayed under envelope:   {envelope_ok}")

# the deterministic entry condition, evaluated clause by clause; shrink the
# magnitude until every clause holds
alpha = 0.01
while True:
    x0 = lg.FactorState(alpha * lg.gaussian_factor(8, 3, seed=3))
    report = lg.check_condition_1(x0, target, eta)
    if report.holds:
        break
    alpha /= 2
print(f"\ndeterministic initialization condition holds at alpha={alpha:g}: {report.holds}")
for clause in report.clauses:
    print(f"  {clause.name}: {clause.holds} (margin {clause.margin:.3e})")
print(f"warm-up budget from this start: {lg.warmup_budget(x0, target, eta)} iterations")
