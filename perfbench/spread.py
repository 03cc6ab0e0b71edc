"""Check that the end-to-end metrics are steady enough for their bounds.

    python3 perfbench/spread.py

For each of the sets of seeds in SETS, runs run.py with ``--trace 0``
on every workload at each seed and BENCHMARK.json's ``run_seconds``.
Per workload and metric it reports each set's median and quartile
spread (Q3 - Q1 over the median, quartiles as
``statistics.quantiles(values, n=4)`` gives them) and how much worse the
last set's median is than the first's. A metric passes when every
spread except that of ``setup_s`` and the median shift stay within its
bound. Writes ``perfbench/results/spread-<git sha>.json`` with every
per-seed value, and exits 1 if any run fails or any metric does not pass.
"""

import argparse
import json
import statistics
import subprocess
import sys

import provenance
from run import HERE, ROOT, WORKLOADS

# Two sets of ten seeds, as the benchmark's acceptance runs use.
SETS = (range(101, 111), range(201, 211))


def _run(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdicts(sets: list, bounds: dict) -> dict:
    """{metric: {medians, spreads, worse_by, bound, ok}} for one workload,
    from ``sets``, a list of {metric: [value per seed]}."""
    out = {}
    for name, (bound, better) in bounds.items():
        medians = [statistics.median(s[name]) for s in sets]
        spreads = [spread(s[name]) for s in sets]
        first, last = medians[0], medians[-1]
        worse_by = (last - first) / first if better == "lower" else (first - last) / first
        steady = name == "setup_s" or max(spreads) <= bound
        out[name] = {"medians": medians, "spreads": spreads, "worse_by": worse_by,
                     "bound": bound, "ok": steady and worse_by <= bound}
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}

    values = {w: [{name: [] for name in bounds} for _ in SETS] for w in WORKLOADS}
    ok = True
    for i, seeds in enumerate(SETS):
        for seed in seeds:
            for workload in WORKLOADS:
                result = _run(workload, seed, seconds)
                ok &= result["correct"] and result["failed"] == 0
                for name in bounds:
                    values[workload][i][name].append(result["metrics"][name]["value"])
                print(f"{workload} seed {seed} correct {result['correct']} " + " ".join(
                    f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)

    report = {}
    for workload, sets in values.items():
        report[workload] = verdicts(sets, bounds)
        for name, v in report[workload].items():
            ok &= v["ok"]
            print(f"{workload:15s} {name:17s} medians " + " ".join(f"{m:.5g}" for m in v["medians"])
                  + " spreads " + " ".join(f"{s:.3f}" for s in v["spreads"])
                  + f" worse_by {v['worse_by']:+.3f} bound {v['bound']} "
                  + ("ok" if v["ok"] else "FAIL"))
    prov = provenance.collect(ROOT)
    out = HERE / "results" / f"spread-{prov['git_sha'] or 'unknown'}.json"
    out.parent.mkdir(exist_ok=True)
    record = {"run_seconds": seconds, "sets": [list(s) for s in SETS],
              "provenance": prov, "values": values, "verdicts": report}
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
