"""Record one point of the benchmark trajectory.

    python3 perfbench/record.py

Runs run.py on every workload, once with ``--trace 0`` and once with
``--trace 1``, at the workload config's seed and BENCHMARK.json's
``run_seconds``, so that every point is recorded under the same
settings, and writes ``perfbench/results/<git sha>.json`` with the provenance
block and both metric sets of each workload.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import HERE, ROOT, WORKLOADS


def _run(workload: str, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    header = lines[0].split()
    prov = next(line for line in lines if line.startswith("provenance "))
    return {"seed": int(header[header.index("seed") + 1]),
            "provenance": json.loads(prov.split(" ", 1)[1]),
            "result": json.loads(lines[-1])}


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    workloads, prov = {}, None
    for name in WORKLOADS:
        plain = _run(name, seconds, 0)
        traced = _run(name, seconds, 1)
        prov = prov or plain["provenance"]
        workloads[name] = {
            "seed": plain["seed"],
            "correct": plain["result"]["correct"] and traced["result"]["correct"],
            "attempted": plain["result"]["attempted"] + traced["result"]["attempted"],
            "failed": plain["result"]["failed"] + traced["result"]["failed"],
            "end_to_end": plain["result"]["metrics"],
            "per_layer": traced["result"]["metrics"],
        }
        print(f"{name}: " + ", ".join(f"{k} {v['value']:.4g} {v['unit']}"
                                      for k, v in plain["result"]["metrics"].items()))
    out = HERE / "results" / f"{prov['git_sha'] or 'unknown'}.json"
    out.parent.mkdir(exist_ok=True)
    record = {"run_seconds": seconds, "provenance": prov, "workloads": workloads}
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
