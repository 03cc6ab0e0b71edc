"""Fresh-process probes, started by run.py.

    python3 probe.py setup SRC CONFIG
    python3 probe.py rss SRC CONFIG SEED OUT_DIR

``setup`` times importing lowrank_gd, ``load_config`` and building the
Target. ``rss`` does the same, runs the experiment once into OUT_DIR and
adds the process's peak resident memory. Both print one JSON line.
"""

import json
import resource
import sys
import time


def main(argv) -> int:
    mode, src, config_path = argv[:3]
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    from lowrank_gd import harness, spectrum

    t1 = time.perf_counter()
    config = harness.load_config(config_path)
    t2 = time.perf_counter()
    spectrum.make_diagonal_target(config.values, config.dim, config.rank)
    t3 = time.perf_counter()
    out = {"setup_s": t3 - t0, "import_s": t1 - t0, "parse_s": t2 - t1, "target_s": t3 - t2}
    if mode == "rss":
        seed, out_dir = int(argv[3]), argv[4]
        harness.run_experiment(config, out_dir=out_dir, seed_override=seed)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
