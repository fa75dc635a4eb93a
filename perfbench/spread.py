"""Run the benchmark once per seed and report each metric's run-to-run spread.

    python3 perfbench/spread.py --workload quickstart --seeds 1 2 3 4 5
    python3 perfbench/spread.py --workload quickstart mean_field_noise halfplane \\
        --seeds 0 1 2 3 4 5 6 7 8 9 --record perfbench/baseline.json --label seed

Runs `run.py` one seed after another (never two at once) and prints, per
workload and metric, the median, the quartiles as
`statistics.quantiles(values, n=4)` gives them, and the quartile distance
as a share of the median: the spread that BENCHMARK.json's bounds are
checked against.  `--record` appends the table, with the environment, to a
JSON list of entries.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(ln[4:]) for ln in lines if ln.startswith("env "))
    return json.loads(lines[-1]), env


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", nargs="+", required=True)
    p.add_argument("--seeds", nargs="+", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", type=Path)
    p.add_argument("--label", default="")
    args = p.parse_args()

    table, env = {}, None
    for workload in args.workload:
        values, units, failed, attempted = {}, {}, 0, 0
        for seed in args.seeds:
            t0 = time.perf_counter()
            result, env = run_once(workload, seed, args.seconds, args.trace)
            failed += result["failed"]
            attempted += result["attempted"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            print(f"{workload} seed {seed}: correct {result['correct']} "
                  f"({time.perf_counter() - t0:.1f} s wall) "
                  + " ".join(f"{k}={v[-1]:.6g}" for k, v in values.items()
                             if k in ("solve_s", "setup_s", "peak_rss_mb")),
                  flush=True)
        rows = {name: dict(summarize(v), unit=units[name]) for name, v in values.items()}
        table[workload] = {"runs": len(args.seeds), "solves_attempted": attempted,
                           "solves_failed": failed, "metrics": rows}
        for name, r in rows.items():
            spread = "n/a" if r["spread"] is None else f"{r['spread']:.4f}"
            print(f"  {workload:18s} {name:60s} median {r['median']:.6g} {r['unit']}"
                  f"  q1 {r['q1']:.6g}  q3 {r['q3']:.6g}  spread {spread}")

    if args.record:
        entries = json.loads(args.record.read_text()) if args.record.exists() else []
        entries.append({"label": args.label, "date": time.strftime("%Y-%m-%d"),
                        "seeds": args.seeds, "seconds": args.seconds,
                        "trace": args.trace, "env": env, "workloads": table})
        args.record.write_text(json.dumps(entries, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
