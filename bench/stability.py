"""Stability mode: run the same code in two sets of seeded runs and check
every end-to-end metric against its bound in BENCHMARK.json.

    python3 bench/stability.py --workload exact-ladder [--workload ...]

Each set is ten runs of ``run_seconds`` (from BENCHMARK.json) with seeds
1 to 10.  For each workload and metric it prints, per set, the median
and the spread (distance between the first and third quartile of the
runs, as a share of their median), and the shift of the second set's
median against the first's in the metric's worse direction.  A metric
is steady when every spread is below a third of its bound and the shift
is within its bound; the unsteady ones are named at the end and make the
exit status 1.  Each run's result line is appended to
.bench_out/stability-<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import common

SPREAD_TARGET = 1 / 3  # of the bound, leaving room for a noisier machine
RUNS = 10
SETS = 2


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(common.BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=common.ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        failures = [line for line in proc.stdout.splitlines() if line.startswith("# FAILED")]
        raise RuntimeError(f"{workload} seed {seed} failed checks:\n" + "\n".join(failures))
    return result


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    args = parser.parse_args(argv)
    spec = common.load_spec()
    seconds = spec["run_seconds"]
    common.OUT_DIR.mkdir(exist_ok=True)

    unsteady = []
    for workload in args.workload:
        sets = []
        with (common.OUT_DIR / f"stability-{workload}.jsonl").open("a") as log:
            for s in range(SETS):
                runs = []
                for seed in range(1, RUNS + 1):
                    result = run_once(workload, seed, seconds)
                    log.write(json.dumps({"set": s, "seed": seed, **result}) + "\n")
                    log.flush()
                    runs.append(result["metrics"])
                sets.append(runs)
        print(f"{workload}: {RUNS} runs x {SETS} sets, {seconds} s each")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            values = [[run[name]["value"] for run in runs] for runs in sets]
            medians = [statistics.median(v) for v in values]
            spreads = [spread(v) for v in values]
            line = f"  {name:<12} bound {bound:.2f}  " + "  ".join(
                f"set{k + 1} median {med:.6g} spread {sp:.3f}"
                for k, (med, sp) in enumerate(zip(medians, spreads)))
            worse = (medians[1] - medians[0]) / medians[0]
            if m["better"] == "higher":
                worse = -worse
            line += f"  shift {worse:+.3f}"
            ok = all(sp < bound * SPREAD_TARGET for sp in spreads) and worse <= bound
            print(line + ("" if ok else "  NOT STEADY"))
            if not ok:
                unsteady.append(f"{workload}/{name}")
    if unsteady:
        print("not steady: " + ", ".join(unsteady))
        return 1
    print("all end-to-end metrics steady")
    return 0


if __name__ == "__main__":
    sys.exit(main())
