"""Benchmark of tpqr: one workload per run, every output checked.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: cli-oneshot, exact-ladder, fibration-sweep (see README.md).
With --trace 0 the run reports the end-to-end metrics of BENCHMARK.json;
with --trace 1 it alternates untraced and traced rounds and reports the
per-layer metrics, the tracing overhead among them, and writes the spans
to .bench_out/.  Lines before the last one are comments for people
(provenance, failures, every metric with its unit); the last line is the
JSON result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys

import common
import tracer as tr

WORKLOADS = {
    "cli-oneshot": "cli_oneshot",
    "exact-ladder": "exact_ladder",
    "fibration-sweep": "fibration_sweep",
}
SHOW_FAILURES = 10


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def end_to_end(workload, module_name, rounds) -> dict:
    """wall_s is the median round at the reference speed.  The children's
    peak RSS is read before the set-up probes spawn children of their own."""
    rss = common.peak_rss_mb(getattr(workload, "RSS_OF", resource.RUSAGE_SELF))
    setup, setup_ref = common.setup_seconds(module_name)
    print(f"# measured: setup_s {setup:.6g} s, wall_s {common.median(r.wall for r in rounds):.6g} s")
    return {
        "setup_s": setup_ref,
        "wall_s": common.median(r.wall_ref for r in rounds),
        "rss_peak_mb": rss,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (common.SRC / "tpqr" / "cli.py").is_file():
        print(f"error: no tpqr sources under {common.SRC}", file=sys.stderr)
        return 2
    common.pin_environment()
    spec = common.load_spec()
    module_name = WORKLOADS[args.workload]
    workload = importlib.import_module(module_name)
    print("# provenance " + json.dumps(common.provenance(args), sort_keys=True))

    state = workload.setup()
    tracer = tr.Tracer() if args.trace else None
    rounds = common.run_rounds(workload, state, args.seed, args.seconds, bool(args.trace), tracer)
    done = [d for r in rounds for d in r.done]
    failed = [d for d in done if d.errors]

    if args.trace:
        listed = spec["per_layer"]
        metrics = {**common.generic_layer_metrics(rounds, tracer),
                   **workload.layer_metrics(rounds, tracer)}
        path = common.write_spans(tracer, rounds, f"{args.workload}-seed{args.seed}")
        print(f"# spans: {len(tracer.spans)} written to {path.relative_to(common.ROOT)}")
    else:
        listed = spec["end_to_end"]
        metrics = end_to_end(workload, module_name, rounds)
    unknown = set(metrics) - {m["name"] for m in listed}
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")

    print(f"# rounds {len(rounds)}, requests {len(done)}, failed {len(failed)}, "
          f"fail_frac {len(failed) / len(done):.4f}")
    if not args.trace:
        latencies = [d.latency for d in done]
        tail = common.tail_pct(len(latencies))
        print(f"# request latency over {len(latencies)} requests: "
              f"p50 {common.median(latencies) * 1e3:.3f} ms, "
              f"p{tail:g} {common.percentile(latencies, tail) * 1e3:.3f} ms, "
              f"round walls {', '.join(f'{r.wall:.3f}' for r in rounds)} s, "
              f"slow-downs {', '.join(f'{r.wall / r.wall_ref:.3f}' for r in rounds)}")
    for d in failed[:SHOW_FAILURES]:
        print(f"# FAILED {d.request.kind}/{d.request.bucket} {d.request.payload!r}: "
              + "; ".join(d.errors)[:400])
    result = {}
    for m in listed:
        # A per-layer metric of a layer this workload does not run reads 0.
        value = float(metrics.get(m["name"], 0.0))
        result[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"# {m['name']} = {value:.6g} {m['unit']}")
    print(json.dumps({"correct": not failed, "attempted": len(done),
                      "failed": len(failed), "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
