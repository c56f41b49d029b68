"""The repository benchmark: one workload run, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cold_corpus --seed 1 --seconds 15 --trace 0

Workloads: ``cold_corpus``, ``warm_store``, ``serve_mixed`` (see
``perfbench/workloads.py`` and ``perfbench/README.md``).  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs the workload under
per-layer tracing and reports the per-layer metrics.  Every reported
finding set is checked against the generator's ground truth after the
timed phase; the run exits 1 on any failed operation or wrong verdict.
The last line of standard output is the result object.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: The end-to-end metrics of BENCHMARK.json: every workload reports each
#: of them (``app_s_p50`` is each workload's first-touch latency).
END_TO_END = ("setup_s", "ok_ratio", "verdict_ok_ratio", "peak_rss_mb",
              "app_s_p50")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("cold_corpus", "warm_store", "serve_mixed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import layers, workloads

    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        outcome = workloads.WORKLOADS[args.workload](
            args.seed, args.seconds, bool(args.trace), workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    mismatches = outcome.gate.mismatches()
    completed = outcome.attempted - outcome.failed
    checked = len(outcome.gate.records)
    print(f"{args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}: {outcome.attempted} attempted, "
          f"{outcome.failed} failed, {checked - len(mismatches)}/{checked} "
          "verdicts match ground truth")
    for line in mismatches:
        print(f"  VERDICT MISMATCH {line}")
    if not args.trace:
        print(f"  timings in reference seconds: measured x "
              f"{outcome.setup_factor:.4f} (set-up), "
              f"x {outcome.speed_factor:.4f} (timed phase); "
              "see perfbench/speed.py")

    if args.trace:
        moves = {name: why for name, _, _, why in layers.per_layer_catalogue()}
    else:
        outcome.add("ok_ratio", completed / outcome.attempted, "ratio",
                    outcome.attempted)
        outcome.add("verdict_ok_ratio",
                    (checked - len(mismatches)) / checked if checked else 0.0,
                    "ratio", checked)
        moves = {}
    result_metrics = {}
    for name, (value, unit, samples, reported) in outcome.metrics.items():
        note = f"  (n={samples})" if samples is not None else ""
        if name in moves:
            note += f"  moves: {moves[name]}"
        if not reported:
            note += "  (reference only, not in the result)"
        print(f"  {name:<36} {value:>14.6f} {unit}{note}")
        if reported:
            result_metrics[name] = {"value": value, "unit": unit}
    expected = set(moves) if args.trace else set(END_TO_END)
    if set(result_metrics) != expected:
        raise RuntimeError(
            f"reported metrics differ from BENCHMARK.json: "
            f"{sorted(set(result_metrics) ^ expected)}"
        )

    correct = outcome.failed == 0 and not mismatches and checked == completed
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": result_metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
