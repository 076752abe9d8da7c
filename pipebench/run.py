"""Pipeline benchmark: certify C programs, end to end and layer by layer.

Run from the root of a checkout::

    python3 pipebench/run.py --workload certify-flat --seed 1 \
        --seconds 15 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``certify-flat`` — the 14 non-recursive catalog programs (Table 1 and
  ``funcptr/``) through the driver's stages, then a bound probe;
* ``certify-recursive`` — ``paper_example.c``, the 8 ``recursive/``
  programs and the ``binarytrees.c`` refusal (Table 2);
* ``serve-mixed`` — the ``repro serve`` daemon under a seeded request mix;
* ``campaign-deep`` — ``run_campaign`` with the semantics tiers on.

``--trace 0`` prints the end-to-end metrics.  Their timings,
``setup_s`` included, are wall times rescaled to a reference vCPU
speed by a fixed arithmetic loop timed next to every operation (see
``common.speed_probe``); the raw wall times are printed above the
result line.  ``--trace 1`` runs traced and untraced work side by
side, writes the span tree to ``.pipebench-work/<workload>.trace.json``
and prints the per-layer metrics, which are as measured.  The last
stdout line is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys

import common

WORKLOADS = ("certify-flat", "certify-recursive", "serve-mixed",
             "campaign-deep")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest program sets (the self-test)")
    parser.add_argument("--plant", choices=("wrong-answer", "crash"),
                        help="certify workloads: report every bound 4 "
                             "bytes low, or raise a non-ReproError in the "
                             "analyzer (the self-test's planted faults)")
    return parser.parse_args(argv)


def run_workload(args: argparse.Namespace) -> tuple:
    traced = bool(args.trace)
    if args.workload.startswith("certify-"):
        import certify
        return certify.run(args.workload, args.seed, args.seconds, traced,
                           args.smoke, args.plant)
    if args.workload == "serve-mixed":
        import serve_mix
        return serve_mix.run(args.seed, args.seconds, traced, args.smoke)
    import fuzz
    return fuzz.run(args.seed, args.seconds, traced, args.smoke)


def main(argv=None) -> int:
    args = parse_args(argv)
    common.setup_import_path()
    (common.WORK / "tmp").mkdir(parents=True, exist_ok=True)
    # Temporary files of this process and its children stay in the
    # checkout.
    os.environ["TMPDIR"] = str(common.WORK / "tmp")
    # A SIGTERM unwinds like an exception, so the children are stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    common.adopt_orphans()
    try:
        outcome, metrics = run_workload(args)
    finally:
        # No process of the run outlives it, on any path out.
        common.stop_children()
    traced = bool(args.trace)
    print(f"# {args.workload}: failed_share "
          f"{len(outcome.failures)}/{outcome.attempted}")
    units = common.metric_units(traced)
    unknown = sorted(set(metrics) - set(units)
                     - set(common.metric_units(not traced)))
    if unknown:
        raise SystemExit(f"pipebench: metrics missing from BENCHMARK.json: "
                         f"{unknown}")
    if traced:
        # A layer the workload does not exercise reads 0.
        metrics = {name: metrics.get(name, 0.0) for name in units}
    print(common.result_line(outcome, metrics, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
