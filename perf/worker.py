"""One run of one workload in this process; the result is the last stdout line.

``perf/run.py`` starts this module in a fresh interpreter per run (``python -m
perf.worker`` with ``src/`` and the checkout root on ``PYTHONPATH``), so
``peak_rss_mb`` belongs to the workload alone and nothing cached by one run
reaches the next.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from perf import layers, workloads
from perf.tracer import Tracer


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=workloads.DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="write every span of a traced run to this CSV file")
    args = parser.parse_args(argv)

    tracer = Tracer() if args.trace else None
    result = workloads.run(workloads.WORKLOADS[args.workload], args.seed, args.seconds, tracer)
    if tracer is not None and args.spans:
        tracer.write(args.spans)
    result["units"] = {**workloads.END_TO_END, **layers.UNITS}
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
