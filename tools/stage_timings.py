"""Time one analysis and one synthesis stage of the wavelet transform per shape.

Usage: python tools/stage_timings.py [--repeat N] [--filter NAME ...] [--rows R,R,...]

For every supported filter (or those named), every row count (by default
1, 3, 7, 14 and 128) and every level of h = 8, 16, ..., 256 and ``BLOCK``
outputs per parity, it prints the fastest of N timed loops, in
microseconds per call, of ``_analysis_stage`` on a (rows, 2h) level and of
``_synthesis_stage`` on (rows, h) approximation and detail blocks, and the
side of the small-stage rule the shape falls on: ``small`` when
h <= PLAN_LEVEL and 2 rows h <= PLAN_OUTPUTS (the stage gathers through a
cached index or plan), ``large`` otherwise.  Run it with PYTHONPATH set to
the ``src`` of the tree to time.  The 128-row ``BLOCK`` shapes hold about
130 MiB of temporaries.
"""

from __future__ import annotations

import argparse
import timeit

import numpy as np

from wavegplm import SUPPORTED_FILTERS, make_filter
from wavegplm.wavelet import (BLOCK, PLAN_LEVEL, PLAN_OUTPUTS, _analysis_stage,
                              _synthesis_stage)

LEVELS = (8, 16, 32, 64, 128, 256, BLOCK)


def fastest_us(call, repeat: int) -> float:
    """Fastest of ``repeat`` loops, each of about 5 ms or one call, in us per call."""
    timer = timeit.Timer(call)
    number, _ = timer.autorange()
    number = max(1, number // 40)
    return min(timer.repeat(repeat, number)) / number * 1e6


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=20)
    parser.add_argument("--filter", action="append", choices=SUPPORTED_FILTERS)
    parser.add_argument("--rows", default="1,3,7,14,128")
    args = parser.parse_args(argv)
    rng = np.random.default_rng(0)
    print(f"{'filter':14} {'rows':>5} {'h':>5} {'side':6} {'analysis_us':>12} "
          f"{'synthesis_us':>13}")
    for name in args.filter or SUPPORTED_FILTERS:
        filt = make_filter(name)
        for rows in map(int, args.rows.split(",")):
            for h in LEVELS:
                side = "small" if h <= PLAN_LEVEL and 2 * rows * h <= PLAN_OUTPUTS else "large"
                # analysis overwrites its level with an orthogonal transform
                # of it, so repeated calls keep the values finite
                level = rng.standard_normal((rows, 2 * h))
                approx, detail = rng.standard_normal((2, rows, h))
                analysis = fastest_us(lambda: _analysis_stage(level, filt), args.repeat)
                synthesis = fastest_us(lambda: _synthesis_stage(approx, detail, filt),
                                       args.repeat)
                print(f"{name:14} {rows:5d} {h:5d} {side:6} {analysis:12.2f} {synthesis:13.2f}",
                      flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
