"""Time one cold ``table1`` set-up in a fresh process, for ``setup_s``.

    python3 perfbench/setup_child.py SEED

Builds the inputs of the workload seed and makes one warm-up call per
variant, which fills the e15 quantile caches and the LAPACK workspaces, and
prints the seconds both took.  Like run.py it times them after the imports
and the BLAS start.
"""

from __future__ import annotations

import sys
import time

import run


def main(seed):
    run.load_program()
    run.start_blas()
    configs = run.table1_configs()
    t0 = time.perf_counter()
    cases = run.workloads.build_table1(seed)
    for variant in run.workloads.VARIANTS:
        run.prank.filters.apply_filter(cases[0].noisy, configs[variant])
    print(time.perf_counter() - t0)


if __name__ == "__main__":
    main(int(sys.argv[1]))
