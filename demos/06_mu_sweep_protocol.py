"""The full benchmarking protocol, scaled to a coffee break.

The shipped protocol trains nine optimizer rows on a problem for 30
epochs over 10 seeds and reports mean top-1 error with best/second-best
marking.  This demo runs the real protocol on the MLP blobs problem with
a reduced seed count so it finishes in a few seconds, then prints the
Markdown table exactly as `adafamily sweep-mu` would.

Run the real thing from the shell:

    adafamily sweep-mu --mus 0,0.25,0.5,0.75,1 --problem blobs-mlp1 --seeds 10
"""

import time

from adafamily.harness import MU_GRID, run_grid, sweep_mu_configs
from adafamily.tables import emit_table


def main():
    configs = sweep_mu_configs(MU_GRID, "blobs-mlp1", seeds=range(3))
    print(f"running {len(configs)} configs x 3 seeds x 30 epochs ...")
    start = time.perf_counter()
    cells = run_grid(configs)
    print(f"done in {time.perf_counter() - start:.1f}s")
    print()
    print(emit_table(cells, format="md"))
    print("cells are mean top-1 error (percent) over seeds; bold is the")
    print("best column entry, italic the second best.  Rerunning this")
    print("script reproduces the table bit for bit.")


if __name__ == "__main__":
    main()
