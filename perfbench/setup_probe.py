"""Time one cold set-up of polarlink in this (fresh) interpreter.

Set-up is everything before the first trial can start: importing polarlink,
``plan_session(k)`` (which runs ``design_code`` and fills its caches), one
1-iteration ``bp_decode`` that fills the decoder's lazy caches, and, when
``--workers`` is above 1, starting a process pool of that size the way
``run_sweep`` does and waiting until every worker has answered.

Prints one JSON line: {"setup_s": <seconds>}.
"""

import argparse
import json
import os
import sys
import time
from pathlib import Path


def _pid():
    return os.getpid()


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--k", type=int, required=True)
    parser.add_argument("--workers", type=int, required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

    start = time.perf_counter()
    import numpy as np
    from polarlink.decoding import BpConfig, bp_decode
    from polarlink.protocol import plan_session

    plan = plan_session(args.k)
    bp_decode(np.zeros(plan.n_mother), plan.spec, BpConfig(max_iters=1, early_stop="none"))
    pool = None
    if args.workers > 1:
        # the default context, as run_sweep's ProcessPoolExecutor uses
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=args.workers)
        for f in [pool.submit(_pid) for _ in range(args.workers)]:
            f.result()
    elapsed = time.perf_counter() - start
    if pool is not None:
        pool.shutdown(wait=True)
    print(json.dumps({"setup_s": elapsed}))


if __name__ == "__main__":
    main()
