"""Record the oracle: the output digest of every unit a run can make.

Runs every sub-seed of :data:`workloads.SEED_POOL` once per workload and
writes ``expected.json`` beside this file: the digests, and the pool
ranked by negotiations run (the order runs walk it in). Re-record only
when a change is *meant* to alter simulated outputs; a speed-up must
leave every digest as it is. Units with sub-seeds 1-8 are also checked against the
committed BENCH_E18/E22/E23 samples before anything is written.

    python3 qosbench/record.py [--workload NAME ...]
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads as W

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=W.WORKLOADS)
    args = parser.parse_args(argv)
    expected = {}
    if os.path.exists(W.EXPECTED):
        with open(W.EXPECTED) as fh:
            expected = json.load(fh)
    for workload in args.workload or W.WORKLOADS:
        samples = W.bench_samples(ROOT, workload)
        digests = {}
        negotiations = {}
        for seed in W.SEED_POOL[workload]:
            result = W.UNITS[workload](seed)
            if seed in samples and samples[seed] != {
                k: result.check[k] for k in samples[seed]
            }:
                print(f"{workload} seed {seed}: does not match the committed "
                      f"BENCH sample", file=sys.stderr)
                return 1
            digests[str(seed)] = W.digest(result.record)
            negotiations[seed] = result.negotiations
            print(workload, seed, result.negotiations, digests[str(seed)], flush=True)
        ranked = sorted(W.SEED_POOL[workload], key=lambda s: (negotiations[s], s))
        expected[workload] = {"digests": digests, "ranked": ranked}
        with open(W.EXPECTED, "w") as fh:
            json.dump(expected, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
