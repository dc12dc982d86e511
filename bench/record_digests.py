"""Record the output digest of every workload for the given seeds.

    python3 bench/record_digests.py 0-40 1729

Writes bench/digests.json as {workload: {seed: sha256}}. A benchmark run
whose (workload, seed) has an entry checks every pass against it, so a
change that claims bit-identical outputs is held to the digests recorded
here. Run it only when outputs are meant to change, and say so.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import spec  # noqa: E402

os.environ.update(spec.THREAD_PINS)  # before numpy is imported

import worker  # noqa: E402


def parse_seeds(args: list[str]) -> list[int]:
    seeds = []
    for arg in args:
        lo, _, hi = arg.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main(argv: list[str]) -> int:
    from boundedkv import StreamConfig, run_stream

    path = HERE / "digests.json"
    table = json.loads(path.read_text()) if path.exists() else {}
    for name, workload in spec.WORKLOADS.items():
        for seed in parse_seeds(argv):
            run = run_stream(StreamConfig(**workload["config"], seed=seed))
            table.setdefault(name, {})[str(seed)] = worker.output_digest(run)
            print(name, seed, table[name][str(seed)], flush=True)
    table = {name: dict(sorted(rows.items(), key=lambda kv: int(kv[0]))) for name, rows in table.items()}
    path.write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
