"""Record the reference summaries the output check compares against.

    python3 benchmarks/record_reference.py --seeds 0-39

clears every market of every workload once per seed and merges the
summaries (see ``check.summarise``) into ``benchmarks/reference/<workload>.json``.
References are recorded from a commit whose outputs are trusted and are
not re-recorded by a change that claims to keep the outputs.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="e.g. 0-39 or 0,3,7-9")
    parser.add_argument("--workload", choices=run.WORKLOADS, action="append")
    args = parser.parse_args(argv)
    if not run.use_checkout_package():
        return 2
    import check
    import workloads

    check.REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in args.workload or run.WORKLOADS:
        path = check.REFERENCE_DIR / f"{workload}.json"
        data = {"rtol": check.RTOL, "seeds": {}}
        if path.exists():
            with open(path) as fh:
                data = json.load(fh)
        for seed in parse_seeds(args.seeds):
            data["seeds"][str(seed)] = {
                m.id: check.summarise(m.clear()) for m in workloads.build(workload, seed)}
            print(f"recorded {workload} seed {seed}", flush=True)
            _write(path, data)
    return 0


def _write(path, data: dict) -> None:
    # one line per seed keeps the file diffable as seeds are added
    seeds = sorted(data["seeds"].items(), key=lambda kv: int(kv[0]))
    lines = [f"{json.dumps(seed)}: {json.dumps(summary, sort_keys=True)}"
             for seed, summary in seeds]
    with open(path, "w") as fh:
        fh.write(f'{{"rtol": {json.dumps(data["rtol"])}, "seeds": {{\n')
        fh.write(",\n".join(lines))
        fh.write("\n}}\n")


if __name__ == "__main__":
    sys.exit(main())
