"""Record golden.json: the outputs of the first ops of every workload on the default seed.

    python3 perfbench/record_golden.py

Run it on the commit whose outputs are the reference; every later run on
the default seed compares its ops against these values.  Ops past the
recorded count are still checked, except for the digests.
"""

import json
import shutil
import sys

from run import DEFAULT_SEED, HERE, OUT, import_program
from workloads import WORKLOADS

# Enough ops to cover a run of up to 60 s on a machine twice as fast as a
# 2-core Intel Xeon VM (about 2.7 s, 0.6 s and 29 s per op).
OPS = {"gh401-hosny6d-256": 48, "ieahf-cli-512": 200, "differential-white-256": 4}


def main() -> int:
    gh401 = import_program()
    golden = {"seed": DEFAULT_SEED, "workloads": {}}
    for name, cls in WORKLOADS.items():
        workdir = OUT / f"golden-{name}"
        workdir.mkdir(parents=True, exist_ok=True)
        w = cls(gh401, DEFAULT_SEED, str(workdir))
        entries = []
        try:
            for op in range(OPS[name]):
                inp = w.make_input(op, w.side)
                res = w.run(inp)
                problems = w.check(inp, res)
                if problems:
                    print(f"{name} op {op}: " + "; ".join(problems), file=sys.stderr)
                    return 1
                entries.append(w.golden(inp, res))
        finally:
            w.close()
            shutil.rmtree(workdir, ignore_errors=True)
        golden["workloads"][name] = entries
        print(f"{name}: {len(entries)} ops recorded", flush=True)
    with open(HERE / "golden.json", "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
