"""Set-up child: import the package, synthesise a workload's records and
write them where the measuring process reads them.

    python3 perfbench/prepare.py WORKLOAD SEED POOL OUT_DIR

``wideband_cli`` records are written as signal CSV plus one config file,
the inputs of ``sparsespec analyze``; the in-process workloads get one
``records.npy``. The last stdout line is JSON with the fresh-process import
time of ``sparsespec.cli``. The parent times this whole process as one
set-up.
"""
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

_start = time.perf_counter()
import sparsespec.cli  # noqa: E402  (timed: what every CLI call pays)
IMPORT_S = time.perf_counter() - _start

import json  # noqa: E402

import numpy as np  # noqa: E402

from sparsespec.fileio import write_config, write_signal_csv  # noqa: E402
from sparsespec.lab import synthesize  # noqa: E402

import workloads  # noqa: E402


def main(argv: list[str]) -> int:
    name, seed, pool, out = argv[0], int(argv[1]), int(argv[2]), Path(argv[3])
    records = [synthesize(spec) for spec in workloads.specs(name, seed, pool)]
    if workloads.WORKLOADS[name].cli:
        write_config(out / "config.txt", workloads.config(name))
        for i, x in enumerate(records):
            write_signal_csv(out / f"record{i}.csv", x)
    else:
        np.save(out / "records.npy", np.stack([x.samples for x in records]))
    print(json.dumps({"import_s": IMPORT_S}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
