"""One SHA-256 per benchmark workload over every output of its seeded pool,
and one per ``ctred repro`` report.

Usage, from any directory:

    python3 tools/pool_digest.py --seed 11

Builds each workload's request pool exactly as ``bench/run.py`` does for
the seed, serves every request once with the ``ctred`` of this checkout's
``src`` and hashes every item: its op, error, verdict, cost bound, cost,
order and the shapes and bytes of the reduced realization.  Then it runs
``ctred repro`` for table1, unstable and scaling in a temporary directory
and hashes the bytes of each report (the scaling CSV rows included); the
reports do not depend on the seed.  Nothing is timed.  Two checkouts whose
digests agree at a seed produce byte-identical outputs on that seed's
pools and byte-identical repro reports.
"""

import argparse
import hashlib
import os
import struct
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _update(h, value) -> None:
    """Feed one item field to ``h``, tagged by its type."""
    if value is None:
        h.update(b"N")
    elif isinstance(value, bool):
        h.update(b"T" if value else b"F")
    elif isinstance(value, int):
        h.update(b"I" + str(value).encode())
    elif isinstance(value, float):
        h.update(b"D" + struct.pack("<d", value))
    elif isinstance(value, str):
        h.update(b"S" + value.encode() + b"\0")
    else:  # the reduced realization: a tuple of float64 arrays
        h.update(b"R")
        for a in value:
            h.update(repr(a.shape).encode() + a.tobytes())


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)

    os.chdir(ROOT)  # bench/run.py imports ctred from ./src
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import run  # pins the BLAS threads before numpy is imported
    import workloads

    for name in workloads.WORKLOADS:
        wl, rounds = run.setup(name, args.seed)
        h, count = hashlib.sha256(), 0
        for req in (r for rnd in rounds for r in rnd):
            items, _ = run.serve(wl, req)
            if items is None:  # a crash, not a typed refusal
                h.update(b"crash")
                continue
            for item in items:
                for value in (item.op, item.error, item.verdict, item.bound,
                              item.cost, item.order, item.reduced):
                    _update(h, value)
                count += 1
        print(f"{name} seed {args.seed}: {h.hexdigest()} ({count} items)")

    from ctred import cli

    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # the reports name their relative output paths
        for which in ("table1", "unstable", "scaling"):
            if cli.main(["--quiet", "repro", which]) != 0:
                raise SystemExit(f"ctred repro {which} failed")
            h = hashlib.sha256()
            for path in sorted(Path(tmp).glob(f"{which}_report.*")):
                h.update(path.name.encode() + b"\0" + path.read_bytes())
            print(f"repro {which}: {h.hexdigest()}")
        os.chdir(ROOT)


if __name__ == "__main__":
    main()
