"""One SHA-256 per benchmark workload over every output of its seeded pool,
one per ``ctred repro`` report and one over ``ctred.gen``.

Usage, from any directory:

    python3 tools/pool_digest.py --seed 11

Builds each workload's request pool exactly as ``bench/run.py`` does for
the seed, serves every request once with the ``ctred`` of this checkout's
``src`` and hashes every item: its op, error, verdict, cost bound, cost,
order and the shapes and bytes of the reduced realization.  A second line
per workload hashes the full JSON of every certificate the six
``ctred.check_*`` functions returned while serving it (``to_dict()``
dumped with sorted keys, each ended by a NUL byte), so a changed
quantity, kind or note shows even where the verdict and cost bound
agree; a workload that makes no certificate prints the hash of nothing.
Then it runs ``ctred repro`` for table1, unstable and scaling in a
temporary directory and hashes the bytes of each report (the scaling CSV
rows included); the reports do not depend on the seed.  Last it hashes ``generate_instance``
for seeds 0-59 at each shape of ``GEN_SHAPES`` (the matrices of each
instance, or the type of the refusal) and ``GEN_DRAWS`` draws each of
``random_stable_minimal`` and ``random_antistable`` from one generator
seeded 0; this line does not depend on the seed either.  Nothing is
timed.  Two checkouts whose digests agree at a seed produce byte-identical
outputs and certificates on that seed's pools, byte-identical repro
reports and identical ``gen`` output.
"""

import argparse
import hashlib
import json
import os
import struct
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

GEN_SHAPES = ((3, 0), (4, 1), (5, 2), (6, 5))  # (order, n_unstable)
GEN_SEEDS = range(60)
GEN_DRAWS = 20  # of each random system kind, orders 1-5 in turn
CHECKS = ("check_lemma3", "check_thm1", "check_thm2_bound", "check_cor1",
          "check_cor2", "check_thm3")


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


def _recording(check, certs: list):
    """``check``, appending every certificate it returns to ``certs``."""
    def recorded(*args):
        cert = check(*args)
        certs.append(cert)
        return cert
    return recorded


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)

    os.chdir(ROOT)  # bench/run.py imports ctred from ./src
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import run  # pins the BLAS threads before numpy is imported
    import workloads

    import ctred

    certs = []  # the workloads look the checks up on ctred at call time
    for check in CHECKS:
        setattr(ctred, check, _recording(getattr(ctred, check), certs))

    for name in workloads.WORKLOADS:
        wl, rounds = run.setup(name, args.seed)
        certs.clear()
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
        h = hashlib.sha256()
        for cert in certs:
            h.update(json.dumps(cert.to_dict(), sort_keys=True).encode() + b"\0")
        print(f"{name} seed {args.seed} certificates: {h.hexdigest()} "
              f"({len(certs)} certificates)")

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
    print(f"gen: {_gen_digest()}")


def _gen_digest() -> str:
    """SHA-256 over the ``ctred.gen`` outputs listed in the module docstring."""
    import numpy as np
    from ctred import gen
    from ctred.errors import CtredError

    h = hashlib.sha256()

    def feed(make) -> None:
        try:
            systems = make()
        except CtredError as exc:
            _update(h, type(exc).__name__)
            return
        for s in systems:
            _update(h, (s.A, s.B, s.C, s.D))

    for order, n_unstable in GEN_SHAPES:
        for seed in GEN_SEEDS:
            feed(lambda: gen.generate_instance(order, n_unstable, seed))
    rng = np.random.default_rng(0)
    for draw in (gen.random_stable_minimal, gen.random_antistable):
        for i in range(GEN_DRAWS):
            feed(lambda: (draw(rng, 1 + i % 5),))
    return h.hexdigest()


if __name__ == "__main__":
    main()
