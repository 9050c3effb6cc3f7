"""Calls of the Schur and eigenvalue kernels per benchmark workload.

Usage, from any directory:

    python3 tools/kernel_counts.py --seed 11

Builds each workload's request pool exactly as ``bench/run.py`` does for
the seed and serves every request once with the ``ctred`` of this
checkout's ``src``, as ``tools/pool_digest.py`` does.  For each workload
it prints the calls of ``linalg._gees`` (real Schur form), ``_geev``
(eigenvalues), ``_is_real_schur`` (with how many found the form) and
``_block_eigenvalues`` (the spectrum of a Schur diagonal), and how many
``_gees`` calls of a request factorize again an array that an earlier
call of the same request factorized.  A second count takes the calls on
another array of the same shape and bytes: the state matrices of two
systems that are equal but distinct objects, which each request builds
anew by design, so these are not repeats.  Nothing is timed.
"""

import argparse
import hashlib
import os
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

KERNELS = ("_gees", "_geev", "_is_real_schur", "_block_eigenvalues")
COUNTS = ("_gees", "_gees repeats", "_gees equal content", "_geev", "_is_real_schur",
          "_is_real_schur found", "_block_eigenvalues", "crashes")


def _counting(linalg, counts: Counter, seen: dict):
    """Wrap each of ``KERNELS`` on ``linalg`` to count its calls in
    ``counts``; ``seen`` maps the hash of each ``_gees`` input of the
    current request to the arrays with that content."""
    def wrap(name, original):
        def counted(a, *args):
            counts[name] += 1
            result = original(a, *args)
            if name == "_is_real_schur":
                counts["_is_real_schur found"] += bool(result)
            elif name == "_gees":
                key = hashlib.sha256(repr(a.shape).encode() + a.tobytes()).digest()
                same = seen.setdefault(key, [])
                if any(a is b for b in same):
                    counts["_gees repeats"] += 1
                elif same:
                    counts["_gees equal content"] += 1
                same.append(a)
            return result
        return counted

    for name in KERNELS:
        setattr(linalg, name, wrap(name, getattr(linalg, name)))


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)

    os.chdir(ROOT)  # bench/run.py imports ctred from ./src
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import run  # pins the BLAS threads before numpy is imported
    import workloads

    from ctred import linalg

    counts, seen = Counter(), {}
    _counting(linalg, counts, seen)
    for name in workloads.WORKLOADS:
        wl, rounds = run.setup(name, args.seed)
        counts.clear()
        for req in (r for rnd in rounds for r in rnd):
            seen.clear()
            if run.serve(wl, req)[0] is None:
                counts["crashes"] += 1
        print(f"{name} seed {args.seed}: "
              + ", ".join(f"{key} {counts[key]}" for key in COUNTS))


if __name__ == "__main__":
    main()
