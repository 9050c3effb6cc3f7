"""Calls of the Schur and eigenvalue kernels, and the systems built, per
benchmark workload.

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
anew by design, so these are not repeats.

It also prints the systems built: the validating constructions (the
public constructor's ``__post_init__``, which copies and checks the
caller's arrays) and the private ones (``statespace._system``), and the
stable/antistable splits made (``decompose._make_split``, behind
``split_stable_unstable``) with how many of them split again a system
object that the same request already split.  Nothing is timed.
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
          "_is_real_schur found", "_block_eigenvalues", "validating constructions",
          "private constructions", "splits", "split repeats", "crashes")


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


def _counting_systems(statespace, decompose, counts: Counter, split: list):
    """Count the validating and the private constructions and the splits
    in ``counts``; ``split`` keeps the systems split in the current
    request (kept alive, so that no id is reused within it).  ``_system``
    is replaced in every ``ctred`` namespace that binds it."""
    cls, validate = statespace.StateSpaceSystem, statespace.StateSpaceSystem.__post_init__
    private, make_split = statespace._system, decompose._make_split

    def post_init(self):
        counts["validating constructions"] += 1
        validate(self)

    def system(*args, **kwargs):
        counts["private constructions"] += 1
        return private(*args, **kwargs)

    def counted_split(k):
        counts["splits"] += 1
        counts["split repeats"] += any(k is s for s in split)
        split.append(k)
        return make_split(k)

    cls.__post_init__ = post_init
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "ctred" and getattr(module, "_system", None) is private:
            module._system = system
    decompose._make_split = counted_split


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)

    os.chdir(ROOT)  # bench/run.py imports ctred from ./src
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import run  # pins the BLAS threads before numpy is imported
    import workloads

    from ctred import decompose, linalg, statespace

    counts, seen, split = Counter(), {}, []
    _counting(linalg, counts, seen)
    _counting_systems(statespace, decompose, counts, split)
    for name in workloads.WORKLOADS:
        wl, rounds = run.setup(name, args.seed)
        counts.clear()
        for req in (r for rnd in rounds for r in rnd):
            seen.clear()
            split.clear()
            if run.serve(wl, req)[0] is None:
                counts["crashes"] += 1
        print(f"{name} seed {args.seed}: "
              + ", ".join(f"{key} {counts[key]}" for key in COUNTS))


if __name__ == "__main__":
    main()
