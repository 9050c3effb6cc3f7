"""Certify-and-reduce benchmark for ctred.

Run from the repository root:

    python3 bench/run.py --workload stability_batch --seed 1 --seconds 20 --trace 0

Each workload is single-process and closed-loop: one client, and the next
request starts when the previous one returns.  ``--trace 0`` times whole
rounds of requests for ``--seconds`` and reports the end-to-end metrics
of ``BENCHMARK.json``; ``--trace 1`` alternates untraced and traced
passes over the first round and reports the per-layer metrics.  Outputs
are checked outside the timed region with code that shares nothing with
ctred.  The last line of standard output is the JSON result.
"""

import os

# Pinned before numpy is imported: two BLAS threads are slower than one
# on these small dense problems.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import zlib
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
RECORDS = HERE / ".records"
TRACES = HERE / ".traces"
SETUP_PROBES = 3
CAL_REPS = 10
CAL_REF_S = 0.02  # one calibration sample on the reference host, in seconds
CAL_EVERY_S = 0.5  # request time between calibration samples
PROBE_ORDERS = range(4, 17)
PROBE_PER_ORDER = 20
MIN_BEYOND_P90 = 10  # latency samples above p90, so that p90 rests on data
MIN_LATENCY_SAMPLES = 110  # leaves at least MIN_BEYOND_P90 beyond p90
MAX_SECONDS = 120  # a timed run that has not reached MIN_LATENCY_SAMPLES by then fails


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up, print 'ready' and exit (times set-up)")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def setup(name, seed):
    """Import ctred from ./src and generate the seeded request pool."""
    if not (SRC / "ctred" / "__init__.py").is_file():
        raise SystemExit(f"no ctred source under {SRC}; run from the repository root")
    sys.path.insert(0, str(SRC))
    import numpy as np

    import ctred

    if not Path(ctred.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"ctred was imported from {ctred.__file__}, not from ./src")
    import workloads

    if name not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; choose from "
                         f"{', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[name]
    rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
    rounds = [wl.round(rng) for _ in range(wl.pool_rounds)]
    return wl, rounds


def measure_setup(args):
    """Median wall time from process start to a ready request pool."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            proc.wait(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != b"ready" or proc.returncode != 0:
            raise SystemExit("set-up probe failed")
        times.append(elapsed)
    return statistics.median(times), times


def environment():
    import numpy as np
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def input_digest(rounds):
    import inputs

    arrays = []
    for req in (r for rnd in rounds for r in rnd):
        arrays += [*req.g, *req.k, *(req.detuned or ())]
    return inputs.digest(arrays)


# -- serving ---------------------------------------------------------------


def serve(wl, req, call=None):
    """Serve one request: ``(items, seconds)``.

    ``items`` is None for a request that crashed with an exception other
    than ctred's typed refusals.
    """
    start = time.perf_counter()
    try:
        items = (call or (lambda f, *a: f(*a)))(wl.serve, req)
    except Exception:  # a defect, not a typed refusal: count it and go on
        traceback.print_exc(file=sys.stderr)
        items = None
    return items, time.perf_counter() - start


def serve_round(wl, i, rnd, call=None):
    """``[(pool index, request, items, seconds)]`` of pool round ``i``."""
    out = []
    for j, req in enumerate(rnd):
        items, seconds = serve(wl, req, call and (lambda f, r, j=j: call(j, f, r)))
        out.append((i * 1000 + j, req, items, seconds))
    return out


def warm_up(wl, rounds):
    """Serve the first request of each kind once, untimed, so lazy imports
    and first-call set-up inside numpy and scipy are done."""
    first_of_kind = {}
    for req in rounds[0]:
        first_of_kind.setdefault(req.kind, req)
    for req in first_of_kind.values():
        serve(wl, req)


class HostSpeed:
    """Rescales wall time to a reference host speed.

    The benchmark shares its host, whose speed drifts by up to 2x within
    minutes.  A fixed calibration kernel of the kind of work ctred does
    (small dense eigen-, Schur, Lyapunov and linear solves called from
    Python, independent of ctred and of the seed) is timed between
    requests; a reference host runs one sample in ``CAL_REF_S``.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._mats = [rng.standard_normal((10, 10)) - 6.0 * np.eye(10) for _ in range(8)]
        self.samples = []

    def sample(self):
        import numpy as np
        import scipy.linalg as sla

        start = time.perf_counter()
        for _ in range(CAL_REPS):
            for a in self._mats:
                np.linalg.eigvals(a)
                sla.schur(a)
                sla.solve_continuous_lyapunov(a, -np.eye(10))
                np.linalg.solve(a, a[:, :1])
        self.samples.append(time.perf_counter() - start)

    def factor(self):
        """Reference seconds per wall second over the last two samples."""
        return CAL_REF_S / statistics.mean(self.samples[-2:])


# -- checks and counters -----------------------------------------------------


class Tally:
    """Counters of a run.

    Each round's outputs are checked with the oracle and compared with the
    recorded verdicts as soon as the round ends, outside the timed region,
    and then dropped: only counters, latencies and bound ratios are kept,
    so memory does not grow with the number of requests served.
    """

    def __init__(self, record):
        import workloads

        self.findings = workloads.Findings()
        self.record = record  # pool index -> verdict key of the first run
        self.changed = 0  # verdicts that differ from the record
        self.attempted = self.crashed = self.bad = 0
        self.items = self.failed_items = 0
        self.judged = {True: [0, 0], False: [0, 0]}  # is certificate -> [judged, passed]
        self.latencies_ms = []  # completed requests, reference-host time
        self.rounds = []  # per round: requests/s, reductions/s, wall requests/s, factor
        self.by_kind = {}  # kind -> latencies of completed requests

    def check(self, served):
        """Check ``[(index, request, items, seconds)]``; return the requests
        that ctred did not refuse outright, as ``(kind, seconds)``."""
        import workloads

        done = []
        for index, req, items, seconds in served:
            self.attempted += 1
            if items is None:
                self.crashed += 1
                self.bad += 1
                continue
            before = (self.findings.unsound, self.findings.wrong)
            workloads.check(req, items, self.findings)
            self.bad += (self.findings.unsound, self.findings.wrong) != before
            now = workloads.verdict_key(items)
            old = self.record.setdefault(str(index), now)
            self.changed += sum(a != b for a, b in zip(old, now)) + abs(len(old) - len(now))
            self.items += len(items)
            self.failed_items += sum(it.error is not None for it in items)
            for it in items:
                if it.is_certificate or (it.is_reduction and it.verdict is not None):
                    self.judged[it.is_certificate][0] += 1
                    self.judged[it.is_certificate][1] += it.verdict is True
            if not workloads.refused(items):
                done.append((req.kind, seconds))
        return done

    def add_round(self, served, wall):
        """Check a timed round, whose request times are in reference-host
        seconds and which took ``wall`` wall-clock seconds, and add its
        rates and latencies."""
        done = self.check(served)
        duration = sum(seconds for *_, seconds in served)
        reductions = sum(it.is_reduction and it.error is None
                         for _, _, items, _ in served if items for it in items)
        self.rounds.append((len(done) / duration, reductions / duration,
                            len(done) / wall, duration / wall))
        for kind, seconds in done:
            self.latencies_ms.append(seconds * 1e3)
            self.by_kind.setdefault(kind, []).append(seconds * 1e3)

    @property
    def correct(self):
        return self.findings.unsound == 0 and self.findings.wrong == 0 and self.crashed == 0


def load_record(name, seed, digest):
    """Verdicts of the first recorded run on the same inputs, by pool index."""
    try:
        return json.loads(record_path(name, seed, digest).read_text())
    except (OSError, ValueError):
        return {}


def record_path(name, seed, digest):
    return RECORDS / f"{name}-{seed}-{digest}.json"


def save_record(name, seed, digest, record):
    RECORDS.mkdir(exist_ok=True)
    record_path(name, seed, digest).write_text(json.dumps(record, sort_keys=True))


def timed_round(wl, i, rnd, host):
    """Serve pool round ``i``: ``[(pool index, request, items, seconds)]``
    with ``seconds`` in reference-host time, and the round's wall seconds.

    The host speed is sampled after each request that brings the request
    time since the last sample to ``CAL_EVERY_S``, and after the last one;
    each request's time is scaled by the speed of the two samples around it.
    """
    served, pending, since, wall = [], [], 0.0, 0.0
    for j, req in enumerate(rnd):
        items, seconds = serve(wl, req)
        pending.append((i * 1000 + j, req, items, seconds))
        since += seconds
        if since >= CAL_EVERY_S or j == len(rnd) - 1:
            host.sample()
            factor = host.factor()
            served += [(*p[:3], p[3] * factor) for p in pending]
            wall += since
            pending, since = [], 0.0
    return served, wall


def timed_run(wl, rounds, seconds, host, tally):
    """Whole rounds, started while the clock is under ``seconds`` or fewer
    than ``MIN_LATENCY_SAMPLES`` latencies are in, for at most
    ``MAX_SECONDS``."""
    warm_up(wl, rounds)
    host.sample()
    start = time.perf_counter()
    n = 0
    while (time.perf_counter() - start < seconds
           or len(tally.latencies_ms) < MIN_LATENCY_SAMPLES) \
            and time.perf_counter() - start < MAX_SECONDS:
        i = n % len(rounds)
        tally.add_round(*timed_round(wl, i, rounds[i], host))
        n += 1
    return time.perf_counter() - start


# -- metrics -----------------------------------------------------------------


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(tally, setup_s):
    """End-to-end metrics; times are in reference-host seconds.

    Rates are medians over rounds; rates and latencies count only requests
    that ctred did not refuse outright.  ``setup_s``, measured in wall
    seconds, is scaled by the median host speed of the timed rounds.
    """
    judged, passed = tally.judged[True] if tally.judged[True][0] else tally.judged[False]
    lat = tally.latencies_ms
    return {
        "requests_per_s": statistics.median(r[0] for r in tally.rounds),
        "reductions_per_s": statistics.median(r[1] for r in tally.rounds),
        "latency_p50_ms": statistics.median(lat),
        "latency_p90_ms": percentile(lat, 90),
        "pass_frac": passed / max(judged, 1),
        "completed_frac": 1.0 - tally.failed_items / max(tally.items, 1),
        "setup_s": setup_s * statistics.median(r[3] for r in tally.rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def select(spec, values, trace):
    """The metrics of ``spec`` with their units; every one must be present."""
    out = {}
    for m in spec:
        if m["name"] not in values:
            raise SystemExit(f"metric {m['name']} was not measured (trace={trace})")
        out[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    return out


def minimality_probe(seed):
    """``check_minimal`` rejections of PBH-minimal systems, by order."""
    import numpy as np

    import ctred
    import inputs

    rng = np.random.default_rng([seed, 0x5EED])
    rejected = {}
    for order in PROBE_ORDERS:
        rejected[order] = sum(
            not ctred.check_minimal(ctred.make_system(*inputs.pbh_probe_system(rng, order)))
            for _ in range(PROBE_PER_ORDER))
    return rejected


def layer_values(stats, eval_calls, absent, overhead, probe):
    values = {"statespace.eval.calls": eval_calls,
              "statespace.check_minimal.false_negatives": sum(probe.values()),
              "trace.overhead_ratio": overhead,
              "trace.absent_probes": len(absent)}
    for layer, st in stats.items():
        for key, val in st.items():
            values[f"{layer}.{key}"] = val
    values["norms.hamiltonian.solves"] = stats["norms.hamiltonian"]["calls"]
    peak = stats["norms.peak_gain"]["calls"]
    values["norms.fallback_rate"] = stats["norms.fallback"]["calls"] / peak if peak else 0.0
    return values


def traced_run(wl, rounds, seconds, name, seed, tally):
    """Alternate untraced and traced passes over the first round; the
    traced passes are checked into ``tally``."""
    import layers

    warm_up(wl, rounds)
    plain, traced, summaries = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        serve_round(wl, 0, rounds[0])
        plain.append(time.perf_counter() - t0)
        with layers.Tracer() as tracer:
            t0 = time.perf_counter()
            served = serve_round(wl, 0, rounds[0], call=tracer.request)
            traced.append(time.perf_counter() - t0)
        tally.check(served)
        summaries.append((tracer.summary(), tracer.eval_calls, tracer.absent))
        last_spans = tracer.spans
    # counts repeat exactly from pass to pass; times are medians over passes
    stats = {layer: {key: (statistics.median(s[0][layer][key] for s in summaries)
                           if key in ("s", "self_s") else value)
                     for key, value in last.items()}
             for layer, last in summaries[-1][0].items()}
    overhead = statistics.median(traced) / statistics.median(plain)
    TRACES.mkdir(exist_ok=True)
    (TRACES / f"{name}-{seed}.json").write_text(json.dumps(
        {"fields": ["layer", "start", "end", "parent", "request"], "spans": last_spans}))
    return stats, summaries[-1][1], summaries[-1][2], overhead, len(traced)


# -- main ----------------------------------------------------------------------


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.setup_probe:
        setup(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl, rounds = setup(args.workload, args.seed)
    env = environment()
    digest = input_digest(rounds)
    print(f"workload {wl.name}  seed {args.seed}  inputs {digest}  "
          f"({sum(map(len, rounds))} requests in {len(rounds)} rounds)")
    print("environment " + json.dumps(env))
    tally = Tally(load_record(wl.name, args.seed, digest))

    if args.trace:
        stats, eval_calls, absent, overhead, passes = traced_run(
            wl, rounds, args.seconds, wl.name, args.seed, tally)
        probe = minimality_probe(args.seed)
        values = layer_values(stats, eval_calls, absent, overhead, probe)
        metrics = select(spec["per_layer"], values, 1)
        print(f"traced passes {passes} over round 0 ({len(rounds[0])} requests); "
              f"overhead {overhead:.3f}; absent probes {absent or 'none'}")
        print(f"check_minimal false negatives by order {probe}")
        ranking = sorted(((st["self_s"], layer) for layer, st in stats.items()),
                         reverse=True)
        print("self time per pass: " + ", ".join(
            f"{layer} {t:.3f}s" for t, layer in ranking if t > 0))
    else:
        setup_s, setup_samples = measure_setup(args)
        elapsed = timed_run(wl, rounds, args.seconds, HostSpeed(), tally)
        values = end_to_end(tally, setup_s)
        metrics = select(spec["end_to_end"], values, 0)
        for name, m in metrics.items():
            print(f"  {name:<18} {m['value']:>12.4f} {m['unit']}")
        ratios = sorted(tally.findings.bound_ratios)
        print(f"  {'failed_frac':<18} {tally.failed_items / max(tally.items, 1):>12.4f} "
              f"ratio ({tally.failed_items} of {tally.items} reductions, "
              f"certificates and costs raised)")
        print(f"  {'unsound':<18} {tally.findings.unsound:>12d} count")
        if ratios:
            print(f"  {'bound_ratio_p50':<18} {statistics.median(ratios):>12.4f} ratio "
                  f"(over {len(ratios)} passing bound certificates)")
        print(f"  {'verdict_changes':<18} {tally.changed:>12d} count (against the first "
              f"recorded run on these inputs)")
        lat = tally.latencies_ms
        beyond = sum(t > values["latency_p90_ms"] for t in lat)
        print(f"  {tally.attempted} requests in {len(tally.rounds)} rounds over "
              f"{elapsed:.2f} s; {len(lat)} latency samples, {beyond} beyond p90")
        print(f"  wall clock: {statistics.median(r[2] for r in tally.rounds):.4f} "
              f"requests/s, set-up " + ", ".join(f"{t:.3f}" for t in setup_samples)
              + f" s; host speed factor {statistics.median(r[3] for r in tally.rounds):.3f}"
              " (reference seconds per wall second)")
        print("  median latency by kind: " + ", ".join(
            f"{k} {statistics.median(v):.1f} ms (n={len(v)})" for k, v in tally.by_kind.items()))
        if beyond < MIN_BEYOND_P90:
            raise SystemExit(f"only {beyond} latency samples beyond p90 "
                             f"(at least {MIN_BEYOND_P90} needed)")
    save_record(wl.name, args.seed, digest, tally.record)
    if not tally.correct:
        print(f"INCORRECT: {tally.findings.unsound} unsound, {tally.findings.wrong} wrong, "
              f"{tally.crashed} crashed requests")
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.bad, "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
