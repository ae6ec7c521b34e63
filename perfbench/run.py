"""Seeded benchmark of the maxmin-auction library.

Run from the repository root:

    python3 perfbench/run.py --workload evaluate --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

One run builds the workload's inputs from the seed, runs one untimed traced
warm-up pass over them (exact work counts, reference values, checker
self-test), then runs the inputs in order, and round again, for
``--seconds``: a closed loop, one client, one process, one thread, BLAS
pinned to one thread.  With ``--trace 0`` every op is untraced and the run
reports the end-to-end metrics; with ``--trace 1`` untraced and traced runs
of each input alternate and the run reports per-layer self times, counts
and the tracing overhead.

End-to-end times are at the reference machine's speed: each op's wall time
is scaled by how long a fixed loop of interpreter and numpy work took around
it (see ``reference_loop``), an input's time is the median of its runs, and
latency percentiles are Harrell-Davis estimates over the inputs (see
``quantile``).  The process runs under a fixed allocator policy (see
``fix_allocator``).  The detail line also gives the times in plain
wall-clock seconds.  The last line of standard output is one JSON object;
the lines above it print every metric by name and unit, the known-defect
count, and the machine.
"""

import argparse
import itertools
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
NAMES = ("evaluate", "fine-grid", "improve", "design")
WARM_INPUTS = 100      # the untimed traced warm-up runs these first inputs
RUNS_PER_INPUT = 1     # untraced runs of each input, at least
# Times are reported at the speed at which reference_loop takes this long
# (about its time on an Intel Xeon with 2 vCPUs, Python 3.11.7, numpy 2.4.6,
# where it ranged from 1.0 to 1.6 ms as the shared host's load changed).
REFERENCE_LOOP_S = 1.0e-3
REFERENCE_WINDOW = 31  # an op is scaled by the median loop time of this many ops
SETUP_PROBES = 5
PROBE_LIMIT_S = 120

END_TO_END = [("ops_per_s", "1/s"), ("latency_p50_ms", "ms"),
              ("latency_p90_ms", "ms"), ("setup_s", "s"),
              ("peak_rss_mb", "MB")]
# span name -> per-layer metric; each is mean self time per traced op
SELF_METRICS = {
    "nature.grid": "nature.grid_s",
    "nature.table": "nature.table_s",
    "nature.lp": "nature.lp_self_s",
    "nature.guarantee": "nature.guarantee_self_s",
    "nature.wc_construct": "nature.wc_construct_s",
    "simplex.solve": "simplex.solve_s",
    "dual.guarantee": "dual.guarantee_self_s",
    "solve.optimal": "solve.optimal_s",
    "improve.dominating": "improve.dominating_self_s",
    "improve.split": "improve.split_s",
    "improve.minorant": "improve.minorant_s",
    "improve.fixed_point": "improve.fixed_point_s",
    "improve.audit": "improve.audit_s",
    "optset.member": "optset.member_s",
    "cli": "cli.self_s",
    "core.grid_from_lsa": "core.grid_from_lsa_s",
    "op": "bench.self_s",
}
COUNT_METRICS = [("nature.grid_nodes", "count"), ("nature.grid_unclosed", "count"),
                 ("nature.lp_support_ratio", "ratio"), ("simplex.calls", "count"),
                 ("simplex.columns", "count"), ("wrong_ops", "count"),
                 ("wrong_ratio", "ratio"), ("error_ratio", "ratio")]
PER_LAYER = ([(m, "s/op") for m in SELF_METRICS.values()]
             + [("trace.op_s", "s/op"), ("trace_overhead", "ratio")]
             + COUNT_METRICS)


def import_program():
    """Import the library from this checkout's ``src``, never from elsewhere."""
    package = SRC / "maxmin_auction" / "__init__.py"
    if not package.is_file():
        sys.exit(f"perfbench: {package.relative_to(ROOT)} not found; run from "
                 "a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import maxmin_auction
    if Path(maxmin_auction.__file__).resolve() != package.resolve():
        sys.exit("perfbench: imported maxmin_auction from outside the checkout")


def fix_allocator():
    """Have glibc keep freed memory for reuse: no allocation below 1 GiB is
    mapped afresh and the heap is never trimmed.

    glibc's default thresholds move with the sizes of the blocks freed so
    far, so how often the large LP arrays are mapped afresh and page-faulted
    in depends on the order in which one process happened to free them: on
    fine-grid, 0.40M to 0.77M page faults in 8 s for pools of one size, and
    the n = 3 ops' median time moved with them by up to 40%.  With fixed
    thresholds every run pays the same, near zero, page-fault cost.  Returns
    whether the policy could be set (glibc only).
    """
    import ctypes

    try:
        libc = ctypes.CDLL("libc.so.6")
        m_trim_threshold, m_mmap_threshold = -1, -3
        return bool(libc.mallopt(m_mmap_threshold, 1 << 30)
                    and libc.mallopt(m_trim_threshold, 1 << 30))
    except (OSError, AttributeError):
        return False


def machine(allocator_fixed) -> dict:
    import numpy as np

    info = {"nproc": len(os.sched_getaffinity(0)),
            "allocator_thresholds_fixed": allocator_fixed,
            "cpu": platform.processor() or platform.machine(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas_threads": {v: os.environ.get(v) for v in (
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    info["caches"] = caches
    return info


def reference_loop():
    """Fixed work that runs no program code, timed right before every op and
    set-up probe.

    The shared machine's speed drifts by up to 2x over seconds to minutes.
    The program's ops are interpreter loops, small-array numpy calls and
    pivot-like sweeps over wider arrays; this loop does the same three kinds
    of work, so dividing an op's time by the loop's time around it cancels
    most of the drift.  An op is scaled by the median of REFERENCE_WINDOW
    loop times centred on it (see ``at_reference_speed``), which follows the
    drift without adding the jitter of a single 1 ms loop to every op.
    """
    import numpy as np

    acc = 0.0
    for i in range(1500):
        acc += i * i % 7
    small = np.arange(24.0).reshape(4, 6)
    wide = np.linspace(0.0, 1.0, 4 * 8192).reshape(4, 8192)
    for i in range(40):
        b = small * 1.0001 + i
        j = int(np.argmin(b[:, i % 6]))
        small -= np.outer(b[:, 0], b[j]) * 1e-9
        acc += float(np.clip(b, 0.0, 5.0).sum())
        if i % 10 == 0:
            wide -= np.outer(wide[:, 1], wide[j]) * 1e-9
    return acc


def reference_time(seconds, loop_seconds):
    """``seconds`` expressed at the reference machine's speed."""
    return seconds * REFERENCE_LOOP_S / loop_seconds


def at_reference_speed(log):
    """``(input, traced, wall, loop)`` records in the order they ran ->
    ``(input, traced, wall, reference-speed)``, each op scaled by the median
    loop time of the REFERENCE_WINDOW records centred on it."""
    loops = [rec[3] for rec in log]
    half = REFERENCE_WINDOW // 2
    return [(i, traced, wall, reference_time(wall, statistics.median(
                loops[max(0, k - half):k + half + 1])))
            for k, (i, traced, wall, _) in enumerate(log)]


def quantile(values, q):
    """Harrell-Davis estimate of the ``q``-th percentile of a nonempty sample:
    the mean of all order statistics, weighted by how much of the
    Beta((n + 1) q / 100, (n + 1) (1 - q / 100)) density falls between
    consecutive ranks.

    The workloads' op times have sparse heavy tails (score auctions take up
    to 20 times the median), where a single order statistic jumps between
    samples; the weighted mean varies much less from seed to seed.
    """
    import numpy as np

    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    if n == 1:
        return float(x[0])
    a, b = (n + 1) * q / 100, (n + 1) * (1 - q / 100)
    steps = 64                                 # midpoint rule per rank
    u = (np.arange(steps * n) + 0.5) / (steps * n)
    log_pdf = (a - 1) * np.log(u) + (b - 1) * np.log1p(-u)
    w = np.exp(log_pdf - log_pdf.max()).reshape(n, steps).sum(axis=1)
    return float(w @ x / w.sum())


def setup_probe(name, seed):
    """Fresh-interpreter body: import the library, build the first input,
    finish the first operation."""
    import numpy as np
    import workloads

    wl = workloads.WORKLOADS[name]
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as wd:
        entry = wl.build(np.random.default_rng(seed), 1, wd)[0]
        wl.run(entry)


def setup_times(name, seed):
    """SETUP_PROBES fresh-interpreter probes, each after three reference
    loops; every probe is scaled by the median of all the loops.  The wait
    blocks in waitpid, which returns when the probe exits (a wait with a
    timeout polls, up to 50 ms late); the probe limits itself instead."""
    raw, loops = [], []
    for _ in range(20):                        # numpy's first calls are slow
        reference_loop()
    for _ in range(SETUP_PROBES):
        for _ in range(3):
            t0 = time.perf_counter()
            reference_loop()
            loops.append(time.perf_counter() - t0)
        t1 = time.perf_counter()
        subprocess.run([sys.executable, str(Path(__file__).resolve()),
                        "--probe-setup", "--workload", name, "--seed", str(seed)],
                       cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        raw.append(time.perf_counter() - t1)
    loop = statistics.median(loops)
    return [reference_time(r, loop) for r in raw], raw


class Tally:
    """Checks every output and counts wrong, known-defect and error ops."""

    def __init__(self, wl):
        import workloads

        self.wl = wl
        self.known, self.error_names = workloads.KNOWN_DEFECTS, workloads.ERRORS
        self.ops = self.wrong = self.known_wrong = self.errors = 0
        self.failures: dict[str, int] = {}
        self.wrong_inputs: set[int] = set()     # id() of pool entries
        self.reported = 0

    def add(self, entry, out):
        self.ops += 1
        if isinstance(out, BaseException):
            fails = ["exception"]
            if self.reported < 3:
                self.reported += 1
                sys.stderr.write("".join(traceback.format_exception(out)))
        else:
            fails = self.wl.check(entry, out)
        for f in fails:
            self.failures[f] = self.failures.get(f, 0) + 1
        if "exception" in fails or set(fails) & self.error_names:
            self.errors += 1
        elif fails:
            self.wrong += 1
            self.wrong_inputs.add(id(entry))
            if set(fails) <= self.known:
                self.known_wrong += 1

    @property
    def unexpected(self):
        return self.wrong - self.known_wrong


def attempt(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:        # reported through the tally, never hidden
        return exc


def self_test(wl, pool, outputs) -> tuple[int, int]:
    """Feed each checker wrong copies of real outputs; count those caught."""
    tried = caught = 0
    for entry, out in list(zip(pool, outputs))[:12]:
        if isinstance(out, BaseException):
            continue
        for target, bad in wl.mutations(entry, out):
            probe = Tally(wl)
            probe.add(entry, bad)
            tried += 1
            flagged = probe.failures.get(target, 0) == 1
            counted = probe.errors + probe.wrong == 1
            caught += flagged and counted
    probe = Tally(wl)
    probe.reported = 3                               # keep stderr quiet
    probe.add(pool[0], attempt(_raise))
    tried += 1
    caught += probe.errors == 1
    return tried, caught


def _raise():
    raise RuntimeError("injected failure")


def timed(fn, entry, tally):
    """Run one op after the reference loop; check it, untimed.  Returns the
    op's wall time and the loop's."""
    t0 = time.perf_counter()
    reference_loop()
    t1 = time.perf_counter()
    out = attempt(fn, entry)
    t2 = time.perf_counter()
    tally.add(entry, out)
    return t2 - t1, t1 - t0


def measure(wl, pool, seconds, tracer, tally):
    """Closed loop over the pool, in order and round again, until
    ``seconds`` have passed and, untraced, every input has run at least
    RUNS_PER_INPUT times.  With a tracer each input runs untraced and then
    traced, back to back, until ``seconds`` have passed.  Returns each
    input's untraced and traced (wall, reference-speed) times and the
    median reference loop time."""
    from spans import ROOT as ROOT_SPAN

    log = []
    deadline = time.perf_counter() + seconds
    for k in itertools.count():
        i = k % len(pool)
        log.append((i, False, *timed(wl.run, pool[i], tally)))
        if tracer is not None:
            tracer.install()
            try:
                log.append((i, True, *timed(
                    lambda e: tracer.call(ROOT_SPAN, wl.run, e), pool[i], tally)))
            finally:
                tracer.restore()
        enough = k >= RUNS_PER_INPUT * len(pool) - 1
        if time.perf_counter() >= deadline and (tracer or enough):
            break
    untraced = [[] for _ in pool]
    traced_times = [[] for _ in pool]
    for i, traced, wall, ref in at_reference_speed(log):
        (traced_times if traced else untraced)[i].append((wall, ref))
    return untraced, traced_times, statistics.median(rec[3] for rec in log)


def bench(name, seed, seconds, trace, allocator_fixed):
    import numpy as np
    import spans
    import workloads

    wl = workloads.WORKLOADS[name]
    setup, setup_wall = setup_times(name, seed) if not trace else (None, None)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as wd:
        pool = wl.build(np.random.default_rng(seed), wl.pool_size, wd)
        warm_tracer = spans.Tracer()
        with warm_tracer:
            warm = [attempt(warm_tracer.call, spans.ROOT, wl.run, e)
                    for e in pool[:WARM_INPUTS]]
        counts = spans.counts(warm_tracer.spans)
        del warm_tracer
        for e in pool:
            wl.reference(e)
        warm_tally = Tally(wl)
        for e, out in zip(pool, warm):
            warm_tally.add(e, out)
        tried, caught = self_test(wl, pool, warm)
        del warm

        tally = Tally(wl)
        tracer = spans.Tracer() if trace else None
        untraced, traced_times, loop_s = measure(wl, pool, seconds, tracer,
                                                 tally)

    def median_of(times, which):
        return [statistics.median(x[which] for x in t) for t in times if t]

    # An input's op time is the median of its runs, at reference speed.
    typical = median_of(untraced, 1)
    detail = {
        "workload": name, "seed": seed, "trace": trace, "pool": len(pool),
        "ops": tally.ops, "latency_samples": len(typical),
        "runs_per_input": [min(map(len, untraced)), max(map(len, untraced))],
        "wrong_inputs": len(tally.wrong_inputs), "wrong": tally.wrong,
        "known_defect": tally.known_wrong, "errors": tally.errors,
        "failures": tally.failures, "self_test": f"{caught}/{tried}",
        "counts_first_inputs": WARM_INPUTS, "counts": counts,
        "machine": machine(allocator_fixed),
    }
    correct = (tally.unexpected == 0 and warm_tally.unexpected == 0
               and caught == tried)
    ratios = {"wrong_ops": warm_tally.wrong,
              "wrong_ratio": tally.wrong / tally.ops,
              "error_ratio": tally.errors / tally.ops}

    if not trace:
        values = {
            "ops_per_s": len(typical) / sum(typical),
            "latency_p50_ms": 1e3 * quantile(typical, 50),
            "latency_p90_ms": 1e3 * quantile(typical, 90),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = dict(END_TO_END)
        wall = median_of(untraced, 0)
        detail["wall_clock"] = {
            "ops_per_s": len(wall) / sum(wall),
            "latency_p50_ms": 1e3 * quantile(wall, 50),
            "latency_p90_ms": 1e3 * quantile(wall, 90),
            "setup_s": statistics.median(setup_wall)}
        detail["reference_loop_ms"] = 1e3 * loop_s
        detail["setup_samples_s"] = setup
    else:
        traced_all = [w for t in traced_times for w, _ in t]
        selfs = spans.self_times(tracer.spans)
        values = {metric: selfs.get(span, 0.0) / len(traced_all)
                  for span, metric in SELF_METRICS.items()}
        values["trace.op_s"] = sum(traced_all) / len(traced_all)
        values["trace_overhead"] = (sum(median_of(traced_times, 1))
                                    / sum(typical))
        values.update(counts)
        values.update(ratios)
        units = dict(PER_LAYER)
        self_sum = sum(selfs.values())
        detail["self_sum_over_traced_op_time"] = self_sum / sum(traced_all)
        detail["self_sum_over_root_spans"] = self_sum / spans.root_time(tracer.spans)
        correct = correct and abs(detail["self_sum_over_root_spans"] - 1.0) < 1e-6
    detail.update(ratios)

    print(f"perfbench {name} seed={seed} trace={trace}: {tally.ops} ops "
          f"over {len(pool)} inputs")
    for metric, value in values.items():
        print(f"  {metric:28s} {value!r:>24} {units[metric]}")
    print(f"  wrong {tally.wrong} (of them known defects "
          f"{tally.known_wrong}: {sorted(workloads.KNOWN_DEFECTS)}), "
          f"errors {tally.errors}, "
          f"self-test caught {caught}/{tried}")
    print("detail " + json.dumps(detail, sort_keys=True))
    metrics = {m: {"value": v, "unit": units[m]} for m, v in values.items()}
    print(json.dumps({"correct": bool(correct), "attempted": tally.ops,
                      "failed": tally.errors, "metrics": metrics}))


def bench_all(seed, seconds):
    """Every workload, untraced then traced, each in its own process."""
    results = {}
    for name in NAMES:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload",
                 name, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace)], cwd=ROOT, check=True,
                stdout=subprocess.PIPE, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            results[(name, trace)] = json.loads(lines[-1])
    metrics = {f"{name}/{m}": v for (name, _), r in results.items()
               for m, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics}))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    allocator_fixed = fix_allocator()            # before numpy is imported
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"                  # before numpy is imported
    import_program()
    sys.path.insert(0, str(HERE))
    if args.probe_setup:
        signal.alarm(PROBE_LIMIT_S)            # SIGALRM ends a stuck probe
        setup_probe(args.workload, args.seed)
    elif args.workload == "all":
        bench_all(args.seed, args.seconds)
    else:
        bench(args.workload, args.seed, args.seconds, args.trace,
              allocator_fixed)


if __name__ == "__main__":
    main()
