"""chemvm benchmark: one workload per run, one closed-loop client.

    python3 bench/run.py --workload corpus --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; it imports chemvm from ./src and
reads ./fixtures. Each job starts when the previous one ends, in this one
single-threaded process. With --trace 0 the run measures the named
workload for --seconds and prints the end-to-end metrics, every time in
them scaled to one reference speed of the host (see SPEED_LOOPS below);
with --trace 1 it makes the separate traced run over all four workloads
and prints the per-layer metrics (see bench/README.md). Every job's
outputs are checked.
The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("corpus", "rules-5k", "dec-sweep", "mc")
# set-up is sampled in this process and in PROBES fresh ones, spread over
# the run
PROBES = 6
MIN_JOBS = 100          # so the 90th percentile has ten samples beyond it
WARMUP_S = 0.5
PROBE_TIMEOUT_S = 60


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    # a fresh process that only sets up and reports its set-up time
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_workloads():
    src = ROOT / "src"
    if not (src / "chemvm" / "__init__.py").is_file():
        raise SystemExit(f"bench: no chemvm sources under {src}")
    sys.path.insert(0, str(src))
    import workloads
    return workloads


class Tally:
    """Jobs attempted; jobs that failed (raised, or tripped a known program
    fault); outputs that failed any other check."""

    def __init__(self, workloads):
        self.check_failed = workloads.CheckFailed
        self.known_fault = workloads.StrokeFault
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def run(self, workload, job, times: list):
        """Run and time one job; returns its output, or None if it raised."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            out = workload.run(job)
        except Exception:
            self.failed += 1
            traceback.print_exc()
            return None
        times.append(time.perf_counter() - start)
        return out

    def check(self, workload, job, out) -> None:
        if out is None:
            return
        try:
            workload.check(job, out)
        except self.known_fault as exc:
            self.failed += 1
            print(f"failed: {workload.name}: {exc}", file=sys.stderr)
        except self.check_failed as exc:
            self.wrong += 1
            print(f"check failed: {workload.name}: {exc}", file=sys.stderr)


def setup_probe(args) -> float:
    """Set-up time of a fresh process, from its first statement."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                          check=True)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


# The host's speed drifts by up to 1.8x within seconds and from minute to
# minute (bench/README.md, "Machine drift"). A short fixed loop, timed
# before every job and around every set-up probe, reads the speed; each
# sample is scaled to the speed at which that loop takes its reference
# time, so a run reports the same figures whatever speed the host ran it
# at. Jobs are read with a loop of the workload's kind of work (its
# `speed_loop`); set-up, mostly imports, with the interpreter loop.


def interpreter_loop():
    """Dict updates in pure Python: interpreter work."""
    def loop() -> None:
        counts: dict = {}
        for i in range(2000):
            counts[i % 97] = counts.get(i % 97, 0) + i
    return loop


def array_loop():
    """The work of one eps0 row of `monte_carlo` over half its columns:
    elementwise passes and a running product over 5,000 x 60 float arrays,
    the temporaries made fresh as that function makes them. Numpy work
    beyond the L2 cache, not chemvm's code."""
    import numpy as np
    values = np.random.default_rng(0).random((5000, 60))

    def loop() -> None:
        rates = np.clip(values * 0.5 + 0.01, 0.0, 1.0)
        np.cumprod(1.0 - rates, axis=1).mean(axis=0)
    return loop


# a loop's factory and the loop's time at the reference speed
SPEED_LOOPS = {"interpreter": (interpreter_loop, 300e-6), "array": (array_loop, 3.5e-3)}


class Gauge:
    def __init__(self, kind: str):
        make, self.reference_s = SPEED_LOOPS[kind]
        self.loop = make()

    def reading(self) -> float:
        """The better of two timings of the loop: how fast the host runs
        this process at this moment."""
        best = math.inf
        for _ in range(2):
            start = time.perf_counter()
            self.loop()
            best = min(best, time.perf_counter() - start)
        return best

    def scale(self, sample: float, before: float, after: float) -> float:
        """`sample` as it would read at the reference speed, given the
        readings taken just before and just after it."""
        return sample * 2 * self.reference_s / (before + after)


def percentile(times: list, q: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(times)
    k = max(0, math.ceil(q * len(ordered)) - 1)
    return ordered[k], len(ordered) - k - 1


class Samples:
    """Job and set-up times, each with the speed readings taken just before
    and just after it (for a job, the reading after is the one before the
    next job)."""

    def __init__(self, speed_loop: str):
        self.job_gauge = Gauge(speed_loop)
        self.setup_gauge = Gauge("interpreter")
        self.jobs: list = []        # (reading before, job time or None)
        self.setups: list = []      # (reading before, set-up time, reading after)

    def raw_jobs(self) -> list:
        return [t for _, t in self.jobs if t is not None]

    def scaled_jobs(self) -> list:
        return [self.job_gauge.scale(t, before, after)
                for (before, t), (after, _) in zip(self.jobs, self.jobs[1:]) if t is not None]

    def scaled_setups(self) -> list:
        return [self.setup_gauge.scale(s, before, after) for before, s, after in self.setups]


def measure(workload, tally: Tally, seed: int, seconds: float,
            setup_s: float, probe) -> Samples:
    """Warm up, then run whole rounds for `seconds` (and at least MIN_JOBS
    jobs), timing `probe()`, a fresh process's set-up, between rounds at
    even intervals. A speed reading precedes each job and one follows the
    last. `setup_s`, this process's own set-up, gets the reading taken
    right after it on both sides."""
    samples = Samples(workload.speed_loop)
    reading = samples.setup_gauge.reading()
    samples.setups.append((reading, setup_s, reading))

    def take_probe():
        before = samples.setup_gauge.reading()
        setup = probe()
        samples.setups.append((before, setup, samples.setup_gauge.reading()))

    index = 0
    warm_until = time.perf_counter() + WARMUP_S
    while index == 0 or time.perf_counter() < warm_until:
        for job in workload.round(seed, index):
            tally.check(workload, job, tally.run(workload, job, []))
        index += 1
    start = time.perf_counter()
    probes = 0
    while time.perf_counter() - start < seconds or len(samples.raw_jobs()) < MIN_JOBS:
        for job in workload.round(seed, index):
            reading = samples.job_gauge.reading()
            spent: list = []
            out = tally.run(workload, job, spent)
            samples.jobs.append((reading, spent[0] if spent else None))
            tally.check(workload, job, out)
        index += 1
        if tally.failed and not samples.raw_jobs():
            break
        if probes < PROBES and time.perf_counter() - start >= probes * seconds / PROBES:
            take_probe()
            probes += 1
    samples.jobs.append((samples.job_gauge.reading(), None))
    while probes < PROBES:
        take_probe()
        probes += 1
    return samples


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    workloads = import_workloads()
    workload = workloads.WORKLOADS[args.workload]()
    generated = workload.setup(ROOT, args.seed)
    setup_s = time.perf_counter() - START - generated
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tally = Tally(workloads)
    if args.trace:
        import traced_run
        metrics = traced_run.traced_metrics(workloads, ROOT, args.seed, tally)
    else:
        samples = measure(workload, tally, args.seed, args.seconds, setup_s,
                          lambda: setup_probe(args))
        times = samples.scaled_jobs()
        setups = samples.scaled_setups()
        if not times:
            print("bench: no job completed", file=sys.stderr)
            return 1
        p90, beyond = percentile(times, 0.9)
        raw = samples.raw_jobs()
        print(f"{args.workload}: {len(times)} timed jobs, {beyond} beyond p90; unscaled "
              f"{len(raw) / math.fsum(raw):.4g} jobs/s, p50 {statistics.median(raw) * 1e3:.4g} ms; "
              f"median speed reading {statistics.median(r for r, _ in samples.jobs) * 1e6:.4g} us; "
              f"scaled set-up samples {[round(s, 4) for s in setups]}")
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "jobs_per_s": (len(times) / math.fsum(times), "1/s"),
            "job_p50_ms": (statistics.median(times) * 1e3, "ms"),
            "job_p90_ms": (p90 * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
