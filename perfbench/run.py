"""slmc benchmark: one closed-loop caller, seeded job lists, exact oracles.

    python3 perfbench/run.py --workload deep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; slmc is imported from ``src/`` of that
checkout.  One process, one caller, no threads: each job is timed around one
call into slmc's public API, and its answer is checked outside the timed
span.  Passes over the workload's job list repeat, each with fresh seeded
coefficients, until `--seconds` of job time is spent and at least 100 jobs
are timed.  After each job the run times a fixed pure-Python calibration
unit, and each job's time is scaled to the speed at which that unit takes
REF_UNIT_S, as measured by the units run around the job, so that the host's
speed swings cancel out.  See perfbench/NOTES.md for the workloads and the
metrics.

--trace 0 prints the end-to-end metrics.  --trace 1 runs untraced passes
for half of `--seconds`, then one traced pass with every slmc layer wrapped
(perfbench/tracer.py), and prints the per-layer metrics of that pass, the
tracing overhead and the reference spot checks.  The last line of stdout is the JSON result; a wrong answer exits 1.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from here, before slmc is imported

import argparse
import functools
import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("deep", "wide", "simplicial", "zoo")
SETUP_PROBES = 9
MIN_SAMPLES = 100  # so that at least 10 timed jobs lie beyond p90
WALL_LIMIT_S = 120.0  # start no pass after this; a run must end within 180 s
TRACE_DIR = ROOT / ".bench_out"
CAL_SHARE = 0.15  # calibration time per pass, as a share of its job time
CAL_WINDOW = 2  # a job is scaled by its own units and this many on each side
REF_UNIT_S = 0.003  # the reference speed: one calibration unit takes this long
SETUP_CAL_S = 0.2  # calibration time of a set-up probe


def calibration_unit() -> dict:
    """Fixed work like slmc's own: a sparse product with Fraction coefficients."""
    a = {(i, j): Fraction(i + 1, j + 2) for i in range(5) for j in range(5)}
    out: dict = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in a.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0) + c1 * c2
    return out


def time_units(n: int) -> float:
    """Seconds for `n` calibration units, with the collector off, so the
    size of the program's heap does not leak into the reference."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(n):
            calibration_unit()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def calibrate_for(seconds: float) -> float:
    """Seconds per calibration unit, measured over about `seconds`."""
    units, spent = 0, 0.0
    while spent < seconds:
        spent += time_units(8)
        units += 8
    return spent / units


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def load_slmc():
    """Import slmc from this checkout's src/, never from anywhere else."""
    if not (SRC / "slmc" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'slmc'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import slmc

    if Path(slmc.__file__).resolve().parent != (SRC / "slmc").resolve():
        sys.exit(f"error: imported slmc from {slmc.__file__}, not from {SRC}")
    import workloads

    return workloads


class Runner:
    """Runs passes of one workload and keeps what the metrics need."""

    def __init__(self, wl, workload: str, seed: int):
        self.wl = wl
        self.workload = workload
        self.seed = seed
        self.golden: dict = {}
        self.pass_index = 0
        self.latencies: list[float] = []
        self.job_time = 0.0
        self.attempted = 0
        self.refused: list[str] = []
        self.wrong: list[str] = []
        self.digest = None
        self.jobs_per_pass = 0
        self.raw_job_time = 0.0
        # (completed, latencies scaled to the reference speed, mean scale)
        self.passes: list[tuple[int, list[float], float]] = []

    def run_pass(self, timer) -> tuple[int, float]:
        """One pass; returns (completed jobs, job seconds) of this pass.

        `timer(job_id, fn, arg)` calls `fn(arg)`; job 0 is the input build
        and jobs 1.. are the pass's jobs, so a tracer sees both.
        """
        build = self.wl.BUILDERS[self.workload]
        jobs = timer(0, lambda p: build(self.seed, p, self.golden), self.pass_index)
        self.jobs_per_pass = len(jobs)
        refusals = (self.wl.S.ResourceCapError, self.wl.S.InputError)
        results: dict = {}
        digest = hashlib.sha256()
        done, spent, lat = 0, 0.0, []
        units: list[float] = []  # calibration unit times, in run order
        spans: list[tuple[int, int]] = []  # each job's own units: [start, end)
        cal_spent = 0.0

        def calibrate() -> None:
            # At least one unit right after every job, and enough that the
            # pass spends CAL_SHARE of its job time on the reference.
            nonlocal cal_spent
            start = len(units)
            while len(units) == start or cal_spent < CAL_SHARE * spent:
                units.append(time_units(1))
                cal_spent += units[-1]
            spans.append((start, len(units)))

        gc.collect()
        for job_id, job in enumerate(jobs, start=1):
            self.attempted += 1
            if any(d not in results for d in job.deps):
                self._refuse(job, "dependency refused", digest)
                continue
            t0 = time.perf_counter()
            try:
                answer = timer(job_id, job.run, results)
            except refusals as exc:
                dt = time.perf_counter() - t0
                lat.append(dt)
                spent += dt
                calibrate()
                self._refuse(job, f"{type(exc).__name__}: {exc}", digest)
                continue
            except self.wl.S.PreconditionError as exc:
                # Every input is built valid, so this is a wrong answer.
                self.wrong.append(f"pass {self.pass_index} {job.key}: PreconditionError: {exc}")
                continue
            dt = time.perf_counter() - t0
            lat.append(dt)
            spent += dt
            calibrate()
            try:
                problem = job.check(answer, results)
            except self.wl.Refused as exc:
                self._refuse(job, str(exc), digest)
                continue
            if problem is not None:
                self.wrong.append(f"pass {self.pass_index} {job.key}: {problem}")
            results[job.key] = answer
            done += 1
            digest.update(f"{job.key}\n{job.render(answer)}\n".encode())
        if self.pass_index == 0:
            self.digest = digest.hexdigest()
        # The host's speed drifts within a pass, so each job is scaled by
        # the median unit time near it, not by the pass's mean.
        scales = [
            REF_UNIT_S / statistics.median(units[max(0, a - CAL_WINDOW):b + CAL_WINDOW])
            for a, b in spans
        ]
        scaled = [x * k for x, k in zip(lat, scales)]
        self.pass_index += 1
        self.passes.append((done, scaled, sum(scaled) / spent if spent else 1.0))
        self.latencies += scaled
        self.raw_job_time += spent
        self.job_time += sum(scaled)
        return done, sum(scaled)

    def _refuse(self, job, reason: str, digest) -> None:
        self.refused.append(f"pass {self.pass_index} {job.key}: {reason}")
        digest.update(f"{job.key}\nREFUSED {reason}\n".encode())


def _untimed(job_id, fn, arg):
    return fn(arg)


def run_until(runner: Runner, seconds: float, timer=_untimed, min_samples: int = 0) -> tuple[int, float]:
    """Whole passes until `seconds` of job time and `min_samples` jobs.

    The run length counts job time as measured; the returned job time is
    scaled to the reference speed.
    """
    done, spent, start_samples, start_raw = 0, 0.0, len(runner.latencies), runner.raw_job_time
    while True:
        d, s = runner.run_pass(timer)
        done, spent = done + d, spent + s
        enough = (runner.raw_job_time - start_raw >= seconds
                  and len(runner.latencies) - start_samples >= min_samples)
        if enough or time.perf_counter() - _T0 > WALL_LIMIT_S:
            return done, spent


def measure_setup(args) -> list[float]:
    """Set-up time of fresh processes: import slmc plus the pass-0 input build.

    Each probe then times the calibration unit, and its set-up time is scaled
    to the reference speed like the job timings.
    """
    samples = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            sys.exit(f"error: set-up probe exited with {proc.returncode}")
        setup_s, unit_s = map(float, proc.stdout.split()[-2:])
        samples.append(setup_s * REF_UNIT_S / unit_s)
    return samples


def quantile(values: list[float], q: int) -> float:
    """The q-th decile (inclusive method), q in 1..9."""
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


def spot_checks(wl) -> dict[str, tuple[float, str]]:
    """The ROADMAP's reference calls, each timed once, untraced."""
    S = wl.S
    chain = S.parse_model(wl.chain_algebra_text("chain8", 8, 2, central=False)).primary_algebra()
    ident = S.InftyMorphism.identity(chain)
    heis6 = S.parse_model("\n".join(wl.heis_text(f"H{i}", f"_{i}", 1, 1) for i in range(6))).env.algebras
    heis6 = [heis6[f"H{i}"] for i in range(6)]
    mixed = S.parse_model(wl.mixed_text("mixed", "", 1, 1)).primary_algebra()
    calls = {
        "ref.run_all_0_50_s": lambda: S.run_all(0, 50),
        "ref.compose_id_N8_dim8_s": lambda: S.compose_infty(ident, ident),
        "ref.check_relations_6heis_s": lambda: S.check_relations(functools.reduce(S.direct_sum, heis6)),
        "ref.mc_system_mixed_2_3_s": lambda: S.mc_system(mixed, 2, 3),
        "ref.fill_horn_mixed_pd4_s": lambda: S.fill_horn(*wl.reference_horn(), poly_degree=4),
    }
    out = {}
    for name, fn in calls.items():
        t0 = time.perf_counter()
        answer = fn()
        out[name] = (time.perf_counter() - t0, "s")
    # Known defect (ROADMAP 5): this compatible horn has a filler of degree 3,
    # but the Newton search stalls at degree 4 and reports an Obstruction.
    out["ref.fill_horn_mixed_pd4_obstructed"] = (float(isinstance(answer, S.Obstruction)), "count")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        wl = load_slmc()
        wl.BUILDERS[args.workload](args.seed, 0, {})
        setup_s = time.perf_counter() - _T0
        print(repr(setup_s), repr(calibrate_for(SETUP_CAL_S)))
        return 0

    wl = load_slmc()
    time_units(8)  # warm the calibration unit before any pass uses it
    setup = measure_setup(args) if args.trace == 0 else []
    runner = Runner(wl, args.workload, args.seed)
    metrics: dict[str, tuple[float, str]] = {}
    if args.trace == 0:
        run_until(runner, args.seconds, min_samples=MIN_SAMPLES)
        lat = runner.latencies
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "jobs_per_s": (statistics.median(d / sum(l) for d, l, _ in runner.passes), "1/s"),
            "job_ms_p50": (statistics.median(lat) * 1e3, "ms"),
            "job_ms_p90": (quantile(lat, 9) * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        import tracer as tracing

        plain_done, plain_s = run_until(runner, args.seconds / 2)
        tr = tracing.Tracer()
        tr.install()
        try:
            traced_done, traced_s = runner.run_pass(tr.run_job)
        finally:
            tr.uninstall()
        metrics = tracing.layer_metrics(tr, passes=1)
        untraced_rate, traced_rate = plain_done / plain_s, traced_done / traced_s
        metrics["trace.untraced_jobs_per_s"] = (untraced_rate, "1/s")
        metrics["trace.traced_jobs_per_s"] = (traced_rate, "1/s")
        metrics["trace.overhead_ratio"] = (untraced_rate / traced_rate, "ratio")
        metrics.update(spot_checks(wl))
        path = tr.write(TRACE_DIR, f"spans-{args.workload}")
        print(f"spans: {tr.span_count()} written to {path.relative_to(ROOT)}")

    lat = runner.latencies
    p90 = quantile(lat, 9)
    pass_rates = [d / sum(l) for d, l, _ in runner.passes]
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": runner.pass_index,
        "jobs_per_pass": runner.jobs_per_pass,
        "timed_jobs": len(lat),
        "jobs_beyond_p90": sum(1 for x in lat if x > p90),
        "job_time_s": runner.job_time,
        "raw_job_time_s": runner.raw_job_time,
        "pass_scale": [k for _, _, k in runner.passes],
        "fail_ratio": len(runner.refused) / runner.attempted,
        "setup_samples_s": setup,
        "pass_jobs_per_s": pass_rates,
        "pass_p50_ms": [statistics.median(l) * 1e3 for _, l, _ in runner.passes],
        "pass_p90_ms": [quantile(l, 9) * 1e3 for _, l, _ in runner.passes],
        "digest_pass0": runner.digest,
    }
    print("summary " + json.dumps(summary))
    for line in sorted({r.split(" ", 2)[2] for r in runner.refused}):
        print(f"refused: {line}")
    for line in runner.wrong:
        print(f"WRONG: {line}", file=sys.stderr)
    result = {
        "correct": not runner.wrong,
        "attempted": runner.attempted,
        "failed": len(runner.refused),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 1 if runner.wrong else 0


if __name__ == "__main__":
    sys.exit(main())
