"""graftcert benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload certify-mnist --seed 0 --seconds 50 --trace 0

It builds what it needs from ``src/``, runs one workload as a closed loop for
``--seconds`` (at least one pass), checks the outputs and prints, as the last
line of standard output, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of one traced pass with ``--trace 1``.  A JSON line with
the environment, sample counts, checks and digests goes to standard error.
Everything it writes goes under ``.bench_build/perfbench/`` in the checkout.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import os

# Fix the BLAS thread count before numpy loads, so runs do not follow the
# host default.  One thread keeps BLAS threads x verify workers <= nproc.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

SETUP_REPEATS = 7

END_TO_END_UNITS = {
    "setup_s": "s",
    "examples_per_s": "1/s",
    "pipeline_s": "s",
    "va_pct": "%",
    "unr_pct": "%",
    "sa_pct": "%",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    return "count"


def tree_key(directory: str) -> str:
    """Digest of the Python sources in ``directory``: work products are never
    reused across commits."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(directory, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


class DigestStore:
    """Artifact digests of earlier runs of the same sources: two runs of one
    commit must agree."""

    def __init__(self, path: str):
        self.path = path
        self.seen = {}
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                self.seen = json.load(fh)

    def check(self, key: str, digest: str) -> list[str]:
        earlier = self.seen.setdefault(key, digest)
        if earlier != digest:
            return [f"{key} digest {digest[:12]} differs from an earlier run's {earlier[:12]}"]
        return []

    def save(self) -> None:
        tmp = f"{self.path}.tmp{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.seen, fh, indent=1, sort_keys=True)
        os.replace(tmp, self.path)


def measure(workload, state, seconds: float, errors, calibrator) -> list:
    """Closed loop of passes for ``seconds``, at least one pass, with
    ``calibrator`` sampling the host's speed in each."""
    passes = []
    deadline = time.perf_counter() + seconds
    calibrator.install()
    try:
        while True:
            calibrator.begin_pass()
            passes.append(workload.run_pass(state, errors))
            calibrator.end_pass()
            if time.perf_counter() >= deadline:
                return passes
    finally:
        calibrator.uninstall()


def fastest(passes: list, attr: str) -> dict:
    """Per key of ``attr`` (a dict on each pass), the smallest value seen.
    Passes repeat identical, deterministic calls, so their differences are
    host noise; see README."""
    best: dict = {}
    for p in passes:
        for key, value in getattr(p, attr).items():
            best[key] = min(value, best.get(key, value))
    return best


def verify_p50(passes: list, calibrator) -> float | None:
    """Median over examples of BaB seconds, normalised per pass, median over
    passes.  Detail only: on pipeline-moons it spread too much to bound."""
    return calibrator.normalised(
        [statistics.median(p.bab_seconds.values()) if p.bab_seconds else None for p in passes]
    )


def end_to_end(setup_s: float, passes: list, calibrator, peak_rss_mb: float) -> dict:
    """Times of the measured phase are medians over passes of normalised
    seconds: seconds at the reference host speed (see calibrate.py)."""
    done = [p for p in passes if p.digests]
    if not done:
        return {name: 0.0 for name in END_TO_END_UNITS}
    pass_s = calibrator.normalised(calibrator.pass_s) or statistics.median(calibrator.pass_s)
    last = done[-1]
    return {
        "setup_s": setup_s,
        "examples_per_s": last.examples / pass_s,
        "pipeline_s": pass_s,
        "va_pct": last.va,
        "unr_pct": last.unr,
        "sa_pct": last.sa,
        "peak_rss_mb": peak_rss_mb,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny shrinks every workload to seconds, for the benchmark's own tests",
    )
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "graftcert", "__init__.py")):
        print(f"perfbench: no src/graftcert under {root}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    from graftcert.errors import GraftcertError

    import workloads
    from calibrate import Calibrator
    from spans import Tracer, bound_wrappers

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    here = os.path.dirname(os.path.abspath(__file__))
    work = os.path.join(
        root, ".bench_build", "perfbench", tree_key(os.path.join(src, "graftcert")), args.size
    )
    os.makedirs(work, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, args.size, work)

    build_s = wl.prepare()
    reps = [wl.setup_seconds() for _ in range(SETUP_REPEATS)]
    setup_s = statistics.median(reps)
    state = wl.setup()

    calibrator = Calibrator()
    passes = measure(wl, state, args.seconds, GraftcertError, calibrator)
    trace_file = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            t0 = time.perf_counter()
            traced = wl.run_pass(state, GraftcertError)
            traced_s = time.perf_counter() - t0
        finally:
            tracer.uninstall()
    if bound_wrappers():
        raise RuntimeError(f"wrappers left bound: {bound_wrappers()}")
    if args.trace:
        trace_file = os.path.join(work, f"spans-{args.workload}-{args.seed}.csv.gz")
        tracer.write(trace_file)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace:
        # against the median untraced pass, kernel time left out
        untraced = statistics.median(calibrator.pass_s)
        metrics = tracer.layer_metrics()
        metrics["trace.overhead_pct"] = 100.0 * (traced_s - untraced) / untraced
        units = {name: layer_unit(name) for name in metrics}
        passes.append(traced)
    else:
        metrics = end_to_end(setup_s, passes, calibrator, peak_rss_mb)
        units = END_TO_END_UNITS

    problems = []
    digests = DigestStore(os.path.join(work, f"digests-{tree_key(here)}.json"))
    for p in passes:
        problems += p.problems
        for name, digest in p.digests.items():
            # the test split never reaches training: one checkpoint for all seeds
            key = f"{wl.name}:checkpoint" if name == "checkpoint" else f"{wl.name}:{args.seed}:{name}"
            problems += digests.check(key, digest)
    digests.save()
    done = [p for p in passes if p.digests]
    details = {
        "workload": args.workload, "seed": args.seed, "size": args.size, "trace": args.trace,
        "environment": environment(),
        "passes": len(passes),
        "build_s": build_s,
        "setup_repeats_s": reps,
        "pass_steps_s": [p.steps for p in passes],
        "pass_s": calibrator.pass_s,
        "pass_speed": calibrator.pass_speed,
        "slowdown": calibrator.slowdown(),
        "kernel_samples": len(calibrator.kernel_s),
        "verify_samples": len(fastest(passes, "bab_seconds")),
        "verify_s_p50": verify_p50(passes[:len(calibrator.pass_s)], calibrator),
        "reference_checked": getattr(wl, "reference", None) is not None,
        "problems": problems,
        "digests": done[-1].digests if done else {},
        "trace_file": trace_file,
    }
    print(json.dumps(details), file=sys.stderr)
    result = {
        "correct": not problems and bool(done),
        "attempted": sum(p.examples for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
