"""Closed-loop verdict benchmark for the s5bke workbench.

One process, one client: each query is one in-process ``s5bke.cli.run``
call with ``--machine``, issued only after the previous verdict returned.
Every verdict is checked against an answer the benchmark knows
independently (see ``workloads.py``).

    python3 verdictbench/run.py --workload search-exhaust --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
loop with spans recorded around each layer (``tracing.py``) and prints
the per-layer metrics.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
package is imported from ``src/`` of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
OUT_DIR = ROOT / ".bench_out"

# Fresh interpreters started per run to time set-up; the first is a
# warm-up that may compile bytecode and is not counted.
SETUP_SPAWNS = 9
# Random frame models in the numpy-kernel versus reference comparison.
SWEEP_MODELS = 2000
# A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10

# Host-speed probes.  The sandbox this benchmark was defined on shares its
# cores: over 20-second windows a fixed interpreter loop varied by 25% and
# a fixed numpy loop by 7%, and interpreter-bound queries tracked the
# first, numpy-bound ones the second.  Every reported time is therefore
# divided by the host slowdown measured right around it: a weighted sum
# (the workload's interp_share) of each probe's time over its reference
# time on a quiet host.  The probes are fixed code in this file and do not
# touch the package, so a change to s5bke moves the reported times and a
# change in host load does not.  Raw wall times go to the run report.
INTERP_PROBE_REF_S = 0.0012
NUMPY_PROBE_REF_S = 0.0033
_PROBE_ARRAY = np.arange(1 << 16, dtype=np.int64)


def interp_probe() -> float:
    start = time.perf_counter()
    table = {}
    for i in range(10000):
        table[i & 63] = i * 3 + (i >> 2)
    return time.perf_counter() - start


def numpy_probe() -> float:
    start = time.perf_counter()
    for _ in range(6):
        x = (_PROBE_ARRAY // 7) % 13
        ((_PROBE_ARRAY & x) == x).astype(np.int64) << 3
    return time.perf_counter() - start


def host_slowdown(interp_share: float) -> float:
    """Current host slowdown against a quiet host, 1.0 meaning quiet."""
    slowdown = 0.0
    if interp_share > 0:
        slowdown += interp_share * interp_probe() / INTERP_PROBE_REF_S
    if interp_share < 1:
        slowdown += (1 - interp_share) * numpy_probe() / NUMPY_PROBE_REF_S
    return slowdown


def import_package():
    """Import s5bke from this checkout's src/, or fail with exit status 1."""
    sys.path.insert(0, str(SRC))
    try:
        import s5bke
        import s5bke.cli  # noqa: F401  (the entry point every query goes through)
    except ImportError as exc:
        sys.exit(f"error: cannot import s5bke from {SRC}: {exc}")
    if Path(s5bke.__file__).resolve().parent != (SRC / "s5bke").resolve():
        sys.exit(f"error: s5bke was imported from {s5bke.__file__}, not {SRC}")
    return s5bke


def environment() -> dict:
    from s5bke import fasteval

    try:
        import numba  # noqa: F401

        has_numba = True
    except ImportError:
        has_numba = False
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_importable": has_numba,
        "fasteval_backend": fasteval.default_backend(),
        "S5BKE_EVAL_BACKEND": os.environ.get(fasteval.BACKEND_ENV),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def measure_setup() -> tuple[float, float]:
    """Median time for a fresh interpreter to import the CLI and build its
    argument parser, ready for a first query: host-normalized and raw."""
    code = "import s5bke, s5bke.cli; s5bke.cli.build_parser()"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    raw, normalized = [], []
    before = host_slowdown(1.0)
    for i in range(SETUP_SPAWNS + 1):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True,
                       stdout=subprocess.DEVNULL)
        elapsed = time.perf_counter() - start
        after = host_slowdown(1.0)
        if i:
            raw.append(elapsed)
            normalized.append(elapsed * 2 / (before + after))
        before = after
    return statistics.median(normalized), statistics.median(raw)


def tail_percentile(times: list[float]) -> tuple[int, float]:
    """Highest whole percentile with at least TAIL_BEYOND samples above it,
    and its nearest-rank value."""
    ordered = sorted(times)
    n = len(ordered)
    for q in range(99, 0, -1):
        rank = -(-q * n // 100)  # ceil
        if n - rank >= TAIL_BEYOND:
            return q, ordered[rank - 1]
    return 0, ordered[0]


def run_query(cli, query, tracer, qid: int):
    """One closed-loop query: (seconds, exit code, stdout, error text)."""
    out, err = io.StringIO(), io.StringIO()
    code = None
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            if tracer is None:
                code = cli.run(query.argv)
            else:
                code = tracer.query(qid, lambda: cli.run(query.argv))
        except Exception:  # a crash is a failed verdict, counted and reported
            error = traceback.format_exc()
        elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue(), error or err.getvalue()


def _json(text: str):
    """The --machine payload, or None when stdout is not a JSON object."""
    try:
        obj = json.loads(text)
    except ValueError:
        return None
    return obj if isinstance(obj, dict) else None


def backend_sweep(seed: int) -> tuple[float, bool]:
    """Numpy kernel versus the recursive reference on a validity sweep.

    All ten canonical scheme instances on SWEEP_MODELS seeded random frame
    models of up to four worlds.  Returns the reference's time divided by
    the kernel's (best of three) and whether every denotation agreed.
    """
    from s5bke import fasteval, frames
    from s5bke.kernel import scheme_examples
    from s5bke.search import SearchBounds, random_model

    names = ("x", "y")
    population = [
        random_model(seed * SWEEP_MODELS + i, SearchBounds(max_worlds=4), names)
        for i in range(SWEEP_MODELS)
    ]
    batches = fasteval.batch_models(population, names)
    ordered = [km for batch_worlds in sorted({km.frame.world_count for km in population})
               for km in population if km.frame.world_count == batch_worlds]
    instances = list(scheme_examples().values())
    programs = [fasteval.compile_formula(f, names) for f in instances]

    kernel_best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        kernel = [
            [int(v) for batch in batches for v in fasteval.eval_batch(p, batch, "numpy")]
            for p in programs
        ]
        kernel_best = min(kernel_best, time.perf_counter() - start)
    start = time.perf_counter()
    reference = [[frames.denote(km, f) for km in ordered] for f in instances]
    reference_time = time.perf_counter() - start
    return reference_time / kernel_best, kernel == reference


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    s5bke = import_package()
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    cli = s5bke.cli
    env = environment()

    setup_s, setup_raw_s = measure_setup() if not args.trace else (None, None)

    workdir = WORK_DIR / f"{workload.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else None
    times: list[float] = []  # host-normalized
    raw_times: list[float] = []
    by_label: dict[str, list[float]] = {}
    failures: list[str] = []
    attempted = 0
    rounds = 0
    round_rates: list[float] = []
    try:
        for query in workload.warmup(workdir):
            _, code, stdout, error = run_query(cli, query, None, -1)
            attempted += 1
            reason = workload.check(query, code, _json(stdout))
            if reason:
                failures.append(f"warmup {query.argv}: {reason} {error}".strip())
        if tracer:
            tracer.install()
        busy = 0.0
        slowdown = host_slowdown(workload.interp_share)
        while busy < args.seconds or len(times) < 2 * TAIL_BEYOND:
            rng = random.Random(f"{workload.name}:{args.seed}:{rounds}")
            queries = workload.make_round(rng, workdir, rounds)
            round_busy = round_normalized = 0.0
            for query in queries:
                elapsed, code, stdout, error = run_query(cli, query, tracer, attempted)
                after = host_slowdown(workload.interp_share)
                normalized = elapsed * 2 / (slowdown + after)
                slowdown = after
                attempted += 1
                round_busy += elapsed
                round_normalized += normalized
                times.append(normalized)
                raw_times.append(elapsed)
                by_label.setdefault(query.label, []).append(normalized)
                reason = workload.check(query, code, _json(stdout))
                if reason:
                    failures.append(
                        f"round {rounds} {query.label} {query.argv}: {reason} {error}".strip()
                    )
            busy += round_busy
            round_rates.append(len(queries) / round_normalized)
            rounds += 1
            for path in workdir.iterdir():
                path.unlink()
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    n = len(times)
    tail_q, tail_value = tail_percentile(times)
    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in tracer.layer_metrics().items()}
        metrics["trace.verdicts_per_s"] = {
            "value": statistics.median(round_rates), "unit": "1/s"}
        speedup, agree = backend_sweep(args.seed)
        attempted += 1
        if not agree:
            failures.append("numpy kernel and recursive reference disagree on the sweep")
        metrics["fasteval.numpy_vs_reference_x"] = {"value": speedup, "unit": "x"}
        tracer.write(OUT_DIR / f"spans-{workload.name}.jsonl.gz")
    else:
        metrics = {
            "verdicts_per_s": {"value": statistics.median(round_rates), "unit": "1/s"},
            "verdict_ms_p50": {"value": statistics.median(times) * 1000, "unit": "ms"},
            "verdict_ms_tail": {"value": tail_value * 1000, "unit": "ms"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
        }
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "environment": env,
        "why": workload.why,
        "sizing": workload.sizing,
        "stresses": workload.stresses,
        "bypasses": workload.bypasses,
        "rounds": rounds,
        "samples": n,
        "busy_s": busy,
        "tail_percentile": tail_q,
        "raw_wall_time": {
            "verdict_ms_p50": statistics.median(raw_times) * 1000,
            "verdict_ms_tail": tail_percentile(raw_times)[1] * 1000,
            "verdicts_per_s": n / busy,
            "setup_s": setup_raw_s,
            "mean_host_slowdown": busy / sum(times),
        },
        "median_ms_by_label": {
            label: statistics.median(ts) * 1000 for label, ts in sorted(by_label.items())
        },
        "failed_share": len(failures) / attempted,
        "failures": failures,
        "metrics": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{workload.name}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=2) + "\n", encoding="utf-8"
    )

    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"{rounds} rounds, {n} verdicts in {busy:.2f} s busy")
    print(f"environment {json.dumps(env)}")
    print(f"sizing: {workload.sizing}")
    for name, m in metrics.items():
        print(f"  {name:<34} {m['value']:>14.4f} {m['unit']}")
    print(f"  {'failed_share':<34} {report['failed_share']:>14.4f} "
          f"({len(failures)} of {attempted})")
    if not args.trace:
        print(f"  verdict_ms_tail is p{tail_q} of {n} samples")
    for line in failures:
        print(f"FAILED {line}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
