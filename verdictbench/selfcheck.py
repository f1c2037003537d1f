"""Self-check of the benchmark itself.

1. The same seed writes byte-identical inputs (files, argv and expected
   verdicts) for every workload, and another seed writes different ones.
2. A deliberately wrong expected verdict is counted: the run reports
   failed > 0 and correct false, while the same run with the true
   expectation reports no failure.

Run from the checkout root:  python3 verdictbench/selfcheck.py
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import random
import sys
import tempfile
from pathlib import Path

import run

run.import_package()
import workloads  # noqa: E402  (needs the package path set up by run)


def snapshot(workload: workloads.Workload, seed: int, rounds: int) -> tuple[dict, list]:
    """Files and queries of the first ``rounds`` rounds, with the directory
    name factored out of argv."""
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        workdir = Path(tmp)
        queries = []
        for index in range(rounds):
            rng = random.Random(f"{workload.name}:{seed}:{index}")
            for q in workload.make_round(rng, workdir, index):
                argv = [a.replace(str(workdir), "<dir>") for a in q.argv]
                queries.append((q.label, argv, json.dumps(q.expect, sort_keys=True)))
        files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
    return files, queries


def check_determinism() -> None:
    for workload in workloads.WORKLOADS.values():
        first = snapshot(workload, 7, 2)
        if first != snapshot(workload, 7, 2):
            raise SystemExit(f"{workload.name}: seed 7 produced different inputs")
        if first == snapshot(workload, 8, 2):
            raise SystemExit(f"{workload.name}: seeds 7 and 8 produced the same inputs")
        print(f"{workload.name}: seed 7 reproduces {len(first[0])} files, "
              f"{len(first[1])} queries byte for byte")


def run_find(corrupt: bool) -> dict:
    """A short search-find run on its first-batch queries, optionally with
    one expected exit status per round flipped."""
    original = workloads.WORKLOADS["search-find"]

    def make_round(rng, workdir, index):
        queries = [q for q in original.make_round(rng, workdir, index)
                   if q.label.startswith(("find-1w", "find-2w"))]
        if corrupt:
            queries[0].expect["exit"] = 1 - queries[0].expect["exit"]
        return queries

    workloads.WORKLOADS["search-find"] = dataclasses.replace(original, make_round=make_round)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            run.main(["--workload", "search-find", "--seed", "3", "--seconds", "0.2",
                      "--trace", "1"])
    finally:
        workloads.WORKLOADS["search-find"] = original
    return json.loads(out.getvalue().splitlines()[-1])


def check_wrong_verdict_counts() -> None:
    honest = run_find(corrupt=False)
    if honest["failed"] or not honest["correct"]:
        raise SystemExit(f"true expectations reported failures: {honest}")
    wrong = run_find(corrupt=True)
    if wrong["failed"] == 0 or wrong["correct"]:
        raise SystemExit(f"a wrong expected verdict went unnoticed: {wrong}")
    print(f"wrong expected verdict: failed {wrong['failed']} of {wrong['attempted']}, "
          f"correct {wrong['correct']}")


if __name__ == "__main__":
    check_determinism()
    check_wrong_verdict_counts()
    print("selfcheck ok")
    sys.exit(0)
