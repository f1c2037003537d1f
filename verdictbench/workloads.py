"""Seeded inputs and independently known verdicts for the four workloads.

A workload is an endless sequence of rounds.  Round ``i`` of seed ``s`` is
generated from its own ``random.Random`` stream, so the same seed always
writes byte-identical files and argv.  Every round of a workload has the
same composition of query shapes; the seed varies variable names, the
substituted formulas, the models and the query order.  Keeping the cost
mix fixed per round is what keeps the median and tail percentile of a run
steady from seed to seed: both land on the same rank of the round
whatever the number of rounds a run completes.

Each query carries the verdict the benchmark expects, worked out without
calling the code path under test: closed-form model counts, derivations
built with a known first failing line, and the recursive reference
``frames.satisfies_at`` for models.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from s5bke import bundled, frames
from s5bke.syntax import format_formula, parse


@dataclass
class Query:
    """One ``cli.run`` call and the verdict it must produce."""

    label: str
    argv: list[str]
    expect: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    sizing: str
    stresses: str
    bypasses: str
    # share of the verdict time spent in interpreted Python rather than in
    # numpy; weights the host-speed probes in run.py
    interp_share: float
    make_round: Callable[[random.Random, Path, int], list[Query]]
    check: Callable[[Query, int, Optional[dict]], Optional[str]]
    warmup: Callable[[Path], list[Query]]


# -- shared helpers ---------------------------------------------------------

# Disjoint initial letters keep the sorted variable order, and so the
# enumeration order and the depth of the first witness, independent of the
# seed.  'b' and 't' are left out so no name can spell a reserved word.
_ROLE_LETTERS = ("acdefg", "hijklm", "nopqrs", "uvwxyz")


def var_names(rng: random.Random, count: int) -> list[str]:
    """``count`` fresh variable names whose sorted order is their role order."""
    out = []
    for role in range(count):
        name = rng.choice(_ROLE_LETTERS[role])
        if rng.random() < 0.5:
            name += str(rng.randrange(100))
        out.append(name)
    return out


def instantiate(template: str, names: list[str]) -> str:
    """Replace the placeholders ``{0}``, ``{1}``... by variable names."""
    return template.format(*names)


def models_within(max_worlds: int, nvars: int) -> int:
    """Closed form for the size of the search space.

    For n worlds each world has p_n = 2*3^(n-1) - 2^(n-1) (knowledge core,
    belief core) pairs: a knowledge core containing the world and a
    nonempty belief core inside it.  The space is
    sum over n of n * p_n^n * 2^(n*v) (designated world, cores,
    assignments).
    """
    total = 0
    for n in range(1, max_worlds + 1):
        pairs = 2 * 3 ** (n - 1) - 2 ** (n - 1)
        total += n * pairs**n * 2 ** (n * nvars)
    return total


def _expect_exit(q: Query, code: int) -> Optional[str]:
    if code != q.expect["exit"]:
        return f"exit {code}, expected {q.expect['exit']}"
    return None


# -- search-exhaust ---------------------------------------------------------

# Theorems of S5BKE: no countermodel exists, so the search must walk the
# whole bounded space and report exactly models_within(3, v) models.  The
# [] instances cost less than the K and B ones (fewer per-world loops),
# and the round is 4 K/B, 4 [] and 3 two-variable queries: the median
# falls inside the [] group and the tail inside the K/B group.
_EXHAUST_3VAR = (
    "K({0}->({1}->{2}))->(K {0}->(K {1}->K {2}))",
    "B({0}->({1}->{2}))->(B {0}->(B {1}->B {2}))",
    "B({0}->{1})->(B({1}->{2})->B({0}->{2}))",
    "(K {0} & K {1} & K {2}) -> K({0}&{1}&{2})",
    "[]({0}->({1}->{2}))->([]{0}->([]{1}->[]{2}))",
    "[]({0}->{1})->([]({1}->{2})->[]({0}->{2}))",
    "([]{0} & []{1} & []{2}) -> []({0}&{1}&{2})",
    "[]({0}&{1}&{2}) -> []{0} & []{1} & []{2}",
)
_EXHAUST_2VAR = (
    "K({0}->{1})->(K {0}->K {1})",
    "B({0}->{1})->(B {0}->B {1})",
    "[]({0}->{1})->([]{0}->[]{1})",
)


def exhaust_round(rng: random.Random, workdir: Path, index: int) -> list[Query]:
    queries = []
    for templates, nvars in ((_EXHAUST_3VAR, 3), (_EXHAUST_2VAR, 2)):
        for t in templates:
            goal = instantiate(t, var_names(rng, nvars))
            queries.append(
                Query(
                    f"exhaust-{nvars}var",
                    ["countermodel", goal, "--machine"],
                    {"exit": 0, "models": models_within(3, nvars)},
                )
            )
    rng.shuffle(queries)
    return queries


def check_exhaust(q: Query, code: int, out: Optional[dict]) -> Optional[str]:
    err = _expect_exit(q, code)
    if err or out is None:
        return err or "no --machine payload"
    if out.get("verdict") != "unknown_within_bounds":
        return f"verdict {out.get('verdict')!r}"
    if out.get("models_examined") != q.expect["models"]:
        return f"models_examined {out.get('models_examined')}, expected {q.expect['models']}"
    return None


def exhaust_warmup(workdir: Path) -> list[Query]:
    return [
        Query("warmup", ["countermodel", "K a -> B a", "--machine"],
              {"exit": 0, "models": models_within(3, 1)})
    ]


# -- search-find ------------------------------------------------------------

# (goal template, premise templates, variable count, max worlds, world
# count of the first witness).  Frames are enumerated by world count, so
# the first witness has the fewest worlds any countermodel can have, which
# follows from the formula: e.g. four pairwise exclusive <>-conjuncts need
# four worlds.
_FIND_SHAPES = (
    # first batch
    ("K {0}", (), 1, 3, 1),
    ("{0} -> K {0}", (), 1, 3, 2),
    ("B {0} -> {0}", (), 1, 3, 2),
    ("<>{0} -> []{0}", (), 1, 3, 2),
    ("K {0} -> [] {0}", (), 1, 3, 2),
    ("[]{0}", ("K {0}",), 1, 3, 2),
    ("{0}", ("B {0}",), 1, 3, 2),
    ("B {0} -> K {0}", (), 1, 3, 2),
    ("K({0}|{1}) -> K {0} | K {1}", (), 2, 3, 2),
    ("~B {0}", ("K({0}->{1})", "<>({0} & ~{1})"), 2, 3, 2),
    ("B({0}|{1}) -> B {0} | B {1}", (), 2, 3, 2),
    ("[]({0}|{1}) -> []{0} | []{1}", (), 2, 3, 2),
    ("K {0}", ("<>{0}",), 1, 3, 2),
    # inside the 3-world slice
    ("~(<>({0}&{1}) & <>({0}&~{1}) & <>(~{0}&{1}))", (), 2, 3, 3),
    ("~({0} & ~K {0} & <>(~{0} & {1}) & <>(~{0}&~{1}))", (), 2, 3, 3),
    ("~({0} & B~{0} & <>(~{0} & {1}) & <>(~{0}&~{1}))", (), 2, 3, 3),
    ("~({0} & ~B {0} & K {1} & <>(~{0} & ~{1}))", (), 2, 3, 3),
    # past the whole 3-world, 2-variable space into the 4-world slice
    ("~<>({0}&{1}) | ~<>({0}&~{1}) | ~<>(~{0}&{1}) | ~<>(~{0}&~{1})", (), 2, 4, 4),
    ("~<>(~{0}&{1}) | ~<>(~{0}&~{1})", ("<>({0}&{1}) & <>({0}&~{1})",), 2, 4, 4),
    # one variable, four worlds: many frames, few assignments; the first
    # witness lies 1.6M and 3.2M rows into the 4-world slice
    ("~({0} & ~K {0} & <>({0} & K {0}) & <>(~{0} & B ~{0}) & <>(~{0} & ~B ~{0}))",
     (), 1, 4, 4),
    ("~({0} & B~{0} & <>({0} & K {0}) & <>(~{0} & B ~{0}) & <>(~{0} & ~B ~{0}))",
     (), 1, 4, 4),
    ("~({0} & ~B {0} & <>({0} & K {0}) & <>(~{0} & K ~{0}) & <>(~{0} & ~K ~{0}))",
     (), 1, 4, 4),
    ("~(<>({0} & K {0}) & <>(~{0} & B ~{0}) & <>(~{0} & ~B ~{0}))",
     ("{0} & B~{0}",), 1, 4, 4),
)


def find_round(rng: random.Random, workdir: Path, index: int) -> list[Query]:
    queries = []
    for goal_t, premise_ts, nvars, max_worlds, worlds in _FIND_SHAPES:
        names = var_names(rng, nvars)
        goal = instantiate(goal_t, names)
        premises = [instantiate(p, names) for p in premise_ts]
        argv = ["countermodel", goal]
        for p in premises:
            argv += ["--premise", p]
        argv += ["--max-worlds", str(max_worlds), "--machine"]
        queries.append(
            Query(
                f"find-{worlds}w-{nvars}v",
                argv,
                {"exit": 1, "goal": goal, "premises": premises, "worlds": worlds},
            )
        )
    rng.shuffle(queries)
    return queries


def check_find(q: Query, code: int, out: Optional[dict]) -> Optional[str]:
    """Replay the reported countermodel on the recursive reference."""
    err = _expect_exit(q, code)
    if err or out is None:
        return err or "no --machine payload"
    if out.get("verdict") != "found":
        return f"verdict {out.get('verdict')!r}"
    try:
        km = frames.from_json(out["model"])
    except (KeyError, ValueError) as exc:
        return f"unloadable model: {exc}"
    if frames.validate_model(km):
        return "reported model is not a valid frame model"
    n = km.frame.world_count
    if n != q.expect["worlds"]:
        return f"{n} worlds, expected {q.expect['worlds']}"
    goal = parse(q.expect["goal"])
    d = km.frame.designated
    if frames.satisfies_at(km, d, goal):
        return "goal holds at the designated world of the reported model"
    for p in q.expect["premises"]:
        if not frames.satisfies_at(km, d, parse(p)):
            return f"premise {p!r} fails on the reported model"
    trace = [frames.satisfies_at(km, w, goal) for w in range(n)]
    if out.get("trace") != trace:
        return f"trace {out.get('trace')}, reference {trace}"
    return None


def find_warmup(workdir: Path) -> list[Query]:
    return [
        Query("warmup", ["countermodel", "K a", "--machine"],
              {"exit": 1, "goal": "K a", "premises": [], "worlds": 1})
    ]


# -- proofs -----------------------------------------------------------------

def _random_formula(rng: random.Random, names: list[str], depth: int) -> str:
    """Surface-syntax formula using the sugar the parser eliminates."""
    if depth == 0 or rng.random() < 0.25:
        return rng.choice(names)
    kind = rng.randrange(8)
    sub = _random_formula(rng, names, depth - 1)
    if kind == 0:
        return f"~{sub}"
    if kind == 1:
        return f"K {sub}"
    if kind == 2:
        return f"B {sub}"
    if kind == 3:
        return f"[]{sub}"
    if kind == 4:
        return f"<>{sub}"
    op = ("->", "&", "|")[kind - 5]
    return f"({sub} {op} {_random_formula(rng, names, depth - 1)})"


def _canon(text: str) -> str:
    return format_formula(parse(text))


def _premise_chain(rng: random.Random, length: int) -> tuple[str, str]:
    """Long modus ponens chain from premises a0, a0->a1, a1->a2, ..."""
    names = var_names(rng, 3)
    atoms = [_random_formula(rng, names, 3) for _ in range(length + 1)]
    premises = [f"h0: {atoms[0]}"]
    lines = [f"1. {atoms[0]} ; prem h0"]
    for i in range(1, length + 1):
        premises.append(f"h{i}: ({atoms[i - 1]}) -> ({atoms[i]})")
        n = len(lines)
        lines.append(f"{n + 1}. ({atoms[i - 1]}) -> ({atoms[i]}) ; prem h{i}")
        lines.append(f"{n + 2}. {atoms[i]} ; mp {n} {n + 1}")
    text = "premises:\n" + "\n".join(premises) + "\nproof:\n" + "\n".join(lines) + "\n"
    return text, atoms[-1]


def _box_chain(rng: random.Random, length: int) -> tuple[str, str]:
    """[]p -> []^(k+1) p by BOX_4 steps glued with CL syllogisms."""
    phi = _random_formula(rng, var_names(rng, 2), 2)

    def boxes(i: int) -> str:
        return "[]" * i + f"({phi})"

    lines = [f"1. {boxes(1)} -> {boxes(2)} ; ax BOX_4"]
    chain = 1  # line number of []p -> []^i p
    for i in range(2, length + 1):
        a, b, c = boxes(1), boxes(i), boxes(i + 1)
        n = len(lines)
        lines.append(f"{n + 1}. {b} -> {c} ; ax BOX_4")
        lines.append(f"{n + 2}. ({a} -> {b}) -> (({b} -> {c}) -> ({a} -> {c})) ; ax CL")
        lines.append(f"{n + 3}. ({b} -> {c}) -> ({a} -> {c}) ; mp {chain} {n + 2}")
        lines.append(f"{n + 4}. {a} -> {c} ; mp {n + 1} {n + 3}")
        chain = n + 4
    text = f"# derives: {boxes(1)} -> {boxes(length + 1)}\nproof:\n" + "\n".join(lines) + "\n"
    return text, f"{boxes(1)} -> {boxes(length + 1)}"


def _wide_cl(rng: random.Random, atoms: int) -> tuple[str, str, int]:
    """One CL line over ``atoms`` abstraction atoms, discharged by modus ponens.

    Premises P_1..P_k are modal atoms over distinct variables and feed the
    tautology P_1 -> (... -> (P_k -> P_k & P_1)).  Returns the text, the
    conclusion, and the line number of the CL line.
    """
    heads = [f"{rng.choice(('K ', 'B ', '[]'))}{rng.choice('acdefg')}{i}" for i in range(atoms)]
    premises = [f"p{i}: {h}" for i, h in enumerate(heads)]
    lines = [f"{i + 1}. {h} ; prem p{i}" for i, h in enumerate(heads)]
    conclusion = f"({heads[-1]}) & ({heads[0]})"
    tail = conclusion
    for h in reversed(heads):
        tail = f"({h}) -> ({tail})"
    lines.append(f"{atoms + 1}. {tail} ; ax CL")
    rest = tail
    for i, h in enumerate(heads):
        rest = rest[len(f"({h}) -> (") : -1]
        lines.append(f"{atoms + 2 + i}. {rest} ; mp {i + 1} {atoms + 1 + i}")
    text = ("premises:\n" + "\n".join(premises) + "\nproof:\n" + "\n".join(lines) + "\n")
    return text, conclusion, atoms + 1


def _break_line(text: str, line_no: int) -> tuple[str, str]:
    """Corrupt proof line ``line_no``; returns the new text and the reason
    the checker must give for it."""
    out = []
    reason = ""
    for raw in text.splitlines():
        head = raw.split(".", 1)[0]
        if head.isdigit() and int(head) == line_no:
            body, just = raw.rsplit(";", 1)
            tag = just.split()[0]
            if tag == "ax":
                wrong = "B_CONS"
                raw = f"{body}; ax {wrong}"
                reason = f"axiom-mismatch:{wrong}"
            elif tag == "mp":
                i, j = just.split()[1:]
                raw = f"{body}; mp {j} {i}"
                reason = f"mp-mismatch:{j},{i}"
            else:
                name = just.split()[1]
                raw = f"{body} -> {body.split('.', 1)[1].strip()}; prem {name}"
                reason = f"premise-mismatch:{name}"
        out.append(raw)
    return "\n".join(out) + "\n", reason


# Per round: the 15 bundled files and a renamed copy of each, three
# premise chains, three box chains, wide CL derivations, and four broken
# derivations, 49 in all.  The corpus is most of the round, so the median
# lands on short everyday proofs; four 18-atom CL lines top the round, so
# the tail lands inside a group of oracle-bound queries.
_WIDE_ATOMS = (8, 10, 12, 14, 16, 18, 18, 18, 18)


def _rename_corpus(text: str, rng: random.Random) -> str:
    """The corpus uses variables x and y; give them fresh names."""
    names = var_names(rng, 2)
    return re.sub(r"\b[xy]\b", lambda m: names[m.group() == "y"], text)


def proofs_round(rng: random.Random, workdir: Path, index: int) -> list[Query]:
    queries = []

    def add(label: str, text: str, expect: dict) -> None:
        path = workdir / f"r{index}-{len(queries):02d}-{label}.prf"
        path.write_text(text, encoding="utf-8")
        queries.append(Query(label, ["check-proof", str(path), "--machine"], expect))

    corpus = list(bundled.proof_corpus().values())
    for text in corpus + [_rename_corpus(t, rng) for t in corpus]:
        first = text.splitlines()[0]
        conclusion = first.split(":", 1)[1] if first.startswith("# derives:") else None
        add("corpus", text, {"exit": 0, "conclusion": conclusion and _canon(conclusion)})
    for _ in range(3):
        text, concl = _premise_chain(rng, rng.randrange(30, 50))
        add("premise-chain", text, {"exit": 0, "conclusion": _canon(concl)})
    for _ in range(3):
        text, concl = _box_chain(rng, rng.randrange(10, 20))
        add("box-chain", text, {"exit": 0, "conclusion": _canon(concl)})
    for atoms in _WIDE_ATOMS:
        text, concl, _ = _wide_cl(rng, atoms)
        add(f"cl-{atoms}", text, {"exit": 0, "conclusion": _canon(concl)})
    # broken on purpose: a premise chain, a box chain and two small CL
    # derivations, each corrupted at a seeded line (the CL line itself for
    # one of them) so the first failing line is known.
    text, _ = _premise_chain(rng, rng.randrange(10, 20))
    line = rng.randrange(2, text.count(" ; "))
    broken, reason = _break_line(text, line)
    add("broken-chain", broken, {"exit": 1, "line": line, "reason": reason})
    text, _ = _box_chain(rng, rng.randrange(5, 10))
    line = rng.randrange(2, text.count(" ; "))
    broken, reason = _break_line(text, line)
    add("broken-box", broken, {"exit": 1, "line": line, "reason": reason})
    for atoms in (8, 10):
        text, _, cl_line = _wide_cl(rng, atoms)
        line = cl_line if atoms == 8 else rng.randrange(cl_line + 1, text.count(" ; ") + 1)
        broken, reason = _break_line(text, line)
        add(f"broken-cl-{atoms}", broken, {"exit": 1, "line": line, "reason": reason})
    rng.shuffle(queries)
    return queries


def check_proofs(q: Query, code: int, out: Optional[dict]) -> Optional[str]:
    err = _expect_exit(q, code)
    if err or out is None:
        return err or "no --machine payload"
    if q.expect["exit"] == 0:
        if out.get("accepted") is not True:
            return "not accepted"
        want = q.expect.get("conclusion")
        if want is not None and out.get("conclusion") != want:
            return f"conclusion {out.get('conclusion')!r}, expected {want!r}"
        return None
    failure = out.get("first_failure") or {}
    if out.get("accepted") is not False or failure.get("line") != q.expect["line"]:
        return f"first failure {failure}, expected line {q.expect['line']}"
    if failure.get("reason") != q.expect["reason"]:
        return f"reason {failure.get('reason')!r}, expected {q.expect['reason']!r}"
    return None


def proofs_warmup(workdir: Path) -> list[Query]:
    name, text = next(iter(bundled.proof_corpus().items()))
    path = workdir / f"warmup-{name}"
    path.write_text(text, encoding="utf-8")
    return [Query("warmup", ["check-proof", str(path), "--machine"], {"exit": 0})]


# -- models -----------------------------------------------------------------

def _random_cores(rng: random.Random, n: int) -> tuple[list[int], list[int]]:
    """Per-point knowledge and belief cores: k contains the point, b is a
    nonempty subset of k.  Every valid operator table has this shape."""
    cores_k, cores_b = [], []
    for i in range(n):
        ck = 1 << i
        for other in range(n):
            if other != i and rng.random() < 0.3:
                ck |= 1 << other
        members = [w for w in range(n) if (ck >> w) & 1]
        cb = 0
        for w in members:
            if rng.random() < 0.5:
                cb |= 1 << w
        if cb == 0:
            cb = 1 << rng.choice(members)
        cores_k.append(ck)
        cores_b.append(cb)
    return cores_k, cores_b


def _op_table(cores: list[int], n: int) -> list[int]:
    """Operator table: bit i of entry a is set iff core i lies inside a."""
    elements = np.arange(1 << n, dtype=np.int64)
    table = np.zeros(1 << n, dtype=np.int64)
    for i, core in enumerate(cores):
        table |= ((elements & core) == core).astype(np.int64) << i
    return table.tolist()


def _model_formula(rng: random.Random, names: list[str]) -> str:
    """A formula whose modal depth stays at most 2, so the reference is cheap."""
    def gen(depth: int, modal: int) -> str:
        if depth == 0 or rng.random() < 0.2:
            return rng.choice(names + ["top", "bot"] if rng.random() < 0.1 else names)
        kind = rng.randrange(7 if modal < 2 else 4)
        sub = gen(depth - 1, modal + (kind >= 4))
        if kind == 0:
            return f"~{sub}"
        if kind <= 3:
            op = ("->", "&", "|")[kind - 1]
            return f"({sub} {op} {gen(depth - 1, modal)})"
        return f"{('K ', 'B ', '[]')[kind - 4]}{sub}"

    return gen(4, 0)


def _reference_mask(km: frames.FrameModel, formula: str) -> int:
    f = parse(formula)
    return sum(
        1 << w for w in range(km.frame.world_count) if frames.satisfies_at(km, w, f)
    )


def _write_json(path: Path, comment: str, obj: dict) -> None:
    path.write_text(f"# {comment}\n" + json.dumps(obj) + "\n", encoding="utf-8")


# Per round: algebras at each atom count (eval and translate --verify on
# each), frames with explicit proposition families of 2^blocks sets, full
# powerset frames, and one selftest.  An odd number of queries puts the
# median in the middle of one query shape's samples rather than between
# two shapes of different cost.
_ALGEBRA_ATOMS = (2, 4, 6, 8, 10, 12, 14, 16)
_FRAME_BLOCKS = (8, 9, 10, 11, 11, 11)
_FULL_FRAME_WORLDS = (3, 4, 5, 8)


def models_round(rng: random.Random, workdir: Path, index: int) -> list[Query]:
    frame_specs = [(b, True) for b in _FRAME_BLOCKS] + [(w, False) for w in _FULL_FRAME_WORLDS]
    queries = _model_queries(rng, workdir, f"r{index}", _ALGEBRA_ATOMS, frame_specs)
    queries.append(Query("selftest", ["selftest", "--machine"], {"exit": 0}))
    rng.shuffle(queries)
    return queries


def _model_queries(
    rng: random.Random,
    workdir: Path,
    tag: str,
    algebra_atoms: tuple[int, ...],
    frame_specs: list[tuple[int, bool]],
) -> list[Query]:
    """eval and translate --verify on one algebra per atom count, and eval on
    one frame per (size, explicit) spec, with reference verdicts."""
    queries = []
    names = var_names(rng, 3)
    for atoms in algebra_atoms:
        cores_k, cores_b = _random_cores(rng, atoms)
        point = rng.randrange(atoms)
        assignment = {v: rng.randrange(1 << atoms) for v in names}
        path = workdir / f"{tag}-algebra{atoms}.json"
        _write_json(path, f"{atoms} atoms", {
            "atoms": atoms, "true_point": point,
            "K": _op_table(cores_k, atoms), "B": _op_table(cores_b, atoms),
            "assignment": assignment,
        })
        # the frame the translation must produce, built from the cores
        km = frames.FrameModel(
            frames.Frame(atoms, point, tuple(cores_k), tuple(cores_b)), assignment
        )
        formula = _model_formula(rng, names)
        mask = _reference_mask(km, formula)
        sat = bool((mask >> point) & 1)
        queries.append(Query(
            f"eval-algebra-{atoms}",
            ["eval", "--kind", "algebra", str(path), formula, "--machine"],
            {"exit": 0 if sat else 1, "denotation": mask, "world": point},
        ))
        formula = _model_formula(rng, names)
        sat = bool((_reference_mask(km, formula) >> point) & 1)
        queries.append(Query(
            f"translate-{atoms}",
            ["translate", str(path), "--verify", formula, "--machine"],
            {"exit": 0, "frame": frames.to_json(km), "satisfied": sat},
        ))
    for size, explicit in frame_specs:
        km = _random_frame(rng, size, explicit, names)
        label = f"eval-frame-{2 ** size}p" if explicit else f"eval-frame-{size}w"
        path = workdir / f"{tag}-{label}-{len(queries)}.json"
        _write_json(path, label, frames.to_json(km))
        formula = _model_formula(rng, names)
        at = rng.randrange(km.frame.world_count) if rng.random() < 0.5 else None
        world = km.frame.designated if at is None else at
        mask = _reference_mask(km, formula)
        argv = ["eval", "--kind", "frame", str(path), formula, "--machine"]
        if at is not None:
            argv[-1:-1] = ["--at", str(at)]
        queries.append(Query(
            label, argv,
            {"exit": 0 if (mask >> world) & 1 else 1, "denotation": mask, "world": world},
        ))
    return queries


def _random_frame(
    rng: random.Random, size: int, explicit: bool, names: list[str]
) -> frames.FrameModel:
    """Valid frame model.

    With ``explicit``, worlds are grouped into ``size`` blocks of one or two
    worlds, all worlds of a block share their cores, and the proposition
    family is every union of blocks: 2^size sets, closed under the Boolean
    operations and the K and B images by construction.
    """
    if not explicit:
        cores_k, cores_b = _random_cores(rng, size)
        frame = frames.Frame(size, rng.randrange(size), tuple(cores_k), tuple(cores_b))
        return frames.FrameModel(frame, {v: rng.randrange(1 << size) for v in names})
    blocks = []
    world = 0
    for _ in range(size):
        width = rng.choice((1, 2))
        blocks.append(((1 << width) - 1) << world)
        world += width

    def union(block_set: int) -> int:
        return sum(blocks[i] for i in range(size) if (block_set >> i) & 1)

    block_k, block_b = _random_cores(rng, size)
    core_k, core_b = [], []
    for i, mask in enumerate(blocks):
        for _ in range(bin(mask).count("1")):
            core_k.append(union(block_k[i]))
            core_b.append(union(block_b[i]))
    props = [union(s) for s in range(1 << size)]
    rng.shuffle(props)
    frame = frames.Frame(world, rng.randrange(world), tuple(core_k), tuple(core_b), tuple(props))
    return frames.FrameModel(frame, {v: union(rng.randrange(1 << size)) for v in names})


def check_models(q: Query, code: int, out: Optional[dict]) -> Optional[str]:
    err = _expect_exit(q, code)
    if err or out is None:
        return err or "no --machine payload"
    if q.argv[0] == "selftest":
        bad = [n for n, s in out.get("suites", {}).items() if s.get("failures")]
        if out.get("passed") is not True or bad:
            return f"selftest suites failed: {bad}"
        want = _SELFTEST_CHECKS
        got = {n: s.get("checks") for n, s in out["suites"].items()}
        return None if got == want else f"selftest checks {got}, expected {want}"
    if q.argv[0] == "translate":
        if out.get("frame") != q.expect["frame"]:
            return "translated frame differs from the frame built from the cores"
        verify = out.get("verify") or {}
        want = q.expect["satisfied"]
        if (verify.get("algebra"), verify.get("frame"), verify.get("agree")) != (want, want, True):
            return f"verify {verify}, reference says {want}"
        return None
    if (out.get("denotation"), out.get("world")) != (q.expect["denotation"], q.expect["world"]):
        return (f"denotation {out.get('denotation')} at {out.get('world')}, reference "
                f"{q.expect['denotation']} at {q.expect['world']}")
    return None


# selftest sizes: 2-world space with 1 variable, with 2 variables times the
# ten scheme instances, and with 1 variable times the twelve samples.
_SELFTEST_CHECKS = {
    "box-iff-identity-with-top": models_within(2, 1),
    "axiom-validity": 10 * models_within(2, 2),
    "two-path-agreement": 12 * models_within(2, 1),
}


def models_warmup(workdir: Path) -> list[Query]:
    return _model_queries(random.Random(0), workdir, "warmup", (2,), [(4, True), (3, False)])


# -- registry ---------------------------------------------------------------

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "search-exhaust",
            "countermodel on theorems: the whole 3-world space is enumerated and "
            "batch-evaluated, the recheck never runs",
            f"{len(_EXHAUST_3VAR) + len(_EXHAUST_2VAR)} queries/round: "
            f"{len(_EXHAUST_3VAR)} x 3-variable ({models_within(3, 3)} models each) and "
            f"{len(_EXHAUST_2VAR)} x 2-variable ({models_within(3, 2)} models each), 3 worlds",
            "search._enumerate_batches, fasteval batched evaluation",
            "kernel, algebra, frames validators, recheck and trace",
            0.2,
            exhaust_round, check_exhaust, exhaust_warmup,
        ),
        Workload(
            "search-find",
            "countermodel on non-theorems and --premise queries with first witnesses "
            "from the first batch to 3.2M rows into the 4-world slice",
            f"{len(_FIND_SHAPES)} queries/round: 13 found in the first batch, 4 in the 3-world slice, "
            "2 two-variable and 4 one-variable 4-world witnesses",
            "fasteval.compile_formula, premise short-circuit, early exit, row decoding, "
            "search._recheck_found, the trace through frames.satisfies_at",
            "kernel, algebra, validators",
            0.4,
            find_round, check_find, find_warmup,
        ),
        Workload(
            "proofs",
            "check-proof on the bundled corpus plus seeded long MP chains, 8-18 atom CL "
            "lines, and derivations broken at a known line",
            f"{30 + 3 + 3 + len(_WIDE_ATOMS) + 4} queries/round: 15 bundled and 15 renamed, "
            "3 premise "
            "chains of 30-49 steps, 3 BOX_4 chains of 10-19 steps, CL lines at "
            f"{'/'.join(map(str, _WIDE_ATOMS))} atoms, 4 broken",
            "syntax.parse, kernel.parse_derivation, kernel.check, the tautology oracle",
            "search and fasteval (prediction: no change from search-side work)",
            1.0,
            proofs_round, check_proofs, proofs_warmup,
        ),
        Workload(
            "models",
            "eval on algebras and frames, translate --verify, selftest: the validators, "
            "algebra evaluation and algebra_to_frame",
            f"{2 * len(_ALGEBRA_ATOMS) + len(_FRAME_BLOCKS) + len(_FULL_FRAME_WORLDS) + 1} "
            f"queries/round: algebras of {'/'.join(map(str, _ALGEBRA_ATOMS))} atoms (eval "
            "and translate), explicit frames of "
            f"{'/'.join(str(2 ** b) for b in _FRAME_BLOCKS)} propositions, full frames of "
            f"{'/'.join(map(str, _FULL_FRAME_WORLDS))} worlds, 1 selftest",
            "jsonio.load_path, validate_algebra, validate_frame, eval_algebra, "
            "frames.denote, algebra_to_frame",
            "search enumeration (selftest's 2-world suites aside), kernel",
            1.0,
            models_round, check_models, models_warmup,
        ),
    )
}
