"""Bounded model enumeration, countermodel search, and seeded generators.

The enumerator factorizes the per-world evidence filters into principal
cores (the knowledge core contains its world; the belief core is a
nonempty subset of the knowledge core), which shrinks the space to a
cartesian product of per-world core pairs times assignments.  Countermodel
search walks that space in a fixed lexicographic order -- world count,
designated world, frame combo, assignment -- so it returns the same first
witness a sequential scan would.

It walks the space in blocks: a run of frames crossed with a grid of
assignments shared by all of them.  On a full-powerset frame knowledge
and belief are maps from propositions to propositions, so each frame
enters a block as its ``K`` and ``B`` image tables (an algebra's
``K_table``/``B_table``), built by summing one precomputed contribution
table per world, picked by that world's core pair.  The kernel in
:mod:`fasteval` then evaluates a formula once per (frame, assignment),
broadcasting frame-independent subformulas over the frames and gathering
``K``/``B`` from the tables, and reads the designated world's bit.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterator, Sequence, Union

import numpy as np

from . import fasteval, frames
from .algebra import AlgebraicModel
from .errors import GuardViolation
from .frames import Frame, FrameModel
from .syntax import B, Bot, Box, Formula, Impl, K, Neg, Var, variables

# The search's blocks hold world sets as uint8, so at most 8 worlds.
MAX_EXHAUSTIVE_WORLDS = 4
MAX_RANDOM_WORLDS = frames.MAX_FULL_WORLDS
MAX_FORMULA_DEPTH = 8

_BATCH_ROWS = 1 << 16


@dataclass(frozen=True)
class SearchBounds:
    max_worlds: int = 3
    max_variables: int = 3


@dataclass(frozen=True)
class Found:
    """A countermodel with the goal's per-world truth table."""

    model: FrameModel
    trace: tuple[bool, ...]


@dataclass(frozen=True)
class UnknownWithinBounds:
    models_examined: int


CountermodelReport = Union[Found, UnknownWithinBounds]


def _check_exhaustive(bounds: SearchBounds) -> None:
    if not 1 <= bounds.max_worlds <= MAX_EXHAUSTIVE_WORLDS:
        raise GuardViolation(
            f"exhaustive search supports 1..{MAX_EXHAUSTIVE_WORLDS} worlds, "
            f"got {bounds.max_worlds}"
        )


def _core_pairs(n: int, w: int) -> list[tuple[int, int]]:
    """All (knowledge core, belief core) pairs for world ``w``, sorted."""
    pairs = []
    for ck in range(1 << n):
        if not (ck >> w) & 1:
            continue
        sub = ck
        while sub:
            pairs.append((ck, sub))
            sub = (sub - 1) & ck
    pairs.sort()
    return pairs


def enumerate_frames(
    bounds: SearchBounds, variables: Sequence[str]
) -> Iterator[FrameModel]:
    """Every full-powerset frame model within the bounds, exactly once.

    Order is lexicographic in (world count, designated world, per-world
    core pairs, assignment masks); all yielded models are valid by
    construction.
    """
    _check_exhaustive(bounds)
    var_order = list(variables)
    for n in range(1, bounds.max_worlds + 1):
        pair_lists = [_core_pairs(n, w) for w in range(n)]
        masks = range(1 << n)
        for w_t in range(n):
            for combo in itertools.product(*pair_lists):
                frame = Frame(
                    world_count=n,
                    designated=w_t,
                    core_K=tuple(p[0] for p in combo),
                    core_B=tuple(p[1] for p in combo),
                )
                for assign in itertools.product(masks, repeat=len(var_order)):
                    yield FrameModel(frame, dict(zip(var_order, assign)))


def _digits(index, radix: int, count: int) -> list:
    """Base-``radix`` digits of ``index``, most significant first."""
    return [(index // radix ** (count - 1 - i)) % radix for i in range(count)]


def _frame_tables(
    pairs: list[np.ndarray], worlds: range
) -> tuple[np.ndarray, np.ndarray]:
    """K and B image tables of every combo of core pairs on ``worlds``.

    Combos are in enumeration order; a frame's table is the sum over its
    worlds of ``((s & core) == core) << w`` for every proposition ``s``.
    """
    p = len(pairs[0])
    props = np.arange(1 << len(pairs), dtype=np.uint8)
    tables = np.zeros((2, p ** len(worlds), props.size), dtype=np.uint8)
    for w, digit in zip(worlds, _digits(np.arange(p ** len(worlds)), p, len(worlds))):
        cores = pairs[w][digit].T[:, :, None]
        tables += ((props & cores) == cores).astype(np.uint8) << w
    return tables[0], tables[1]


def _enumerate_batches(
    bounds: SearchBounds, var_order: tuple[str, ...]
) -> Iterator[fasteval.FrameBlock]:
    """Blocks of :func:`enumerate_frames`, in the identical order.

    A block is a run of frame combos crossed with a run of assignments:
    all of them when the slice has at most ``_BATCH_ROWS`` assignments,
    else one frame with the leading variables fixed and the trailing ones
    spanning their grid.  No block has more than ``_BATCH_ROWS`` rows.
    """
    _check_exhaustive(bounds)
    nvars = len(var_order)
    for n in range(1, bounds.max_worlds + 1):
        radix = 1 << n
        pairs = [np.asarray(_core_pairs(n, w), dtype=np.uint8) for w in range(n)]
        p = len(pairs[0])
        # A combo's tables are those of its leading worlds plus those of
        # its trailing worlds, each precomputed for every combo of its own.
        split = n // 2
        lead_k, lead_b = _frame_tables(pairs, range(split))
        trail_k, trail_b = _frame_tables(pairs, range(split, n))
        spanned = nvars
        while radix**spanned > _BATCH_ROWS:
            spanned -= 1
        fixed = nvars - spanned
        grid = np.array(
            _digits(np.arange(radix**spanned), radix, spanned), dtype=np.uint8
        ).reshape(spanned, radix**spanned)
        frames_per_block = max(1, _BATCH_ROWS // radix**nvars)
        for w_t in range(n):
            for start in range(0, p**n, frames_per_block):
                combo = np.arange(start, min(start + frames_per_block, p**n))
                hi, lo = np.divmod(combo, p ** (n - split))
                k_table = lead_k.take(hi, axis=0) + trail_k.take(lo, axis=0)
                b_table = lead_b.take(hi, axis=0) + trail_b.take(lo, axis=0)
                for prefix in range(radix**fixed):
                    assign = grid
                    if fixed:
                        assign = np.empty((nvars, grid.shape[1]), dtype=np.uint8)
                        assign[:fixed] = np.array(_digits(prefix, radix, fixed))[:, None]
                        assign[fixed:] = grid
                    yield fasteval.FrameBlock(n, w_t, k_table, b_table, assign, var_order)


def _core(image: np.ndarray, w: int) -> int:
    """Least proposition whose image contains ``w``: the core at ``w``."""
    core = image.size - 1
    for s, worlds in enumerate(image.tolist()):
        if (worlds >> w) & 1:
            core &= s
    return core


def _model_from_batch_row(batch: fasteval.FrameBlock, row: int) -> FrameModel:
    f, a = divmod(row, batch.assign.shape[1])
    frame = Frame(
        world_count=batch.worlds,
        designated=batch.designated,
        core_K=tuple(_core(batch.k_table[f], w) for w in range(batch.worlds)),
        core_B=tuple(_core(batch.b_table[f], w) for w in range(batch.worlds)),
    )
    return FrameModel(frame, dict(zip(batch.variables, batch.assign[:, a].tolist())))


def find_countermodel(
    premises: Sequence[Formula],
    goal: Formula,
    bounds: SearchBounds = SearchBounds(),
) -> CountermodelReport:
    """First enumerated model satisfying the premises and refuting the goal.

    Premises and goal are tested at the designated world.  Returns
    :class:`UnknownWithinBounds` with the exact number of models examined
    when the whole bounded space agrees with the goal; never claims
    validity.
    """
    query_vars = sorted(variables(goal).union(*(variables(p) for p in premises), set()))
    if len(query_vars) > bounds.max_variables:
        raise GuardViolation(
            f"query uses {len(query_vars)} variables, bound is {bounds.max_variables}"
        )
    var_order = tuple(query_vars)
    goal_prog = fasteval.compile_formula(goal, var_order)
    premise_progs = [fasteval.compile_formula(p, var_order) for p in premises]
    examined = 0
    for batch in _enumerate_batches(bounds, var_order):
        hit = ~fasteval.satisfied_at_designated(goal_prog, batch)
        for prog in premise_progs:
            if not hit.any():
                break
            hit &= fasteval.satisfied_at_designated(prog, batch)
        if hit.any():
            row = int(np.argmax(hit))
            model = _model_from_batch_row(batch, row)
            _recheck_found(model, premises, goal)
            trace = tuple(
                frames.satisfies_at(model, w, goal) for w in range(batch.worlds)
            )
            return Found(model, trace)
        examined += len(batch)
    return UnknownWithinBounds(examined)


def _recheck_found(
    model: FrameModel, premises: Sequence[Formula], goal: Formula
) -> None:
    # Guard against kernel/reference divergence: replay the verdict on the
    # recursive evaluator before reporting.
    if frames.models(model, goal) or not all(
        frames.models(model, p) for p in premises
    ):
        raise RuntimeError(
            "batched evaluation and the recursive evaluator disagree; "
            "this is a bug, please report the query"
        )


def random_model(
    seed: int, bounds: SearchBounds, variables: Sequence[str]
) -> FrameModel:
    """Seed-deterministic valid frame model within the bounds."""
    if not 1 <= bounds.max_worlds <= MAX_RANDOM_WORLDS:
        raise GuardViolation(
            f"random models support 1..{MAX_RANDOM_WORLDS} worlds, "
            f"got {bounds.max_worlds}"
        )
    rng = random.Random(seed)
    n = rng.randint(1, bounds.max_worlds)
    core_k = []
    core_b = []
    for w in range(n):
        ck = 1 << w
        for other in range(n):
            if other != w and rng.random() < 0.5:
                ck |= 1 << other
        members = [b for b in range(n) if (ck >> b) & 1]
        cb = 0
        for b in members:
            if rng.random() < 0.5:
                cb |= 1 << b
        if cb == 0:
            cb = 1 << rng.choice(members)
        core_k.append(ck)
        core_b.append(cb)
    frame = Frame(
        world_count=n,
        designated=rng.randrange(n),
        core_K=tuple(core_k),
        core_B=tuple(core_b),
    )
    assignment = {name: rng.randrange(1 << n) for name in variables}
    return FrameModel(frame, assignment)


def random_algebra(seed: int, max_atoms: int = 3) -> AlgebraicModel:
    """Seed-deterministic valid algebraic model with up to ``max_atoms``.

    Built from random principal cores per atom, which is exactly the shape
    every valid operator table has.
    """
    rng = random.Random(seed)
    n = rng.randint(1, max_atoms)
    full = (1 << n) - 1
    cores_k = []
    cores_b = []
    for i in range(n):
        ck = 1 << i
        for other in range(n):
            if other != i and rng.random() < 0.5:
                ck |= 1 << other
        members = [b for b in range(n) if (ck >> b) & 1]
        cb = 0
        for b in members:
            if rng.random() < 0.5:
                cb |= 1 << b
        if cb == 0:
            cb = 1 << rng.choice(members)
        cores_k.append(ck)
        cores_b.append(cb)
    k_table = []
    b_table = []
    for a in range(full + 1):
        kv = bv = 0
        for i in range(n):
            if cores_k[i] & ~a == 0:
                kv |= 1 << i
            if cores_b[i] & ~a == 0:
                bv |= 1 << i
        k_table.append(kv)
        b_table.append(bv)
    return AlgebraicModel(n, rng.randrange(n), tuple(k_table), tuple(b_table))


def random_formula(seed: int, depth: int, variables: Sequence[str]) -> Formula:
    """Seed-deterministic core-AST formula with node depth at most ``depth``."""
    if not 0 <= depth <= MAX_FORMULA_DEPTH:
        raise GuardViolation(f"depth must be in 0..{MAX_FORMULA_DEPTH}, got {depth}")
    rng = random.Random(seed)
    names = list(variables)

    def leaf() -> Formula:
        if names and rng.random() < 0.8:
            return Var(rng.choice(names))
        return Bot()

    def gen(d: int) -> Formula:
        if d == 0:
            return leaf()
        kind = rng.choice(("leaf", "neg", "impl", "impl", "box", "know", "bel"))
        if kind == "leaf":
            return leaf()
        if kind == "neg":
            return Neg(gen(d - 1))
        if kind == "impl":
            return Impl(gen(d - 1), gen(d - 1))
        if kind == "box":
            return Box(gen(d - 1))
        if kind == "know":
            return K(gen(d - 1))
        return B(gen(d - 1))

    return gen(depth)
