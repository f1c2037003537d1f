"""Batched formula evaluation over frame models.

Countermodel search and the validity sweeps evaluate the same formula on
hundreds of thousands of frames.  This module compiles a formula into a
postorder stack program of bitmask operations and runs it in one of two
shapes:

* a :class:`FrameBlock` from the countermodel search: a chunk of frames
  crossed with a grid of assignments.  On a full-powerset frame ``K`` and
  ``B`` are maps from propositions to propositions, so the block carries
  each frame's image tables and the numpy interpreter turns ``K``/``B``
  into a gather.  Operands are ``(1, assignments)`` while they do not
  depend on the frame (variables, purely propositional or ``[]``
  subformulas) and ``(frames, assignments)`` once they do; numpy
  broadcasting mixes the two.  Masks are ``uint8`` because the search
  stops at four worlds.
* a :class:`FrameBatch` of arbitrary models, one row each (validity
  sweeps, selftest), evaluated by :func:`eval_batch` in a numba-jitted
  loop or through a vectorized pure-numpy path.  Set
  ``S5BKE_EVAL_BACKEND=numpy`` (or ``numba``) to force one; the default
  is numba when it imports, numpy otherwise.

Only frames whose proposition family is the full powerset are supported
here; that is the only kind the search space contains.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .errors import UnboundVariable
from .frames import FrameModel
from .syntax import B, Bot, Box, Formula, Impl, K, Neg, Var

BACKEND_ENV = "S5BKE_EVAL_BACKEND"

OP_VAR, OP_BOT, OP_NEG, OP_IMPL, OP_BOX, OP_K, OP_B = range(7)

_MAX_STACK = 64

try:
    from numba import njit

    HAS_NUMBA = True
except ImportError:  # pragma: no cover - numba is a declared dependency
    HAS_NUMBA = False


def default_backend() -> str:
    choice = os.environ.get(BACKEND_ENV)
    if choice is None:
        return "numba" if HAS_NUMBA else "numpy"
    if choice not in ("numba", "numpy"):
        raise ValueError(f"{BACKEND_ENV} must be 'numba' or 'numpy', got {choice!r}")
    if choice == "numba" and not HAS_NUMBA:
        raise RuntimeError("numba backend requested but numba is not importable")
    return choice


@dataclass(frozen=True)
class Program:
    """Postorder stack program for one formula."""

    code: np.ndarray  # (length, 2) int64: opcode, operand
    stack_need: int
    variables: tuple[str, ...]


def compile_formula(f: Formula, variables: Sequence[str]) -> Program:
    """Flatten ``f`` into a stack program over the given variable order."""
    index = {name: i for i, name in enumerate(variables)}
    ops: list[tuple[int, int]] = []

    def emit(g: Formula) -> None:
        if isinstance(g, Var):
            if g.name not in index:
                raise UnboundVariable(g.name)
            ops.append((OP_VAR, index[g.name]))
        elif isinstance(g, Bot):
            ops.append((OP_BOT, 0))
        elif isinstance(g, Neg):
            emit(g.sub)
            ops.append((OP_NEG, 0))
        elif isinstance(g, Impl):
            emit(g.left)
            emit(g.right)
            ops.append((OP_IMPL, 0))
        elif isinstance(g, Box):
            emit(g.sub)
            ops.append((OP_BOX, 0))
        elif isinstance(g, K):
            emit(g.sub)
            ops.append((OP_K, 0))
        elif isinstance(g, B):
            emit(g.sub)
            ops.append((OP_B, 0))
        else:
            raise TypeError(f"not a formula: {g!r}")

    emit(f)
    code = np.asarray(ops, dtype=np.int64).reshape(len(ops), 2)
    depth = need = 0
    for op, _ in ops:
        depth += 1 if op in (OP_VAR, OP_BOT) else (-1 if op == OP_IMPL else 0)
        need = max(need, depth)
    if need > _MAX_STACK:
        raise ValueError(f"formula needs stack depth {need} > {_MAX_STACK}")
    return Program(code, need, tuple(variables))


@dataclass(frozen=True)
class FrameBatch:
    """Column arrays for a group of frame models sharing a world count.

    All frames use the full powerset of worlds as propositions.
    """

    worlds: int
    designated: np.ndarray  # (m,) int64
    core_k: np.ndarray      # (m, worlds) int64
    core_b: np.ndarray      # (m, worlds) int64
    assign: np.ndarray      # (m, len(variables)) int64
    variables: tuple[str, ...]

    def __len__(self) -> int:
        return self.core_k.shape[0]


@dataclass(frozen=True)
class FrameBlock:
    """Frames crossed with assignments, for one world count and designated
    world.  Row ``f * A + a`` is frame ``f`` under assignment column ``a``,
    where ``A`` is the number of assignment columns.

    ``k_table[f, s]`` is the set of worlds where proposition ``s`` is known
    in frame ``f``; ``b_table`` likewise for belief.  The tables fix the
    frame: the core at a world is the least proposition known (believed)
    there.
    """

    worlds: int
    designated: int
    k_table: np.ndarray  # (F, 2**worlds) uint8
    b_table: np.ndarray  # (F, 2**worlds) uint8
    assign: np.ndarray   # (len(variables), A) uint8, shared by every frame
    variables: tuple[str, ...]

    def __len__(self) -> int:
        return self.k_table.shape[0] * self.assign.shape[1]


def batch_models(
    models: Sequence[FrameModel], variables: Sequence[str]
) -> list[FrameBatch]:
    """Group models by world count, preserving order inside each group."""
    by_worlds: dict[int, list[FrameModel]] = {}
    for km in models:
        if km.frame.propositions is not None:
            raise ValueError("batched evaluation needs full-powerset frames")
        by_worlds.setdefault(km.frame.world_count, []).append(km)
    var_order = tuple(variables)
    out = []
    for worlds in sorted(by_worlds):
        group = by_worlds[worlds]
        m = len(group)
        designated = np.fromiter(
            (km.frame.designated for km in group), dtype=np.int64, count=m
        )
        core_k = np.array([km.frame.core_K for km in group], dtype=np.int64).reshape(m, worlds)
        core_b = np.array([km.frame.core_B for km in group], dtype=np.int64).reshape(m, worlds)
        assign = np.empty((m, len(var_order)), dtype=np.int64)
        for j, name in enumerate(var_order):
            for i, km in enumerate(group):
                if name not in km.assignment:
                    raise UnboundVariable(name)
                assign[i, j] = km.assignment[name]
        out.append(FrameBatch(worlds, designated, core_k, core_b, assign, var_order))
    return out


def _eval_loop(code, worlds, core_k, core_b, assign, out):
    full = (np.int64(1) << worlds) - 1
    length = code.shape[0]
    stack = np.empty(_MAX_STACK, dtype=np.int64)
    for idx in range(core_k.shape[0]):
        sp = 0
        for pc in range(length):
            op = code[pc, 0]
            arg = code[pc, 1]
            if op == OP_VAR:
                stack[sp] = assign[idx, arg]
                sp += 1
            elif op == OP_BOT:
                stack[sp] = 0
                sp += 1
            elif op == OP_NEG:
                stack[sp - 1] = stack[sp - 1] ^ full
            elif op == OP_IMPL:
                b = stack[sp - 1]
                a = stack[sp - 2]
                stack[sp - 2] = (a ^ full) | b
                sp -= 1
            elif op == OP_BOX:
                stack[sp - 1] = full if stack[sp - 1] == full else 0
            elif op == OP_K:
                a = stack[sp - 1]
                r = np.int64(0)
                for w in range(worlds):
                    c = core_k[idx, w]
                    if (a & c) == c:
                        r |= np.int64(1) << w
                stack[sp - 1] = r
            else:
                a = stack[sp - 1]
                r = np.int64(0)
                for w in range(worlds):
                    c = core_b[idx, w]
                    if (a & c) == c:
                        r |= np.int64(1) << w
                stack[sp - 1] = r
        out[idx] = stack[0]
    return out


if HAS_NUMBA:
    _eval_loop_jit = njit(cache=True)(_eval_loop)


def _eval_numpy(code, worlds, core_k, core_b, assign):
    m = core_k.shape[0]
    full = np.int64((1 << worlds) - 1)
    zero = np.int64(0)
    stack: list[np.ndarray] = []
    for pc in range(code.shape[0]):
        op = int(code[pc, 0])
        arg = int(code[pc, 1])
        if op == OP_VAR:
            stack.append(assign[:, arg])
        elif op == OP_BOT:
            stack.append(np.zeros(m, dtype=np.int64))
        elif op == OP_NEG:
            stack[-1] = stack[-1] ^ full
        elif op == OP_IMPL:
            b = stack.pop()
            a = stack.pop()
            stack.append((a ^ full) | b)
        elif op == OP_BOX:
            a = stack.pop()
            stack.append(np.where(a == full, full, zero))
        else:
            cores = core_k if op == OP_K else core_b
            a = stack.pop()
            r = np.zeros(m, dtype=np.int64)
            for w in range(worlds):
                c = cores[:, w]
                r |= ((a & c) == c).astype(np.int64) << np.int64(w)
            stack.append(r)
    return stack[0]


def eval_batch(
    program: Program, batch: FrameBatch, backend: Optional[str] = None
) -> np.ndarray:
    """Denotation bitmask of the program's formula on every model."""
    if batch.variables != program.variables:
        raise ValueError("program and batch disagree on variable order")
    backend = backend or default_backend()
    if backend == "numba":
        out = np.empty(len(batch), dtype=np.int64)
        _eval_loop_jit(
            program.code, batch.worlds, batch.core_k, batch.core_b, batch.assign, out
        )
        return out
    return _eval_numpy(
        program.code, batch.worlds, batch.core_k, batch.core_b, batch.assign
    )


def _eval_block(code: np.ndarray, block: FrameBlock) -> np.ndarray:
    """Denotations on a block, ``(1, A)`` if frame-independent else ``(F, A)``."""
    full = np.uint8((1 << block.worlds) - 1)
    offsets = None  # start of each frame's row in the flattened tables
    stack: list[np.ndarray] = []
    for op, arg in code.tolist():
        if op == OP_VAR:
            stack.append(block.assign[arg : arg + 1])
        elif op == OP_BOT:
            stack.append(np.zeros((1, block.assign.shape[1]), dtype=np.uint8))
        elif op == OP_NEG:
            stack[-1] = stack[-1] ^ full
        elif op == OP_IMPL:
            b = stack.pop()
            stack[-1] = (stack[-1] ^ full) | b
        elif op == OP_BOX:
            stack[-1] = (stack[-1] == full) * full
        else:
            table = block.k_table if op == OP_K else block.b_table
            a = stack[-1]
            if a.shape[0] == 1:
                stack[-1] = table[:, a[0]]
            else:
                if offsets is None:
                    offsets = np.arange(0, table.size, table.shape[1], dtype=np.intp)
                    offsets = offsets[:, None]
                stack[-1] = table.ravel().take(a + offsets)
    return stack[0]


def satisfied_at_designated(
    program: Program, batch: Union[FrameBatch, FrameBlock]
) -> np.ndarray:
    """Boolean array: formula true at each model's designated world.

    Blocks are evaluated by the table-driven numpy interpreter, batches by
    :func:`eval_batch` on the default backend.
    """
    if isinstance(batch, FrameBlock):
        if batch.variables != program.variables:
            raise ValueError("program and block disagree on variable order")
        den = _eval_block(program.code, batch)
        hit = (den & np.uint8(1 << batch.designated)) != 0
        if hit.shape[0] != len(batch.k_table):
            hit = np.broadcast_to(hit, (len(batch.k_table), hit.shape[1]))
        return hit.ravel()
    den = eval_batch(program, batch)
    return ((den >> batch.designated) & 1).astype(bool)
