"""Finite algebraic models.

A model is a powerset Boolean algebra over ``n`` atoms (elements are
bitmasks, the designated ultrafilter is the principal one at an atom)
with the forced evidence operator and explicit knowledge/belief operator
tables.  Every finite Boolean algebra is isomorphic to such a powerset
algebra, and all of its ultrafilters are principal at atoms, which makes
the operator-table conditions decidable by enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MalformedTable, SizeLimitExceeded, UnboundVariable, Violation
from .frames import Frame, FrameModel
from .syntax import B, Bot, Box, Formula, Impl, K, Neg, Var, check_var_name

MAX_ATOMS = 16

Assignment = dict[str, int]


@dataclass(frozen=True)
class AlgebraicModel:
    """Powerset algebra with designated atom and K/B operator tables.

    ``K_table[a]`` is the element K(a); bit ``i`` of it says whether the
    ultrafilter at atom ``i`` contains K(a), i.e. whether ``a`` is known
    at that point.  The evidence operator is not stored: it is forced to
    map the top element to top and everything else to bottom.
    """

    atom_count: int
    true_point: int
    K_table: tuple[int, ...]
    B_table: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.atom_count < 1:
            raise ValueError("a model needs at least one atom")
        if not 0 <= self.true_point < self.atom_count:
            raise ValueError(f"true_point {self.true_point} is not an atom index")

    @property
    def full_mask(self) -> int:
        return (1 << self.atom_count) - 1


def _table_checks(m: AlgebraicModel) -> tuple[np.ndarray, np.ndarray]:
    n = m.atom_count
    if n > MAX_ATOMS:
        raise SizeLimitExceeded(f"{n} atoms exceed the limit of {MAX_ATOMS}")
    size = 1 << n
    tables = []
    for name, table in (("K", m.K_table), ("B", m.B_table)):
        if len(table) != size:
            raise MalformedTable(f"{name} table has {len(table)} entries, expected {size}")
        arr = np.asarray(table, dtype=np.int64)
        if arr.min() < 0 or arr.max() >= size:
            raise MalformedTable(f"{name} table contains a non-element value")
        tables.append(arr)
    return tables[0], tables[1]


def _greedy_meet_witness(members: np.ndarray, in_set: np.ndarray) -> tuple[int, int]:
    """Two members whose meet escapes the set; caller guarantees one exists."""
    acc = int(members[0])
    for a in members[1:]:
        a = int(a)
        if not in_set[acc & a]:
            return acc, a
        acc &= a
    raise AssertionError("no meet witness found in a set whose core escapes it")


def validate_algebra(raw: AlgebraicModel) -> list[Violation]:
    """Check the per-ultrafilter filter conditions; empty list means valid.

    For every atom ``i`` the knowledge and belief sets at the principal
    ultrafilter there must be proper filters containing the top element,
    knowledge must be factive (contained in the ultrafilter), and
    knowledge must be contained in belief.  Filterhood is decided through
    the principal core: a family containing the top element is a filter
    exactly when it is closed under single-atom enlargements and contains
    the intersection of its members.
    """
    k_arr, b_arr = _table_checks(raw)
    n = raw.atom_count
    size = 1 << n
    elements = np.arange(size, dtype=np.int64)
    violations: list[Violation] = []

    for op_name, arr in (("know", k_arr), ("bel", b_arr)):
        for i in range(n):
            member = ((arr >> i) & 1).astype(bool)
            if not member[size - 1]:
                violations.append(
                    Violation(
                        f"{op_name}-missing-top", i, (size - 1,),
                        f"top element is not {op_name.upper()} at atom {i}",
                    )
                )
            if member[0]:
                violations.append(
                    Violation(
                        f"{op_name}-improper", i, (0,),
                        f"bottom element is {op_name.upper()} at atom {i}",
                    )
                )
            members = elements[member]
            if members.size == 0:
                continue
            # upward closure via single-atom enlargements
            for bit in range(n):
                enlarged = elements | (1 << bit)
                bad = member & ~member[enlarged]
                if bad.any():
                    a = int(elements[bad][0])
                    violations.append(
                        Violation(
                            f"{op_name}-not-upward-closed", i, (a, a | (1 << bit)),
                            f"{op_name.upper()} at atom {i} misses a superset of {a}",
                        )
                    )
                    break
            core = int(np.bitwise_and.reduce(members))
            if not member[core]:
                a, b = _greedy_meet_witness(members, member)
                violations.append(
                    Violation(
                        f"{op_name}-not-meet-closed", i, (a, b),
                        f"{op_name.upper()} at atom {i} misses the meet of {a} and {b}",
                    )
                )

    for i in range(n):
        k_member = ((k_arr >> i) & 1).astype(bool)
        bad = k_member & ~(((elements >> i) & 1).astype(bool))
        if bad.any():
            a = int(elements[bad][0])
            violations.append(
                Violation(
                    "factivity", i, (a,),
                    f"element {a} is known at atom {i} but does not contain it",
                )
            )
        outside_belief = k_member & ~(((b_arr >> i) & 1).astype(bool))
        if outside_belief.any():
            a = int(elements[outside_belief][0])
            violations.append(
                Violation(
                    "know-not-in-bel", i, (a,),
                    f"element {a} is known but not believed at atom {i}",
                )
            )
    return violations


def eval_algebra(m: AlgebraicModel, g: Assignment, f: Formula) -> int:
    """Canonical extension of the assignment to ``f``; returns an element."""
    full = m.full_mask
    if isinstance(f, Var):
        if f.name not in g:
            raise UnboundVariable(f.name)
        return g[f.name]
    if isinstance(f, Bot):
        return 0
    if isinstance(f, Neg):
        return full ^ eval_algebra(m, g, f.sub)
    if isinstance(f, Impl):
        return (full ^ eval_algebra(m, g, f.left)) | eval_algebra(m, g, f.right)
    if isinstance(f, Box):
        return full if eval_algebra(m, g, f.sub) == full else 0
    if isinstance(f, K):
        return m.K_table[eval_algebra(m, g, f.sub)]
    if isinstance(f, B):
        return m.B_table[eval_algebra(m, g, f.sub)]
    raise TypeError(f"not a formula: {f!r}")


def satisfies_algebra(m: AlgebraicModel, g: Assignment, f: Formula) -> bool:
    """True iff the value of ``f`` lies in the designated ultrafilter."""
    return bool((eval_algebra(m, g, f) >> m.true_point) & 1)


def ultrafilters(m: AlgebraicModel) -> list[int]:
    """All ultrafilters, identified by the atoms generating them.

    In a finite powerset algebra every ultrafilter is principal at an
    atom, so the atom indices enumerate them exactly.
    """
    return list(range(m.atom_count))


def _filter_core(table: tuple[int, ...], atom: int, full: int) -> int:
    core = full
    for element, value in enumerate(table):
        if (value >> atom) & 1:
            core &= element
    return core


def algebra_to_frame(m: AlgebraicModel, g: Assignment) -> FrameModel:
    """Equivalent frame-based model over the ultrafilters of ``m``.

    Worlds are the atoms, the designated world is the designated atom,
    propositions are the full powerset (elements map to themselves), and
    each world's evidence filters are the knowledge/belief sets at its
    ultrafilter, stored by principal core.  Satisfaction is preserved:
    the algebra satisfies ``f`` iff the frame model does.
    """
    full = m.full_mask
    core_k = tuple(_filter_core(m.K_table, i, full) for i in range(m.atom_count))
    core_b = tuple(_filter_core(m.B_table, i, full) for i in range(m.atom_count))
    frame = Frame(
        world_count=m.atom_count,
        designated=m.true_point,
        core_K=core_k,
        core_B=core_b,
        propositions=None,
    )
    return FrameModel(frame, dict(g))


# -- file format ----------------------------------------------------------

def to_json(m: AlgebraicModel, assignment: Assignment | None = None) -> dict:
    obj: dict = {
        "atoms": m.atom_count,
        "true_point": m.true_point,
        "K": list(m.K_table),
        "B": list(m.B_table),
    }
    if assignment is not None:
        obj["assignment"] = {name: assignment[name] for name in sorted(assignment)}
    return obj


def from_json(obj: dict) -> tuple[AlgebraicModel, Assignment]:
    """Model plus the optional assignment stored alongside it."""
    try:
        atoms = int(obj["atoms"])
        true_point = int(obj["true_point"])
        k_table = tuple(int(v) for v in obj["K"])
        b_table = tuple(int(v) for v in obj["B"])
        assignment = {str(k): int(v) for k, v in obj.get("assignment", {}).items()}
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed algebraic model object: {exc}") from exc
    for name, value in assignment.items():
        check_var_name(name)
        # bit_length, not 1 << atoms: atoms is not validated yet
        if value < 0 or value.bit_length() > atoms:
            raise ValueError(
                f"assignment of {name!r} is {value}, not an element of an "
                f"algebra with {atoms} atoms"
            )
    return AlgebraicModel(atoms, true_point, k_table, b_table), assignment
