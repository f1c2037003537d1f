"""Frame-based models.

Worlds are indices 0..n-1 and propositions are world-set bitmasks.  The
per-world evidence filters for knowledge and belief are stored by their
principal cores: on a finite lattice every filter is the set of supersets
of the intersection of its members, so a single bitmask per world is
lossless and turns filter membership into a superset test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .errors import DuplicatePropositions, SizeLimitExceeded, UnboundVariable, Violation
from .syntax import B, Bot, Box, Formula, Impl, K, Neg, Var, check_var_name

MAX_FULL_WORLDS = 12
MAX_EXPLICIT_PROPS = 4096


@dataclass(frozen=True)
class Frame:
    """Worlds with a designated world, proposition family, and evidence cores.

    ``propositions`` is None for the full powerset of worlds, otherwise an
    explicit tuple of world-set bitmasks.
    """

    world_count: int
    designated: int
    core_K: tuple[int, ...]
    core_B: tuple[int, ...]
    propositions: Optional[tuple[int, ...]] = None

    def __post_init__(self) -> None:
        n = self.world_count
        if n < 1:
            raise ValueError("a frame needs at least one world")
        if not 0 <= self.designated < n:
            raise ValueError(f"designated world {self.designated} out of range")
        full = (1 << n) - 1
        for name, cores in (("core_K", self.core_K), ("core_B", self.core_B)):
            if len(cores) != n:
                raise ValueError(f"{name} must map every world (got {len(cores)} of {n})")
            for mask in cores:
                if not 0 <= mask <= full:
                    raise ValueError(f"{name} entry {mask} is not a world set")
        if self.propositions is not None:
            for mask in self.propositions:
                if not 0 <= mask <= full:
                    raise ValueError(f"proposition {mask} is not a world set")

    @property
    def full_mask(self) -> int:
        return (1 << self.world_count) - 1


@dataclass(frozen=True)
class FrameModel:
    frame: Frame
    assignment: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        full = self.frame.full_mask
        for name, mask in self.assignment.items():
            check_var_name(name)
            if not 0 <= mask <= full:
                raise ValueError(f"assignment of {name!r} is not a world set")


def validate_frame(raw: Frame) -> list[Violation]:
    """Semantic validation; an empty list means the frame is well formed.

    Checks membership of the empty and full world sets in P, closure of P
    under intersection, union, complement and the derived knowledge /
    belief operations, and the per-world core conditions (factivity,
    proper belief, belief core inside the knowledge core).
    """
    n = raw.world_count
    full = raw.full_mask
    if raw.propositions is None:
        if n > MAX_FULL_WORLDS:
            raise SizeLimitExceeded(
                f"{n} worlds with a full powerset exceeds {MAX_FULL_WORLDS}"
            )
        props: Optional[frozenset[int]] = None
    else:
        if len(raw.propositions) > MAX_EXPLICIT_PROPS:
            raise SizeLimitExceeded(
                f"{len(raw.propositions)} propositions exceed {MAX_EXPLICIT_PROPS}"
            )
        if len(set(raw.propositions)) != len(raw.propositions):
            raise DuplicatePropositions("proposition list repeats a world set")
        props = frozenset(raw.propositions)

    violations: list[Violation] = []

    def in_props(mask: int) -> bool:
        return props is None or mask in props

    if props is not None:
        if 0 not in props:
            violations.append(
                Violation("empty-set-missing", -1, (0,), "P does not contain the empty set")
            )
        if full not in props:
            violations.append(
                Violation("full-set-missing", -1, (full,), "P does not contain W")
            )
        ordered = sorted(props)
        for a in ordered:
            if (full ^ a) not in props:
                violations.append(
                    Violation(
                        "complement-escapes", -1, (a,),
                        f"complement of {a} is not in P",
                    )
                )
                break
        for a in ordered:
            ka = _op_image(raw.core_K, a)
            if ka not in props:
                violations.append(
                    Violation("k-image-escapes", -1, (a, ka), f"K image of {a} is not in P")
                )
                break
        for a in ordered:
            ba = _op_image(raw.core_B, a)
            if ba not in props:
                violations.append(
                    Violation("b-image-escapes", -1, (a, ba), f"B image of {a} is not in P")
                )
                break
        for code, op in (("meet-escapes", "and"), ("join-escapes", "or")):
            witness = _pair_closure_witness(ordered, props, op)
            if witness is not None:
                a, b = witness
                word = "intersection" if op == "and" else "union"
                violations.append(
                    Violation(code, -1, (a, b), f"{word} of {a} and {b} is not in P")
                )

    for w in range(n):
        ck, cb = raw.core_K[w], raw.core_B[w]
        if not in_props(ck):
            violations.append(
                Violation(
                    "know-core-not-proposition", w, (ck,),
                    f"knowledge core of world {w} is not in P",
                )
            )
        if not (ck >> w) & 1:
            violations.append(
                Violation(
                    "factivity", w, (ck,),
                    f"world {w} is not in its own knowledge core",
                )
            )
        if not in_props(cb):
            violations.append(
                Violation(
                    "belief-core-not-proposition", w, (cb,),
                    f"belief core of world {w} is not in P",
                )
            )
        if cb == 0:
            violations.append(
                Violation(
                    "belief-improper", w, (0,),
                    f"belief filter of world {w} contains the empty set",
                )
            )
        if cb & ~ck:
            violations.append(
                Violation(
                    "belief-core-outside-knowledge-core", w, (ck, cb),
                    f"belief core of world {w} is not inside its knowledge core",
                )
            )
    return violations


def _op_image(cores: tuple[int, ...], a: int) -> int:
    """Worlds whose core the set ``a`` covers (the derived K/B operation)."""
    out = 0
    for w, core in enumerate(cores):
        if core & ~a == 0:
            out |= 1 << w
    return out


def _pair_closure_witness(
    ordered: list[int], props: frozenset[int], op: str
) -> Optional[tuple[int, int]]:
    """First pair (lexicographic) whose meet/join escapes P, if any."""
    for a in ordered:
        for b in ordered:
            combined = (a & b) if op == "and" else (a | b)
            if combined not in props:
                return a, b
    return None


def validate_model(km: FrameModel) -> list[Violation]:
    """Frame validation plus the assignment-into-P requirement."""
    violations = validate_frame(km.frame)
    props = km.frame.propositions
    if props is not None:
        prop_set = set(props)
        for name in sorted(km.assignment):
            if km.assignment[name] not in prop_set:
                violations.append(
                    Violation(
                        "assignment-not-proposition", -1, (km.assignment[name],),
                        f"assignment of {name!r} is not in P",
                    )
                )
    return violations


def _star(km: FrameModel, f: Formula) -> int:
    mask = 0
    for w in range(km.frame.world_count):
        if satisfies_at(km, w, f):
            mask |= 1 << w
    return mask


def _check_proposition(km: FrameModel, mask: int) -> int:
    if km.frame.propositions is not None and mask not in km.frame.propositions:
        raise AssertionError(
            f"denotation {mask} escaped the proposition family; the frame is invalid"
        )
    return mask


def satisfies_at(km: FrameModel, w: int, f: Formula) -> bool:
    """Truth at world ``w`` by the recursive satisfaction clauses."""
    if isinstance(f, Var):
        if f.name not in km.assignment:
            raise UnboundVariable(f.name)
        return bool((km.assignment[f.name] >> w) & 1)
    if isinstance(f, Bot):
        return False
    if isinstance(f, Neg):
        return not satisfies_at(km, w, f.sub)
    if isinstance(f, Impl):
        return (not satisfies_at(km, w, f.left)) or satisfies_at(km, w, f.right)
    if isinstance(f, Box):
        return all(satisfies_at(km, v, f.sub) for v in range(km.frame.world_count))
    if isinstance(f, K):
        star = _check_proposition(km, _star(km, f.sub))
        return km.frame.core_K[w] & ~star == 0
    if isinstance(f, B):
        star = _check_proposition(km, _star(km, f.sub))
        return km.frame.core_B[w] & ~star == 0
    raise TypeError(f"not a formula: {f!r}")


def models(km: FrameModel, f: Formula) -> bool:
    """Truth at the designated world."""
    return satisfies_at(km, km.frame.designated, f)


def denote(km: FrameModel, f: Formula) -> int:
    """Denotation of ``f`` as a world-set bitmask, computed bottom-up.

    Agrees with :func:`satisfies_at` world by world.
    """
    frame = km.frame
    full = frame.full_mask
    if isinstance(f, Var):
        if f.name not in km.assignment:
            raise UnboundVariable(f.name)
        return km.assignment[f.name]
    if isinstance(f, Bot):
        return 0
    if isinstance(f, Neg):
        return full ^ denote(km, f.sub)
    if isinstance(f, Impl):
        return (full ^ denote(km, f.left)) | denote(km, f.right)
    if isinstance(f, Box):
        return full if denote(km, f.sub) == full else 0
    if isinstance(f, K):
        sub = _check_proposition(km, denote(km, f.sub))
        return _op_image(frame.core_K, sub)
    if isinstance(f, B):
        sub = _check_proposition(km, denote(km, f.sub))
        return _op_image(frame.core_B, sub)
    raise TypeError(f"not a formula: {f!r}")


# -- file format ----------------------------------------------------------

def to_json(km: FrameModel) -> dict:
    frame = km.frame
    props: object
    props = "full" if frame.propositions is None else list(frame.propositions)
    return {
        "worlds": frame.world_count,
        "designated": frame.designated,
        "propositions": props,
        "core_K": list(frame.core_K),
        "core_B": list(frame.core_B),
        "assignment": {name: km.assignment[name] for name in sorted(km.assignment)},
    }


def from_json(obj: dict) -> FrameModel:
    try:
        worlds = int(obj["worlds"])
        designated = int(obj["designated"])
        props_raw = obj["propositions"]
        core_k = tuple(int(v) for v in obj["core_K"])
        core_b = tuple(int(v) for v in obj["core_B"])
        assignment = {str(k): int(v) for k, v in obj.get("assignment", {}).items()}
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed frame model object: {exc}") from exc
    if props_raw == "full":
        props = None
    elif isinstance(props_raw, list):
        props = tuple(int(v) for v in props_raw)
    else:
        raise ValueError('"propositions" must be "full" or a list of bitmasks')
    frame = Frame(worlds, designated, core_k, core_b, props)
    return FrameModel(frame, assignment)
