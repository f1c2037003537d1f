"""Formula language of S5BKE.

Core AST with exactly seven node kinds (variables, falsum, negation,
implication and the three modalities), an ASCII concrete grammar whose
remaining connectives are definitional sugar, a canonical fully
parenthesized printer, substitution, and the classical-tautology oracle
used to recognize instances of the tautology axiom scheme.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator

from .errors import AtomLimitExceeded, ParseError, SourceSpan

RESERVED_WORDS = frozenset({"K", "B", "bot", "top"})

_VAR_RE = re.compile(r"[a-z][a-zA-Z0-9_]*\Z")

# Maximum number of distinct abstraction atoms the tautology oracle accepts.
ATOM_LIMIT = 20

# Deepest nesting the parser accepts.  The parser and the recursive
# evaluators, printers and matchers spend stack frames per level, so
# anything deeper would end in a RecursionError instead of a ParseError.
MAX_NESTING = 100


def check_var_name(name: str) -> None:
    """Raise ValueError unless ``name`` is a valid variable name."""
    if not _VAR_RE.match(name) or name in RESERVED_WORDS:
        raise ValueError(f"invalid variable name: {name!r}")


class Formula:
    """Base class of the seven core AST node kinds."""

    __slots__ = ()

    def __str__(self) -> str:
        return format_formula(self)


@dataclass(frozen=True)
class Var(Formula):
    name: str

    def __post_init__(self) -> None:
        check_var_name(self.name)


@dataclass(frozen=True)
class Bot(Formula):
    pass


@dataclass(frozen=True)
class Neg(Formula):
    sub: Formula


@dataclass(frozen=True)
class Impl(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Box(Formula):
    sub: Formula


@dataclass(frozen=True)
class K(Formula):
    sub: Formula


@dataclass(frozen=True)
class B(Formula):
    sub: Formula


# -- definitional sugar -------------------------------------------------
#
# These builders mirror the parser's desugaring and are kept independent
# of it so tests can cross-check the two.

def top() -> Formula:
    return Neg(Bot())


def conj(a: Formula, b: Formula) -> Formula:
    return Neg(Impl(a, Neg(b)))


def disj(a: Formula, b: Formula) -> Formula:
    return Impl(Neg(a), b)


def iff(a: Formula, b: Formula) -> Formula:
    return conj(Impl(a, b), Impl(b, a))


def equiv(a: Formula, b: Formula) -> Formula:
    """Propositional identity: box of the biconditional."""
    return Box(iff(a, b))


def diamond(a: Formula) -> Formula:
    return Neg(Box(Neg(a)))


# -- concrete syntax ----------------------------------------------------

@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    start: int
    end: int

    @property
    def span(self) -> SourceSpan:
        return SourceSpan(self.start, self.end)


_TOKEN_RE = re.compile(
    r"""
      (?P<WS>      [ \t\r\n]+        )
    | (?P<COMMENT> \#[^\n]*          )
    | (?P<IFF>     <->               )
    | (?P<ARROW>   ->                )
    | (?P<IDENT2>  ==                )
    | (?P<BOX>     \[\]              )
    | (?P<DIAMOND> <>                )
    | (?P<NEG>     ~                 )
    | (?P<AND>     &                 )
    | (?P<OR>      \|                )
    | (?P<LPAR>    \(                )
    | (?P<RPAR>    \)                )
    | (?P<KOP>     K                 )
    | (?P<BOP>     B                 )
    | (?P<IDENT>   [a-z][a-zA-Z0-9_]*)
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> Iterator[_Token]:
    pos = 0
    n = len(text)
    while pos < n:
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unknown token {text[pos]!r}", SourceSpan(pos, pos + 1))
        kind = m.lastgroup
        assert kind is not None
        if kind not in ("WS", "COMMENT"):
            value = m.group()
            if kind == "IDENT" and value in ("bot", "top"):
                kind = value.upper()
            yield _Token(kind, value, pos, m.end())
        pos = m.end()
    yield _Token("EOF", "", n, n)


class _Parser:
    """Recursive-descent parser for the ASCII grammar.

    Precedence, tightest first: unary prefixes ``~ [] <> K B``, then
    ``&`` (left), ``|`` (left), ``->`` (right), and ``<->`` / ``==``
    (non-associative, lowest).  All sugar is eliminated during parsing.
    Each prefix, parenthesis and binary operator (of a chain, too) opens
    one nesting level; past ``MAX_NESTING`` levels parsing stops with a
    :class:`ParseError`.
    """

    def __init__(self, text: str):
        self.tokens = list(_tokenize(text))
        self.pos = 0
        self.depth = 0

    def nest(self, tok: _Token) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"formula nests deeper than {MAX_NESTING} levels", tok.span)

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self) -> Formula:
        f = self.parse_iff()
        tok = self.peek()
        if tok.kind != "EOF":
            raise ParseError(f"unexpected {tok.text!r} after formula", tok.span)
        return f

    def parse_iff(self) -> Formula:
        left = self.parse_impl()
        tok = self.peek()
        if tok.kind not in ("IFF", "IDENT2"):
            return left
        self.advance()
        right = self.parse_impl()
        trailing = self.peek()
        if trailing.kind in ("IFF", "IDENT2"):
            raise ParseError(
                f"{tok.text!r} is non-associative; parenthesize the chain",
                trailing.span,
            )
        # a <-> b  ~~>  (a -> b) & (b -> a);  a == b  ~~>  [](a <-> b)
        both = Neg(Impl(Impl(left, right), Neg(Impl(right, left))))
        return Box(both) if tok.kind == "IDENT2" else both

    def parse_impl(self) -> Formula:
        left = self.parse_or()
        tok = self.peek()
        if tok.kind != "ARROW":
            return left
        self.advance()
        self.nest(tok)
        right = self.parse_impl()
        self.depth -= 1
        return Impl(left, right)

    def parse_or(self) -> Formula:
        # each operator of a left-associative chain nests the result one
        # level deeper
        depth = self.depth
        f = self.parse_and()
        while (tok := self.peek()).kind == "OR":
            self.advance()
            self.nest(tok)
            f = Impl(Neg(f), self.parse_and())
        self.depth = depth
        return f

    def parse_and(self) -> Formula:
        depth = self.depth
        f = self.parse_unary()
        while (tok := self.peek()).kind == "AND":
            self.advance()
            self.nest(tok)
            f = Neg(Impl(f, Neg(self.parse_unary())))
        self.depth = depth
        return f

    def parse_unary(self) -> Formula:
        tok = self.peek()
        if tok.kind not in ("NEG", "BOX", "DIAMOND", "KOP", "BOP"):
            return self.parse_atom()
        self.advance()
        self.nest(tok)
        sub = self.parse_unary()
        self.depth -= 1
        if tok.kind == "NEG":
            return Neg(sub)
        if tok.kind == "BOX":
            return Box(sub)
        if tok.kind == "DIAMOND":
            return Neg(Box(Neg(sub)))
        if tok.kind == "KOP":
            return K(sub)
        return B(sub)

    def parse_atom(self) -> Formula:
        tok = self.advance()
        if tok.kind == "IDENT":
            return Var(tok.text)
        if tok.kind == "BOT":
            return Bot()
        if tok.kind == "TOP":
            return Neg(Bot())
        if tok.kind == "LPAR":
            self.nest(tok)
            f = self.parse_iff()
            closing = self.advance()
            if closing.kind != "RPAR":
                raise ParseError("unbalanced parenthesis", closing.span)
            self.depth -= 1
            return f
        if tok.kind == "EOF":
            raise ParseError("unexpected end of input", tok.span)
        raise ParseError(f"expected a formula, found {tok.text!r}", tok.span)


def parse(text: str) -> Formula:
    """Parse concrete syntax into the desugared core AST."""
    return _Parser(text).parse()


def format_formula(f: Formula) -> str:
    """Canonical fully parenthesized core-connective form.

    ``parse(format_formula(f))`` is structurally equal to ``f``.
    """
    if isinstance(f, Var):
        return f.name
    if isinstance(f, Bot):
        return "bot"
    if isinstance(f, Neg):
        return f"(~{format_formula(f.sub)})"
    if isinstance(f, Impl):
        return f"({format_formula(f.left)} -> {format_formula(f.right)})"
    if isinstance(f, Box):
        return f"([]{format_formula(f.sub)})"
    if isinstance(f, K):
        return f"(K {format_formula(f.sub)})"
    if isinstance(f, B):
        return f"(B {format_formula(f.sub)})"
    raise TypeError(f"not a formula: {f!r}")


def substitute(chi: Formula, x: str, psi: Formula) -> Formula:
    """Replace every occurrence of variable ``x`` in ``chi`` by ``psi``."""
    if isinstance(chi, Var):
        return psi if chi.name == x else chi
    if isinstance(chi, Bot):
        return chi
    if isinstance(chi, Neg):
        return Neg(substitute(chi.sub, x, psi))
    if isinstance(chi, Impl):
        return Impl(substitute(chi.left, x, psi), substitute(chi.right, x, psi))
    if isinstance(chi, Box):
        return Box(substitute(chi.sub, x, psi))
    if isinstance(chi, K):
        return K(substitute(chi.sub, x, psi))
    if isinstance(chi, B):
        return B(substitute(chi.sub, x, psi))
    raise TypeError(f"not a formula: {chi!r}")


def variables(f: Formula) -> frozenset[str]:
    """Names of the variables occurring in ``f``."""
    out: set[str] = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, Var):
            out.add(g.name)
        elif isinstance(g, (Neg, Box, K, B)):
            stack.append(g.sub)
        elif isinstance(g, Impl):
            stack.append(g.left)
            stack.append(g.right)
    return frozenset(out)


# Valuations per evaluation chunk: 2**_CHUNK_ATOMS.  The lowest
# _CHUNK_ATOMS atoms vary inside a chunk, every higher atom is constant
# across it.
_CHUNK_ATOMS = 14

_ATOM, _BOT, _NEG, _IMPL = range(4)


def _periodic_masks(count: int) -> list[int]:
    # Bit v of mask i is bit i of v, over 2**count valuations; each mask
    # is one period of 2**i zeros then 2**i ones, doubled to full width.
    width = 1 << count
    masks = []
    for i in range(count):
        period = 2 << i
        mask = ((1 << (1 << i)) - 1) << (1 << i)
        while period < width:
            mask |= mask << period
            period <<= 1
        masks.append(mask)
    return masks


_LOW_MASKS = _periodic_masks(_CHUNK_ATOMS)


def _compile_abstraction(f: Formula) -> tuple[list[tuple[int, int, int]], int]:
    """Straight-line program of the boolean abstraction of ``f``.

    Instruction ``n`` computes slot ``n`` as ``(op, a, b)``: atom ``a``,
    falsum, the negation of slot ``a``, or slot ``a`` implies slot ``b``.
    Variables and maximal modal subformulas are atoms, numbered by first
    occurrence, and structurally equal ones share an atom; every other
    subformula object gets one slot however often it is shared.  Returns
    the program and the atom count.
    """
    program: list[tuple[int, int, int]] = []
    slots: dict[int, int] = {}  # id(subformula) -> slot
    atoms: dict[Formula, int] = {}  # atom -> its slot
    stack = [f]
    while stack:
        g = stack[-1]
        if id(g) in slots:
            stack.pop()
            continue
        if isinstance(g, (Var, Box, K, B)):
            slot = atoms.get(g)
            if slot is None:
                slot = atoms[g] = len(program)
                program.append((_ATOM, len(atoms) - 1, 0))
        elif isinstance(g, Bot):
            slot = len(program)
            program.append((_BOT, 0, 0))
        elif isinstance(g, Neg):
            sub = slots.get(id(g.sub))
            if sub is None:
                stack.append(g.sub)
                continue
            slot = len(program)
            program.append((_NEG, sub, 0))
        elif isinstance(g, Impl):
            left = slots.get(id(g.left))
            if left is None:
                stack.append(g.left)
                continue
            right = slots.get(id(g.right))
            if right is None:
                stack.append(g.right)
                continue
            slot = len(program)
            program.append((_IMPL, left, right))
        else:
            raise TypeError(f"not a formula: {g!r}")
        slots[id(g)] = slot
        stack.pop()
    return program, len(atoms)


def _all_ones(program: list[tuple[int, int, int]], masks: list[int], ones: int) -> bool:
    values: list[int] = []
    push = values.append
    for op, a, b in program:
        if op == _IMPL:
            push((ones ^ values[a]) | values[b])
        elif op == _NEG:
            push(ones ^ values[a])
        elif op == _ATOM:
            push(masks[a])
        else:
            push(0)
    return values[-1] == ones


def is_classical_tautology(f: Formula) -> bool:
    """True iff the boolean abstraction of ``f`` is a tautology.

    The abstraction maps each variable and each maximal subformula headed
    by a modal operator to a propositional atom.  All valuations are
    evaluated bit-parallel: atom ``i`` is an integer whose bit ``v`` is
    bit ``i`` of valuation ``v``, in chunks of ``2**_CHUNK_ATOMS``
    valuations.  Raises :class:`AtomLimitExceeded` past ``ATOM_LIMIT``
    distinct atoms, before evaluating anything.
    """
    program, count = _compile_abstraction(f)
    if count > ATOM_LIMIT:
        raise AtomLimitExceeded(
            f"{count} abstraction atoms exceed the limit of {ATOM_LIMIT}"
        )
    low = min(count, _CHUNK_ATOMS)
    ones = (1 << (1 << low)) - 1
    low_masks = [mask & ones for mask in _LOW_MASKS[:low]]
    high = count - low
    return all(
        _all_ones(
            program,
            low_masks + [ones if chunk >> j & 1 else 0 for j in range(high)],
            ones,
        )
        for chunk in range(1 << high)
    )
