import functools
import itertools

import pytest
from hypothesis import given

from s5bke.errors import AtomLimitExceeded, ParseError
from s5bke.syntax import (
    MAX_NESTING,
    B,
    Bot,
    Box,
    Impl,
    K,
    Neg,
    Var,
    conj,
    diamond,
    disj,
    equiv,
    format_formula,
    iff,
    is_classical_tautology,
    parse,
    substitute,
    top,
    variables,
)

from conftest import formulas, modal_free_formulas

x, y, z = Var("x"), Var("y"), Var("z")


class TestParse:
    def test_modal_implication(self):
        assert parse("[]x -> K x") == Impl(Box(x), K(x))

    def test_identity_with_top_desugars_fully(self):
        # hand-derived: x == top  ~~>  [](x <-> ~bot)  ~~>  box of the
        # conjunction of both implications, with & eliminated
        expected = Box(
            Neg(Impl(Impl(x, Neg(Bot())), Neg(Impl(Neg(Bot()), x))))
        )
        assert parse("x == top") == expected
        # independent desugarer: the sugar builders
        assert parse("x == top") == equiv(x, top())

    def test_modal_prefix_without_operand(self):
        with pytest.raises(ParseError) as exc:
            parse("K -> x")
        assert exc.value.span.start == 2

    def test_precedence_unary_tightest(self):
        assert parse("~[]x") == Neg(Box(x))
        assert parse("[]~x") == Box(Neg(x))
        assert parse("K B x") == K(B(x))
        assert parse("<>x") == Neg(Box(Neg(x)))
        assert parse("<>x") == diamond(x)

    def test_precedence_and_over_or_over_arrow(self):
        assert parse("x & y | z") == parse("(x & y) | z")
        assert parse("x | y -> z") == parse("(x | y) -> z")
        assert parse("x -> y -> z") == Impl(x, Impl(y, z))

    def test_and_or_left_associative(self):
        assert parse("x & y & z") == parse("(x & y) & z")
        assert parse("x | y | z") == parse("(x | y) | z")

    def test_sugar_matches_builders(self):
        assert parse("x & y") == conj(x, y)
        assert parse("x | y") == disj(x, y)
        assert parse("x <-> y") == iff(x, y)
        assert parse("x == y") == equiv(x, y)
        assert parse("top") == top()

    @given(formulas, formulas)
    def test_identity_is_boxed_biconditional(self, f, g):
        sf, sg = format_formula(f), format_formula(g)
        assert parse(f"{sf} == {sg}") == Box(parse(f"{sf} <-> {sg}"))

    def test_nonassociative_chains_rejected(self):
        for text in ("x <-> y <-> z", "x == y == z", "x <-> y == z", "x == y <-> z"):
            with pytest.raises(ParseError):
                parse(text)
        # parenthesized is fine
        parse("x <-> (y <-> z)")
        parse("(x == y) <-> z")

    def test_unknown_token(self):
        with pytest.raises(ParseError) as exc:
            parse("x ? y")
        assert exc.value.span == exc.value.span.__class__(2, 3)

    def test_unbalanced_parentheses(self):
        with pytest.raises(ParseError):
            parse("((x -> y)")
        with pytest.raises(ParseError):
            parse("x)")

    def test_uppercase_identifier_rejected(self):
        with pytest.raises(ParseError):
            parse("Foo")

    def test_junk_after_formula(self):
        with pytest.raises(ParseError):
            parse("x y")

    def test_comments_and_whitespace(self):
        assert parse("[]x ->  # evidence\n   K x") == Impl(Box(x), K(x))
        assert parse("\tK\nx") == K(x)

    @pytest.mark.parametrize(
        "opening, closing, levels",
        [
            ("~", "", 1), ("(", ")", 1), ("<>", "", 1), ("K (", ")", 2),
            ("x -> ", "", 1), ("x & ", "", 1), ("x | ", "", 1),
        ],
    )
    def test_nesting_bound(self, opening, closing, levels):
        count = MAX_NESTING // levels
        parse(opening * count + "x" + closing * count)
        with pytest.raises(ParseError, match="nests deeper"):
            parse(opening * (count + 1) + "x" + closing * (count + 1))


class TestPrint:
    def test_canonical_forms(self):
        assert format_formula(Impl(Box(x), K(x))) == "(([]x) -> (K x))"
        assert format_formula(Bot()) == "bot"
        assert format_formula(Neg(Bot())) == "(~bot)"
        assert format_formula(B(x)) == "(B x)"

    @given(formulas)
    def test_round_trip(self, f):
        assert parse(format_formula(f)) == f

    @given(formulas)
    def test_str_is_canonical_form(self, f):
        assert str(f) == format_formula(f)


class TestVar:
    def test_reserved_words_rejected(self):
        for name in ("K", "B", "bot", "top"):
            with pytest.raises(ValueError):
                Var(name)

    def test_shape_rules(self):
        for name in ("", "X", "9a", "_a", "a b"):
            with pytest.raises(ValueError):
                Var(name)
        Var("x0")
        Var("knows_it")


class TestSubstitute:
    def test_replaces_matching_leaves(self):
        assert substitute(Impl(x, y), "x", Box(z)) == Impl(Box(z), y)

    def test_absent_variable_unchanged(self):
        assert substitute(y, "x", Bot()) == y

    def test_identity_substitution(self):
        assert substitute(K(x), "x", x) == K(x)

    @given(formulas, formulas)
    def test_distributes_over_constructors(self, chi, psi):
        for wrap in (Neg, Box, K, B):
            assert substitute(wrap(chi), "x", psi) == wrap(substitute(chi, "x", psi))
        assert substitute(Impl(chi, chi), "x", psi) == Impl(
            substitute(chi, "x", psi), substitute(chi, "x", psi)
        )

    @given(formulas)
    def test_identity_is_noop(self, chi):
        assert substitute(chi, "x", x) == chi


def _truth_table_tautology(f):
    """Direct truth-table check over the variables; no abstraction."""
    names = sorted(variables(f))

    def ev(g, val):
        if isinstance(g, Var):
            return val[g.name]
        if isinstance(g, Bot):
            return False
        if isinstance(g, Neg):
            return not ev(g.sub, val)
        if isinstance(g, Impl):
            return (not ev(g.left, val)) or ev(g.right, val)
        raise TypeError(g)

    return all(
        ev(f, dict(zip(names, bits)))
        for bits in itertools.product((False, True), repeat=len(names))
    )


def _collect_atoms(f, atoms):
    if isinstance(f, (Var, Box, K, B)):
        atoms.setdefault(f, len(atoms))
    elif isinstance(f, Neg):
        _collect_atoms(f.sub, atoms)
    elif isinstance(f, Impl):
        _collect_atoms(f.left, atoms)
        _collect_atoms(f.right, atoms)


def _eval_abstraction(f, atoms, valuation):
    if isinstance(f, (Var, Box, K, B)):
        return bool((valuation >> atoms[f]) & 1)
    if isinstance(f, Bot):
        return False
    if isinstance(f, Neg):
        return not _eval_abstraction(f.sub, atoms, valuation)
    if isinstance(f, Impl):
        return (not _eval_abstraction(f.left, atoms, valuation)) or _eval_abstraction(
            f.right, atoms, valuation
        )
    raise TypeError(f)


def _reference_tautology(f):
    """Reference oracle: one recursive evaluation of the boolean
    abstraction per valuation."""
    atoms = {}
    _collect_atoms(f, atoms)
    return all(
        _eval_abstraction(f, atoms, valuation) for valuation in range(1 << len(atoms))
    )


def _wide_atoms(count):
    # variables and modal atoms alternate
    return [K(Var(f"v{i}")) if i % 2 else Var(f"v{i}") for i in range(count)]


def _false_only_at(atoms, valuation):
    """Negated conjunction of literals: false exactly at ``valuation``."""
    literals = [a if valuation >> i & 1 else Neg(a) for i, a in enumerate(atoms)]
    return Neg(functools.reduce(conj, literals))


class TestClassicalTautology:
    def test_examples(self):
        assert is_classical_tautology(parse("K x -> K x"))
        assert not is_classical_tautology(parse("K x -> x"))
        assert not is_classical_tautology(parse("[](x->y) -> ([]x -> []y)"))
        assert is_classical_tautology(parse("x | ~x"))
        assert is_classical_tautology(parse("bot -> x"))

    def test_shared_modal_atoms(self):
        # identical modal subformulas must collapse to one atom
        assert is_classical_tautology(parse("B(x & y) | ~B(x & y)"))
        assert not is_classical_tautology(parse("B(x & y) | ~B(y & x)"))

    @given(modal_free_formulas)
    def test_agrees_with_direct_truth_table(self, f):
        assert is_classical_tautology(f) == _truth_table_tautology(f)

    @given(formulas)
    def test_agrees_with_reference(self, f):
        assert is_classical_tautology(f) == _reference_tautology(f)

    @pytest.mark.parametrize("count", [13, 14, 15, 19, 20])
    def test_wide_exact(self, count):
        # 2**14 valuations per chunk: 13 and 14 atoms fit in one chunk, 15
        # and more span several, 20 is the limit.  The falsifying
        # valuations include the first and the last one of the first chunk
        # and the last one of all (every atom true).
        atoms = _wide_atoms(count)
        assert is_classical_tautology(Impl(functools.reduce(conj, atoms), atoms[-1]))
        full = (1 << count) - 1
        for valuation in (0, full & ((1 << 14) - 1), 1 << (count - 1), full >> 1, full):
            assert not is_classical_tautology(_false_only_at(atoms, valuation))

    def test_deep_negation_chain(self):
        f = Impl(x, x)
        for _ in range(10_000):
            f = Neg(f)
        assert is_classical_tautology(f)

    def test_atom_limit(self):
        f = Var("v0")
        for i in range(1, 21):
            f = Impl(Var(f"v{i}"), f)
        with pytest.raises(
            AtomLimitExceeded, match="21 abstraction atoms exceed the limit of 20"
        ):
            is_classical_tautology(f)
        # one fewer atom is fine
        g = Var("v1")
        for i in range(2, 21):
            g = Impl(Var(f"v{i}"), g)
        assert not is_classical_tautology(g)


class TestVariables:
    def test_collects_names(self):
        assert variables(parse("K(x -> y) -> (K x -> K y)")) == {"x", "y"}
        assert variables(Bot()) == frozenset()
