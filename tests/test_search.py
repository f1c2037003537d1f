import itertools
import math

import pytest

from s5bke import fasteval, search
from s5bke.errors import GuardViolation
from s5bke.frames import Frame, FrameModel, models, satisfies_at, validate_frame
from s5bke.kernel import scheme_examples
from s5bke.search import (
    Found,
    SearchBounds,
    UnknownWithinBounds,
    _enumerate_batches,
    _model_from_batch_row,
    enumerate_frames,
    find_countermodel,
    random_formula,
    random_model,
)
from s5bke.syntax import Bot, Box, B, K, Var, parse


def census(n_worlds: int, n_vars: int) -> int:
    """Independent combinatorial count of frames with exactly n worlds.

    Per world: the knowledge core is {w} plus any subset of the others,
    and the belief core is a nonempty subset of it.  Assignments pick any
    world set per variable; the designated world is free.
    """
    per_world = sum(
        math.comb(n_worlds - 1, k - 1) * (2**k - 1) for k in range(1, n_worlds + 1)
    )
    return n_worlds * per_world**n_worlds * (2**n_worlds) ** n_vars


class TestEnumeration:
    def test_single_world_with_one_variable(self):
        found = list(enumerate_frames(SearchBounds(max_worlds=1), ["x"]))
        assert len(found) == 2
        assert {km.assignment["x"] for km in found} == {0, 1}
        assert all(km.frame.core_K == (1,) for km in found)

    def test_single_world_no_variables(self):
        assert len(list(enumerate_frames(SearchBounds(max_worlds=1), []))) == 1

    def test_two_worlds_fixed_designated(self):
        models_2 = [
            km
            for km in enumerate_frames(SearchBounds(max_worlds=2), [])
            if km.frame.world_count == 2 and km.frame.designated == 0
        ]
        assert len(models_2) == 16

    def test_counts_match_combinatorics(self):
        for n_vars, variables in ((0, []), (1, ["x"])):
            by_worlds = {1: 0, 2: 0, 3: 0}
            for km in enumerate_frames(SearchBounds(max_worlds=3), variables):
                by_worlds[km.frame.world_count] += 1
            for n in (1, 2, 3):
                assert by_worlds[n] == census(n, n_vars)

    def test_all_yielded_frames_valid(self):
        for km in enumerate_frames(SearchBounds(max_worlds=2), ["x"]):
            assert validate_frame(km.frame) == []

    def test_no_duplicates_and_deterministic(self):
        first = list(enumerate_frames(SearchBounds(max_worlds=2), ["x"]))
        second = list(enumerate_frames(SearchBounds(max_worlds=2), ["x"]))
        assert first == second
        seen = {
            (
                km.frame.world_count,
                km.frame.designated,
                km.frame.core_K,
                km.frame.core_B,
                tuple(sorted(km.assignment.items())),
            )
            for km in first
        }
        assert len(seen) == len(first)

    def test_exhaustive_guard(self):
        with pytest.raises(GuardViolation):
            list(enumerate_frames(SearchBounds(max_worlds=5), []))

    def test_batches_replay_the_same_order(self):
        bounds = SearchBounds(max_worlds=2)
        pure = list(enumerate_frames(bounds, ["x", "y"]))
        replayed = [
            _model_from_batch_row(batch, row)
            for batch in _enumerate_batches(bounds, ("x", "y"))
            for row in range(len(batch))
        ]
        assert pure == replayed


    @pytest.mark.parametrize("rows", [256, 48])
    def test_blocks_agree_with_recursive_reference(self, monkeypatch, rows):
        # a small cap gives many blocks: several frames per block at 256
        # rows, the assignment axis chunked at 48
        monkeypatch.setattr(search, "_BATCH_ROWS", rows)
        blocks = [
            b
            for i, b in enumerate(_enumerate_batches(SearchBounds(max_worlds=3), VARS2))
            if b.worlds < 3 or i % 211 == 0
        ]
        assert {b.worlds for b in blocks} == {1, 2, 3}
        for seed in range(12):
            f = random_formula(seed, 4, list(VARS2))
            program = fasteval.compile_formula(f, VARS2)
            for block in blocks:
                sat = fasteval.satisfied_at_designated(program, block)
                assert sat.shape == (len(block),)
                for row in range(len(block)):
                    km = _model_from_batch_row(block, row)
                    assert sat[row] == satisfies_at(km, km.frame.designated, f)

    def test_blocks_respect_the_row_cap(self):
        names = ("a", "b", "c", "d", "e", "f")
        bounds = SearchBounds(max_worlds=3, max_variables=6)
        sizes = [len(b) for b in _enumerate_batches(bounds, names)]
        assert max(sizes) <= search._BATCH_ROWS
        assert sum(sizes) == sum(census(n, 6) for n in (1, 2, 3))

        def replayed():
            for batch in _enumerate_batches(bounds, names):
                for row in range(len(batch)):
                    yield _model_from_batch_row(batch, row)

        count = 200_000
        assert list(itertools.islice(replayed(), count)) == list(
            itertools.islice(enumerate_frames(bounds, names), count)
        )

    def test_chunked_assignments_replay_the_same_order(self, monkeypatch):
        # 512 assignments per frame, 64 per block: crosses frame boundaries
        monkeypatch.setattr(search, "_BATCH_ROWS", 100)
        bounds = SearchBounds(max_worlds=3)
        names = ("x", "y", "z")
        replayed = (
            _model_from_batch_row(batch, row)
            for batch in _enumerate_batches(bounds, names)
            for row in range(len(batch))
        )
        count = 20_000
        assert list(itertools.islice(replayed, count)) == list(
            itertools.islice(enumerate_frames(bounds, names), count)
        )


VARS2 = ("x", "y")


def _sequential_reference_search(premises, goal, bounds):
    """Naive oracle: scan the enumerator directly with the recursive evaluator."""
    from s5bke.syntax import variables as fvars

    names = sorted(set().union(fvars(goal), *(fvars(p) for p in premises)))
    count = 0
    for km in enumerate_frames(bounds, names):
        count += 1
        if not models(km, goal) and all(models(km, p) for p in premises):
            return km
    return count


class TestFindCountermodel:
    def test_box_disjunction_refuted(self):
        report = find_countermodel([], parse("[]x | []~x"), SearchBounds(max_worlds=2))
        assert isinstance(report, Found)
        frame = report.model.frame
        assert frame.world_count == 2
        assert report.model.assignment == {"x": 1}
        assert not models(report.model, parse("[]x | []~x"))

    def test_belief_not_factive(self):
        report = find_countermodel([], parse("B x -> x"), SearchBounds(max_worlds=2))
        assert isinstance(report, Found)
        frame = report.model.frame
        assert frame.designated == 0
        assert frame.core_K[0] == 3
        assert frame.core_B[0] == 2
        assert report.model.assignment == {"x": 2}

    def test_factivity_not_refuted(self):
        report = find_countermodel([], parse("K x -> x"), SearchBounds(max_worlds=3))
        assert isinstance(report, UnknownWithinBounds)
        assert report.models_examined == sum(census(n, 1) for n in (1, 2, 3))

    def test_belief_consistent_under_premise(self):
        report = find_countermodel(
            [parse("B x")], parse("~B~x"), SearchBounds(max_worlds=3)
        )
        assert isinstance(report, UnknownWithinBounds)

    def test_trace_matches_reported_model(self):
        report = find_countermodel([], parse("x -> K x"), SearchBounds(max_worlds=2))
        assert isinstance(report, Found)
        goal = parse("x -> K x")
        for w, value in enumerate(report.trace):
            assert satisfies_at(report.model, w, goal) == value

    def test_first_model_agrees_with_sequential_reference(self):
        bounds = SearchBounds(max_worlds=2)
        for goal_text, premise_texts in (
            ("[]x | []~x", []),
            ("B x -> x", []),
            ("x -> K x", []),
            ("[]y", ["y"]),
            ("K x", ["B x"]),
        ):
            goal = parse(goal_text)
            premises = [parse(p) for p in premise_texts]
            reference = _sequential_reference_search(premises, goal, bounds)
            report = find_countermodel(premises, goal, bounds)
            if isinstance(report, Found):
                assert report.model == reference
            else:
                assert report.models_examined == reference

    @pytest.mark.parametrize(
        "goal_text,premise_texts,core_b,trace",
        [
            ("~(x & ~K x & <>(x & K x) & <>(~x & B ~x) & <>(~x & ~B ~x))", [],
             (1, 2, 4, 1), (False, True, True, True)),
            ("~(x & B~x & <>(x & K x) & <>(~x & B ~x) & <>(~x & ~B ~x))", [],
             (2, 2, 4, 1), (False, True, True, True)),
            ("~(<>(x & K x) & <>(~x & B ~x) & <>(~x & ~B ~x))", ["x & B~x"],
             (2, 2, 4, 1), (False, False, False, False)),
        ],
    )
    def test_first_four_world_witnesses_pinned(
        self, goal_text, premise_texts, core_b, trace
    ):
        # recorded from the row-per-model search this one replaced; the
        # sequential reference is too slow to reach the 4-world slice
        report = find_countermodel(
            [parse(p) for p in premise_texts], parse(goal_text), SearchBounds(max_worlds=4)
        )
        assert report == Found(
            FrameModel(Frame(4, 0, (3, 2, 4, 9), core_b), {"x": 5}), trace
        )

    def test_known_refutations(self):
        for text in (
            "x -> []x",
            "x -> K x",
            "K x -> []x",
            "B x -> K x",
            "B x -> x",
            "[]x | []~x",
        ):
            report = find_countermodel([], parse(text), SearchBounds(max_worlds=2))
            assert isinstance(report, Found), text
            assert not models(report.model, parse(text))

    def test_axiom_instances_not_refuted_quick(self):
        for scheme, instance in scheme_examples().items():
            report = find_countermodel([], instance, SearchBounds(max_worlds=2))
            assert isinstance(report, UnknownWithinBounds), scheme

    def test_variable_guard(self):
        goal = parse("w -> (x -> (y -> z))")
        with pytest.raises(GuardViolation):
            find_countermodel([], goal, SearchBounds(max_worlds=2, max_variables=3))

    @pytest.mark.parametrize(
        "premise_texts,goal_text",
        [(["B x"], "~B~x"), (["x"], "[]x"), (["[]x"], "B x"), (["K x", "K y"], "K x")],
    )
    def test_consequence_agrees_with_family_filter(self, premise_texts, goal_text):
        # bounded consequence: the goal holds on every enumerated model of
        # the premises iff no countermodel is found in the same space
        bounds = SearchBounds(max_worlds=2)
        premises = [parse(p) for p in premise_texts]
        goal = parse(goal_text)
        from s5bke.syntax import variables as fvars

        names = sorted(set().union(fvars(goal), *(fvars(p) for p in premises)))
        family = [
            km
            for km in enumerate_frames(bounds, names)
            if all(models(km, p) for p in premises)
        ]
        assert family
        holds_everywhere = all(models(km, goal) for km in family)
        report = find_countermodel(premises, goal, bounds)
        assert holds_everywhere == isinstance(report, UnknownWithinBounds)


class TestRandomModel:
    def test_valid_by_construction(self):
        for seed in range(200):
            km = random_model(seed, SearchBounds(max_worlds=4), ["x"])
            assert validate_frame(km.frame) == []

    def test_deterministic(self):
        a = random_model(1, SearchBounds(max_worlds=4), ["x"])
        b = random_model(1, SearchBounds(max_worlds=4), ["x"])
        assert a == b

    def test_not_degenerate(self):
        distinct = {
            str(random_model(seed, SearchBounds(max_worlds=4), ["x"]))
            for seed in range(1, 1001)
        }
        assert len(distinct) >= 2

    def test_world_guard(self):
        with pytest.raises(GuardViolation):
            random_model(1, SearchBounds(max_worlds=13), ["x"])


class TestRandomFormula:
    def test_depth_zero_is_leaf(self):
        f = random_formula(7, 0, ["x"])
        assert isinstance(f, (Var, Bot))

    def test_deterministic(self):
        assert random_formula(7, 4, ["x"]) == random_formula(7, 4, ["x"])

    def test_constructor_coverage(self):
        seen = set()

        def walk(g):
            seen.add(type(g).__name__)
            for attr in ("sub", "left", "right"):
                if hasattr(g, attr):
                    walk(getattr(g, attr))

        for seed in range(1, 101):
            walk(random_formula(seed, 4, ["x", "y"]))
        assert {"Box", "K", "B", "Var", "Neg", "Impl"} <= seen

    def test_depth_bound_respected(self):
        def depth(g):
            kids = [getattr(g, a) for a in ("sub", "left", "right") if hasattr(g, a)]
            return 0 if not kids else 1 + max(depth(k) for k in kids)

        for seed in range(50):
            assert depth(random_formula(seed, 3, ["x"])) <= 3

    def test_depth_guard(self):
        with pytest.raises(GuardViolation):
            random_formula(1, 9, ["x"])
