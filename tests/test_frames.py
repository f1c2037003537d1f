import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import formula_strategy
from s5bke.errors import DuplicatePropositions, SizeLimitExceeded, UnboundVariable
from s5bke.frames import (
    Frame,
    FrameModel,
    denote,
    from_json,
    models,
    satisfies_at,
    to_json,
    validate_frame,
    validate_model,
)
from s5bke.kernel import scheme_examples
from s5bke.search import SearchBounds, random_model
from s5bke.syntax import parse

M1 = FrameModel(Frame(2, 0, (3, 2), (3, 2)), {"x": 1})

small_formulas = formula_strategy(max_leaves=10)


class TestFrameConstruction:
    def test_needs_a_world(self):
        with pytest.raises(ValueError):
            Frame(0, 0, (), ())

    def test_designated_in_range(self):
        with pytest.raises(ValueError):
            Frame(2, 2, (1, 2), (1, 2))

    def test_core_lengths(self):
        with pytest.raises(ValueError):
            Frame(2, 0, (1,), (1, 2))

    def test_masks_in_range(self):
        with pytest.raises(ValueError):
            Frame(1, 0, (2,), (1,))

    def test_assignment_masks_in_range(self):
        with pytest.raises(ValueError):
            FrameModel(Frame(1, 0, (1,), (1,)), {"x": 2})

    def test_assignment_names_validated(self):
        for name in ("K", "1x"):
            with pytest.raises(ValueError, match="invalid variable name"):
                FrameModel(Frame(1, 0, (1,), (1,)), {name: 1})


class TestValidateFrame:
    def test_reflexive_singleton_cores_valid(self):
        frame = Frame(2, 0, (1, 2), (1, 2))
        assert validate_frame(frame) == []

    def test_factivity_violation(self):
        frame = Frame(2, 0, (2, 2), (2, 2))
        violations = validate_frame(frame)
        assert any(v.code == "factivity" and v.at == 0 for v in violations)

    def test_improper_belief(self):
        frame = Frame(2, 0, (1, 2), (0, 2))
        violations = validate_frame(frame)
        assert any(v.code == "belief-improper" and v.at == 0 for v in violations)

    def test_belief_core_inside_knowledge_core(self):
        frame = Frame(2, 0, (1, 2), (3, 2))
        violations = validate_frame(frame)
        assert any(v.code == "belief-core-outside-knowledge-core" for v in violations)

    def test_full_powerset_guard(self):
        frame = Frame(13, 0, tuple(1 << w for w in range(13)), tuple(1 << w for w in range(13)))
        with pytest.raises(SizeLimitExceeded):
            validate_frame(frame)

    def test_duplicate_propositions(self):
        frame = Frame(1, 0, (1,), (1,), propositions=(0, 1, 1))
        with pytest.raises(DuplicatePropositions):
            validate_frame(frame)

    def test_explicit_family_closure(self):
        # {empty, W} with whole-W cores is closed under everything
        frame = Frame(2, 0, (3, 3), (3, 3), propositions=(0, 3))
        assert validate_frame(frame) == []

    def test_explicit_family_missing_complement(self):
        frame = Frame(2, 0, (3, 3), (3, 3), propositions=(0, 1, 3))
        codes = {v.code for v in validate_frame(frame)}
        assert "complement-escapes" in codes

    def test_explicit_family_missing_k_image(self):
        # {w0} is a proposition, its knowledge image {w : core ⊆ {w0}} = {w0}
        # stays inside, but the belief image of {w1} escapes
        frame = Frame(2, 0, (1, 3), (1, 2), propositions=(0, 1, 2, 3))
        assert validate_frame(frame) == []
        smaller = Frame(2, 0, (1, 2), (1, 2), propositions=(0, 3))
        codes = {v.code for v in validate_frame(smaller)}
        assert "know-core-not-proposition" in codes or "k-image-escapes" in codes

    def test_missing_empty_or_full(self):
        frame = Frame(1, 0, (1,), (1,), propositions=(1,))
        codes = {v.code for v in validate_frame(frame)}
        assert "empty-set-missing" in codes

    def test_assignment_must_be_proposition(self):
        km = FrameModel(Frame(2, 0, (3, 3), (3, 3), propositions=(0, 3)), {"x": 1})
        codes = {v.code for v in validate_model(km)}
        assert "assignment-not-proposition" in codes


class TestSatisfaction:
    def test_knows_excluded_middle(self):
        assert satisfies_at(M1, 0, parse("K(x | ~x)"))

    def test_does_not_know_contingency(self):
        assert not satisfies_at(M1, 0, parse("K x"))

    def test_no_evidence_for_contingency(self):
        assert not satisfies_at(M1, 0, parse("[]x"))

    def test_designated_world_clauses(self):
        assert models(M1, parse("~[]x"))
        assert models(M1, parse("[]~[]x"))
        assert models(M1, parse("x"))

    def test_world_one_knows_x(self):
        # core of world 1 is {1} and x holds exactly on {0}... so not known
        assert not satisfies_at(M1, 1, parse("K x"))
        strong = FrameModel(M1.frame, {"x": 2})
        assert satisfies_at(strong, 1, parse("K x"))

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariable):
            satisfies_at(M1, 0, parse("missing"))
        with pytest.raises(UnboundVariable):
            denote(M1, parse("missing"))

    def test_denotation_examples(self):
        assert denote(M1, parse("K x")) == 0
        assert denote(M1, parse("x | ~x")) == 3
        assert denote(M1, parse("B x")) == 0

    def test_denotation_escape_detected(self):
        # invalid on purpose: assignment outside the proposition family
        broken = FrameModel(
            Frame(2, 0, (1, 2), (1, 2), propositions=(0, 3)), {"x": 1}
        )
        with pytest.raises(AssertionError):
            satisfies_at(broken, 0, parse("K x"))
        with pytest.raises(AssertionError):
            denote(broken, parse("B x"))

    @given(st.integers(0, 500), small_formulas)
    def test_two_path_agreement(self, seed, f):
        km = random_model(seed, SearchBounds(max_worlds=4), ["x", "y", "z"])
        mask = denote(km, f)
        for w in range(km.frame.world_count):
            assert satisfies_at(km, w, f) == bool((mask >> w) & 1)


class TestValiditySpotChecks:
    def test_axiom_schemes_hold_everywhere(self):
        instances = list(scheme_examples().values())
        for seed in range(150):
            km = random_model(seed, SearchBounds(max_worlds=4), ["x", "y"])
            for instance in instances:
                assert denote(km, instance) == km.frame.full_mask

    def test_disjunction_of_boxes_rejected(self):
        assert models(M1, parse("[](x | ~x)"))
        assert not models(M1, parse("[]x | []~x"))

    def test_knowledge_does_not_collapse_into_evidence(self):
        km = FrameModel(Frame(2, 0, (1, 2), (1, 2)), {"y": 1})
        assert validate_frame(km.frame) == []
        assert satisfies_at(km, 0, parse("K y"))
        assert not satisfies_at(km, 0, parse("[]y"))
        assert not models(km, parse("K y <-> [] y"))


class TestFileFormat:
    def test_round_trip(self):
        for seed in range(20):
            km = random_model(seed, SearchBounds(max_worlds=4), ["x", "y"])
            assert from_json(to_json(km)) == km

    def test_explicit_propositions_round_trip(self):
        km = FrameModel(Frame(2, 0, (3, 3), (3, 3), propositions=(0, 3)), {"x": 3})
        obj = to_json(km)
        assert obj["propositions"] == [0, 3]
        assert from_json(obj) == km

    def test_full_marker(self):
        obj = to_json(M1)
        assert obj["propositions"] == "full"

    def test_malformed(self):
        with pytest.raises(ValueError):
            from_json({"worlds": 1})
        with pytest.raises(ValueError):
            from_json({**to_json(M1), "propositions": 7})
