import json

import pytest

from s5bke import cli, frames
from s5bke.bundled import model_files, proof_corpus
from s5bke.syntax import MAX_NESTING, parse


@pytest.fixture
def proof_file(tmp_path):
    def write(name):
        path = tmp_path / name
        path.write_text(proof_corpus()[name], encoding="utf-8")
        return str(path)

    return write


@pytest.fixture
def model_file(tmp_path):
    def write(name):
        path = tmp_path / name
        path.write_text(model_files()[name], encoding="utf-8")
        return str(path)

    return write


class TestCheckProof:
    def test_bundled_proof_accepted(self, proof_file, capsys):
        assert cli.run(["check-proof", proof_file("01_evidence_to_belief.prf")]) == 0
        out = capsys.readouterr().out
        assert "accepted" in out and "line 5: ok" in out

    def test_broken_justification_rejected(self, tmp_path, capsys):
        text = proof_corpus()["01_evidence_to_belief.prf"].replace("mp 1 3", "mp 1 2")
        path = tmp_path / "broken.prf"
        path.write_text(text, encoding="utf-8")
        assert cli.run(["check-proof", str(path)]) == 1
        out = capsys.readouterr().out
        assert "rejected at line 4" in out

    def test_empty_file_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "empty.prf"
        path.write_text("", encoding="utf-8")
        assert cli.run(["check-proof", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_machine_output(self, proof_file, capsys):
        assert cli.run(
            ["check-proof", proof_file("02_necessitated_factivity.prf"), "--machine"]
        ) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["accepted"] is True
        assert obj["first_failure"] is None

    def test_missing_file(self, capsys):
        assert cli.run(["check-proof", "/nonexistent/x.prf"]) == 2


class TestEval:
    def test_frame_satisfied(self, model_file, capsys):
        code = cli.run(["eval", "--kind", "frame", model_file("m1_frame.json"), "K(x | ~x)"])
        assert code == 0
        out = capsys.readouterr().out
        assert "satisfied: true" in out and "denotation: 3" in out

    def test_frame_falsified(self, model_file, capsys):
        assert cli.run(["eval", "--kind", "frame", model_file("m1_frame.json"), "[]x"]) == 1
        assert "satisfied: false" in capsys.readouterr().out

    def test_frame_at_other_world(self, model_file, capsys):
        code = cli.run(
            ["eval", "--kind", "frame", model_file("m1_frame.json"), "x", "--at", "1"]
        )
        assert code == 1
        assert "world: 1" in capsys.readouterr().out

    def test_algebra_identity_top(self, model_file, capsys):
        code = cli.run(
            ["eval", "--kind", "algebra", model_file("identity_algebra.json"), "x == top"]
        )
        assert code == 0
        assert "satisfied: true" in capsys.readouterr().out

    def test_at_rejected_for_algebra(self, model_file, capsys):
        code = cli.run(
            ["eval", "--kind", "algebra", model_file("identity_algebra.json"), "x", "--at", "0"]
        )
        assert code == 2

    def test_algebra_assignment_outside_algebra(self, tmp_path, capsys):
        obj = {"atoms": 1, "true_point": 0, "K": [0, 1], "B": [0, 1],
               "assignment": {"x": 7}}
        path = tmp_path / "outside.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        assert cli.run(["eval", "--kind", "algebra", str(path), "x"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "'x'" in err
        assert cli.run(["translate", str(path)]) == 2

    def test_invalid_model_lists_violations(self, tmp_path, capsys):
        obj = {"worlds": 2, "designated": 0, "propositions": "full",
               "core_K": [2, 2], "core_B": [2, 2], "assignment": {"x": 1}}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        assert cli.run(["eval", "--kind", "frame", str(path), "x"]) == 2
        assert "invalid model" in capsys.readouterr().out

    def test_unbound_variable_is_input_error(self, model_file, capsys):
        assert cli.run(
            ["eval", "--kind", "frame", model_file("m1_frame.json"), "missing"]
        ) == 2

    def test_comments_in_model_files(self, tmp_path, capsys):
        text = '# header\n{"worlds": 1, "designated": 0, # inline\n "propositions": "full", "core_K": [1], "core_B": [1], "assignment": {"x": 1}}\n'
        path = tmp_path / "commented.json"
        path.write_text(text, encoding="utf-8")
        assert cli.run(["eval", "--kind", "frame", str(path), "x"]) == 0


class TestCountermodel:
    def test_found_exits_one_and_round_trips(self, capsys):
        code = cli.run(["countermodel", "[]x | []~x", "--max-worlds", "2", "--machine"])
        assert code == 1
        obj = json.loads(capsys.readouterr().out)
        assert obj["verdict"] == "found"
        km = frames.from_json(obj["model"])
        assert frames.validate_model(km) == []
        assert not frames.models(km, parse("[]x | []~x"))
        assert obj["trace"] == [
            frames.satisfies_at(km, w, parse("[]x | []~x"))
            for w in range(km.frame.world_count)
        ]

    def test_unknown_exits_zero(self, capsys):
        assert cli.run(["countermodel", "K x -> x"]) == 0
        assert "no countermodel within bounds" in capsys.readouterr().out

    def test_premises(self, capsys):
        assert cli.run(["countermodel", "--premise", "B x", "~B~x"]) == 0
        assert cli.run(["countermodel", "--premise", "x", "[]x", "--max-worlds", "2"]) == 1

    def test_unparsable_goal(self, capsys):
        assert cli.run(["countermodel", "K -> x"]) == 2

    def test_text_output_is_loadable_frame_file(self, capsys, tmp_path):
        assert cli.run(["countermodel", "B x -> x", "--max-worlds", "2"]) == 1
        out = capsys.readouterr().out
        body = out[out.index("{") : out.rindex("}") + 1]
        km = frames.from_json(json.loads(body))
        assert not frames.models(km, parse("B x -> x"))


class TestNesting:
    @pytest.fixture
    def argv(self, tmp_path, model_file):
        def build(command, formula):
            if command == "countermodel":
                return ["countermodel", formula]
            if command == "eval":
                return ["eval", "--kind", "frame", model_file("m1_frame.json"), formula]
            path = tmp_path / "deep.prf"
            path.write_text(f"proof:\n1. {formula} ; ax CL\n", encoding="utf-8")
            return ["check-proof", str(path)]

        return build

    @pytest.mark.parametrize("command", ["countermodel", "check-proof", "eval"])
    @pytest.mark.parametrize(
        "formula",
        ["~" * 3000 + "x", "(" * 2000 + "x" + ")" * 2000],
        ids=["neg3000", "paren2000"],
    )
    def test_too_deep_is_input_error(self, argv, command, formula, capsys):
        assert cli.run(argv(command, formula)) == 2
        err = capsys.readouterr().err
        assert "nests deeper" in err and "Traceback" not in err

    # exactly MAX_NESTING levels: each prefix and parenthesis is one, the
    # arrow one more
    @pytest.mark.parametrize("command", ["countermodel", "check-proof", "eval"])
    @pytest.mark.parametrize(
        "formula, code",
        [
            ("~" * (MAX_NESTING - 2) + "(x -> x)", 0),
            ("(" * (MAX_NESTING - 1) + "x -> x" + ")" * (MAX_NESTING - 1), 0),
            ("~" * (MAX_NESTING - 1) + "x", 1),
        ],
        ids=["neg", "paren", "odd-neg"],
    )
    def test_at_the_bound_gives_a_verdict(self, argv, command, formula, code, capsys):
        assert cli.run(argv(command, formula)) == code


class TestTranslate:
    def test_identity_algebra(self, model_file, capsys):
        assert cli.run(["translate", model_file("identity_algebra.json")]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["worlds"] == 1
        assert obj["core_K"] == [1]

    def test_know_top_algebra(self, model_file, capsys):
        assert cli.run(["translate", model_file("know_top_algebra.json")]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["core_K"] == [3, 3]

    def test_emitted_frame_reloads_and_agrees(self, model_file, tmp_path, capsys):
        assert cli.run(["translate", model_file("know_top_algebra.json")]) == 0
        frame_path = tmp_path / "translated.json"
        frame_path.write_text(capsys.readouterr().out, encoding="utf-8")
        for formula, expected in (("K x", 1), ("x", 0), ("K x -> x", 0)):
            assert cli.run(["eval", "--kind", "frame", str(frame_path), formula]) == expected
            capsys.readouterr()

    def test_verify_flag(self, model_file, capsys):
        code = cli.run(
            ["translate", model_file("identity_algebra.json"), "--verify", "x == top", "--machine"]
        )
        assert code == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["verify"]["agree"] is True
        assert obj["verify"]["algebra"] is True

    def test_invalid_algebra(self, tmp_path, capsys):
        obj = {"atoms": 1, "true_point": 0, "K": [1, 1], "B": [0, 1]}
        path = tmp_path / "bad_alg.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        assert cli.run(["translate", str(path)]) == 2


class TestSelftest:
    def test_passes(self, capsys):
        assert cli.run(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "selftest passed" in out
        assert out.count(": ok") == 3

    def test_machine(self, capsys):
        assert cli.run(["selftest", "--machine"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["passed"] is True
        assert set(obj["suites"]) == {
            "box-iff-identity-with-top",
            "axiom-validity",
            "two-path-agreement",
        }
        assert all(s["failures"] == 0 for s in obj["suites"].values())


class TestUsage:
    def test_unknown_command(self, capsys):
        assert cli.run(["frobnicate"]) == 2

    def test_missing_argument(self, capsys):
        assert cli.run(["eval", "--kind", "frame"]) == 2

    def test_help_exits_zero(self, capsys):
        assert cli.run(["--help"]) == 0
