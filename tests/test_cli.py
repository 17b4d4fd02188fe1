"""Problem-file parsing, report emission, exit codes."""

import json

import numpy as np
import pytest

from chanpart.cli import (
    EXIT_GUARD,
    EXIT_INPUT,
    EXIT_OK,
    main,
    parse_problem_document,
    parse_problem_file,
    serialize_problem,
)

E1_DOC = {
    "format": 1,
    "joint_xy": [[0.20, 0.15, 0.05, 0.10], [0.05, 0.10, 0.20, 0.15]],
    "num_cells": 2,
    "beta": 1.0,
    "impurity": "entropy",
    "constraint": "none",
    "solver": "bruteforce",
}


def write_doc(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def e1_doc(**overrides):
    doc = dict(E1_DOC)
    doc.update(overrides)
    return doc


class TestSolve:
    def test_bruteforce_report(self, tmp_path, capsys):
        code = main(["solve", write_doc(tmp_path, e1_doc())])
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["format"] == 1
        assert report["solver"] == "bruteforce"
        assert report["objective"] == pytest.approx(0.8812908992306926, abs=1e-9)
        assert report["assignment"] == [1, 1, 2, 2]
        assert report["optimality_certificate"] is True
        np.testing.assert_allclose(report["cell_masses"], [0.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(
            report["output_joint"], [[0.35, 0.15], [0.15, 0.35]], atol=1e-12
        )

    def test_bad_joint_sum_exits_2_naming_key(self, tmp_path, capsys):
        doc = e1_doc(joint_xy=[[0.6], [0.6]])
        code = main(["solve", write_doc(tmp_path, doc)])
        assert code == EXIT_INPUT
        assert "joint_xy" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("overrides", "key"),
        [
            ({"joint_xy": [[0.20, 0.15, 0.05, float("nan")], [0.05, 0.10, 0.20, 0.15]]}, "joint_xy"),
            ({"channel": [[0.9, float("nan")], [0.1, 0.9]]}, "channel"),
            ({"beta": float("inf")}, "beta"),
        ],
    )
    def test_non_finite_value_exits_2_naming_key(self, tmp_path, capsys, overrides, key):
        path = write_doc(tmp_path, e1_doc(**overrides))  # json writes NaN / Infinity
        for argv in (["solve", path, "--solver", "iterative"], ["solve", path], ["compare", path]):
            assert main(argv) == EXIT_INPUT
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"error: {key}: ")

    def test_unknown_impurity_exits_2(self, tmp_path, capsys):
        code = main(["solve", write_doc(tmp_path, e1_doc(impurity="variance"))])
        assert code == EXIT_INPUT
        assert "impurity" in capsys.readouterr().err

    def test_missing_key_exits_2(self, tmp_path, capsys):
        doc = e1_doc()
        del doc["num_cells"]
        code = main(["solve", write_doc(tmp_path, doc)])
        assert code == EXIT_INPUT
        assert "num_cells" in capsys.readouterr().err

    def test_json_syntax_error_positioned(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"format": 1,,}', encoding="utf-8")
        code = main(["solve", str(path)])
        assert code == EXIT_INPUT
        assert "line" in capsys.readouterr().err

    def test_dp_with_noisy_channel_exits_3(self, tmp_path, capsys):
        doc = e1_doc(channel=[[0.9, 0.1], [0.1, 0.9]], solver="dp")
        code = main(["solve", write_doc(tmp_path, doc)])
        assert code == EXIT_GUARD
        assert capsys.readouterr().err == "error: dp: needs the identity channel\n"

    def test_bruteforce_guard_exits_3(self, tmp_path):
        m = 30
        doc = e1_doc(joint_xy=[[1.0 / (2 * m)] * m, [1.0 / (2 * m)] * m])
        code = main(["solve", write_doc(tmp_path, doc)])
        assert code == EXIT_GUARD

    def test_output_flag_writes_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["solve", write_doc(tmp_path, e1_doc()), "--output", str(out)])
        assert code == EXIT_OK
        assert capsys.readouterr().out == ""
        assert json.loads(out.read_text())["assignment"] == [1, 1, 2, 2]

    def test_bad_flag_override_exits_2(self, tmp_path, capsys):
        path = write_doc(tmp_path, e1_doc(solver="iterative"))
        code = main(["solve", path, "--restarts", "0"])
        assert code == EXIT_INPUT
        assert "restarts" in capsys.readouterr().err

    def test_solver_and_seed_overrides(self, tmp_path, capsys):
        path = write_doc(tmp_path, e1_doc(solver="bruteforce"))
        code = main(["solve", path, "--solver", "iterative", "--seed", "0", "--restarts", "10"])
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["solver"] == "iterative"
        assert report["objective"] == pytest.approx(0.8812908992306926, abs=1e-9)

    def test_emit_posteriors_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "posteriors.csv"
        code = main(
            ["solve", write_doc(tmp_path, e1_doc()), "--emit-posteriors", str(csv_path)]
        )
        assert code == EXIT_OK
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "index,p_Y,p_X1|Y,p_X2|Y,assigned_cell"
        assert lines[1] == "1,0.25,0.8,0.2,1"
        assert lines[4] == "4,0.25,0.4,0.6,2"
        assert len(lines) == 5

    def test_byte_identical_reports(self, tmp_path):
        path = write_doc(tmp_path, e1_doc(solver="iterative", options={"seed": 9, "restarts": 5}))
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["solve", path, "--output", str(out1)]) == EXIT_OK
        assert main(["solve", path, "--output", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()


class TestCompare:
    def test_all_solvers_agree_on_e1(self, tmp_path, capsys):
        code = main(["compare", write_doc(tmp_path, e1_doc())])
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["agreement"] is True
        ran = {r["solver"]: r for r in doc["results"]}
        assert set(ran) == {"iterative", "bruteforce", "thresholds", "dp"}
        for name in ("bruteforce", "thresholds", "dp"):
            assert ran[name]["applicable"] is True
            assert ran[name]["objective"] == pytest.approx(0.8812908992306926, abs=1e-9)
            assert ran[name]["runtime_seconds"] >= 0.0

    def test_wider_source_gates_binary_solvers(self, tmp_path, capsys):
        doc = e1_doc(
            joint_xy=[
                [0.10, 0.10, 0.05, 0.05],
                [0.05, 0.10, 0.10, 0.05],
                [0.10, 0.05, 0.05, 0.20],
            ]
        )
        code = main(["compare", write_doc(tmp_path, doc)])
        assert code == EXIT_OK
        results = {r["solver"]: r for r in json.loads(capsys.readouterr().out)["results"]}
        assert results["thresholds"]["applicable"] is False
        assert results["dp"]["applicable"] is False
        assert results["bruteforce"]["applicable"] is True
        assert results["iterative"]["applicable"] is True
        assert results["thresholds"]["reason"] == "needs a binary source"
        assert results["dp"]["reason"] == "needs a binary source"

        noisy = e1_doc(channel=[[0.9, 0.1], [0.1, 0.9]])
        assert main(["compare", write_doc(tmp_path, noisy, "noisy.json")]) == EXIT_OK
        results = {r["solver"]: r for r in json.loads(capsys.readouterr().out)["results"]}
        assert results["thresholds"]["applicable"] is True
        assert results["dp"] == {
            "applicable": False, "reason": "needs the identity channel", "solver": "dp"
        }

    def test_large_instance_exits_3(self, tmp_path):
        m = 30
        doc = e1_doc(joint_xy=[[1.0 / (2 * m)] * m, [1.0 / (2 * m)] * m])
        assert main(["compare", write_doc(tmp_path, doc)]) == EXIT_GUARD


class TestProblemFileRoundTrip:
    def test_parse_serialize_parse_identity(self, tmp_path):
        doc = e1_doc(
            channel=[[0.9, 0.1], [0.1, 0.9]],
            constraint={"kind": "linear", "weights": [1.0, 2.0]},
            solver="iterative",
            options={"seed": 4, "restarts": 2, "max_iterations": 50, "sweep_mode": "batch"},
        )
        first = parse_problem_file(write_doc(tmp_path, doc))
        second = parse_problem_document(serialize_problem(first))
        np.testing.assert_array_equal(first.spec.joint.entries, second.spec.joint.entries)
        np.testing.assert_array_equal(first.spec.channel.entries, second.spec.channel.entries)
        np.testing.assert_array_equal(
            first.spec.constraint.weights, second.spec.constraint.weights
        )
        assert first.spec.beta == second.spec.beta
        assert first.spec.impurity == second.spec.impurity
        assert first.solver == second.solver
        assert first.options == second.options

    def test_unknown_top_level_key_rejected(self, tmp_path, capsys):
        code = main(["solve", write_doc(tmp_path, e1_doc(extra_knob=3))])
        assert code == EXIT_INPUT
        assert "extra_knob" in capsys.readouterr().err

    def test_unknown_option_rejected(self, tmp_path, capsys):
        code = main(["solve", write_doc(tmp_path, e1_doc(options={"tempo": 3}))])
        assert code == EXIT_INPUT
        assert "tempo" in capsys.readouterr().err

    def test_format_field_required(self, tmp_path, capsys):
        doc = e1_doc()
        del doc["format"]
        code = main(["solve", write_doc(tmp_path, doc)])
        assert code == EXIT_INPUT
        assert "format" in capsys.readouterr().err

    def test_channel_row_count_checked(self, tmp_path, capsys):
        doc = e1_doc(channel=[[0.5, 0.5]])
        code = main(["solve", write_doc(tmp_path, doc)])
        assert code == EXIT_INPUT
        assert "channel" in capsys.readouterr().err
