"""Problem-file parsing, report emission, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chanpart.cli import (
    ECHO_LIMIT,
    EXIT_GUARD,
    EXIT_INPUT,
    EXIT_OK,
    ORJSON_MAX_DEPTH,
    InputFileError,
    ProblemFile,
    _dump,
    main,
    parse_problem_document,
    parse_problem_file,
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
            # finite, but beta * F reaches inf: 4 equiprobable sources score 2 bits in one cell
            ({"joint_xy": [[0.0625] * 4] * 4, "num_cells": 1, "beta": 1e308}, "beta"),
            # beta passes, but beta * F + G reaches inf
            ({"beta": 2e306, "constraint": {"kind": "linear", "weights": [1.79e308, 1.79e308]}}, "constraint"),
            # beta * F is finite, but beta times an entropy gradient (up to ~40 bits) is not
            (
                {
                    "joint_xy": [[0.2, 0.15, 0.0, 0.1], [0.05, 0.1, 0.25, 0.15]],
                    "num_cells": 3,
                    "beta": 5e307,
                },
                "beta",
            ),
            # integers past the float range, or past numpy's largest dimension
            ({"joint_xy": [[10**400, 0.15, 0.05, 0.10], [0.05, 0.10, 0.20, 0.15]]}, "joint_xy"),
            ({"channel": [[10**400, 0], [0, 1]]}, "channel"),
            ({"beta": 10**400}, "beta"),
            ({"num_cells": 10**400}, "num_cells"),
            ({"constraint": {"kind": "linear", "weights": [10**400, 1]}}, "constraint"),
            # finite entries whose sum overflows to inf
            ({"joint_xy": [[1e308, 1e308], [1e308, 1e308]]}, "joint_xy"),
            ({"channel": [[1e308, 1e308], [0.1, 0.9]]}, "channel"),
        ],
    )
    @pytest.mark.filterwarnings("error")
    def test_non_finite_value_exits_2_naming_key(self, tmp_path, capsys, overrides, key):
        path = write_doc(tmp_path, e1_doc(**overrides))  # json writes NaN / Infinity
        for argv in (["solve", path, "--solver", "iterative"], ["solve", path], ["compare", path]):
            assert main(argv) == EXIT_INPUT
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"error: {key}: ")

    @pytest.mark.parametrize(
        "text",
        [
            # past the interpreter's limit on integer digits, so json cannot decode it
            b'{"format": 1, "num_cells": ' + b"9" * 5001 + b"}",
            b'{"format": 1, "solver": "\xff"}',  # not UTF-8
            b'{"format": 1, "joint_xy": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
        ],
        ids=["5001-digit-int", "not-utf8", "deep-nesting"],
    )
    def test_undecodable_file_exits_2_naming_file(self, tmp_path, capsys, text):
        path = tmp_path / "problem.json"
        path.write_bytes(text)
        for command in ("solve", "compare"):
            assert main([command, str(path)]) == EXIT_INPUT
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"error: {path}: parse error: ")

    def test_unaffordable_identity_channel_exits_2(self, tmp_path, capsys):
        # a 1e9 x 1e9 identity is 6.94 EiB: numpy refuses it before touching memory
        path = write_doc(tmp_path, e1_doc(num_cells=10**9))
        for command in ("solve", "compare"):
            assert main([command, path]) == EXIT_INPUT
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: num_cells: too large for an identity channel: ")

    @pytest.mark.parametrize(
        "overrides, start",
        [
            ({"format": [0.123456789] * 10**6}, "error: format: unsupported version [0.123456789, "),
            ({"k" * 10**6: 1}, "error: " + "k" * ECHO_LIMIT + "... ("),
        ],
        ids=["format-value", "unknown-key"],
    )
    def test_oversized_echo_exits_2_on_a_short_line(self, tmp_path, capsys, overrides, start):
        path = write_doc(tmp_path, e1_doc(**overrides))
        for command in ("solve", "compare"):
            assert main([command, path]) == EXIT_INPUT
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(start)
            assert len(captured.err) < 2 * ECHO_LIMIT
            assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        ("overrides", "key"),
        [
            ({"impurity": "variance"}, "impurity"),
            ({"constraint": "quadratic"}, "constraint"),
            ({"constraint": {"kind": "none", "weights": [1.0, 2.0]}}, "constraint"),
            ({"constraint": {"kind": "linear"}}, "constraint"),
            ({"channel": [[0.5, 0.5]]}, "problem"),
            ({"options": {"seed": -1}}, "options"),
            ({"options": {"seed": True}}, "options"),
            ({"options": {"restarts": 0}}, "options"),
            ({"options": {"restarts": 1.5}}, "options"),
            ({"options": {"sweep_mode": "diagonal"}}, "options"),
        ],
        ids=[
            "impurity-name", "constraint-kind", "weights-on-none", "linear-without-weights",
            "channel-rows", "seed-negative", "seed-bool", "restarts-zero", "restarts-fraction",
            "sweep-mode",
        ],
    )
    def test_library_refusal_exits_2_naming_key(self, tmp_path, capsys, overrides, key):
        path = write_doc(tmp_path, e1_doc(**overrides))
        for command in ("solve", "compare"):
            assert main([command, path]) == EXIT_INPUT
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

    def test_thresholds_guard_exits_3(self, tmp_path, capsys):
        m = 2000  # about 1e22 interval labellings into 8 cells
        doc = e1_doc(joint_xy=[[1.0 / (2 * m)] * m, [1.0 / (2 * m)] * m], num_cells=8)
        code = main(["solve", write_doc(tmp_path, doc), "--solver", "thresholds"])
        assert code == EXIT_GUARD
        assert capsys.readouterr().err == (
            "error: thresholds: interval labellings exceed the enumeration budget of 2^22\n"
        )

    def test_output_flag_writes_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["solve", write_doc(tmp_path, e1_doc()), "--output", str(out)])
        assert code == EXIT_OK
        assert capsys.readouterr().out == ""
        assert json.loads(out.read_text())["assignment"] == [1, 1, 2, 2]

    @pytest.mark.parametrize(
        "flags",
        [
            ["solve", "--output", "{missing}/r.json"],
            ["solve", "--emit-posteriors", "{missing}/p.csv"],
            ["compare", "--output", "{missing}/r.json"],
        ],
        ids=["solve-output", "solve-posteriors", "compare-output"],
    )
    def test_unwritable_output_exits_2_naming_path(self, tmp_path, capsys, flags):
        command, flag, target = flags
        target = target.format(missing=tmp_path / "missing")
        code = main([command, write_doc(tmp_path, e1_doc()), flag, target])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error: ") and target in err

    def test_bad_flag_override_exits_2(self, tmp_path, capsys):
        path = write_doc(tmp_path, e1_doc(solver="iterative"))
        code = main(["solve", path, "--restarts", "0"])
        assert code == EXIT_INPUT
        by_flag = capsys.readouterr().err
        assert "restarts" in by_flag
        # the same refusal read from the file prints the same line
        in_file = write_doc(tmp_path, e1_doc(solver="iterative", options={"restarts": 0}), name="file.json")
        assert main(["solve", in_file]) == EXIT_INPUT
        assert capsys.readouterr().err == by_flag

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


# ---------------------------------------------------------------------------
# Problem-file reading against json's own reader
# ---------------------------------------------------------------------------


def json_reading(path) -> ProblemFile:
    """Reference: json on a UTF-8 text-mode handle, with the CLI's messages."""
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except json.JSONDecodeError as exc:
        raise InputFileError(f"{path}: parse error at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:
        raise InputFileError(f"{path}: parse error: {exc}") from exc
    return parse_problem_document(doc)


def reading_outcome(parse, path):
    """Every parsed value down to the bit, or the text of the refusal."""
    try:
        pf = parse(path)
    except InputFileError as exc:
        return "refused", str(exc)
    spec, options = pf.spec, pf.options
    weights = spec.constraint.weights
    return (
        "parsed",
        spec.joint.entries.shape,
        spec.joint.entries.tobytes(),
        spec.channel.entries.shape,
        spec.channel.entries.tobytes(),
        spec.num_cells,
        spec.beta.hex(),
        spec.impurity.kind,
        spec.constraint.kind,
        None if weights is None else weights.tobytes(),
        pf.solver,
        (options.seed, options.restarts, options.max_iterations, options.sweep_mode),
    )


def assert_reads_like_json(tmp_path, raw: bytes):
    path = tmp_path / "problem.json"
    path.write_bytes(raw)
    assert reading_outcome(parse_problem_file, path) == reading_outcome(json_reading, path)


#: Number texts the two parsers treat differently or round at an edge:
#: integers past 64 bits, non-finite and overflowing literals, signed zero,
#: subnormals and halfway cases at both ends of the float range.
ODD_NUMBERS = (
    "18446744073709551615", "18446744073709551616", "-9223372036854775809", "10000000000000000000000000",
    "-0", "-0.0", "0", "1", "2", "1.0", "1e-400", "5e-324", "2.4703282292062328e-324",
    "2.4703282292062327e-324", "1.7976931348623157e308", "1.7976931348623158e308",
    "1.7976931348623159e308", "1e400", "-1e400", "NaN", "Infinity", "-Infinity",
    "0.1000000000000000055511151231257827", "true", "null", '"1"', "[]",
)
FLOAT_TEXTS = (repr, "{:.17g}".format, "{:.17e}".format, "{:.25e}".format)
SPACES = st.sampled_from(["", " ", "\n", "\r\n", "\r", "\t"])


@st.composite
def problem_files(draw) -> bytes:
    """Problem files near the edges of JSON: odd numbers and strings, duplicate
    keys, any JSON whitespace including a lone CR, stray bytes and a BOM.
    Half of them keep to values and bytes that both parsers read alike."""
    odd = draw(st.booleans())

    def odd_or(text: str, one_in: int) -> str:
        return draw(st.sampled_from(ODD_NUMBERS)) if odd and draw(st.integers(1, one_in)) == 1 else text

    def number(value: float) -> str:
        return odd_or(draw(st.sampled_from(FLOAT_TEXTS))(value), 20)

    def matrix(rows: int, cols: int, normalise) -> str:
        cell = st.one_of(st.floats(1e-3, 1.0), st.sampled_from([0.0, 5e-324, 1e-300]))
        raw = np.array(draw(st.lists(cell, min_size=rows * cols, max_size=rows * cols))).reshape(rows, cols)
        raw[0, :] += 1.0  # no empty column
        raw[:, 0] += 1.0  # no empty row
        return "[" + ",".join("[" + ",".join(map(number, row)) + "]" for row in normalise(raw).tolist()) + "]"

    def name(*usual: str, unusual: tuple[str, ...]) -> str:
        return draw(st.sampled_from(usual + unusual if odd else usual))

    n, m, k = draw(st.integers(2, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 3))
    fields = [
        ("format", odd_or(draw(st.sampled_from(["1", "1.0"])), 4)),
        ("joint_xy", matrix(n, m, lambda a: a / a.sum())),
        ("num_cells", odd_or(str(k), 4)),
        ("beta", number(draw(st.floats(1e-3, 10.0)))),
        ("impurity", name('"entropy"', '"gini"', unusual=('"\\ud800"', '"\\ud83d\\ude00"'))),
        ("solver", name('"iterative"', '"dp"', unusual=('"é\\u0000"',))),
    ]
    constraint = draw(st.sampled_from(["none", "entropy", "linear"]))
    if constraint == "linear":
        weights = ",".join(number(draw(st.floats(-5.0, 5.0))) for _ in range(k))
        fields.append(("constraint", f'{{"kind": "linear", "weights": [{weights}]}}'))
    else:
        fields.append(("constraint", f'"{constraint}"'))
    if draw(st.booleans()):
        h = draw(st.integers(1, 3))
        fields.append(("channel", matrix(k, h, lambda a: a / a.sum(axis=1, keepdims=True))))
    if draw(st.booleans()):
        fields.append(("options", f'{{"seed": {odd_or(draw(st.sampled_from(["0", "7"])), 2)}}}'))
    if draw(st.booleans()):  # a repeated key: json keeps the last value
        key, value = draw(st.sampled_from(fields))
        fields.append((key, number(2.0) if odd else value))
    fields = draw(st.permutations(fields))
    members = [f'{draw(SPACES)}"{key}"{draw(SPACES)}:{draw(SPACES)}{value}{draw(SPACES)}' for key, value in fields]
    raw = ("{" + ",".join(members) + "}").encode("utf-8")

    damage = draw(st.sampled_from(["none", "bom", "insert", "delete"] if odd else ["none"]))
    at = draw(st.integers(0, len(raw)))
    if damage == "bom":
        raw = b"\xef\xbb\xbf" + raw
    elif damage == "insert":
        raw = raw[:at] + draw(st.sampled_from([b",", b"x", b"}", b"\r", b"\xff", b"\\ud800", b"[" * 2000])) + raw[at:]
    elif damage == "delete":
        raw = raw[:at] + raw[at + 1:]
    return raw


def e1_text(**fields: str) -> bytes:
    """E1 as a file, with the named top-level values replaced by raw JSON text."""
    members = {key: json.dumps(value) for key, value in E1_DOC.items()}
    members.update(fields)
    return ("{" + ", ".join(f'"{key}": {value}' for key, value in members.items()) + "}").encode("utf-8")


DEEP = "[" * 100_000 + "]" * 100_000

#: Valid values nested far past what orjson 3.8.3 converts without a crash
#: (about 10^5 levels on an 8 MiB stack), built when a test runs.
DEEP_VALUES = {
    "arrays": lambda: "[" * 10**7 + "0" + "]" * 10**7,
    "objects": lambda: '{"a":' * 10**6 + "0" + "}" * 10**6,
    "closers-in-a-string": lambda: '["' + "]}" * 10**6 + '", ' + "[" * 10**6 + "0" + "]" * 10**6 + "]",
}


class TestReadingMatchesJson:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(raw=problem_files())
    def test_generated_files(self, tmp_path_factory, raw):
        assert_reads_like_json(tmp_path_factory.mktemp("read"), raw)

    @pytest.mark.parametrize(
        "raw",
        [
            *(
                e1_text(**{key: text})
                for key in ("format", "num_cells", "beta")
                for text in ("18446744073709551616", "10000000000000000000000000")
            ),
            e1_text(options='{"seed": 18446744073709551616}'),
            e1_text(options='{"seed": 10000000000000000000000000}'),
            e1_text(joint_xy="[[18446744073709551616, 0], [0, 0]]"),
            e1_text(joint_xy="[[0.5, 10000000000000000000000000], [0, 0.5]]"),
            e1_text(joint_xy="[[0.25, -0.0, 0.25], [0.25, 0.25, 0.0]]"),
            e1_text(joint_xy="[[0.5, 5e-324], [-0.0, 0.5]]"),
            e1_text(joint_xy="[[0.30000000000000004, 0.19999999999999998],"
                             " [0.10000000000000001, 0.39999999999999997]]"),
            e1_text(joint_xy="[[0.1000000000000000055511151231257827, 0.4],"
                             " [0.12345678901234567, 0.37654321098765433]]"),
            e1_text(joint_xy="[[0.2, 0.15, 0.05, NaN], [0.05, 0.1, 0.2, 0.15]]"),
            e1_text(beta="1e400"),
            e1_text(beta="1.0", solver='"dp"').replace(b"}", b', "beta": 2.5, "solver": "iterative"}'),
            e1_text(solver='"nope"').replace(b"}", b', "solver": "dp"}'),
            e1_text(solver='"\\ud800"'),
            b"\xef\xbb\xbf" + e1_text(),
            b'{"a":\r1,\r"b": x}',
            e1_text().replace(b", ", b",\r"),
            e1_text(joint_xy=DEEP),
            e1_text(format=DEEP),
            e1_text(solver=DEEP),
            # json refuses the first value for its depth; orjson, given it, would keep the second
            e1_text(joint_xy="[" * 1000 + "]" * 1000).replace(b"}", b', "joint_xy": [[0.5, 0], [0, 0.5]]}'),
        ],
        ids=[
            *(f"{key}-{name}" for key in ("format", "num_cells", "beta") for name in ("2^64", "10^25")),
            "seed-2^64", "seed-10^25", "joint-2^64", "joint-10^25", "negative-zero", "subnormal",
            "17-digit-mantissas", "long-mantissas", "NaN", "1e400", "duplicate-keys",
            "duplicate-key-fixes-value", "lone-surrogate", "BOM", "lone-CR-syntax-error",
            "lone-CR-separators", "deep-joint", "deep-format", "deep-solver",
            "deep-duplicate-key",
        ],
    )
    def test_pinned_files(self, tmp_path, raw):
        assert_reads_like_json(tmp_path, raw)

    @pytest.mark.parametrize("depth", [ORJSON_MAX_DEPTH - 2, ORJSON_MAX_DEPTH - 1, ORJSON_MAX_DEPTH])
    def test_nesting_at_the_orjson_limit(self, tmp_path, depth):
        # joint_xy sits one level inside the top object
        nest = "[" * depth + "]" * depth
        for text in (nest, f'[{{"a": "]]", "b": {nest[1:-1]}}}]', f'["[[", {nest[2:-2]}]'):
            assert_reads_like_json(tmp_path, e1_text(joint_xy=text))

    @pytest.mark.parametrize("shape", DEEP_VALUES)
    def test_nesting_past_the_c_stack_exits_2(self, tmp_path, shape):
        # orjson would convert a valid text this deep by native recursion and
        # overflow the C stack, so the CLI runs in a process of its own
        path = tmp_path / "deep.json"
        path.write_text(f'{{"joint_xy": {DEEP_VALUES[shape]()}}}', encoding="ascii")
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        run = subprocess.run(
            [sys.executable, "-m", "chanpart", "solve", str(path)], capture_output=True, text=True, env=env
        )
        assert run.returncode == EXIT_INPUT, run.stderr[-500:]
        assert run.stdout == ""
        assert run.stderr.startswith(f"error: {path}: parse error: ")


def joint_rows(rows: int, cols: int = 2) -> str:
    """A valid joint_xy text of ``rows`` equal rows: ``rows + 1`` opening brackets."""
    return json.dumps(np.full((rows, cols), 1.0 / (rows * cols)).tolist())


class TestOrjsonBound:
    """orjson reads a file only when its opening brackets and braces number at
    most ORJSON_MAX_DEPTH; the rest go to json alone."""

    def orjson_calls(self, tmp_path, raw: bytes) -> int:
        path = tmp_path / "problem.json"
        path.write_bytes(raw)
        with mock.patch("chanpart.cli.orjson.loads", wraps=orjson.loads) as loads:
            parse_problem_file(path)
        return loads.call_count

    @pytest.mark.parametrize(
        "rows, calls",
        # the top object, joint_xy and its rows: rows + 2 opening brackets in all
        [(ORJSON_MAX_DEPTH - 2, 1), (ORJSON_MAX_DEPTH - 1, 0), (70, 0)],
        ids=["at-the-bound", "one-past", "70-rows"],
    )
    def test_opening_brackets_decide(self, tmp_path, rows, calls):
        raw = e1_text(joint_xy=joint_rows(rows))
        assert raw.count(b"[") + raw.count(b"{") == rows + 2
        assert self.orjson_calls(tmp_path, raw) == calls
        assert_reads_like_json(tmp_path, raw)

    def test_benchmark_shaped_file_reaches_orjson_once(self, tmp_path):
        channel = np.full((8, 8), 0.05 / 7) + np.eye(8) * (0.95 - 0.05 / 7)
        doc = {**E1_DOC, "joint_xy": json.loads(joint_rows(4, 50)), "num_cells": 8,
               "channel": channel.tolist(), "solver": "iterative",
               "options": {"seed": 1, "restarts": 2, "sweep_mode": "batch"}}
        assert self.orjson_calls(tmp_path, json.dumps(doc).encode()) == 1


# ---------------------------------------------------------------------------
# The report writer against json's own indented encoder
# ---------------------------------------------------------------------------

TEXTS = st.one_of(
    st.text(), st.sampled_from(["", ", ", "a, b", '"', '\\"', "\x00\x1f\n\t", "é", "\u2028", "😀"])
)
NUMBERS = st.one_of(
    st.integers(),
    st.integers(-(10**400), 10**400),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.7e308, -1.7e308, 1e16, 1e-7, 0.1]),
)
SCALARS = st.one_of(st.none(), st.booleans(), NUMBERS, TEXTS)
DOCUMENTS = st.dictionaries(
    TEXTS,
    st.recursive(
        SCALARS,
        lambda children: st.lists(children, max_size=6)
        | st.lists(NUMBERS, max_size=6)  # the bulk path for numbers
        | st.dictionaries(TEXTS, children, max_size=4),
        max_leaves=25,
    ),
    max_size=5,
)


def json_dump(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


class TestReportEncoder:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(doc=DOCUMENTS)
    def test_matches_json_indented_sorted_bytes(self, doc):
        assert _dump(doc) == json_dump(doc)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize(
        "place",
        [lambda x: x, lambda x: [x], lambda x: [1, x], lambda x: [x, "s"], lambda x: {"k": [[0.5], [x]]}],
        ids=["value", "number-list", "mixed-number-list", "mixed-list", "nested"],
    )
    def test_non_finite_floats_raise_like_json(self, bad, place):
        doc = {"a": place(bad)}
        with pytest.raises(ValueError):
            json_dump(doc)
        with pytest.raises(ValueError):
            _dump(doc)
