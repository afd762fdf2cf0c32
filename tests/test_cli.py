"""CLI behavior: golden outputs, exit codes, usage errors."""

import io
import json
import pathlib
import random
import sys

import pytest

from amalgam.cli import emit_certificate, run
from amalgam.dsl import format_specfile, parse

GOLDEN = pathlib.Path(__file__).parent / "golden"
MANIFEST = json.loads((GOLDEN / "manifest.json").read_text())
SPEC_FILES = sorted(GOLDEN.glob("*.amg"))


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run([a.replace("{G}", str(GOLDEN)) for a in argv], out, err)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("case", MANIFEST, ids=lambda c: c["name"])
def test_golden(case):
    expected = (GOLDEN / f"{case['name']}.expected.json").read_text()
    code, out, err = _run(case["argv"])
    assert code == case["exit"]
    got = out if case["stream"] == "out" else err
    assert got == expected
    if case["stream"] == "out":
        assert err == ""


def test_golden_outputs_are_deterministic():
    for case in MANIFEST:
        first = _run(case["argv"])
        second = _run(case["argv"])
        assert first == second, case["name"]


def test_exit_code_contract_is_exercised():
    assert {c["exit"] for c in MANIFEST} == {0, 1, 2}


def test_golden_output_is_valid_sorted_json():
    for case in MANIFEST:
        text = (GOLDEN / f"{case['name']}.expected.json").read_text()
        doc = json.loads(text)
        assert doc["schema"] == 1
        assert text == json.dumps(doc, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("path", SPEC_FILES, ids=lambda p: p.stem)
def test_round_trip_every_golden_spec(path):
    text = path.read_text()
    if path.stem == "bad_point":
        return
    sf = parse(text)
    printed = format_specfile(sf)
    assert parse(printed) == sf
    assert format_specfile(parse(printed)) == printed


def test_at_least_eight_spec_files():
    assert len(SPEC_FILES) >= 8


# ------------------------------------------------------------ usage errors


def _usage(argv):
    code, out, err = _run(argv)
    assert code == 1
    assert out == ""
    doc = json.loads(err)
    assert doc["error"]["code"] == "usage-error"
    return doc["error"]["message"]


def test_missing_spec_flag():
    msg = _usage(["witness", "--word", "t"])
    assert "--spec" in msg


def test_missing_word_flag():
    msg = _usage(["witness", "--spec", "{G}/s3_pair.amg"])
    assert "--word" in msg


def test_missing_theorem_flag():
    msg = _usage(["certify", "--spec", "{G}/s3_pair.amg"])
    assert "--theorem" in msg


def test_equal_needs_two_words():
    msg = _usage(["equal", "--spec", "{G}/s3_pair.amg", "--word", "t"])
    assert "two" in msg


def test_unknown_word_name():
    msg = _usage(["witness", "--spec", "{G}/s3_pair.amg", "--word", "zz"])
    assert "zz" in msg


def test_unknown_group_name():
    msg = _usage(["derived-series", "--spec", "{G}/s3_pair.amg", "--group", "zz"])
    assert "zz" in msg


def test_bad_transversal_choice():
    code, out, err = _run(
        ["normal-form", "--spec", "{G}/s3_pair.amg", "--word", "t",
         "--transversal", "random"]
    )
    assert code == 1
    assert "min-index" in json.loads(err)["error"]["message"]


def test_bad_command():
    code, out, err = _run(["explode"])
    assert code == 1
    assert json.loads(err)["error"]["code"] == "usage-error"


def test_snf_rejects_float_entries():
    code, out, err = _run(["snf", "--matrix", "[[1.5,2],[3,4]]"])
    assert code == 1


def test_snf_rejects_ragged_matrix():
    code, out, err = _run(["snf", "--matrix", "[[1,2],[3]]"])
    assert code == 1


def test_missing_spec_file_is_structured_error():
    code, out, err = _run(["derived-series", "--spec", "{G}/nope.amg", "--group", "S3"])
    assert code == 1
    assert "cannot read spec file" in json.loads(err)["error"]["message"]


def test_factor_flag_out_of_range():
    code, out, err = _run(
        ["certify", "--spec", "{G}/lattice.amg", "--theorem", "abelian-factor",
         "--factor", "5"]
    )
    assert code == 1


def test_no_numeric_period_anywhere_in_golden_output():
    for case in MANIFEST:
        text = (GOLDEN / f"{case['name']}.expected.json").read_text()
        for i, ch in enumerate(text):
            if ch == "." and text[i - 1].isdigit() and text[i + 1].isdigit():
                raise AssertionError(f"{case['name']}: numeric '.' at offset {i}")


def test_emit_certificate_refuses_floats():
    with pytest.raises(TypeError, match="floating point"):
        emit_certificate({"schema": 1, "x": 0.5})


def test_emit_certificate_refuses_non_string_keys():
    with pytest.raises(TypeError, match="non-string key"):
        emit_certificate({1: "x"})


def test_witness_restricted_engines_flag_changes_target():
    code0, out0, _ = _run(["witness", "--spec", "{G}/q8_pair.amg", "--word", "i0"])
    code1, out1, _ = _run(
        ["witness", "--spec", "{G}/q8_pair.amg", "--word", "i0",
         "--engines", "central"]
    )
    assert code0 == code1 == 0
    assert json.loads(out0)["engine"] == "double"
    assert json.loads(out1)["engine"] == "central_amalgam"
    assert json.loads(out1)["target"]["order"] == 32


def test_snf_with_unprintable_entries_fails_with_error_envelope():
    rng = random.Random(2)
    rows = [[rng.randint(-50, 50) for _ in range(9)] for _ in range(9)]
    code, out, err = _run(["snf", "--matrix", json.dumps(rows)])
    assert code == 1
    assert out == ""
    doc = json.loads(err)
    assert doc["error"]["code"] == "integer-too-large"
    assert doc["error"]["details"] == {"max_digits": sys.get_int_max_str_digits()}
