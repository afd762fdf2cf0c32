"""CLI behavior: golden outputs, exit codes, usage errors."""

import io
import json
import pathlib
import random
import sys

import pytest

from amalgam.cli import emit_certificate, run
from amalgam.dsl import format_specfile, parse, resolve
from amalgam.errors import AmalgamError
from amalgam.witness import (
    abelian_factor_quotient,
    central_amalgam_quotient,
    cyclic_amalgam_quotient,
    double_retraction,
    not_perfect_certificate,
)

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
    msg = _usage(
        ["certify", "--spec", "{G}/lattice.amg", "--theorem", "abelian-factor",
         "--factor", "5"]
    )
    assert msg == "--factor 5 out of range"


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


def test_snf_seeded_9x9_prints_verified_result():
    rng = random.Random(2)
    rows = [[rng.randint(-50, 50) for _ in range(9)] for _ in range(9)]
    code, out, err = _run(["snf", "--matrix", json.dumps(rows)])
    assert code == 0
    assert err == ""
    assert json.loads(out)["verified"] is True


def test_snf_with_unprintable_entries_fails_with_error_envelope():
    # each entry prints (2,168 and 2,195 digits), but the second invariant
    # factor 2^7200 * 3^4600 has 4,363
    rows = [[2**7200, 0], [0, 3**4600]]
    code, out, err = _run(["snf", "--matrix", json.dumps(rows)])
    assert code == 1
    assert out == ""
    doc = json.loads(err)
    assert doc["error"]["code"] == "integer-too-large"
    assert doc["error"]["details"] == {"max_digits": sys.get_int_max_str_digits()}


def test_snf_matrix_literal_past_digit_limit_is_usage_error():
    limit = sys.get_int_max_str_digits()
    code, out, err = _run(["snf", "--matrix", "[[" + "1" * (limit + 700) + "]]"])
    assert code == 1
    assert out == ""
    doc = json.loads(err)
    assert doc["error"]["code"] == "usage-error"
    assert f"more than {limit} decimal digits" in doc["error"]["message"]


def test_snf_deeply_nested_matrix_literal_is_usage_error():
    code, out, err = _run(["snf", "--matrix", "[" * 100_000 + "]" * 100_000])
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == {
        "code": "usage-error",
        "message": "matrix literal is nested too deeply",
    }


# ----------------------------------------------- certify on the wrong shape

WRONG_SHAPE_SPECS = {
    "klein_pair": """\
group D4 = perm 4 { (1 2 3 4); (1 3) }
group V = perm 4 { (1 2); (3 4) }
embed ea : V -> D4 { g1 -> (1 3); g2 -> (2 4) }
embed eb : V -> D4 { g1 -> (1 3); g2 -> (2 4) }
amalgam K = D4, D4 over V via ea, eb
""",
    "s5_pair": """\
group S5 = perm 5 { (1 2); (1 2 3 4 5) }
group C2 = cyclic 2
embed ea : C2 -> S5 { g -> (1 2) }
embed eb : C2 -> S5 { g -> (1 2) }
amalgam F = S5, S5 over C2 via ea, eb
""",
    "c3_whole": """\
group C3 = cyclic 3
embed ea : C3 -> C3 { g -> g }
embed eb : C3 -> C3 { g -> g }
amalgam W = C3, C3 over C3 via ea, eb
""",
    "torsion_lattice": """\
group A = abelian [2,0]
group B = free-abelian 1
group C = free-abelian 1
embed ea : C -> A { g -> g2^2 }
embed eb : C -> B { g -> g1 }
amalgam M = A, B over C via ea, eb
""",
    "finite_over_rank0": """\
group S3 = perm 3 { (1 2); (1 2 3) }
group C = free-abelian 0
embed ea : C -> S3 { }
embed eb : C -> S3 { }
amalgam R = S3, S3 over C via ea, eb
""",
    "mixed_over_rank0": """\
group S3 = perm 3 { (1 2); (1 2 3) }
group Z = free-abelian 1
group C = free-abelian 0
embed ea : C -> S3 { }
embed eb : C -> Z { }
amalgam R = S3, Z over C via ea, eb
""",
    # C4 sent onto the order-2 center of Q8: not an amalgam at all
    "q8_c4_noninjective": """\
group Q8 = perm 8 { (1 2 4 8)(3 6 7 5); (1 3 4 7)(2 5 8 6) }
group C4 = cyclic 4
embed ea : C4 -> Q8 { g -> (1 4)(2 8)(3 7)(5 6) }
embed eb : C4 -> Q8 { g -> (1 4)(2 8)(3 7)(5 6) }
amalgam G = Q8, Q8 over C4 via ea, eb
""",
}

FINITE_FACTORS = ("embedding-type-mismatch", "this theorem needs finite factors")
NOT_LATTICE_0 = ("embedding-type-mismatch", "factor 0 is not a lattice with a matrix embedding")
NOT_INJECTIVE_0 = ("not-injective", "embedding into factor 0 is not injective")

CERTIFY_ERRORS = [
    ("not-perfect", "{G}/q8_triple.amg",
     ("incompatible-amalgam", "this theorem needs exactly 2 factors, got 3")),
    ("not-perfect", "{G}/lattice.amg", FINITE_FACTORS),
    ("not-perfect", "finite_over_rank0",
     ("embedding-type-mismatch", "this theorem needs a finite amalgam group")),
    ("not-perfect", "c3_whole",
     ("not-proper-subgroup", "the amalgam copy in the first factor is not proper")),
    ("cyclic", "{G}/q8_triple.amg",
     ("incompatible-amalgam", "this theorem needs exactly 2 factors, got 3")),
    ("cyclic", "{G}/lattice.amg", FINITE_FACTORS),
    ("cyclic", "finite_over_rank0",
     ("embedding-type-mismatch", "this theorem needs a finite amalgam group")),
    ("cyclic", "klein_pair",
     ("invalid-group", "the amalgam group of order 4 is not cyclic")),
    ("cyclic", "s5_pair", ("not-solvable", "left factor is not solvable")),
    ("central", "{G}/lattice.amg", FINITE_FACTORS),
    ("central", "{G}/s3_pair.amg",
     ("not-central", "image of amalgam element g is not central in factor 0")),
    ("central", "{G}/q8_s3.amg",
     ("not-central", "image of amalgam element g is not central in factor 1")),
    ("central", "finite_over_rank0",
     ("incompatible-amalgam", "embedding 0 must map the amalgam into factor 0")),
    ("double", "{G}/lattice.amg", FINITE_FACTORS),
    ("double", "finite_over_rank0",
     ("embedding-type-mismatch", "this theorem needs a finite amalgam group")),
    ("double", "{G}/d4_q8.amg",
     ("incompatible-amalgam",
      "the double theorem needs literal factor copies with identical amalgam "
      "embeddings; these factors differ")),
    ("abelian-factor", "{G}/s3_pair.amg", NOT_LATTICE_0),
    ("abelian-factor", "mixed_over_rank0", NOT_LATTICE_0),
    ("abelian-factor", "torsion_lattice",
     ("not-torsion-free", "the split factor must be torsion-free")),
] + [
    (theorem, "q8_c4_noninjective", NOT_INJECTIVE_0)
    for theorem in ("cyclic", "double", "not-perfect", "central")
]


@pytest.mark.parametrize(
    "theorem,spec,expected",
    CERTIFY_ERRORS,
    ids=[f"{t}-{pathlib.Path(s).stem}" for t, s, _ in CERTIFY_ERRORS],
)
def test_certify_error_on_wrong_shape(tmp_path, theorem, spec, expected):
    if spec in WRONG_SHAPE_SPECS:
        path = tmp_path / f"{spec}.amg"
        path.write_text(WRONG_SHAPE_SPECS[spec])
        spec = str(path)
    code, out, err = _run(["certify", "--spec", spec, "--theorem", theorem])
    assert (code, out) == (1, "")
    error = json.loads(err)["error"]
    assert (error["code"], error["message"]) == expected


BUILDERS = {
    "not-perfect": not_perfect_certificate,
    "cyclic": cyclic_amalgam_quotient,
    "central": central_amalgam_quotient,
    "double": double_retraction,
    "abelian-factor": lambda spec: abelian_factor_quotient(spec, 0),
}


@pytest.mark.parametrize(
    "theorem,spec,expected",
    CERTIFY_ERRORS,
    ids=[f"{t}-{pathlib.Path(s).stem}" for t, s, _ in CERTIFY_ERRORS],
)
def test_builder_raises_the_certify_error(theorem, spec, expected):
    text = WRONG_SHAPE_SPECS.get(spec) or pathlib.Path(spec.replace("{G}", str(GOLDEN))).read_text()
    with pytest.raises(AmalgamError) as exc:
        (amalgam,) = resolve(parse(text)).amalgams.values()
        BUILDERS[theorem](amalgam)
    assert (exc.value.code, exc.value.message) == expected


def test_noninjective_amalgam_fails_a_command_that_never_reads_it(tmp_path):
    # resolve builds every declared amalgam, and building one checks it
    path = tmp_path / "q8_c4_noninjective.amg"
    path.write_text(WRONG_SHAPE_SPECS["q8_c4_noninjective"])
    code, out, err = _run(["derived-series", "--spec", str(path), "--group", "Q8"])
    assert (code, out) == (1, "")
    error = json.loads(err)["error"]
    assert (error["code"], error["message"]) == NOT_INJECTIVE_0


# ------------------------------------------------------ witness engine limits


@pytest.mark.parametrize("engines", ["sieve", "oracle,", ""])
def test_witness_rejects_bad_engine_list(engines):
    msg = _usage(["witness", "--spec", "{G}/s3_pair.amg", "--word", "quad",
                  "--engines", engines])
    assert repr(engines) in msg


def _spec_with_word(tmp_path, golden, word):
    path = tmp_path / golden
    path.write_text((GOLDEN / golden).read_text() + word + "\n")
    return str(path)


def test_order_cap_stops_central_engine_and_oracle_separates(tmp_path):
    # the retraction kills the word; the central product has order 512 > 100
    spec = _spec_with_word(
        tmp_path, "q8_triple.amg", "word k in T = 0:(1 3 2 4)(5 7 6 8) * 1:(1 4 2 3)(5 8 6 7)"
    )
    code, out, err = _run(["witness", "--spec", spec, "--word", "k", "--max-order", "100"])
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["engine"] == "oracle_witness"
    assert doc["certificate"]["status"] == "ok"

    code, out, err = _run(["witness", "--spec", spec, "--word", "k", "--max-order", "100",
                           "--engines", "double,central"])
    assert (code, err) == (2, "")
    assert json.loads(out)["reason"] == (
        "double: word maps to the identity under the retraction; "
        "central: closure-cap-exceeded: product order 512 exceeds cap 100"
    )


def test_budget_stops_oracle_without_an_error():
    code, out, err = _run(["witness", "--spec", "{G}/s3_pair.amg", "--word", "quad",
                           "--engines", "oracle", "--budget", "10"])
    assert (code, err) == (2, "")
    doc = json.loads(out)
    assert doc["separated"] is False
    assert doc["reason"] == "oracle: budget-exceeded: search stopped after 10 assignment nodes"


# S4xC2 (order 48) doubled over C4; both factors are one group object
S4XC2_PAIR = (
    "group G = perm 6 { (1 2); (1 2 3 4); (5 6) }\n"
    "group C4 = cyclic 4\n"
    "embed ea : C4 -> G { g -> (1 2 3 4) }\n"
    "embed eb : C4 -> G { g -> (1 2 3 4) }\n"
    "amalgam P = G, G over C4 via ea, eb\n"
    "word w in P = 0:(1 2) * 1:(1 2)\n"
)


def test_generator_cap_keeps_earlier_attempts(tmp_path):
    path = tmp_path / "s4xc2.amg"
    path.write_text(S4XC2_PAIR)
    code, out, err = _run(["witness", "--spec", str(path), "--word", "w"])
    assert (code, err) == (2, "")
    doc = json.loads(out)
    assert doc["reason"] == (
        "double: word maps to the identity under the retraction; "
        "cyclic: word maps to the identity in the depth quotient; "
        "oracle: too-many-generators: 94 generators exceed the cap 64"
    )
    assert [c["kind"] for c in doc["certificates"]] == ["double", "cyclic_amalgam"]


def test_witness_computes_the_derived_series_of_a_factor_once(tmp_path, monkeypatch):
    """Every series starts with [G, G]; the chain is kept on the group object."""
    import amalgam.groups as groups

    first_steps = []
    real = groups.commutator_subgroup

    def counting(G, H, K):
        if G.order == 48 and H.is_whole() and K.is_whole():
            first_steps.append(G)
        return real(G, H, K)

    monkeypatch.setattr(groups, "commutator_subgroup", counting)
    path = tmp_path / "s4xc2.amg"
    path.write_text(S4XC2_PAIR)
    code, _, err = _run(["witness", "--spec", str(path), "--word", "w"])
    assert (code, err) == (2, "")
    assert len(first_steps) == 1
