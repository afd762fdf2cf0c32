"""End-to-end acceptance suite.

Eleven numbered criteria, each a single test that prints one verdict line.
Run them verbosely with:

    python3 -m pytest tests/test_acceptance.py -v -s
"""

import io
import itertools
import json
import math
import pathlib
import random
import time

import numpy as np

from amalgam.cli import run
from amalgam.dsl import format_specfile, parse, resolve
from amalgam.groups import (
    cyclic_group,
    dihedral_group,
    direct_product,
    frattini,
    identity_hom,
    is_nilpotent,
    quaternion_group,
    series,
    symmetric_group,
)
from amalgam.lattice import (
    IntMatrix,
    LatticeSubgroup,
    finite_index_split,
    int_det,
    snf,
)
from amalgam.oracle import (
    DEFAULT_BUDGET,
    amalgam_word_to_generators,
    hom_search,
    oracle_reduce,
    presentation_of_amalgam,
    solvable_catalog,
)
from amalgam.words import AmalgamSpec, InducedHom, reduce

GOLDEN = pathlib.Path(__file__).parent / "golden"


def _verdict(number: int, name: str, detail: str):
    print(f"criterion {number:02d} {name}: PASS ({detail})")


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run([a.replace("{G}", str(GOLDEN)) for a in argv], out, err)
    return code, out.getvalue(), err.getvalue()


def _golden_spec(stem: str) -> AmalgamSpec:
    ctx = resolve(parse((GOLDEN / f"{stem}.amg").read_text()))
    return ctx, next(iter(ctx.amalgams.values()))


def _axioms_hold(G) -> bool:
    T = G.table
    n = G.order
    if not np.array_equal(T[0], np.arange(n)):
        return False
    if not np.array_equal(T[:, 0], np.arange(n)):
        return False
    if any(0 not in T[a] for a in range(n)):
        return False
    return np.array_equal(T[T], T[:, T])


def test_criterion_01_series_and_axioms():
    expected = {
        "S4": (symmetric_group(4), [24, 12, 4, 1]),
        "S3": (symmetric_group(3), [6, 3, 1]),
        "Q8": (quaternion_group(), [8, 2, 1]),
    }
    summaries = []
    for name, (G, orders) in expected.items():
        got = [t.order for t in series(G, "derived").terms]
        assert got == orders, f"{name}: {got}"
        assert _axioms_hold(G), name
        summaries.append(f"{name} {got}")
    _verdict(1, "series-and-axioms", "; ".join(summaries))


def test_criterion_02_frattini_inclusion():
    def product(*gs):
        return direct_product(list(gs))[0]

    nilpotent_catalog = {
        "Q8": quaternion_group(),
        "D4": dihedral_group(4),
        "C2xC4": product(cyclic_group(2), cyclic_group(4)),
        "C8": cyclic_group(8),
        "C2^3": product(cyclic_group(2), cyclic_group(2), cyclic_group(2)),
        "C3xC9": product(cyclic_group(3), cyclic_group(9)),
    }
    for name, G in nilpotent_catalog.items():
        assert is_nilpotent(G), name
        delta2 = series(G, "derived").terms[1]
        phi = frattini(G)
        assert set(delta2.elements) <= set(phi.elements), name

    S3 = symmetric_group(3)
    assert not is_nilpotent(S3)
    delta2 = series(S3, "derived").terms[1]
    phi = frattini(S3)
    assert delta2.order == 3 and phi.order == 1
    assert not set(delta2.elements) <= set(phi.elements)
    _verdict(
        2,
        "frattini-inclusion",
        f"{len(nilpotent_catalog)} nilpotent groups pass; S3 counterpoint holds",
    )


def _gcd_of_minors_factors(M: IntMatrix):
    """Independent invariant-factor oracle: d_k = gcd of all k-minors."""
    rows = M.to_rows()
    prev = 1
    out = []
    for k in range(1, min(M.rows, M.cols) + 1):
        g = 0
        for rsel in itertools.combinations(range(M.rows), k):
            for csel in itertools.combinations(range(M.cols), k):
                sub = IntMatrix.from_rows(
                    [[rows[i][j] for j in csel] for i in rsel]
                )
                g = math.gcd(g, abs(int_det(sub)))
        if g == 0:
            out.append(0)
            continue
        out.append(g // prev)
        prev = g
    return out


def test_criterion_03_snf_random_matrices():
    rng = random.Random(20260816)
    start = time.monotonic()
    for trial in range(200):
        r = rng.randint(1, 5)
        c = rng.randint(1, 5)
        M = IntMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)]
        )
        dec = snf(M)
        assert dec.U.mul(M).mul(dec.V) == dec.D, trial
        assert abs(int_det(dec.U)) == 1 and abs(int_det(dec.V)) == 1, trial
        diag = [dec.D.entry(i, i) for i in range(min(r, c))]
        assert all(x >= 0 for x in diag), trial
        nonzero = [x for x in diag if x]
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0, trial
        assert diag == list(dec.invariant_factors), trial
        assert diag == _gcd_of_minors_factors(M), trial
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"{elapsed:.1f}s"
    _verdict(3, "snf-random", f"200 matrices verified in {elapsed:.2f}s")


def test_criterion_04_word_problem_cross_check():
    ctx, spec = _golden_spec("s3_pair")
    S3 = ctx.groups["S3"]
    t12 = S3.labels.index("(1 2)")
    t13 = S3.labels.index("(1 3)")
    t123 = S3.labels.index("(1 2 3)")
    alphabet = [(0, t12), (0, t123), (1, t12), (1, t13)]

    checked = 0
    for n in range(6):
        for combo in itertools.product(alphabet, repeat=n):
            w = list(combo)
            assert reduce(spec, w) == oracle_reduce(spec, w), w
            checked += 1
    assert checked >= 1000

    rng = random.Random(20260817)
    for _ in range(1000):
        w = [
            (rng.randrange(2), rng.randrange(6))
            for _ in range(rng.randint(0, 8))
        ]
        assert reduce(spec, w) == oracle_reduce(spec, w), w

    for i in (0, 1):
        forms = [reduce(spec, [(i, x)]) for x in range(6)]
        assert forms[0].is_identity()
        assert all(not nf.is_identity() for nf in forms[1:])
        assert len({(nf.head, nf.tail) for nf in forms}) == 6
    _verdict(
        4,
        "word-problem-cross-check",
        f"{checked} exhaustive + 1000 random words agree; embeddings faithful",
    )


def test_criterion_05_abelianized_product():
    configs = [
        ("c4_pair", [2, 2]),
        ("s3_pair", [2, 2]),
        ("q8_s3", [2, 2]),
    ]
    for stem, factors in configs:
        code, out, err = _cli(
            ["certify", "--spec", f"{{G}}/{stem}.amg", "--theorem", "not-perfect"]
        )
        assert code == 0, (stem, err)
        doc = json.loads(out)
        qd = doc["certificate"]["quotient_description"]
        assert qd["abelian_invariants"] == factors, stem
        assert qd["order"] > 1, stem
    _verdict(5, "abelianized-product", "C4/C4, S3/S3, Q8/S3 all [2, 2], exit 0")


def test_criterion_06_cyclic_amalgam_both_ways():
    code, out, _ = _cli(
        ["certify", "--spec", "{G}/q8_pair.amg", "--theorem", "cyclic"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["certificate"]["quotient_description"]["order"] == 32
    sep = [c for c in doc["certificate"]["checks"] if c["name"] == "separates_C"]
    assert sep and sep[0]["passed"]

    code, out, _ = _cli(
        ["certify", "--spec", "{G}/s3_pair.amg", "--theorem", "cyclic"]
    )
    assert code == 2
    doc = json.loads(out)
    assert doc["certificate"]["quotient_description"]["order"] == 4
    sep = [c for c in doc["certificate"]["checks"] if c["name"] == "separates_C"]
    assert sep and not sep[0]["passed"]
    assert doc["certificate"]["status"] == "checks-failed"
    _verdict(
        6,
        "cyclic-amalgam-both-ways",
        "Q8 pair separates (|D|=32, exit 0); S3 pair does not (|D|=4, exit 2, "
        "separates_C named)",
    )


def test_criterion_07_central_products():
    for stem in ("q8_pair", "d4_q8"):
        code, out, _ = _cli(
            ["certify", "--spec", f"{{G}}/{stem}.amg", "--theorem", "central"]
        )
        assert code == 0, stem
        doc = json.loads(out)
        assert doc["certificate"]["quotient_description"]["order"] == 32, stem
        names = {c["name"]: c["passed"] for c in doc["certificate"]["checks"]}
        assert names["mu_injective_on_factors"]
        assert names["order_count"]

    code, out, err = _cli(
        ["certify", "--spec", "{G}/s3_pair.amg", "--theorem", "central"]
    )
    assert code == 1
    assert json.loads(err)["error"]["code"] == "not-central"
    _verdict(
        7,
        "central-products",
        "|S|=32 with injective factor maps twice; NotCentral fires for S3",
    )


def test_criterion_08_double_retraction():
    for stem, copies in (("s3_pair", 2), ("q8_triple", 3)):
        code, out, _ = _cli(
            ["certify", "--spec", f"{{G}}/{stem}.amg", "--theorem", "double"]
        )
        assert code == 0, stem
        doc = json.loads(out)
        assert doc["certificate"]["quotient_description"]["copies"] == copies
        names = {c["name"]: c["passed"] for c in doc["certificate"]["checks"]}
        assert names["retraction"] and names["injective_on_each_factor"]

    ctx, spec = _golden_spec("s3_pair")
    S3 = ctx.groups["S3"]
    psi = InducedHom(spec, S3, [identity_hom(S3), identity_hom(S3)])
    x = S3.labels.index("(1 2)")
    kernel_word = [(0, x), (1, S3.inv(x))]
    assert psi.apply_word(kernel_word) == S3.identity
    assert reduce(spec, kernel_word).length == 2
    _verdict(
        8,
        "double-retraction",
        "S3 double and Q8 triple certify; kernel word dies under the "
        "retraction yet has normal-form length 2",
    )


def test_criterion_09_lattice_quotient():
    split = finite_index_split(2, LatticeSubgroup.from_vectors(2, [(2, 0)]))
    assert split.index == 2
    assert set(split.coset_reps) == {(0, 0), (1, 0)}

    code, out, _ = _cli(
        ["certify", "--spec", "{G}/lattice.amg", "--theorem", "abelian-factor"]
    )
    assert code == 0
    doc = json.loads(out)
    qd = doc["certificate"]["quotient_description"]
    assert qd["order"] == 2 and qd["abelian_invariants"] == [2]
    names = {c["name"]: c["passed"] for c in doc["certificate"]["checks"]}
    assert names["kills_C"]

    code, out, _ = _cli(["witness", "--spec", "{G}/lattice.amg", "--word", "wa"])
    assert code == 0
    assert json.loads(out)["engine"] == "abelian_factor"

    code, out, _ = _cli(["witness", "--spec", "{G}/lattice.amg", "--word", "wb"])
    assert code == 2
    assert json.loads(out)["separated"] is False
    _verdict(
        9,
        "lattice-quotient",
        "index 2, reps {(0,0),(1,0)}, quotient C2; A-side word separated, "
        "B-only word not separated at level one",
    )


def test_criterion_10_oracle_search():
    ctx, spec = _golden_spec("s3_pair")
    S3 = ctx.groups["S3"]
    pres = presentation_of_amalgam(spec)
    catalog = solvable_catalog()

    runs = []
    for trial in range(2):
        results = []
        for label in ("(1 2)", "(1 2 3)"):
            x = S3.labels.index(label)
            word = amalgam_word_to_generators(pres, [(0, x)])
            hit = hom_search(pres, catalog, word, DEFAULT_BUDGET)
            assert hit.separated, label
            assert hit.target_description["order"] <= 24, label
            cert = hit.certificate
            assert cert.all_passed
            assert cert.check("relators_satisfied").passed
            results.append(json.dumps(hit.to_dict(), sort_keys=True))
        runs.append(results)
    assert runs[0] == runs[1]
    _verdict(
        10,
        "oracle-search",
        "both words separated into targets of order <= 24, re-verified, "
        "byte-identical across runs",
    )


def test_criterion_11_cli_golden_suite():
    manifest = json.loads((GOLDEN / "manifest.json").read_text())
    spec_files = sorted(GOLDEN.glob("*.amg"))
    assert len(spec_files) >= 8

    exit_codes = set()
    for case in manifest:
        code, out, err = _cli(case["argv"])
        assert code == case["exit"], case["name"]
        got = out if case["stream"] == "out" else err
        expected = (GOLDEN / f"{case['name']}.expected.json").read_text()
        assert got == expected, case["name"]
        exit_codes.add(code)
    assert exit_codes == {0, 1, 2}

    for path in spec_files:
        if path.stem == "bad_point":
            continue
        sf = parse(path.read_text())
        assert parse(format_specfile(sf)) == sf, path.stem
    _verdict(
        11,
        "cli-golden-suite",
        f"{len(manifest)} cases byte-identical across {len(spec_files)} spec "
        "files; exit codes 0, 1, 2 all exercised",
    )
