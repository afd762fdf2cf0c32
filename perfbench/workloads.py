"""The four workloads: inputs made from a seed, operations, and their checks.

Each workload function returns a list of operations that call amalgam's
public API (the CLI's in-process ``run`` or library functions) and whose
checks live in verify.py. A check returns True when the operation hit one of the known
faults listed in KNOWN_FAULTS (the operation counts as failed), returns
False when the output is right, and raises Mismatch when it is wrong.
"""

from __future__ import annotations

import io
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from verify import (
    check_central_witness,
    check_oracle_witness,
    check_reductions,
    check_same_output,
    check_snf,
    check_transcript,
    format_cycles,
    perm_group,
    perm_inv,
    perm_mul,
    parse_cycles,
    require,
)

# Faults of the program that fail on every run today; each operation that
# meets one counts as failed, and a mended program makes it pass.
KNOWN_FAULTS = {
    "witness_q8_triple_max_order_100": "closure-cap-exceeded",
    "witness_q8_pair_default_budget": "budget-exceeded",
}


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], bool]


def _cli(amalgam, argv):
    def run():
        out, err = io.StringIO(), io.StringIO()
        code = amalgam.cli.run(argv, out, err)
        return code, out.getvalue(), err.getvalue()

    return run


def _doc(result, exit_code: int) -> dict:
    code, out, err = result
    require(code == exit_code, f"exit {code}, expected {exit_code}: {(out or err)[:300]}")
    return json.loads(out)


def _known_fault(name, result, mended: Callable[[object], None]) -> bool:
    """True if the result shows the named fault; else it must be the mended result."""
    code, out, err = result
    if code == 1 and json.loads(err)["error"]["code"] == KNOWN_FAULTS[name]:
        return True
    mended(result)
    return False


def _write(workdir: Path, name: str, text: str) -> str:
    path = workdir / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _resolve(amalgam, text: str):
    return amalgam.dsl.resolve(amalgam.dsl.parse(text))


# ------------------------------------------------------------------- golden


def golden(amalgam, seed: int, root: Path, workdir: Path) -> list:
    """The golden CLI cases in a seeded order, checked against transcripts."""
    gdir = root / "tests" / "golden"
    cases = json.loads((gdir / "manifest.json").read_text(encoding="utf-8"))
    random.Random(seed).shuffle(cases)
    ops = []
    for case in cases:
        expected = (gdir / f"{case['name']}.expected.json").read_text(encoding="utf-8")
        argv = [a.replace("{G}", str(gdir)) for a in case["argv"]]
        spec = next((a for a in argv if a.endswith(".amg")), None)
        parse_error = case["stream"] == "err" and '"parse-error"' in expected
        if spec is not None and not parse_error:
            _resolve(amalgam, Path(spec).read_text(encoding="utf-8"))

        def check(result, case=case, expected=expected, first=[]):
            check_transcript(result, case["exit"], case["stream"], expected)
            if not first:
                first.append(result)
            check_same_output(result, first[0])
            return False

        ops.append(Op(case["name"], _cli(amalgam, argv), check))
    return ops


# ---------------------------------------------------------------- quotients

S4XS4 = "group P = perm 8 { (1 2); (1 2 3 4); (5 6); (5 6 7 8) }\n"
C512 = "group Z = cyclic 512\n"
C4_CUBED = "group A = perm 12 { (1 2 3 4); (5 6 7 8); (9 10 11 12) }\n"
C2_C4_C8 = "group B = perm 14 { (1 2); (3 4 5 6); (7 8 9 10 11 12 13 14) }\n"
S4_PAIR = """\
group S4 = perm 4 { (1 2); (1 2 3 4) }
group C4 = cyclic 4
embed ea : C4 -> S4 { g -> (1 2 3 4) }
embed eb : C4 -> S4 { g -> (1 2 3 4) }
amalgam G = S4, S4 over C4 via ea, eb
word w in G = 0:(1 2) * 1:(1 2)
"""
S4_GENS = ["(1 2)", "(1 2 3 4)"]
Q8_GENS = ["(1 3 2 4)(5 7 6 8)", "(1 5 2 6)(3 8 4 7)"]
Q8_CENTRE = "(1 2)(3 4)(5 6)(7 8)"
# Two matrices give eleven operations, so the median operation time is that
# of one operation (derived-series of cyclic 512), not the midpoint of the
# gap between the cheap operations and the long ones.
SNF_SIZES = (9, 9)


def quotients(amalgam, seed: int, root: Path, workdir: Path) -> list:
    """Long constructions of finite quotients, tables and lattices.

    The specs are parsed here but resolved only inside the operations:
    building their tables (S4 x S4 alone takes seconds) is the work measured.
    """
    gdir = root / "tests" / "golden"
    texts = {
        "q8_triple.amg": (gdir / "q8_triple.amg").read_text(encoding="utf-8")
        + "word k in T = 0:g1 * 1:g1^-1\n",
        "s4_pair.amg": S4_PAIR,
        "s4xs4.amg": S4XS4,
        "c512.amg": C512,
        "c4_cubed.amg": C4_CUBED,
        "c2_c4_c8.amg": C2_C4_C8,
    }
    path = {}
    for name, text in texts.items():
        amalgam.dsl.parse(text)
        path[name] = _write(workdir, name, text)

    def cli(name, *argv):
        return _cli(amalgam, list(argv[:1]) + ["--spec", path[name]] + list(argv[1:]))

    def central_product(result):
        doc = _doc(result, 0)
        require(doc["status"] == "ok", "central certificate failed its checks")
        q = doc["certificate"]["quotient_description"]
        require(q["order"] == 8 ** 3 // 2 ** 2, f"central product of order {q['order']}")
        return False

    q8 = (8, perm_group(8, Q8_GENS))
    g1 = parse_cycles(Q8_GENS[0], 8)
    triple_word = [(0, g1), (1, perm_inv(g1))]

    def triple_witness(result):
        doc = _doc(result, 0)
        check = check_oracle_witness if doc["engine"] == "oracle_witness" else check_central_witness
        check(doc, [q8] * 3, [parse_cycles(Q8_CENTRE, 8)] * 3, triple_word)
        return False

    def triple_witness_capped(result):
        return _known_fault("witness_q8_triple_max_order_100", result, triple_witness)

    def s4_cyclic(result):
        doc = _doc(result, 2)
        checks = {c["name"]: c["passed"] for c in doc["certificate"]["checks"]}
        # (1 3)(2 4), the square of the amalgam generator, lies in A4 = S4'
        require(checks.pop("separates_C") is False, "separates_C passed")
        require(all(checks.values()), f"other checks failed: {checks}")
        return False

    s4 = (4, perm_group(4, S4_GENS))
    s4_word = [(0, parse_cycles("(1 2)", 4)), (1, parse_cycles("(1 2)", 4))]

    def s4_witness(result):
        doc = _doc(result, 0)
        if doc["engine"] == "oracle_witness":
            check_oracle_witness(doc, [s4, s4], [parse_cycles("(1 2 3 4)", 4)] * 2, s4_word)
        require(doc["separated"] is True and doc["certificate"]["status"] == "ok",
                "S4 pair word not separated")
        return False

    def series_is(orders):
        def check(result):
            doc = _doc(result, 0)
            require(doc["term_orders"] == orders, f"derived series {doc['term_orders']}")
            require(doc["solvable"] is True, "not solvable")
            return False

        return check

    def invariants_are(factors):
        def check(result):
            doc = _doc(result, 0)
            require(doc["invariant_factors"] == factors, f"invariants {doc['invariant_factors']}")
            require(doc["free_rank"] == 0, "free rank")
            return False

        return check

    ops = [
        Op("certify_central_q8_triple", cli("q8_triple.amg", "certify", "--theorem", "central"),
           central_product),
        Op("witness_q8_triple", cli("q8_triple.amg", "witness", "--word", "k"), triple_witness),
        Op("witness_q8_triple_max_order_100",
           cli("q8_triple.amg", "witness", "--word", "k", "--max-order", "100"),
           triple_witness_capped),
        Op("certify_cyclic_s4_pair", cli("s4_pair.amg", "certify", "--theorem", "cyclic"), s4_cyclic),
        Op("witness_s4_pair", cli("s4_pair.amg", "witness", "--word", "w"), s4_witness),
        Op("derived_series_s4xs4", cli("s4xs4.amg", "derived-series", "--group", "P"),
           series_is([576, 144, 16, 1])),
        Op("derived_series_c512", cli("c512.amg", "derived-series", "--group", "Z"),
           series_is([512, 1])),
        Op("abelianize_c4_cubed", cli("c4_cubed.amg", "abelianize", "--group", "A"),
           invariants_are([4, 4, 4])),
        Op("abelianize_c2_c4_c8", cli("c2_c4_c8.amg", "abelianize", "--group", "B"),
           invariants_are([2, 4, 8])),
    ]
    rng = random.Random(seed)
    for k, n in enumerate(SNF_SIZES):
        rows = [[rng.randint(-50, 50) for _ in range(n)] for _ in range(n)]
        matrix = amalgam.IntMatrix.from_rows(rows)

        def check(dec, rows=rows):
            check_snf(rows, dec.U.to_rows(), dec.D.to_rows(), dec.V.to_rows(),
                      dec.invariant_factors)
            return False

        ops.append(Op(f"snf_{n}x{n}_{k}", lambda m=matrix: amalgam.snf(m), check))
    return ops


# ------------------------------------------------------------------- search

D4_GENS = ["(1 2 3 4)", "(1 3)"]
D4_CENTRE = "(1 3)(2 4)"
EXHAUSTIVE_CAP = 12  # every catalog member up to order 12 has derived length <= 2
EXHAUSTIVE_BUDGET = 2_000_000
SHORT_WORDS = 6  # per amalgam and pass


def _syllables(word):
    return " * ".join(f"{i}:{format_cycles(p)}" for i, p in word)


def _inverse(word):
    return [(i, perm_inv(p)) for i, p in reversed(word)]


def _commutator(x, y):
    return x + y + _inverse(x) + _inverse(y)


def search(amalgam, seed: int, root: Path, workdir: Path) -> list:
    """Catalog homomorphism search: exhausting G'' words and finding short ones.

    Short words are commutators [0:x, 1:y] with x and y outside the centres
    of their factors. In Q8 and D4 the centre is the derived subgroup, so
    each factor has a character onto C2 that is nontrivial on its syllable;
    sending the two factors through them onto two distinct transpositions of
    S3 kills both centres (the gluing holds) and maps the word to a 3-cycle
    squared. So a target of order at most 6 separates every short word.
    """
    gdir = root / "tests" / "golden"
    q8 = (8, perm_group(8, Q8_GENS))
    d4 = (4, perm_group(4, D4_GENS))
    # name: (spec file, amalgam, factors, centres, generators, G'' word), the
    # G'' word [[A1, B1], [A2, B2]] given as (factor, generator) pairs
    amalgams = {
        "q8_pair": ("q8_pair.amg", "G", [q8, q8], [Q8_CENTRE] * 2, [Q8_GENS] * 2,
                    [(0, 0), (1, 0), (0, 0), (1, 1)]),
        "d4_q8": ("d4_q8.amg", "M", [d4, q8], [D4_CENTRE, Q8_CENTRE], [D4_GENS, Q8_GENS],
                  [(0, 0), (1, 0), (0, 1), (1, 1)]),
    }
    rng = random.Random(seed)
    ops = []
    for key, (fname, aname, factors, centres, gens, gpp) in amalgams.items():
        degrees = [deg for deg, _ in factors]
        glue = [parse_cycles(c, deg) for c, deg in zip(centres, degrees)]
        a1, b1, a2, b2 = [[(i, parse_cycles(gens[i][g], degrees[i]))] for i, g in gpp]
        second_derived = _commutator(_commutator(a1, b1), _commutator(a2, b2))
        noncentral = [
            [(i, p) for p in elems if any(perm_mul(p, q) != perm_mul(q, p) for q in elems)]
            for i, (_, elems) in enumerate(factors)
        ]
        pairs = [(x, y) for x in noncentral[0] for y in noncentral[1]]
        short = [_commutator([x], [y]) for x, y in rng.sample(pairs, SHORT_WORDS)]
        lines = [f"word gpp in {aname} = {_syllables(second_derived)}"]
        lines += [f"word s{k} in {aname} = {_syllables(w)}" for k, w in enumerate(short)]
        text = (gdir / fname).read_text(encoding="utf-8") + "\n".join(lines) + "\n"
        _resolve(amalgam, text)
        spec = _write(workdir, f"search_{fname}", text)

        def exhausted(result):
            doc = _doc(result, 2)
            require(doc["separated"] is False, "G'' word separated")
            hit = re.search(r"oracle: exhausted (\d+) nodes", doc["reason"])
            require(hit is not None, f"no exhausted search in {doc['reason']!r}")
            require(int(hit.group(1)) <= EXHAUSTIVE_BUDGET, "search ran past its budget")
            return False

        ops.append(Op(
            f"witness_{key}_gpp_cap{EXHAUSTIVE_CAP}",
            _cli(amalgam, ["witness", "--spec", spec, "--word", "gpp", "--engines", "oracle",
                           "--catalog-max", str(EXHAUSTIVE_CAP),
                           "--budget", str(EXHAUSTIVE_BUDGET)]),
            exhausted,
        ))
        if key == "q8_pair":
            def budget_fault(result):
                def mended(result):
                    require(_doc(result, 2)["separated"] is False, "G'' word separated")

                return _known_fault("witness_q8_pair_default_budget", result, mended)

            ops.append(Op("witness_q8_pair_default_budget",
                          _cli(amalgam, ["witness", "--spec", spec, "--word", "gpp"]),
                          budget_fault))
        for k, word in enumerate(short):
            def separated(result, word=word, factors=factors, glue=glue):
                check_oracle_witness(_doc(result, 0), factors, glue, word)
                return False

            ops.append(Op(
                f"witness_{key}_s{k}",
                _cli(amalgam, ["witness", "--spec", spec, "--word", f"s{k}",
                               "--engines", "oracle"]),
                separated,
            ))
    return ops


# -------------------------------------------------------------------- words

WORD_SPECS = {"q8_pair.amg": "G", "d4_q8.amg": "M", "mixed.amg": "G", "lattice.amg": "M"}
WORDS_PER_AMALGAM = 40
WORD_LENGTHS = (48, 64)  # the spec format caps words at 64 syllables


def words(amalgam, seed: int, root: Path, workdir: Path) -> list:
    """Random words reduced by the engine and by the presentation oracle."""
    gdir = root / "tests" / "golden"
    rng = random.Random(seed)
    ops = []
    for fname, aname in WORD_SPECS.items():
        spec = _resolve(amalgam, (gdir / fname).read_text(encoding="utf-8")).amalgams[aname]
        amalgam.validate_spec(spec)
        for k in range(WORDS_PER_AMALGAM):
            word, inverse = [], []
            for _ in range(rng.randint(*WORD_LENGTHS)):
                i = rng.randrange(len(spec.factors))
                f = spec.factors[i]
                if isinstance(f, amalgam.FiniteGroup):
                    x = rng.randrange(f.order)
                    word.append((i, x))
                    inverse.append((i, f.inv(x)))
                else:
                    v = tuple(rng.randint(-3, 3) for _ in range(f.ngens))
                    word.append((i, v))
                    inverse.append((i, tuple(-c for c in v)))
            inverse.reverse()

            def run(spec=spec, word=word):
                return amalgam.reduce(spec, word), amalgam.oracle_reduce(spec, word)

            def check(result, spec=spec, round_trip=word + inverse):
                check_reductions(*result, amalgam.reduce(spec, round_trip).is_identity())
                return False

            ops.append(Op(f"{fname[:-4]}_{k}", run, check))
    rng.shuffle(ops)
    return ops


# Operations run once before timing (see run.run_passes); the workloads
# not named here warm up on a whole pass.
WARM_UP = {
    "quotients": {"derived_series_s4xs4"},
    "search": {"witness_q8_pair_gpp_cap12"},
}

WORKLOADS = {"golden": golden, "quotients": quotients, "search": search, "words": words}
