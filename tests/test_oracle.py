"""Independent reducer, presentation extraction, catalog, and brute search."""

import itertools
import random

import pytest

from amalgam.errors import (
    BudgetExceeded,
    ElementOutOfRange,
    IncompatibleAmalgam,
    TooManyGenerators,
)
from amalgam.groups import (
    GroupHom,
    cyclic_group,
    hom_from_generator_images,
    is_solvable,
    quaternion_group,
    symmetric_group,
)
from amalgam.lattice import FGAbelian, IntMatrix
from amalgam.oracle import (
    amalgam_word_to_generators,
    exhaustive_injectivity,
    hom_search,
    oracle_reduce,
    presentation_of_amalgam,
    solvable_catalog,
)
from amalgam.words import AmalgamSpec, reduce
from amalgam.certs import Exhausted, WitnessResult


def by_label(G, s):
    return G.labels.index(s)


def s3_amalgam():
    S3 = symmetric_group(3)
    C3 = cyclic_group(3)
    e = hom_from_generator_images(C3, S3, {1: by_label(S3, "(1 2 3)")})
    return AmalgamSpec([S3, S3], C3, [e, e])


def q8_amalgam():
    Q8 = quaternion_group()
    C2 = cyclic_group(2)
    e = hom_from_generator_images(C2, Q8, {1: by_label(Q8, "-1")})
    return AmalgamSpec([Q8, Q8], C2, [e, e])


def mixed_amalgam():
    Z2 = FGAbelian(2, ())
    Z1 = FGAbelian(1, ())
    C = FGAbelian(1, ())
    eA = IntMatrix.from_columns([(2, 0)], rows=2)
    eB = IntMatrix.from_columns([(1,)], rows=1)
    return AmalgamSpec([Z2, Z1], C, [eA, eB])


# ------------------------------------------------------------ oracle_reduce


def test_oracle_reduce_identity_word():
    spec = s3_amalgam()
    nf = oracle_reduce(spec, [])
    assert nf.is_identity()


def test_oracle_reduce_single_syllable():
    spec = s3_amalgam()
    t = by_label(spec.factors[0], "(1 2)")
    nf = oracle_reduce(spec, [(0, t)])
    assert nf.tail == ((0, t),)


def test_oracle_reduce_amalgam_syllable_becomes_head():
    spec = s3_amalgam()
    c = by_label(spec.factors[1], "(1 2 3)")
    nf = oracle_reduce(spec, [(1, c)])
    assert nf.tail == ()
    assert nf.head != 0


def test_oracle_agrees_with_engine_exhaustively():
    """Every word of length <= 4 over a fixed four-letter alphabet."""
    spec = s3_amalgam()
    S3 = spec.factors[0]
    alphabet = [
        (0, by_label(S3, "(1 2)")),
        (0, by_label(S3, "(1 2 3)")),
        (1, by_label(S3, "(1 3)")),
        (1, by_label(S3, "(1 3 2)")),
    ]
    count = 0
    for n in range(5):
        for word in itertools.product(alphabet, repeat=n):
            assert oracle_reduce(spec, word) == reduce(spec, word)
            count += 1
    assert count == 1 + 4 + 16 + 64 + 256


def test_oracle_agrees_with_engine_random_words():
    spec = s3_amalgam()
    rng = random.Random(20240817)
    for _ in range(300):
        word = [
            (rng.randrange(2), rng.randrange(6)) for _ in range(rng.randrange(9))
        ]
        assert oracle_reduce(spec, word) == reduce(spec, word)


def test_oracle_agrees_on_quaternion_amalgam():
    spec = q8_amalgam()
    rng = random.Random(11)
    for _ in range(200):
        word = [
            (rng.randrange(2), rng.randrange(8)) for _ in range(rng.randrange(8))
        ]
        assert oracle_reduce(spec, word) == reduce(spec, word)


def test_oracle_agrees_on_mixed_amalgam():
    spec = mixed_amalgam()
    rng = random.Random(99)
    for _ in range(200):
        word = []
        for _ in range(rng.randrange(7)):
            if rng.randrange(2):
                word.append((0, (rng.randrange(-4, 5), rng.randrange(-4, 5))))
            else:
                word.append((1, (rng.randrange(-4, 5),)))
        assert oracle_reduce(spec, word) == reduce(spec, word)


def test_oracle_reduce_is_idempotent_on_tails():
    spec = s3_amalgam()
    rng = random.Random(3)
    for _ in range(100):
        word = [(rng.randrange(2), rng.randrange(6)) for _ in range(rng.randrange(8))]
        nf = oracle_reduce(spec, word)
        again = oracle_reduce(spec, list(nf.tail))
        assert again.tail == nf.tail


# ------------------------------------------------------------- presentation


def test_presentation_generator_and_relator_counts():
    spec = s3_amalgam()
    P = presentation_of_amalgam(spec)
    assert P.ngens == 10
    # 25 products per factor (5 nonidentity letters squared), 2 identifications
    assert len(P.relators) == 52
    idents = [r for r in P.relators if len(r) == 2 and r[0] > 0 > r[1]]
    assert len(idents) == 2


def test_presentation_labels_name_factor_and_element():
    spec = s3_amalgam()
    P = presentation_of_amalgam(spec)
    assert P.gen_labels[0].startswith("0:")
    assert any(lbl.startswith("1:") for lbl in P.gen_labels)


def test_presentation_trivial_amalgam_has_no_identifications():
    S3 = symmetric_group(3)
    C1 = cyclic_group(1)
    e = GroupHom(C1, S3, (0,))
    spec = AmalgamSpec([S3, S3], C1, [e, e])
    P = presentation_of_amalgam(spec)
    assert P.ngens == 10
    assert len(P.relators) == 50


def test_presentation_generator_cap():
    with pytest.raises(TooManyGenerators):
        presentation_of_amalgam(s3_amalgam(), cap=5)


def test_presentation_rejects_infinite_factors():
    with pytest.raises(IncompatibleAmalgam):
        presentation_of_amalgam(mixed_amalgam())


def test_word_to_generator_letters_skips_identity_syllables():
    spec = s3_amalgam()
    P = presentation_of_amalgam(spec)
    t = by_label(spec.factors[0], "(1 2)")
    letters = amalgam_word_to_generators(P, [(0, 0), (0, t), (1, 0)])
    assert len(letters) == 1
    assert P.gen_labels[letters[0] - 1] == "0:(1 2)"


# ------------------------------------------------------------------ catalog


def test_catalog_is_solvable_and_bounded():
    cat = solvable_catalog(24)
    assert len(cat) == 52
    for g in cat:
        assert g.order <= 24
        assert is_solvable(g)


def test_catalog_sorted_and_deduplicated():
    cat = solvable_catalog(24)
    keys = [(g.order, g.name) for g in cat]
    assert keys == sorted(keys)
    tables = {g.table.tobytes() for g in cat}
    assert len(tables) == len(cat)


def test_catalog_respects_max_order():
    cat = solvable_catalog(8)
    assert all(g.order <= 8 for g in cat)
    assert len(cat) < len(solvable_catalog(24))


def test_catalog_is_built_once_per_max_order():
    a = solvable_catalog(24)
    b = solvable_catalog(24)
    assert a is b
    assert all(x is y for x, y in zip(a, b))
    assert solvable_catalog(8) is not a
    assert all(not g.table.flags.writeable for g in a)


def test_catalog_construction_is_deterministic():
    a = solvable_catalog.__wrapped__(24)
    b = solvable_catalog.__wrapped__(24)
    assert [(g.name, g.table.tobytes()) for g in a] == [
        (g.name, g.table.tobytes()) for g in b
    ]


# --------------------------------------------------------------- hom_search


def test_search_separates_transposition_into_order_two():
    spec = s3_amalgam()
    P = presentation_of_amalgam(spec)
    cat = solvable_catalog(24)
    w = amalgam_word_to_generators(P, [(0, by_label(spec.factors[0], "(1 2)"))])
    hit = hom_search(P, cat, w)
    assert isinstance(hit, WitnessResult)
    assert hit.separated
    assert hit.target_description["order"] == 2
    assert hit.target_description["name"] == "C2"
    assert hit.image_label == "g"


def test_search_separates_three_cycle_into_nonabelian_target():
    """Abelian targets kill the three-cycle, so the first hit has order 6."""
    spec = s3_amalgam()
    P = presentation_of_amalgam(spec)
    cat = solvable_catalog(24)
    w = amalgam_word_to_generators(P, [(0, by_label(spec.factors[0], "(1 2 3)"))])
    hit = hom_search(P, cat, w)
    assert isinstance(hit, WitnessResult)
    assert hit.target_description == {"order": 6, "name": "D3", "derived_length": 2}
    assert hit.image_label == "r1"


def test_search_result_is_fully_verified():
    spec = s3_amalgam()
    P = presentation_of_amalgam(spec)
    cat = solvable_catalog(24)
    w = amalgam_word_to_generators(P, [(0, by_label(spec.factors[0], "(1 2)"))])
    hit = hom_search(P, cat, w)
    cert = hit.certificate
    assert cert.kind == "oracle_witness"
    assert cert.all_passed
    for name in ("relators_satisfied", "image_nonidentity", "target_solvable"):
        assert cert.check(name).passed
    assert hit.target_derived_length >= 1


def test_search_exhausts_on_relator_word():
    """An identification word is trivial in every quotient, so nothing hits."""
    spec = s3_amalgam()
    S3 = spec.factors[0]
    P = presentation_of_amalgam(spec)
    cat = solvable_catalog(24)
    c = by_label(S3, "(1 2 3)")
    w = amalgam_word_to_generators(P, [(0, c), (1, S3.inv(c))])
    out = hom_search(P, cat, w)
    assert isinstance(out, Exhausted)
    assert out.targets_tried == 52
    assert out.nodes > 0


def test_search_budget_is_enforced():
    spec = s3_amalgam()
    S3 = spec.factors[0]
    P = presentation_of_amalgam(spec)
    cat = solvable_catalog(24)
    c = by_label(S3, "(1 2 3)")
    w = amalgam_word_to_generators(P, [(0, c), (1, S3.inv(c))])
    with pytest.raises(BudgetExceeded):
        hom_search(P, cat, w, budget=10)


def test_search_is_deterministic():
    spec = s3_amalgam()
    P = presentation_of_amalgam(spec)
    cat = solvable_catalog(24)
    w = amalgam_word_to_generators(P, [(0, by_label(spec.factors[0], "(1 2 3)"))])
    first = hom_search(P, cat, w).to_dict()
    second = hom_search(P, cat, w).to_dict()
    assert first == second


def test_search_rejects_bad_words():
    spec = s3_amalgam()
    P = presentation_of_amalgam(spec)
    cat = solvable_catalog(24)
    with pytest.raises(ElementOutOfRange):
        hom_search(P, cat, [])
    with pytest.raises(ElementOutOfRange):
        hom_search(P, cat, [0])
    with pytest.raises(ElementOutOfRange):
        hom_search(P, cat, [P.ngens + 1])


# ------------------------------------------------- exhaustive_injectivity


def test_injectivity_scan_accepts_injective_map():
    Q8 = quaternion_group()
    from amalgam.groups import identity_hom, whole_group

    ok, pair = exhaustive_injectivity(identity_hom(Q8), whole_group(Q8))
    assert ok and pair is None


def test_injectivity_scan_reports_first_collision():
    S3 = symmetric_group(3)
    C2 = cyclic_group(2)
    from amalgam.groups import whole_group

    sign = GroupHom(
        S3, C2, tuple(0 if S3.label(x).count(" ") != 1 else 1 for x in S3.elements())
    )
    ok, pair = exhaustive_injectivity(sign, whole_group(S3))
    assert not ok
    assert pair is not None
    x, y = pair
    assert x < y
    assert sign.apply(x) == sign.apply(y)
