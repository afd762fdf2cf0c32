"""Normal forms, multiplication, and amalgam constructions."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amalgam.errors import (
    DisagreeOnAmalgam,
    ElementOutOfRange,
    IncompatibleAmalgam,
    NotAHomomorphism,
    NotCentral,
    NotInjective,
)
from amalgam.groups import (
    FiniteGroup,
    abelian_invariants,
    cyclic_group,
    dihedral_group,
    hom_from_generator_images,
    identity_hom,
    perm_from_cycles,
    quaternion_group,
    subgroup_closure,
    symmetric_group,
)
from amalgam.lattice import FGAbelian, IntMatrix
from amalgam.witness import separate_element
from amalgam.words import (
    AbelianToFiniteHom,
    AmalgamSpec,
    InducedHom,
    NormalForm,
    build_generalized_central_product,
    check_word,
    identified_direct_quotient,
    identity_form,
    invert,
    is_normal_form,
    multiply,
    nf_to_word,
    reduce,
    validate_spec,
    words_equal,
    _FiniteAdapter,
)


def by_label(G: FiniteGroup, s: str) -> int:
    for x in G.elements():
        if G.label(x) == s:
            return x
    raise AssertionError(f"no element labelled {s}")


def q8_amalgam() -> AmalgamSpec:
    Q = quaternion_group()
    C = cyclic_group(2)
    minus_one = by_label(Q, "-1")
    e = hom_from_generator_images(C, Q, {1: minus_one})
    return AmalgamSpec([Q, Q], C, [e, e])


def s3_amalgam() -> AmalgamSpec:
    S = symmetric_group(3)
    C = cyclic_group(3)
    rot = by_label(S, "(1 2 3)")
    e = hom_from_generator_images(C, S, {1: rot})
    return AmalgamSpec([S, S], C, [e, e])


def mixed_amalgam(b_stride: int = 2) -> AmalgamSpec:
    """Z^2 and Z glued along Z, via (2, 0) on one side and b_stride on the other."""
    A = FGAbelian(2, ())
    B = FGAbelian(1, ())
    C = FGAbelian(1, ())
    eA = IntMatrix.from_rows([[2], [0]])
    eB = IntMatrix.from_rows([[b_stride]])
    return AmalgamSpec([A, B], C, [eA, eB])


def random_word(spec: AmalgamSpec, rng: random.Random, max_len: int) -> list:
    word = []
    for _ in range(rng.randrange(max_len + 1)):
        i = rng.randrange(len(spec.factors))
        f = spec.factors[i]
        if isinstance(f, FiniteGroup):
            word.append((i, rng.randrange(f.order)))
        else:
            word.append((i, tuple(rng.randrange(-4, 5) for _ in range(f.ngens))))
    return word


# ---------------------------------------------------------------- validation


def test_validate_needs_two_factors():
    Q = quaternion_group()
    C = cyclic_group(2)
    e = hom_from_generator_images(C, Q, {1: by_label(Q, "-1")})
    with pytest.raises(IncompatibleAmalgam):
        AmalgamSpec([Q], C, [e])


def test_validate_counts_embeddings():
    Q = quaternion_group()
    C = cyclic_group(2)
    e = hom_from_generator_images(C, Q, {1: by_label(Q, "-1")})
    with pytest.raises(IncompatibleAmalgam):
        AmalgamSpec([Q, Q], C, [e])


def test_validate_rejects_noninjective_embedding():
    Q = quaternion_group()
    C = cyclic_group(2)
    collapse = hom_from_generator_images(C, Q, {1: Q.identity})
    good = hom_from_generator_images(C, Q, {1: by_label(Q, "-1")})
    with pytest.raises(NotInjective):
        AmalgamSpec([Q, Q], C, [collapse, good])


def test_validate_rejects_torsion_amalgam():
    A = FGAbelian(1, ())
    C = FGAbelian(0, (2,))
    e = IntMatrix.from_rows([[1]])
    with pytest.raises(IncompatibleAmalgam):
        AmalgamSpec([A, A], C, [e, e])


def test_validate_rejects_finite_factor_with_free_amalgam():
    A = FGAbelian(1, ())
    C = FGAbelian(1, ())
    e = IntMatrix.from_rows([[1]])
    with pytest.raises(IncompatibleAmalgam):
        AmalgamSpec([A, symmetric_group(3)], C, [e, e])


def test_validate_rejects_embedding_into_torsion():
    # c -> (c, 0) hits the order-4 torsion generator: 4c maps to zero
    A = FGAbelian(1, (4,))
    B = FGAbelian(1, ())
    C = FGAbelian(1, ())
    eA = IntMatrix.from_rows([[1], [0]])
    eB = IntMatrix.from_rows([[1]])
    with pytest.raises(NotInjective):
        AmalgamSpec([A, B], C, [eA, eB])


def test_construction_builds_the_adapters_once(monkeypatch):
    built = []
    init = _FiniteAdapter.__init__

    def counting_init(self, *args):
        built.append(args[-1])
        init(self, *args)

    monkeypatch.setattr(_FiniteAdapter, "__init__", counting_init)
    spec = q8_amalgam()
    assert built == [0, 1]
    assert isinstance(spec.adapters, tuple)
    assert validate_spec(spec) is spec
    i, j = by_label(spec.factors[0], "i"), by_label(spec.factors[1], "j")
    nf = reduce(spec, [(0, i), (1, j)])
    multiply(spec, nf, nf)
    separate_element(spec, [(0, i), (1, j)])
    assert built == [0, 1]


def test_check_word_rejects_bad_factor_and_element():
    spec = q8_amalgam()
    with pytest.raises(ElementOutOfRange):
        check_word(spec, [(2, 0)])
    with pytest.raises(ElementOutOfRange):
        check_word(spec, [(0, 8)])
    with pytest.raises(ElementOutOfRange):
        check_word(spec, [(0, (1, 0))])


# ------------------------------------------------------------- transversals


def test_q8_transversal():
    spec = q8_amalgam()
    ad = spec.adapters[0]
    # the embedded C2 is {1, -1}; cosets pair each element with its negative
    assert spec.transversal_reps(0) == (0, 2, 4, 6)
    for x in spec.factors[0].elements():
        c, t = ad.decompose(x)
        assert ad.mul(ad.embed_c(c), t) == x
        assert t in spec.transversal_reps(0)


def test_s3_transversal_has_index_two():
    spec = s3_amalgam()
    reps = spec.transversal_reps(0)
    assert len(reps) == 2
    assert reps[0] == 0
    for t in reps:
        c, rep = spec.adapters[0].decompose(t)
        assert rep == t and c == spec.amalgam.identity


def test_decompose_embedded_elements():
    spec = s3_amalgam()
    ad = spec.adapters[1]
    C = spec.amalgam
    for c in C.elements():
        got_c, got_t = ad.decompose(ad.embed_c(c))
        assert got_c == c
        assert got_t == ad.identity


# ------------------------------------------------------------- normal forms


def test_reduce_empty_word_is_identity():
    spec = q8_amalgam()
    nf = reduce(spec, [])
    assert nf == identity_form(spec)
    assert nf.is_identity()


def test_reduce_identity_syllables():
    spec = s3_amalgam()
    assert reduce(spec, [(0, 0), (1, 0), (0, 0)]).is_identity()


def test_reduce_amalgam_syllable_becomes_head():
    spec = s3_amalgam()
    S = spec.factors[0]
    rot = by_label(S, "(1 2 3)")
    nf = reduce(spec, [(1, rot)])
    assert nf.tail == ()
    assert nf.head == 1
    # and the same element through the other factor is equal
    assert words_equal(spec, [(1, rot)], [(0, rot)])


def test_ping_pong_alternating_word_has_full_length():
    spec = s3_amalgam()
    S = spec.factors[0]
    flip = by_label(S, "(1 2)")
    word = [(0, flip), (1, flip), (0, flip)]
    nf = reduce(spec, word)
    assert nf.length == 3
    assert is_normal_form(spec, nf)
    assert not nf.is_identity()


def test_same_factor_syllables_merge():
    spec = q8_amalgam()
    Q = spec.factors[0]
    i, j = by_label(Q, "i"), by_label(Q, "j")
    assert words_equal(spec, [(0, i), (0, j)], [(0, Q.mul(i, j))])


def test_roundtrip_and_idempotence():
    spec = s3_amalgam()
    rng = random.Random(101)
    for _ in range(200):
        w = random_word(spec, rng, 8)
        nf = reduce(spec, w)
        assert is_normal_form(spec, nf)
        assert reduce(spec, nf_to_word(spec, nf)) == nf


def test_multiply_matches_concatenation():
    spec = q8_amalgam()
    rng = random.Random(202)
    for _ in range(200):
        u = random_word(spec, rng, 6)
        v = random_word(spec, rng, 6)
        assert multiply(spec, reduce(spec, u), reduce(spec, v)) == reduce(spec, u + v)


def test_multiplication_associative():
    spec = s3_amalgam()
    rng = random.Random(303)
    for _ in range(200):
        a = reduce(spec, random_word(spec, rng, 5))
        b = reduce(spec, random_word(spec, rng, 5))
        c = reduce(spec, random_word(spec, rng, 5))
        assert multiply(spec, multiply(spec, a, b), c) == multiply(
            spec, a, multiply(spec, b, c)
        )


def test_inverse_cancels():
    for spec in (q8_amalgam(), s3_amalgam()):
        rng = random.Random(404)
        for _ in range(100):
            nf = reduce(spec, random_word(spec, rng, 6))
            assert multiply(spec, nf, invert(spec, nf)).is_identity()
            assert multiply(spec, invert(spec, nf), nf).is_identity()
            assert invert(spec, invert(spec, nf)) == nf


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 1), st.integers(0, 5)), min_size=0, max_size=7
    )
)
def test_concatenation_homomorphic(word):
    spec = s3_amalgam()
    for cut in range(len(word) + 1):
        left, right = word[:cut], word[cut:]
        assert multiply(spec, reduce(spec, left), reduce(spec, right)) == reduce(
            spec, word
        )


def test_is_normal_form_rejects_bad_tails():
    spec = s3_amalgam()
    S = spec.factors[0]
    flip = by_label(S, "(1 2)")
    rot = by_label(S, "(1 2 3)")
    assert not is_normal_form(spec, NormalForm(head=0, tail=((0, 0),)))
    assert not is_normal_form(spec, NormalForm(head=0, tail=((0, rot),)))
    assert not is_normal_form(
        spec, NormalForm(head=0, tail=((0, flip), (0, flip)))
    )


# ---------------------------------------------------------- abelian factors


def test_mixed_surjective_side_absorbs():
    # the Z side is exactly the image of C, so tails never alternate
    spec = mixed_amalgam(b_stride=1)
    nf = reduce(spec, [(0, (1, 0)), (1, (5,))])
    assert nf == NormalForm(head=(5,), tail=((0, (1, 0)),))
    rng = random.Random(505)
    for _ in range(100):
        nf = reduce(spec, random_word(spec, rng, 8))
        assert nf.length <= 1


def test_mixed_alternating_forms():
    spec = mixed_amalgam(b_stride=2)
    word = [(0, (1, 0)), (1, (1,)), (0, (1, 0))]
    nf = reduce(spec, word)
    assert nf.length == 3
    assert is_normal_form(spec, nf)


def test_mixed_head_collects_amalgam():
    spec = mixed_amalgam(b_stride=2)
    # (2, 0) is the image of the amalgam generator on the Z^2 side
    nf = reduce(spec, [(0, (2, 0))])
    assert nf == NormalForm(head=(1,), tail=())
    nf = reduce(spec, [(1, (2,))])
    assert nf == NormalForm(head=(1,), tail=())


def test_mixed_inverse_and_associativity():
    spec = mixed_amalgam(b_stride=2)
    rng = random.Random(606)
    for _ in range(150):
        u = reduce(spec, random_word(spec, rng, 6))
        v = reduce(spec, random_word(spec, rng, 6))
        w = reduce(spec, random_word(spec, rng, 6))
        assert multiply(spec, multiply(spec, u, v), w) == multiply(
            spec, u, multiply(spec, v, w)
        )
        assert multiply(spec, u, invert(spec, u)).is_identity()


def test_torsion_factor_decomposition():
    # Z/4 x Z glued to Z along the free part
    A = FGAbelian(1, (4,))
    B = FGAbelian(1, ())
    C = FGAbelian(1, ())
    eA = IntMatrix.from_rows([[0], [1]])
    eB = IntMatrix.from_rows([[2]])
    spec = AmalgamSpec([A, B], C, [eA, eB])
    c, t = spec.adapters[0].decompose((3, 5))
    assert c == (5,)
    assert t == (3, 0)
    assert reduce(spec, [(0, (0, 7))]) == NormalForm(head=(7,), tail=())


def test_finite_factor_with_trivial_amalgam():
    # free product S3 * Z: the amalgam is the rank-0 abelian group
    S = symmetric_group(3)
    B = FGAbelian(1, ())
    C = FGAbelian(0, ())
    spec = AmalgamSpec([S, B], C, [None, IntMatrix.zeros(1, 0)])
    flip = by_label(S, "(1 2)")
    word = [(0, flip), (1, (3,)), (0, flip), (1, (-3,))]
    nf = reduce(spec, word)
    assert nf.length == 4
    assert multiply(spec, nf, invert(spec, nf)).is_identity()
    # free product: no cancellation across factors
    assert not words_equal(spec, [(0, flip)], [(1, (1,))])


# ------------------------------------------------------------- induced maps


def test_induced_hom_respects_reduction():
    spec = q8_amalgam()
    Q = spec.factors[0]
    C = spec.amalgam
    e = spec.embeddings[0]
    S, mus = build_generalized_central_product([Q, Q], C, [e, e])
    hom = InducedHom(spec, S, mus)
    rng = random.Random(707)
    for _ in range(150):
        w = random_word(spec, rng, 8)
        assert hom.apply_word(w) == hom.apply_nf(reduce(spec, w))
    u, v = random_word(spec, rng, 5), random_word(spec, rng, 5)
    assert hom.apply_word(u + v) == S.mul(hom.apply_word(u), hom.apply_word(v))


def test_induced_hom_rejects_disagreement():
    Q = quaternion_group()
    C = cyclic_group(4)
    ei = hom_from_generator_images(C, Q, {1: by_label(Q, "i")})
    ej = hom_from_generator_images(C, Q, {1: by_label(Q, "j")})
    spec = AmalgamSpec([Q, Q], C, [ei, ej])
    with pytest.raises(DisagreeOnAmalgam):
        InducedHom(spec, Q, [identity_hom(Q), identity_hom(Q)])


def test_induced_hom_mixed_factors():
    spec = mixed_amalgam(b_stride=2)
    T = cyclic_group(2)
    mA = AbelianToFiniteHom(spec.factors[0], T, (1, 0))
    mB = AbelianToFiniteHom(spec.factors[1], T, (1,))
    hom = InducedHom(spec, T, [mA, mB])
    assert hom.apply_word([(0, (1, 0)), (1, (1,))]) == 0
    assert hom.apply_word([(0, (1, 1))]) == 1
    rng = random.Random(808)
    for _ in range(100):
        w = random_word(spec, rng, 6)
        assert hom.apply_word(w) == hom.apply_nf(reduce(spec, w))


def test_abelian_to_finite_hom_validation():
    Z4 = FGAbelian(0, (4,))
    Z3 = FGAbelian(0, (3,))
    C2 = cyclic_group(2)
    S = symmetric_group(3)
    AbelianToFiniteHom(Z4, C2, (1,))
    with pytest.raises(NotAHomomorphism):
        AbelianToFiniteHom(Z3, C2, (1,))
    with pytest.raises(NotAHomomorphism):
        AbelianToFiniteHom(
            FGAbelian(2, ()), S, (by_label(S, "(1 2)"), by_label(S, "(1 3)"))
        )


# ------------------------------------------------- central product and glue


def test_central_product_q8():
    Q = quaternion_group()
    C = cyclic_group(2)
    e = hom_from_generator_images(C, Q, {1: by_label(Q, "-1")})
    S, mus = build_generalized_central_product([Q, Q], C, [e, e])
    assert S.order == 32
    for mu in mus:
        assert mu.is_injective()
    for c in C.elements():
        assert mus[0].apply(e.apply(c)) == mus[1].apply(e.apply(c))
    images = [mu.apply(x) for mu in mus for x in Q.elements()]
    assert subgroup_closure(S, images).order == 32


def test_central_product_d4():
    D = dihedral_group(4)
    C = cyclic_group(2)
    r2 = by_label(D, "r2")
    e = hom_from_generator_images(C, D, {1: r2})
    S, _ = build_generalized_central_product([D, D], C, [e, e])
    assert S.order == 32


def test_central_product_triple():
    Q = quaternion_group()
    C = cyclic_group(2)
    e = hom_from_generator_images(C, Q, {1: by_label(Q, "-1")})
    S, mus = build_generalized_central_product([Q, Q, Q], C, [e, e, e])
    # |S| * |C|^(k-1) = product of factor orders
    assert S.order * C.order ** 2 == 8 ** 3
    for i in range(3):
        for j in range(i + 1, 3):
            for c in C.elements():
                assert mus[i].apply(e.apply(c)) == mus[j].apply(e.apply(c))


def test_central_product_rejects_noncentral():
    S3 = symmetric_group(3)
    C = cyclic_group(2)
    e = hom_from_generator_images(C, S3, {1: by_label(S3, "(1 2)")})
    with pytest.raises(NotCentral):
        build_generalized_central_product([S3, S3], C, [e, e])


def test_identified_quotient_q8():
    Q = quaternion_group()
    m = by_label(Q, "-1")
    D, proj = identified_direct_quotient(Q, Q, m, m)
    assert D.order == 32
    assert proj.source.order == 64
    assert proj.kernel().order == 2
    # the identified pair lands on the same element
    assert proj.apply(m * 8) == proj.apply(m)


def test_identified_quotient_s3():
    S = symmetric_group(3)
    rot = by_label(S, "(1 2 3)")
    D, proj = identified_direct_quotient(S, S, rot, rot)
    # conjugates of (rot, rot^-1) already generate A3 x A3
    assert D.order == 4
    assert abelian_invariants(D) == [2, 2]
    assert proj.kernel().order == 9
