"""Normal forms, the group law on words, and amalgam constructions."""

import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amalgam.dsl import parse, resolve
from amalgam.errors import (
    DisagreeOnAmalgam,
    ElementOutOfRange,
    IdentityWord,
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
from amalgam.oracle import oracle_reduce
from amalgam.witness import separate_element
from amalgam.words import (
    AbelianToFiniteHom,
    AmalgamSpec,
    InducedHom,
    NormalForm,
    build_generalized_central_product,
    check_word,
    glued_product,
    reduce,
    validate_spec,
    _AbelianAdapter,
    _FiniteAdapter,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"


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


def golden_spec(fname: str) -> AmalgamSpec:
    (spec,) = resolve(parse((GOLDEN / fname).read_text())).amalgams.values()
    return spec


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


def nf_to_word(spec: AmalgamSpec, nf: NormalForm) -> list:
    """A raw word evaluating to nf (head embedded through factor 0)."""
    word = []
    if nf.head != spec.amalgam.identity:
        word.append((0, spec.adapters[0].embed_c(nf.head)))
    word.extend(nf.tail)
    return word


def inverse(spec: AmalgamSpec, word) -> list:
    return [
        (i, spec.factors[i].inv(x) if isinstance(x, int) else tuple(-v for v in x))
        for i, x in reversed(word)
    ]


def is_normal_form(spec: AmalgamSpec, nf: NormalForm) -> bool:
    """Structural check of the normal-form invariants."""
    C = spec.amalgam
    if isinstance(C, FiniteGroup):
        if not isinstance(nf.head, int) or not 0 <= nf.head < C.order:
            return False
    elif not isinstance(nf.head, tuple) or len(nf.head) != C.ngens:
        return False
    prev = None
    for i, t in nf.tail:
        if t == spec.factors[i].identity:
            return False
        c, rep = spec.adapters[i].decompose(t)
        if rep != t or c != spec.amalgam.identity:
            return False
        if prev == i:
            return False
        prev = i
    return True


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
    reduce(spec, [(0, i), (1, j)])
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
    reps = set()
    for x in spec.factors[0].elements():
        c, t = ad.decompose(x)
        assert spec.factors[0].mul(ad.embed_c(c), t) == x
        reps.add(t)
    assert sorted(reps) == [0, 2, 4, 6]


def test_s3_transversal_has_index_two():
    spec = s3_amalgam()
    reps = sorted({spec.adapters[0].decompose(x)[1] for x in spec.factors[0].elements()})
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
        assert got_t == spec.factors[1].identity


# ------------------------------------------------------------- normal forms


def test_reduce_empty_word_is_identity():
    spec = q8_amalgam()
    nf = reduce(spec, [])
    assert nf == NormalForm(head=spec.amalgam.identity, tail=(), c_identity=0)
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
    assert reduce(spec, [(1, rot)]) == reduce(spec, [(0, rot)])


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
    assert reduce(spec, [(0, i), (0, j)]) == reduce(spec, [(0, Q.mul(i, j))])


def test_roundtrip_and_idempotence():
    spec = s3_amalgam()
    rng = random.Random(101)
    for _ in range(200):
        w = random_word(spec, rng, 8)
        nf = reduce(spec, w)
        assert is_normal_form(spec, nf)
        assert reduce(spec, nf_to_word(spec, nf)) == nf


def assert_associative(spec, a, b, c):
    """(ab)c = a(bc), each product reduced before it is extended."""
    ab = nf_to_word(spec, reduce(spec, a + b))
    bc = nf_to_word(spec, reduce(spec, b + c))
    assert reduce(spec, ab + c) == reduce(spec, a + bc)


def test_multiplication_associative():
    spec = s3_amalgam()
    rng = random.Random(303)
    for _ in range(200):
        a, b, c = (random_word(spec, rng, 5) for _ in range(3))
        assert_associative(spec, a, b, c)


def test_inverse_cancels():
    for spec in (q8_amalgam(), s3_amalgam()):
        rng = random.Random(404)
        for _ in range(100):
            w = nf_to_word(spec, reduce(spec, random_word(spec, rng, 6)))
            assert reduce(spec, w + inverse(spec, w)).is_identity()
            assert reduce(spec, inverse(spec, w) + w).is_identity()
            assert reduce(spec, inverse(spec, inverse(spec, w))) == reduce(spec, w)


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
        halves = nf_to_word(spec, reduce(spec, left)) + nf_to_word(spec, reduce(spec, right))
        assert reduce(spec, halves) == reduce(spec, word)


def test_is_normal_form_rejects_bad_tails():
    spec = s3_amalgam()
    S = spec.factors[0]
    flip = by_label(S, "(1 2)")
    rot = by_label(S, "(1 2 3)")
    # C3 has no element 3
    assert not is_normal_form(spec, NormalForm(head=3, tail=(), c_identity=0))
    assert not is_normal_form(spec, NormalForm(head=0, tail=((0, 0),), c_identity=0))
    assert not is_normal_form(spec, NormalForm(head=0, tail=((0, rot),), c_identity=0))
    assert not is_normal_form(
        spec, NormalForm(head=0, tail=((0, flip), (0, flip)), c_identity=0)
    )


# ---------------------------------------------------------- abelian factors


def test_mixed_surjective_side_absorbs():
    # the Z side is exactly the image of C, so tails never alternate
    spec = mixed_amalgam(b_stride=1)
    nf = reduce(spec, [(0, (1, 0)), (1, (5,))])
    assert nf == NormalForm(head=(5,), tail=((0, (1, 0)),), c_identity=(0,))
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
    assert nf == NormalForm(head=(1,), tail=(), c_identity=(0,))
    nf = reduce(spec, [(1, (2,))])
    assert nf == NormalForm(head=(1,), tail=(), c_identity=(0,))


def test_mixed_inverse_and_associativity():
    spec = mixed_amalgam(b_stride=2)
    rng = random.Random(606)
    for _ in range(150):
        u, v, w = (random_word(spec, rng, 6) for _ in range(3))
        assert_associative(spec, u, v, w)
        assert reduce(spec, u + inverse(spec, u)).is_identity()


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
    assert reduce(spec, [(0, (0, 7))]) == NormalForm(head=(7,), tail=(), c_identity=(0,))


def _torsion_pair() -> AmalgamSpec:
    """(Z/6 x Z) and (Z/4 x Z) over Z, embedded through the torsion coordinates."""
    C = FGAbelian(1, ())
    eA = IntMatrix.from_columns([(1, 2)], rows=2)
    eB = IntMatrix.from_columns([(2, 3)], rows=2)
    return AmalgamSpec([FGAbelian(1, (6,)), FGAbelian(1, (4,))], C, [eA, eB])


@pytest.mark.parametrize("source", ["lattice.amg", "mixed.amg", "torsion"])
def test_decompose_returns_a_canonical_representative(source):
    """reduce tests identity by equality, so representatives must come canonical."""
    if source == "torsion":
        spec = _torsion_pair()
    else:
        spec = golden_spec(source)
    rng = random.Random(1717)
    for f, ad in zip(spec.factors, spec.adapters):
        if isinstance(f, FiniteGroup):
            xs = list(f.elements())
        else:
            xs = [tuple(rng.randint(-20, 20) for _ in range(f.ngens)) for _ in range(200)]
        for x in xs:
            c, rep = ad.decompose(x)
            assert f.check(rep) == rep
            assert f.mul(ad.embed_c(c), rep) == f.check(x)


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
    assert reduce(spec, word + inverse(spec, word)).is_identity()
    # free product: no cancellation across factors
    assert reduce(spec, [(0, flip)]) != reduce(spec, [(1, (1,))])


# ------------------------------------------------------------- long words


def random_syllable(spec: AmalgamSpec, rng: random.Random, i: int) -> tuple:
    """A random element of factor i; a quarter of them lie in the image of C."""
    f, C = spec.factors[i], spec.amalgam
    if rng.random() < 0.25:
        if isinstance(C, FiniteGroup):
            return i, spec.adapters[i].embed_c(rng.randrange(C.order))
        return i, spec.adapters[i].embed_c(tuple(rng.randint(-2, 2) for _ in range(C.ngens)))
    if isinstance(f, FiniteGroup):
        return i, rng.randrange(f.order)
    return i, tuple(rng.randint(-3, 3) for _ in range(f.ngens))


@pytest.mark.parametrize("fname", ["q8_pair.amg", "mixed.amg", "lattice.amg"])
def test_reduce_decomposes_once_per_run(fname, monkeypatch):
    """A run of syllables from one factor costs a single decompose."""
    spec = golden_spec(fname)
    rng = random.Random(19)
    n, run = 1000, 4
    word = [random_syllable(spec, rng, (k // run) % len(spec.factors)) for k in range(n)]
    calls = [0]

    def counted(method):
        def wrapper(self, x):
            calls[0] += 1
            return method(self, x)

        return wrapper

    for adapter in (_FiniteAdapter, _AbelianAdapter):
        monkeypatch.setattr(adapter, "decompose", counted(adapter.decompose))
    nf = reduce(spec, word)
    assert calls[0] <= n // run
    monkeypatch.undo()
    assert nf == oracle_reduce(spec, word)


@pytest.mark.parametrize("fname", ["q8_pair.amg", "s3_pair.amg", "mixed.amg", "lattice.amg"])
def test_reduce_matches_oracle_on_long_words(fname):
    """2,000-syllable words, far past the spec format's 64-syllable cap."""
    spec = golden_spec(fname)
    rng = random.Random(2000)
    for _ in range(3):
        word = [random_syllable(spec, rng, rng.randrange(len(spec.factors))) for _ in range(2000)]
        nf = reduce(spec, word)
        assert nf == oracle_reduce(spec, word)
        assert is_normal_form(spec, nf)
        assert reduce(spec, word + inverse(spec, word)).is_identity()


# Z/2 x Z and Z glued along Z, the first factor's copy of C being 2 * g2:
# the text of test_cli.py's torsion_lattice spec.
TORSION_LATTICE = """\
group A = abelian [2,0]
group B = free-abelian 1
group C = free-abelian 1
embed ea : C -> A { g -> g2^2 }
embed eb : C -> B { g -> g1 }
amalgam M = A, B over C via ea, eb
"""


# the same factors, with C's image g1 g2^2 reaching the torsion coordinate
TORSION_IMAGE = TORSION_LATTICE.replace("g -> g2^2", "g -> g1 g2^2")


@pytest.mark.parametrize(
    "text, torsion_in_reps",
    [((GOLDEN / "lattice.amg").read_text(), False), (TORSION_LATTICE, True),
     # C's image has odd torsion coordinate, so every coset has a rep with 0 there
     (TORSION_IMAGE, False)],
    ids=["lattice", "torsion_lattice", "torsion_image"],
)
def test_reduce_matches_oracle_on_abelian_words_of_the_spec_length(text, torsion_in_reps):
    """Seeded 48-64-syllable words through the torsion-free and torsion steps."""
    (spec,) = resolve(parse(text)).amalgams.values()
    A = spec.factors[0]
    for c in range(-3, 4):
        x = spec.adapters[0].embed_c((c,))
        assert x == A.check(x)
    rng = random.Random(26)
    reps_with_torsion = 0
    for _ in range(40):
        n = rng.randint(48, 64)
        word = [random_syllable(spec, rng, rng.randrange(len(spec.factors))) for _ in range(n)]
        nf = reduce(spec, word)
        assert nf == oracle_reduce(spec, word)
        assert is_normal_form(spec, nf)
        round_trip = word + inverse(spec, word)
        assert reduce(spec, round_trip).is_identity()
        assert oracle_reduce(spec, round_trip).is_identity()
        reps_with_torsion += sum(1 for i, t in nf.tail if i == 0 and any(t[: len(A.torsion)]))
    assert (reps_with_torsion > 0) == torsion_in_reps


# ------------------------------------------------- identity not at index 0


def relabelled(G: FiniteGroup, perm) -> FiniteGroup:
    """G with each element a renamed perm[a]."""
    back = {p: a for a, p in enumerate(perm)}
    return FiniteGroup(
        [[perm[G.mul(back[a], back[b])] for b in range(G.order)] for a in range(G.order)]
    )


def test_relabelled_factor_identity_represents_the_amalgam_coset():
    # S3 with its identity at element 5, glued over C2 along a transposition
    S3 = symmetric_group(3)
    perm = [5, 0, 1, 2, 3, 4]
    S = relabelled(S3, perm)
    assert S.identity == 5
    t = perm[by_label(S3, "(1 2)")]
    C = cyclic_group(2)
    e = hom_from_generator_images(C, S, {1: t})
    spec = AmalgamSpec([S, S], C, [e, e])
    assert spec.adapters[0].decompose(S.identity) == (C.identity, S.identity)
    assert spec.adapters[0].decompose(t) == (1, S.identity)
    for word in ([(0, S.identity)], [(0, t), (1, t)]):
        nf = reduce(spec, word)
        assert nf.length == 0 and nf.is_identity()
        assert nf == oracle_reduce(spec, word)
    rng = random.Random(55)
    for _ in range(50):
        word = random_word(spec, rng, 8)
        nf = reduce(spec, word)
        assert is_normal_form(spec, nf)
        assert nf == oracle_reduce(spec, word)
        assert reduce(spec, word + inverse(spec, word)).is_identity()


def test_relabelled_amalgam_identity_is_the_identity_head():
    # C2 with its identity at element 1, glued into two copies of Q8 along -1
    C = relabelled(cyclic_group(2), [1, 0])
    assert C.identity == 1
    Q = quaternion_group()
    e = hom_from_generator_images(C, Q, {0: by_label(Q, "-1")})
    spec = AmalgamSpec([Q, Q], C, [e, e])
    assert reduce(spec, []).is_identity()
    assert oracle_reduce(spec, []).is_identity()
    minus_one = by_label(Q, "-1")
    assert not reduce(spec, [(0, minus_one)]).is_identity()
    assert reduce(spec, [(0, minus_one), (1, minus_one)]).is_identity()
    with pytest.raises(IdentityWord):
        separate_element(spec, [])


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
        assert hom.apply_word(w) == hom.apply_word(nf_to_word(spec, reduce(spec, w)))
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
        assert hom.apply_word(w) == hom.apply_word(nf_to_word(spec, reduce(spec, w)))


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
    D, (mu, nu) = glued_product([Q, Q], [(m, m)])
    assert D.order == 32
    assert mu.source == Q and nu.source == Q
    assert mu.is_injective() and nu.is_injective()
    # the identified pair lands on the same element
    assert mu.apply(m) == nu.apply(m)


def test_identified_quotient_s3():
    S = symmetric_group(3)
    rot = by_label(S, "(1 2 3)")
    D, (mu, nu) = glued_product([S, S], [(rot, rot)])
    # conjugates of (rot, rot^-1) already generate A3 x A3
    assert D.order == 4
    assert abelian_invariants(D) == [2, 2]
    assert mu.images.count(D.identity) == nu.images.count(D.identity) == 3
