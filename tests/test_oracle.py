"""Independent reducer, presentation extraction, catalog, and brute search."""

import itertools
import pathlib
import random

import pytest

from amalgam.errors import (
    AmalgamError,
    BudgetExceeded,
    ElementOutOfRange,
    IncompatibleAmalgam,
    TooManyGenerators,
)
from amalgam.groups import (
    FiniteGroup,
    GroupHom,
    cyclic_group,
    hom_from_generator_images,
    is_solvable,
    quaternion_group,
    symmetric_group,
)
from amalgam.lattice import FGAbelian, IntMatrix
from amalgam.oracle import (
    DEFAULT_BUDGET,
    Presentation,
    _OracleFactor,
    _block_keys,
    _relators_by_level,
    amalgam_word_to_generators,
    exhaustive_injectivity,
    hom_search,
    oracle_reduce,
    presentation_of_amalgam,
    solvable_catalog,
)
from amalgam.words import AmalgamSpec, NormalForm, reduce
from amalgam.certs import Certificate, Check, Exhausted, WitnessResult, witness_result
from amalgam.dsl import parse, resolve
from amalgam.groups import derived_length


GOLDEN = pathlib.Path(__file__).parent / "golden"


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


# The restart-after-every-rewrite loop oracle_reduce used to run, kept as
# the reference for its two-pass rewriting: the same three rules, applied one
# at a time from the left of the word until none applies.
def reference_oracle_reduce(spec, word):
    C = spec.amalgam
    if isinstance(C, FiniteGroup):
        c_identity, c_mul = C.identity, C.mul

        def c_is_id(c):
            return c == C.identity

    else:
        c_identity, c_mul = C.identity, C.mul

        def c_is_id(c):
            return all(v == 0 for v in c)

    helpers = [_OracleFactor(spec, i) for i in range(len(spec.factors))]
    syls = [(i, spec.factors[i].check(x)) for i, x in word]
    head = c_identity
    changed = True
    while changed:
        changed = False
        # drop identity syllables
        for p, (i, x) in enumerate(syls):
            if helpers[i].is_identity(x):
                del syls[p]
                changed = True
                break
        if changed:
            continue
        # merge adjacent syllables from the same factor
        for p in range(len(syls) - 1):
            if syls[p][0] == syls[p + 1][0]:
                i = syls[p][0]
                syls[p : p + 2] = [(i, spec.factors[i].mul(syls[p][1], syls[p + 1][1]))]
                changed = True
                break
        if changed:
            continue
        # push the rightmost amalgam part one slot to the left
        for p in range(len(syls) - 1, -1, -1):
            i, x = syls[p]
            c, t = helpers[i].decompose(x)
            if c_is_id(c):
                continue
            syls[p] = (i, t)
            if p == 0:
                head = c_mul(head, c)
            else:
                j, y = syls[p - 1]
                syls[p - 1] = (j, spec.factors[j].mul(y, helpers[j].embed_amalgam(c)))
            changed = True
            break
    return NormalForm(head=head, tail=tuple(syls), c_identity=c_identity)


def torsion_amalgam():
    """(Z/6 x Z) and (Z/4 x Z) over Z, embedded off the torsion coordinate."""
    C = FGAbelian(1, ())
    eA = IntMatrix.from_columns([(1, 2)], rows=2)
    eB = IntMatrix.from_columns([(2, 3)], rows=2)
    return AmalgamSpec([FGAbelian(1, (6,)), FGAbelian(1, (4,))], C, [eA, eB])


def rank0_amalgam():
    """S3 and Z/4 x Z over the trivial group."""
    return AmalgamSpec([symmetric_group(3), FGAbelian(1, (4,))], FGAbelian(0, ()), [None, None])


def _amalgams_for_reference():
    cases = []
    for path in sorted(GOLDEN.glob("*.amg")):
        try:
            resolved = resolve(parse(path.read_text()))
        except AmalgamError:
            continue  # bad_point.amg is a parse-error case
        cases += [(f"{path.stem}.{name}", spec) for name, spec in resolved.amalgams.items()]
    return cases + [("torsion", torsion_amalgam()), ("rank0", rank0_amalgam())]


def _random_syllable(rng, spec, i):
    """A random element of factor i; a quarter of them lie in the image of C."""
    f, C = spec.factors[i], spec.amalgam
    if rng.random() < 0.25:
        if isinstance(C, FiniteGroup):
            c = rng.randrange(C.order)
        else:
            c = tuple(rng.randint(-2, 2) for _ in range(C.ngens))
        return i, spec.adapters[i].embed_c(c)
    if isinstance(f, FiniteGroup):
        return i, rng.randrange(f.order)
    return i, tuple(rng.randint(-3, 3) for _ in range(f.ngens))


def _inverse(spec, word):
    return [
        (i, spec.factors[i].inv(x) if isinstance(x, int) else tuple(-v for v in x))
        for i, x in reversed(word)
    ]


REFERENCE_AMALGAMS = _amalgams_for_reference()


@pytest.mark.parametrize("name,spec", REFERENCE_AMALGAMS, ids=[n for n, _ in REFERENCE_AMALGAMS])
def test_oracle_matches_reference_loop(name, spec):
    """Seeded words, and words followed by a prefix of their own inverse."""
    rng = random.Random(name)
    for _ in range(150):
        word = [
            _random_syllable(rng, spec, rng.randrange(len(spec.factors)))
            for _ in range(rng.randrange(13))
        ]
        if rng.random() < 0.5:
            inverse = _inverse(spec, word)
            word += inverse[: rng.randint(0, len(inverse))]
        nf = oracle_reduce(spec, word)
        assert nf == reference_oracle_reduce(spec, word), word
        assert nf == reduce(spec, word), word


def test_reference_amalgams_cover_every_golden_spec():
    names = [n for n, _ in REFERENCE_AMALGAMS]
    assert len(names) == 11
    assert {"lattice.M", "mixed.G", "q8_triple.T", "torsion", "rank0"} <= set(names)


class _TooMuchWork(Exception):
    pass


@pytest.mark.parametrize("fname", ["q8_pair.amg", "lattice.amg"])
def test_oracle_work_is_linear(fname, monkeypatch):
    """decompose plus is_identity calls stay within 4n on a 1,000-syllable word."""
    spec, _ = _golden_amalgam(fname)
    rng = random.Random(1000)
    n = 1000
    # alternating factors, so the left-to-right pass merges nothing up front
    word = [_random_syllable(rng, spec, k % len(spec.factors)) for k in range(n)]
    calls = [0]

    def counted(method):
        def wrapper(self, x):
            calls[0] += 1
            if calls[0] > 4 * n:
                raise _TooMuchWork
            return method(self, x)

        return wrapper

    monkeypatch.setattr(_OracleFactor, "decompose", counted(_OracleFactor.decompose))
    monkeypatch.setattr(_OracleFactor, "is_identity", counted(_OracleFactor.is_identity))
    nf = oracle_reduce(spec, word)
    assert 0 < calls[0] <= 4 * n
    calls[0] = 0
    with pytest.raises(_TooMuchWork):
        reference_oracle_reduce(spec, word)
    monkeypatch.undo()
    assert nf == reduce(spec, word)


def test_oracle_reduce_builds_its_helpers_once_per_spec(monkeypatch):
    built = []
    init = _OracleFactor.__init__

    def counted(self, spec, i):
        built.append(i)
        init(self, spec, i)

    monkeypatch.setattr(_OracleFactor, "__init__", counted)
    spec, words = _golden_amalgam("lattice.amg")
    for w in [[], *words.values()]:
        assert oracle_reduce(spec, w) == reduce(spec, w)
    assert built == [0, 1]
    oracle_reduce(_golden_amalgam("lattice.amg")[0], [])  # a new spec builds its own
    assert built == [0, 1, 0, 1]


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


def test_presentation_rejects_empty_relators():
    with pytest.raises(ElementOutOfRange):
        Presentation(ngens=1, relators=((),))
    with pytest.raises(ElementOutOfRange):
        Presentation(ngens=2, relators=((1, 1), ()))


@pytest.mark.parametrize("field", ["gen_labels", "gen_elements"])
def test_presentation_rejects_labels_or_elements_of_another_length(field):
    with pytest.raises(ElementOutOfRange):
        Presentation(ngens=2, relators=((1, 1),), **{field: ("a",)})
    with pytest.raises(ElementOutOfRange):
        Presentation(ngens=1, relators=((1, 1),), **{field: ("a", "b")})
    assert getattr(Presentation(ngens=1, relators=((1, 1),), **{field: ("a",)}), field) == ("a",)


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


def test_search_rejects_a_negative_budget():
    spec = s3_amalgam()
    P = presentation_of_amalgam(spec)
    w = amalgam_word_to_generators(P, [(0, by_label(spec.factors[0], "(1 2)"))])
    with pytest.raises(ValueError):
        hom_search(P, solvable_catalog(8), w, budget=-1)


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


# ------------------------------------------ hom_search against its reference


def _reference_orders(P):
    prod = {}
    for rel in P.relators:
        if len(rel) == 2 and rel[0] > 0 and rel[1] > 0:
            prod[(rel[0], rel[1])] = 0
        elif len(rel) == 3 and rel[0] > 0 and rel[1] > 0 and rel[2] < 0:
            prod[(rel[0], rel[1])] = -rel[2]
    orders = [None] * (P.ngens + 1)
    for g in range(1, P.ngens + 1):
        p, n = g, 1
        while p != 0 and n <= P.ngens + 1:
            nxt = prod.get((p, g))
            if nxt is None:
                n = None
                break
            p, n = nxt, n + 1
        orders[g] = n
    return orders


def _reference_eval(target, images, letters):
    out = target.identity
    for g in letters:
        x = images[abs(g)]
        out = target.mul(out, x if g > 0 else target.inv(x))
    return out


def reference_hom_search(P, catalog, w, budget=DEFAULT_BUDGET, *, word=(), word_label=""):
    """hom_search before its compiled kernel: every relator through FiniteGroup.mul."""
    w = tuple(w)
    orders = _reference_orders(P)
    buckets = [[] for _ in range(P.ngens + 1)]
    for rel in P.relators:
        buckets[max(abs(g) for g in rel)].append(rel)
    w_depth = max(abs(g) for g in w)
    nodes = 0
    for target in catalog:
        elem_orders = [target.element_order(x) for x in target.elements()]
        candidates = [
            [x for x in target.elements() if orders[k] is None or orders[k] % elem_orders[x] == 0]
            for k in range(P.ngens + 1)
        ]
        images = [target.identity] * (P.ngens + 1)

        def assign(k):
            nonlocal nodes
            if k > P.ngens:
                return True
            for x in candidates[k]:
                nodes += 1
                if nodes > budget:
                    raise BudgetExceeded(
                        f"search stopped after {budget} assignment nodes",
                        budget=budget,
                        nodes=nodes,
                    )
                images[k] = x
                ok = all(
                    _reference_eval(target, images, rel) == target.identity
                    for rel in buckets[k]
                )
                if ok and k == w_depth:
                    ok = _reference_eval(target, images, w) != target.identity
                if ok and assign(k + 1):
                    return True
            images[k] = target.identity
            return False

        if not assign(1):
            continue
        image = _reference_eval(target, images, w)
        checks = [
            Check(
                "relators_satisfied",
                all(_reference_eval(target, images, r) == target.identity for r in P.relators),
                f"all {len(P.relators)} relators evaluate to the identity",
            ),
            Check("image_nonidentity", image != target.identity, target.label(image)),
            Check("target_solvable", is_solvable(target),
                  f"derived length {derived_length(target)}"),
        ]
        cert = Certificate(
            kind="oracle_witness",
            quotient_description={
                "order": target.order,
                "name": target.name,
                "derived_length": derived_length(target),
            },
            hom_data={
                "generator_images": [
                    [P.gen_labels[g - 1] if P.gen_labels else str(g), target.label(images[g])]
                    for g in range(1, P.ngens + 1)
                ]
            },
            checks=checks,
            target=target,
        )
        if not all(c.passed for c in checks):
            continue
        label = word_label or " * ".join((f"g{g}" if g > 0 else f"g{-g}^-1") for g in w)
        return witness_result(cert, word, label, image)
    return Exhausted(nodes=nodes, targets_tried=len(catalog))


def _outcome(search, *args, **kwargs):
    try:
        return search(*args, **kwargs).to_dict()
    except BudgetExceeded as exc:
        return {"budget-exceeded": exc.message, **exc.details}


def _golden_amalgam(fname):
    resolved = resolve(parse((GOLDEN / fname).read_text()))
    (spec,) = resolved.amalgams.values()
    return spec, {name: word for name, (_, word) in resolved.words.items()}


def _commutator(spec, x, y):
    return x + y + _inverse(spec, x) + _inverse(spec, y)


def _syllable(spec, i, label):
    return [(i, spec.factors[i].labels.index(label))]


def _second_derived(spec, a1, b1, a2, b2):
    """[[a1, b1], [a2, b2]] for single-syllable words given as (factor, label)."""
    a1, b1, a2, b2 = (_syllable(spec, i, s) for i, s in (a1, b1, a2, b2))
    return _commutator(spec, _commutator(spec, a1, b1), _commutator(spec, a2, b2))


Q8_I, Q8_J = "(1 3 2 4)(5 7 6 8)", "(1 5 2 6)(3 8 4 7)"
D4_R, D4_S = "(1 2 3 4)", "(1 3)"


def _golden_words():
    """(name, spec, word) for every word declared in four golden specs."""
    cases = []
    for fname in ("s3_pair.amg", "s3_twist.amg", "q8_pair.amg", "d4_q8.amg"):
        spec, words = _golden_amalgam(fname)
        cases += [(f"{fname[:-4]}.{name}", spec, w) for name, w in words.items()]
    return cases


def _second_derived_words():
    """(name, spec, word) for the G'' words of the Q8 pair and of D4-Q8."""
    q8, _ = _golden_amalgam("q8_pair.amg")
    d4q8, _ = _golden_amalgam("d4_q8.amg")
    return [
        ("q8_pair.gpp", q8, _second_derived(q8, (0, Q8_I), (1, Q8_I), (0, Q8_I), (1, Q8_J))),
        ("d4_q8.gpp", d4q8, _second_derived(d4q8, (0, D4_R), (1, Q8_I), (0, D4_S), (1, Q8_J))),
    ]


GOLDEN_WORDS = _golden_words()
SECOND_DERIVED = _second_derived_words()


def _search_args(spec, w, cap):
    P = presentation_of_amalgam(spec)
    return P, solvable_catalog(cap), amalgam_word_to_generators(P, w)


@pytest.mark.parametrize("budget", [10, 1000, DEFAULT_BUDGET])
@pytest.mark.parametrize("cap", [8, 12, 24])
def test_search_matches_reference_on_golden_words(cap, budget):
    for name, spec, w in GOLDEN_WORDS:
        P, cat, gw = _search_args(spec, w, cap)
        kwargs = {"word": w, "word_label": name}
        assert _outcome(hom_search, P, cat, gw, budget, **kwargs) == _outcome(
            reference_hom_search, P, cat, gw, budget, **kwargs
        ), name


@pytest.mark.parametrize("budget", [10, 1000])
@pytest.mark.parametrize("cap", [8, 12, 24])
def test_search_matches_reference_on_second_derived_words(cap, budget):
    for name, spec, w in SECOND_DERIVED:
        P, cat, gw = _search_args(spec, w, cap)
        assert _outcome(hom_search, P, cat, gw, budget) == _outcome(
            reference_hom_search, P, cat, gw, budget
        ), name


# Found by reference_hom_search; a few seconds each there, so pinned here.
SECOND_DERIVED_EXHAUSTED = {
    ("q8_pair.gpp", 8): 97144,
    ("q8_pair.gpp", 12): 376240,
    ("d4_q8.gpp", 8): 73832,
    ("d4_q8.gpp", 12): 352816,
}


def test_search_on_second_derived_words_keeps_its_node_counts():
    for name, spec, w in SECOND_DERIVED:
        for cap in (8, 12):
            P, cat, gw = _search_args(spec, w, cap)
            out = hom_search(P, cat, gw, 400_000)
            assert isinstance(out, Exhausted)
            assert out.nodes == SECOND_DERIVED_EXHAUSTED[(name, cap)]
        P, cat, gw = _search_args(spec, w, 24)
        with pytest.raises(BudgetExceeded) as info:
            hom_search(P, cat, gw)
        assert info.value.details == {"budget": DEFAULT_BUDGET, "nodes": DEFAULT_BUDGET + 1}


def _reference_at_every_budget(P, cat, w, nodes, **kwargs):
    """reference_hom_search's outcome at each budget, from two reference runs.

    The reference tries the same nodes in the same order whatever the
    budget, so it stops at budget + 1 below `nodes` and gives the outcome
    of a full run from `nodes` on; the two runs pin `nodes` as that count.
    """
    final = _outcome(reference_hom_search, P, cat, w, nodes, **kwargs)
    assert "budget-exceeded" not in final
    assert _outcome(reference_hom_search, P, cat, w, nodes - 1, **kwargs) == {
        "budget-exceeded": f"search stopped after {nodes - 1} assignment nodes",
        "budget": nodes - 1,
        "nodes": nodes,
    }

    def outcome(budget):
        if budget >= nodes:
            return final
        return {
            "budget-exceeded": f"search stopped after {budget} assignment nodes",
            "budget": budget,
            "nodes": budget + 1,
        }

    return outcome


GOLDEN_WORD = {name: (spec, w) for name, spec, w in GOLDEN_WORDS}


def test_search_matches_reference_at_every_budget():
    """Node bookkeeping of solved generators, around the first witness and the end.

    s3_pair.quad finds its witness in D3 at node 541 of solvable_catalog(8),
    so every budget up to it stops on some node of the way there: the first
    candidate of a level, its solved one or its last. s3_pair.loop exhausts
    the same catalog in 2810 nodes; every 37th budget samples that run.
    """
    for name, nodes, budgets in [
        ("s3_pair.quad", 541, range(0, 543)),
        ("s3_pair.loop", 2810, [*range(0, 2810, 37), 2809, 2810, 2811]),
    ]:
        spec, w = GOLDEN_WORD[name]
        P, cat, gw = _search_args(spec, w, 8)
        kwargs = {"word": w, "word_label": name}
        reference = _reference_at_every_budget(P, cat, gw, nodes, **kwargs)
        for budget in budgets:
            got = _outcome(hom_search, P, cat, gw, budget, **kwargs)
            assert got == reference(budget), (name, budget)
        for budget in budgets[::37]:
            assert reference(budget) == _outcome(
                reference_hom_search, P, cat, gw, budget, **kwargs
            ), (name, budget)


def test_search_can_end_on_the_candidates_after_a_solved_image():
    """Squares are trivial in C2, so generator 2 = 1*1 is solved as the
    identity, the first of its two candidates, and w = 2 fails there. The
    other candidate still counts as a failed node, and the search ends on it."""
    P = Presentation(ngens=2, relators=((1, 1, -2),))
    cat = solvable_catalog(2)
    reference = _reference_at_every_budget(P, cat, (2,), 6)
    for budget in range(0, 8):
        assert _outcome(hom_search, P, cat, (2,), budget) == reference(budget), budget


# <x, y | x^2, y^3, (xy)^3>, which is A4, with generators 1 = x, 2 = y and
# four more whose image one relator fixes from lower ones: as the product
# (3 = x*y), as the left factor (4*x = 3), as the right factor (y*5 = 4) and
# with the identity as product (3*6 = 1). The (k, k, c) relators x*x = 1 and
# 6*6 = 3 name k twice and stay checks; 7 = 5 is solved as well.
SOLVED = Presentation(
    ngens=7,
    relators=(
        (1, 1),
        (2, 2, 2),
        (1, 2, -3),
        (4, 1, -3),
        (2, 5, -4),
        (3, 6),
        (6, 6, -3),
        (5, -7),
    ),
)


@pytest.mark.parametrize("budget", [0, 1, 5, 30, 1000, DEFAULT_BUDGET])
@pytest.mark.parametrize("cap", [8, 12, 24])
def test_search_matches_reference_on_solved_generators(cap, budget):
    cat = solvable_catalog(cap)
    for w in [(1,), (2,), (3, -4), (1, 2, -1, -2), (5, -7), (6, 6, 7)]:
        assert _outcome(hom_search, SOLVED, cat, w, budget) == _outcome(
            reference_hom_search, SOLVED, cat, w, budget
        ), w


# Besides one compiled relator (1, 1), relators the kernel evaluates letter
# by letter: longer than three letters, leading inverses, three positive letters.
GENERIC = Presentation(
    ngens=4,
    relators=(
        (1, 1),
        (-2, 1, 2, 1),
        (2, 2, 2),
        (-1, -3, 1, 3),
        (-2, 3),
        (3, 4, 4),
        (-4, -4, -4, -4, 1),
        (4, -2, -4, -1),
    ),
)


@pytest.mark.parametrize("budget", [10, 1000, DEFAULT_BUDGET])
@pytest.mark.parametrize("cap", [8, 12, 24])
def test_search_matches_reference_on_generic_relators(cap, budget):
    cat = solvable_catalog(cap)
    for w in [(4,), (1, -4), (-3, 4, 3, -4), (2, 1, -2, -1), (-1, 2, 4, 4)]:
        assert _outcome(hom_search, GENERIC, cat, w, budget) == _outcome(
            reference_hom_search, GENERIC, cat, w, budget
        ), w


def test_search_matches_reference_on_random_presentations():
    rng = random.Random(6)
    cat = solvable_catalog(12)
    for _ in range(40):
        n = rng.randint(2, 4)
        letters = [g for g in range(-n, n + 1) if g]
        relators = tuple(
            tuple(rng.choice(letters) for _ in range(rng.randint(1, 5)))
            for _ in range(rng.randint(1, 6))
        )
        P = Presentation(ngens=n, relators=relators)
        w = tuple(rng.choice(letters) for _ in range(rng.randint(1, 6)))
        assert _outcome(hom_search, P, cat, w, 2000) == _outcome(
            reference_hom_search, P, cat, w, 2000
        ), (relators, w)


def test_blocks_start_at_each_factor_after_the_first():
    """Keyed by the glued element -1 of the factors before, generators 3 and 10."""
    spec, _ = _golden_amalgam("q8_triple.amg")
    P = presentation_of_amalgam(spec)
    levels = _relators_by_level(P)
    starts = {k: key for k, key in enumerate(_block_keys(levels, P.ngens)) if key is not None}
    assert starts == {8: (3,), 15: (3, 10)}
    assert P.gen_labels[2] == "0:(1 2)(3 4)(5 6)(7 8)"
    assert P.gen_labels[9] == "1:(1 2)(3 4)(5 6)(7 8)"
    assert {k for k, key in enumerate(_block_keys(levels, 14)) if key is not None} == {8}
    assert all(key is None for key in _block_keys(levels, 7))


def _q8_triple_words():
    """Seeded words on the Q8 triple: short products, and commutators of
    short words, which reach into the third factor's nested block."""
    spec, _ = _golden_amalgam("q8_triple.amg")
    rng = random.Random(13)

    def syllables(lo, hi):
        return [(rng.randrange(3), rng.randrange(1, 8)) for _ in range(rng.randint(lo, hi))]

    words = []
    for _ in range(10):
        if rng.random() < 0.4:
            words.append(syllables(2, 6))
        else:
            words.append(_commutator(spec, syllables(1, 2), syllables(1, 2)))
    return spec, words


Q8_TRIPLE_WORDS = _q8_triple_words()


@pytest.mark.parametrize("budget", [400, 3000, 20000])
@pytest.mark.parametrize("cap", [8, 12])
def test_search_matches_reference_on_q8_triple_words(cap, budget):
    spec, words = Q8_TRIPLE_WORDS
    for w in words:
        P, cat, gw = _search_args(spec, w, cap)
        assert _outcome(hom_search, P, cat, gw, budget) == _outcome(
            reference_hom_search, P, cat, gw, budget
        ), w


def test_nested_replays_join_the_enclosing_recording():
    """[[x, y], z], with x, y and z from factors 0, 1 and 2 of the Q8 triple
    (in some order), dies when any of them maps trivially. Every map of Q8
    into D3 sends -1 to 1, so the block of factor 1 is recorded once, under
    the trivial map of factor 0, and replayed for every other map of it.
    Inside that recording, factor 2's block is recorded under factor 1's
    first, trivial map and replayed for its others, so each witness comes
    from a leaf that such a nested replay added to the recording."""
    spec, _ = _golden_amalgam("q8_triple.amg")
    P = presentation_of_amalgam(spec)
    d3 = tuple(g for g in solvable_catalog(8) if g.name == "D3")
    for x, y, z in [
        ((0, Q8_I), (1, Q8_I), (2, Q8_I)),
        ((0, Q8_I), (1, Q8_J), (2, Q8_J)),
        ((2, Q8_I), (1, Q8_I), (0, Q8_I)),
    ]:
        x, y, z = (_syllable(spec, i, label) for i, label in (x, y, z))
        w = _commutator(spec, _commutator(spec, x, y), z)
        gw = amalgam_word_to_generators(P, w)
        for budget in (400, 3000, 20000):
            assert _outcome(hom_search, P, d3, gw, budget) == _outcome(
                reference_hom_search, P, d3, gw, budget
            ), (w, budget)
        assert hom_search(P, d3, gw, 20000).separated


# <x | x^2> and <a, b | a^3, b^2, (ab)^2>, which is S3, as generators 1, 2
# and 3, then 4 = x*a of order 2 and 5 commuting with 4. Nothing checked at
# levels 2 and 3 reads x, so for a word in a and b, level 2 starts a block
# with no key: the search records it while x = 1 and replays it for every
# other x. Levels 4 and 5 lie below the word and 4 reads the block, so a
# replayed leaf has to recurse. With x = 1, (x*a)^2 = 1 forces a = 1, so each
# witness comes from a replay.
BELOW_WORD = Presentation(
    ngens=5,
    relators=(
        (1, 1),
        (2, 2, 2),
        (3, 3),
        (2, 3, 2, 3),
        (1, 2, -4),
        (4, 4),
        (5, 5),
        (5, 4, -5, -4),
    ),
)


def test_replayed_blocks_recurse_below_the_word():
    cat = solvable_catalog(8)
    for w, nodes in [((2,), 141), ((3, 1, 3, 1), 153), ((2, 3, -1, 2, 3, 1), 153)]:
        assert _block_keys(_relators_by_level(BELOW_WORD), max(abs(g) for g in w))[2] == ()
        reference = _reference_at_every_budget(BELOW_WORD, cat, w, nodes)
        for budget in range(nodes + 3):
            got = _outcome(hom_search, BELOW_WORD, cat, w, budget)
            assert got == reference(budget), (w, budget)


def test_search_on_a_third_derived_word_keeps_its_node_count():
    """[[[0:i, 1:i], [0:i, 1:j]], [[0:j, 1:j], [0:i, 1:j]]], 64 letters, lies
    in the third derived subgroup of the Q8 pair, and no catalog group has
    derived length above 3, so the search exhausts the catalog."""
    spec, _ = _golden_amalgam("q8_pair.amg")
    w = _commutator(
        spec,
        _second_derived(spec, (0, Q8_I), (1, Q8_I), (0, Q8_I), (1, Q8_J)),
        _second_derived(spec, (0, Q8_J), (1, Q8_J), (0, Q8_I), (1, Q8_J)),
    )
    assert len(w) == 64
    P, cat, gw = _search_args(spec, w, 24)
    assert hom_search(P, cat, gw, 10**9) == Exhausted(nodes=6578788, targets_tried=52)


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
