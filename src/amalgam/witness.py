"""Theorem engines: one per separation strategy.

Each engine is one public builder on an AmalgamSpec, which was checked when
it was constructed. The builder raises the error the engine's check returns
for the spec, builds the quotient its strategy calls for, induces the
homomorphism out of the amalgam, runs the verification exhaustively, and
packages a Certificate. ENGINES holds every engine once, in dispatch order: a
check that says whether it applies to an amalgam and a build that calls its
builder. The certify command and separate_element both go through that table.

separate_element runs each applicable engine in turn and returns the first
witness with a verified-solvable target, or NotSeparatedAtLevelOne. An engine
stopped by a resource limit (the quotient order cap, the search budget or the
presentation's generator cap) is an outcome of that engine, named in the
reason, and dispatch moves on to the next one.
"""

from __future__ import annotations

from . import oracle as oracle_mod
from .certs import Certificate, Check, NotSeparatedAtLevelOne, WitnessResult, witness_result
from .errors import (
    BudgetExceeded,
    ClosureCapExceeded,
    EmbeddingTypeMismatch,
    IdentityElement,
    IdentityWord,
    IncompatibleAmalgam,
    InvalidGroup,
    NotProperSubgroup,
    NotSolvable,
    NotTorsionFree,
    TooManyGenerators,
)
from .groups import (
    DEFAULT_LATTICE_CAP,
    DEFAULT_MAX_ORDER,
    FiniteGroup,
    GroupHom,
    Subgroup,
    abelian_invariants,
    derived_length,
    direct_product,
    frattini,
    identity_hom,
    is_nilpotent,
    is_solvable,
    normal_closure,
    quotient_group,
    series,
    subgroup,
    subgroup_closure,
    whole_group,
)
from .lattice import FGAbelian, IntMatrix, LatticeSubgroup, finite_index_split, snf
from .words import (
    AbelianToFiniteHom,
    AmalgamSpec,
    InducedHom,
    build_generalized_central_product,
    central_product_error,
    identified_direct_quotient,
    reduce,
    word_label,
)


def derived_depth(G: FiniteGroup, g: int) -> int:
    """The unique m >= 1 with g in the m-th derived term but not the next."""
    if g == G.identity:
        raise IdentityElement("the identity has no finite depth")
    chain = series(G, "derived")
    if not chain.stabilizes_trivial():
        raise NotSolvable(f"{G!r} is not solvable")
    depth = 0
    for idx, term in enumerate(chain.terms):
        if term.contains(g):
            depth = idx + 1
    return depth


def _derived2(G: FiniteGroup) -> Subgroup:
    terms = series(G, "derived").terms
    return terms[1] if len(terms) > 1 else terms[0]


def _gen_images(G: FiniteGroup, apply, label) -> list:
    return [[G.label(g), label(apply(g))] for g in G.generator_indices]


# ------------------------------------------------------------------ checks
#
# An engine's check returns the error that rules it out for an amalgam (every
# AmalgamSpec is checked when constructed), or None: its builder raises that
# error, separate_element skips the engine without a note. abelian-factor's
# check also takes the factor.


def _admit(spec, check, *args):
    """Raise the error check returns for spec, if any."""
    if error := check(spec, *args):
        raise error


def _finite_check(spec, limits=None):
    if not all(isinstance(f, FiniteGroup) for f in spec.factors):
        return EmbeddingTypeMismatch("this theorem needs finite factors")
    if not isinstance(spec.amalgam, FiniteGroup):
        return EmbeddingTypeMismatch("this theorem needs a finite amalgam group")
    return None


def _pair_check(spec, limits=None):
    if len(spec.factors) != 2:
        return IncompatibleAmalgam(
            f"this theorem needs exactly 2 factors, got {len(spec.factors)}"
        )
    return _finite_check(spec)


# -------------------------------------------------- abelianized product


def not_perfect_certificate(
    spec: AmalgamSpec, frattini_cap: int = DEFAULT_LATTICE_CAP
) -> Certificate:
    """Nontrivial abelian quotient of a two-factor amalgam over proper subgroups.

    Each side is collapsed by the normal closure of its copy of C together
    with its commutator subgroup; the product of the two collapses is an
    abelian group D the amalgam maps onto.
    """
    _admit(spec, _pair_check)
    (A, B), (e_a, e_b) = spec.factors, spec.embeddings
    C_A = subgroup(A, e_a.images)
    C_B = subgroup(B, e_b.images)
    if C_A.is_whole():
        raise NotProperSubgroup("the amalgam copy in the first factor is not proper")
    if C_B.is_whole():
        raise NotProperSubgroup("the amalgam copy in the second factor is not proper")

    der_a = _derived2(A)
    der_b = _derived2(B)
    N_A = normal_closure(A, list(C_A.elements) + list(der_a.elements))
    N_B = normal_closure(B, list(C_B.elements) + list(der_b.elements))
    QA, proj_a = quotient_group(A, N_A)
    QB, proj_b = quotient_group(B, N_B)
    D_fin, injs, _ = direct_product([QA, QB])
    d_order = D_fin.order
    divisors = abelian_invariants(QA) + abelian_invariants(QB)
    if divisors:
        diag = IntMatrix.from_rows(
            [[d if i == j else 0 for j in range(len(divisors))] for i, d in enumerate(divisors)]
        )
        invariants = [d for d in snf(diag).invariant_factors if d > 1]
    else:
        invariants = []

    checks = [
        Check(
            "D_nontrivial",
            d_order > 1,
            f"|D| = {d_order}, invariant factors {invariants}",
        )
    ]
    # the induced map exists because both sides kill the amalgam copies
    map_a = proj_a.then(injs[0])
    map_b = proj_b.then(injs[1])
    agree = all(
        map_a.apply(e_a.apply(c)) == D_fin.identity and map_b.apply(e_b.apply(c)) == D_fin.identity
        for c in spec.amalgam.elements()
    )
    checks.append(
        Check(
            "maps_agree_on_amalgam",
            agree,
            "both copies of the amalgam map to the identity of D",
        )
    )
    gens = [map_a.apply(x) for x in A.elements()] + [map_b.apply(x) for x in B.elements()]
    checks.append(
        Check(
            "epimorphism",
            subgroup_closure(D_fin, gens).order == d_order,
            "factor images generate D",
        )
    )
    if is_nilpotent(A):
        closure = subgroup_closure(A, list(C_A.elements) + list(der_a.elements))
        evidence = f"closure of C_A and the commutators has order {closure.order} of {A.order}"
        if A.order <= frattini_cap:
            phi = frattini(A, frattini_cap)
            inside = all(phi.contains(x) for x in closure.elements)
            evidence += f"; contained in the Frattini subgroup: {inside}"
        checks.append(Check("frattini_argument", closure.order < A.order, evidence))

    return Certificate(
        kind="not_perfect",
        quotient_description={
            "order": d_order,
            "abelian_invariants": invariants,
            "left_quotient_order": QA.order,
            "right_quotient_order": QB.order,
        },
        hom_data={
            "factor_0": _gen_images(A, map_a.apply, D_fin.label),
            "factor_1": _gen_images(B, map_b.apply, D_fin.label),
        },
        checks=checks,
    )


# ---------------------------------------------- cyclic identification


def _cyclic_generator(C: FiniteGroup):
    """An element generating C, or None if C is not cyclic."""
    return next((c for c in C.elements() if C.element_order(c) == C.order), None)


def _cyclic_check(spec, limits=None):
    if error := _pair_check(spec):
        return error
    C = spec.amalgam
    if _cyclic_generator(C) is None:
        return InvalidGroup(f"the amalgam group of order {C.order} is not cyclic")
    if C.order == 1:
        return IdentityElement("amalgam generators must be nonidentity")
    if not is_solvable(spec.factors[0]):
        return NotSolvable("left factor is not solvable")
    if not is_solvable(spec.factors[1]):
        return NotSolvable("right factor is not solvable")
    return None


def cyclic_amalgam_quotient(spec: AmalgamSpec, max_order: int = DEFAULT_MAX_ORDER) -> Certificate:
    """Identify the images a and b of a generator of the cyclic amalgam
    across the two depth-truncated factors."""
    _admit(spec, _cyclic_check)
    (A, B), C = spec.factors, spec.amalgam
    g = _cyclic_generator(C)
    a, b = (e.apply(g) for e in spec.embeddings)
    k = C.order
    m = derived_depth(A, a)
    n = derived_depth(B, b)
    Abar, proj_a = quotient_group(A, series(A, "derived").terms[m])
    Bbar, proj_b = quotient_group(B, series(B, "derived").terms[n])
    abar = proj_a.apply(a)
    bbar = proj_b.apply(b)
    D, proj_d = identified_direct_quotient(Abar, Bbar, abar, bbar, max_order)
    P = proj_d.source
    inj_a = GroupHom(Abar, P, tuple(x * Bbar.order for x in Abar.elements()))
    inj_b = GroupHom(Bbar, P, tuple(range(Bbar.order)))
    map_a = proj_a.then(inj_a).then(proj_d)
    map_b = proj_b.then(inj_b).then(proj_d)
    hom = InducedHom(spec, D, [map_a, map_b])

    dying = [j for j in range(1, k) if map_a.apply(A.power(a, j)) == D.identity]
    separates = not dying
    evidence = (
        f"all powers 1..{k - 1} of the amalgam generator survive"
        if separates
        else f"power {dying[0]} of the amalgam generator maps to the identity"
    )
    return Certificate(
        kind="cyclic_amalgam",
        quotient_description={
            "order": D.order,
            "derived_length": derived_length(D),
            "left_depth": m,
            "right_depth": n,
            "left_quotient_order": Abar.order,
            "right_quotient_order": Bbar.order,
        },
        hom_data={
            "factor_0": _gen_images(A, map_a.apply, D.label),
            "factor_1": _gen_images(B, map_b.apply, D.label),
        },
        checks=[
            Check("separates_C", separates, evidence),
            Check(
                "images_agree_on_amalgam",
                True,
                "induced map verified on every amalgam element",
            ),
        ],
        claims=[
            "the kernel meets the amalgam trivially only when separates_C holds",
            "the kernel is a free group (classical subgroup theory, not machine-verified)",
        ],
        target=D,
        hom=hom,
    )


# ------------------------------------------------ central identification


def _central_check(spec, limits=None):
    if not all(isinstance(f, FiniteGroup) for f in spec.factors):
        return EmbeddingTypeMismatch("this theorem needs finite factors")
    return central_product_error(spec.factors, spec.amalgam, spec.embeddings)


def central_amalgam_quotient(spec: AmalgamSpec, max_order: int = DEFAULT_MAX_ORDER) -> Certificate:
    """Collapse the product of the factors along their shared central subgroup."""
    _admit(spec, _central_check)
    factors, C = spec.factors, spec.amalgam
    S, mus = build_generalized_central_product(factors, C, spec.embeddings, max_order)
    hom = InducedHom(spec, S, mus)

    inj_evidence = []
    all_inj = True
    for i, mu in enumerate(mus):
        ok, pair = oracle_mod.exhaustive_injectivity(mu, whole_group(factors[i]))
        all_inj = all_inj and ok
        if not ok:
            inj_evidence.append(
                f"factor {i}: {factors[i].label(pair[0])} and {factors[i].label(pair[1])} collide"
            )
    solvable = is_solvable(S)
    order_product = 1
    for f in factors:
        order_product *= f.order
    expected = order_product // C.order ** (len(factors) - 1)
    checks = [
        Check(
            "mu_injective_on_factors",
            all_inj,
            "; ".join(inj_evidence) if inj_evidence else "exhaustive scan per factor",
        ),
        Check(
            "S_solvable",
            solvable,
            f"derived length {derived_length(S)}" if solvable else "derived series stabilizes nontrivially",
        ),
        Check(
            "order_count",
            S.order == expected,
            f"|S| = {S.order}, factor orders give {expected}",
        ),
    ]
    return Certificate(
        kind="central_amalgam",
        quotient_description={
            "order": S.order,
            "derived_length": derived_length(S) if solvable else None,
        },
        hom_data={
            f"factor_{i}": _gen_images(factors[i], mus[i].apply, S.label)
            for i in range(len(factors))
        },
        checks=checks,
        claims=[
            "the kernel of the induced map is free, making the amalgam (solvable)-by-free (not machine-verified)"
        ],
        target=S,
        hom=hom,
    )


# ------------------------------------------------------- double retraction


def _double_check(spec, limits=None):
    if error := _finite_check(spec):
        return error
    first, images = spec.factors[0], spec.embeddings[0].images
    if any(f != first or e.images != images for f, e in zip(spec.factors, spec.embeddings)):
        return IncompatibleAmalgam(
            "the double theorem needs literal factor copies with identical "
            "amalgam embeddings; these factors differ"
        )
    return None


def double_retraction(spec: AmalgamSpec) -> Certificate:
    """Collapse copies of one group glued along a common subgroup onto copy 0."""
    _admit(spec, _double_check)
    factors = spec.factors
    A0 = factors[0]
    ident = identity_hom(A0)
    psi = InducedHom(spec, A0, [ident] * len(factors))

    retract = all(psi.apply_word([(0, x)]) == x for x in A0.elements())
    inj_all = True
    inj_evidence = []
    for i, f in enumerate(factors):
        restricted = GroupHom(f, A0, tuple(psi.apply_word([(i, y)]) for y in f.elements()))
        ok, pair = oracle_mod.exhaustive_injectivity(restricted, whole_group(f))
        inj_all = inj_all and ok
        if not ok:
            inj_evidence.append(f"copy {i}: {f.label(pair[0])} vs {f.label(pair[1])}")
    kernel_ok = True
    nontrivial_kernel_words = 0
    for i in range(1, len(factors)):
        for x in A0.elements():
            w = [(0, x), (i, factors[i].inv(x))]
            if psi.apply_word(w) != A0.identity:
                kernel_ok = False
            if reduce(spec, w).length > 0:
                nontrivial_kernel_words += 1
    solvable = is_solvable(A0)
    return Certificate(
        kind="double",
        quotient_description={
            "order": A0.order,
            "derived_length": derived_length(A0) if solvable else None,
            "copies": len(factors),
        },
        hom_data={
            f"factor_{i}": _gen_images(factors[i], ident.apply, A0.label)
            for i in range(len(factors))
        },
        checks=[
            Check("retraction", retract, "identity on the first copy, exhaustively"),
            Check(
                "injective_on_each_factor",
                inj_all,
                "; ".join(inj_evidence) if inj_evidence else "exhaustive scan per copy",
            ),
            Check(
                "kernel_generators",
                kernel_ok,
                f"every word x * iso_i(x)^-1 maps to the identity; "
                f"{nontrivial_kernel_words} of them have nontrivial normal form",
            ),
        ],
        claims=[
            "the kernel is the normal closure of the words x * iso_i(x)^-1 (not machine-verified)"
        ],
        target=A0,
        hom=psi,
    )


# -------------------------------------------------- lattice factor quotient


def _quotient_of_lattice(split) -> FiniteGroup:
    reps = list(split.coset_reps)
    n = len(reps)
    table = [
        [split.coset_index(tuple(a + b for a, b in zip(u, v))) for v in reps]
        for u in reps
    ]
    labels = tuple("(" + ",".join(str(x) for x in v) + ")" for v in reps)
    return FiniteGroup(table, labels=labels, name=f"lattice-quotient-{n}")


def _abelian_check(spec, factor):
    if factor not in range(len(spec.factors)):
        return IncompatibleAmalgam(f"factor index {factor} out of range", factor=factor)
    A, e = spec.factors[factor], spec.embeddings[factor]
    if not isinstance(A, FGAbelian) or not isinstance(e, (IntMatrix, type(None))):
        return EmbeddingTypeMismatch(f"factor {factor} is not a lattice with a matrix embedding")
    if A.torsion:
        return NotTorsionFree("the split factor must be torsion-free")
    return None


def abelian_factor_quotient(spec: AmalgamSpec, factor: int) -> Certificate:
    """Finite quotient of the lattice factor that kills its copy of the
    amalgam, with the other factors mapped trivially."""
    _admit(spec, _abelian_check, factor)
    A, e = spec.factors[factor], spec.embeddings[factor]
    C = LatticeSubgroup(A.ngens, IntMatrix.zeros(A.ngens, 0) if e is None else e)
    split = finite_index_split(A.ngens, C)
    Q = _quotient_of_lattice(split)
    basis_images = []
    for j in range(A.ngens):
        e_j = tuple(1 if t == j else 0 for t in range(A.ngens))
        basis_images.append(split.coset_index(e_j))
    maps = []
    for j, g in enumerate(spec.factors):
        if j == factor:
            maps.append(AbelianToFiniteHom(A, Q, basis_images))
        elif isinstance(g, FiniteGroup):
            maps.append(GroupHom(g, Q, (Q.identity,) * g.order))
        else:
            maps.append(AbelianToFiniteHom(g, Q, (Q.identity,) * g.ngens))
    kills = all(
        split.contains(C.basis.column(j)) for j in range(C.basis.cols)
    )
    expected = 1
    for d in split.divisors:
        expected *= d
    gen_ok = subgroup_closure(Q, basis_images).order == Q.order
    claims = [
        "the kernel is generated by the conjugates of the other factor together "
        "with the finite-index subgroup (not machine-verified)",
        "the amalgam is (residually solvable)-by-abelian (not machine-verified)",
    ]
    if split.index == 1:
        claims.insert(0, "vacuous quotient")
    return Certificate(
        kind="abelian_factor",
        quotient_description={
            "order": split.index,
            "abelian_invariants": [d for d in split.divisors if d > 1],
        },
        hom_data={
            "basis_images": [
                [f"e{j + 1}", Q.label(basis_images[j])] for j in range(A.ngens)
            ]
        },
        checks=[
            Check("kills_C", kills, "every sublattice basis vector has zero digits"),
            Check(
                "image_order",
                Q.order == split.index and split.index == expected,
                f"index {split.index} = product of divisors {list(split.divisors)}",
            ),
            Check("epimorphism", gen_ok, "basis images generate the quotient"),
        ],
        claims=claims,
        target=Q,
        hom=InducedHom(spec, Q, maps),
    )


# ----------------------------------------------------------- engine table
#
# build(spec, limits) calls the engine's builder. limits holds max_order,
# frattini_cap (read by not-perfect only) and factor, the lattice factor that
# abelian-factor quotients. Each build names its builder at call time, so a
# wrapper installed on the module attribute sees every call.

# name -> (check, build, note), in witness dispatch order; note is the reason
# recorded when the word dies in the engine's quotient. The oracle has no
# build: its catalog search needs the word, so separate_element runs it.
# not-perfect is for certify only.
ENGINES = {
    "double": (
        _double_check,
        lambda spec, limits: double_retraction(spec),
        "double: word maps to the identity under the retraction",
    ),
    "central": (
        _central_check,
        lambda spec, limits: central_amalgam_quotient(spec, limits["max_order"]),
        "central: word maps to the identity in the central product",
    ),
    "cyclic": (
        _cyclic_check,
        lambda spec, limits: cyclic_amalgam_quotient(spec, limits["max_order"]),
        "cyclic: word maps to the identity in the depth quotient",
    ),
    "abelian-factor": (
        lambda spec, limits: _abelian_check(spec, limits["factor"]),
        lambda spec, limits: abelian_factor_quotient(spec, limits["factor"]),
        "abelian-factor (factor {factor}): not separated at level 1",
    ),
    "oracle": (_finite_check, None, None),
    "not-perfect": (
        _pair_check,
        lambda spec, limits: not_perfect_certificate(spec, limits["frattini_cap"]),
        None,
    ),
}
ENGINE_ORDER = tuple(name for name in ENGINES if name != "not-perfect")
THEOREMS = tuple(sorted(name for name, (_, build, _) in ENGINES.items() if build))


# ---------------------------------------------------------------- dispatcher


def separate_element(
    spec: AmalgamSpec,
    w,
    *,
    engines=ENGINE_ORDER,
    budget: int = oracle_mod.DEFAULT_BUDGET,
    catalog_max: int = oracle_mod.DEFAULT_CATALOG_MAX,
    max_order: int = DEFAULT_MAX_ORDER,
):
    """First engine whose solvable quotient keeps the word alive.

    Engines run in the fixed order double, central, cyclic, abelian-factor,
    then the oracle's catalog search; abelian-factor runs once per lattice
    factor. Returns a WitnessResult, or NotSeparatedAtLevelOne carrying every
    certificate built and a reason with one note per engine that ran,
    including each engine stopped by max_order, budget or the generator cap.
    """
    unknown = [e for e in engines if e not in ENGINE_ORDER]
    if unknown:
        raise ValueError(f"unknown engines: {unknown}")
    if reduce(spec, w).is_identity():
        raise IdentityWord("the word reduces to the identity")
    label = word_label(spec, w)
    limits = {"max_order": max_order}
    attempts = []
    notes = []
    for name in ENGINE_ORDER:
        if name not in engines:
            continue
        check, build, note = ENGINES[name]
        sites = range(len(spec.factors)) if name == "abelian-factor" else [0]
        for factor in sites:
            limits["factor"] = factor
            if check(spec, limits) is not None:
                continue
            try:
                if build is None:
                    pres = oracle_mod.presentation_of_amalgam(spec)
                    hit = oracle_mod.hom_search(
                        pres,
                        oracle_mod.solvable_catalog(catalog_max),
                        oracle_mod.amalgam_word_to_generators(pres, w),
                        budget,
                        word=w,
                        word_label=label,
                    )
                    if isinstance(hit, WitnessResult):
                        return hit
                    notes.append(
                        f"oracle: exhausted {hit.nodes} nodes over {hit.targets_tried} targets"
                    )
                    continue
                cert = build(spec, limits)
            except (BudgetExceeded, ClosureCapExceeded, TooManyGenerators) as exc:
                # a resource limit stops this engine, not the whole dispatch
                notes.append(f"{name}: {exc.code}: {exc.message}")
                continue
            image = cert.hom.apply_word(w)
            if image != cert.target.identity and is_solvable(cert.target):
                return witness_result(cert, w, label, image)
            attempts.append(cert)
            notes.append(note.format(factor=factor))

    return NotSeparatedAtLevelOne(
        word=list(w),
        word_label=label,
        reason="; ".join(notes) if notes else "no engine was applicable",
        certificates=attempts,
    )
