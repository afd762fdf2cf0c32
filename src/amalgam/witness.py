"""Theorem engines: one per separation strategy.

Each engine builds the quotient its strategy calls for, induces the
homomorphism out of the amalgam, runs the verification exhaustively, and
packages a Certificate. ENGINES holds every engine once, in dispatch order:
a check that says whether it applies to an amalgam and a build that runs it.
The certify command and separate_element both go through that table.

separate_element runs each applicable engine in turn and returns the first
witness with a verified-solvable target, or NotSeparatedAtLevelOne. An engine
stopped by a resource limit (the quotient order cap, the search budget or the
presentation's generator cap) is an outcome of that engine, named in the
reason, and dispatch moves on to the next one.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

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
    NotIsomorphism,
    NotProperSubgroup,
    NotSolvable,
    NotTorsionFree,
    OrderMismatch,
    TooManyGenerators,
)
from .groups import (
    DEFAULT_LATTICE_CAP,
    DEFAULT_MAX_ORDER,
    FiniteGroup,
    GroupHom,
    Subgroup,
    abelian_invariants,
    cyclic_group,
    derived_length,
    direct_product,
    frattini,
    hom_from_generator_images,
    identity_hom,
    is_nilpotent,
    is_solvable,
    normal_closure,
    quotient_group,
    series,
    subgroup,
    subgroup_as_group,
    subgroup_closure,
    whole_group,
)
from .lattice import FGAbelian, IntMatrix, LatticeSubgroup, finite_index_split, snf
from .words import (
    AbelianToFiniteHom,
    AmalgamSpec,
    build_generalized_central_product,
    central_product_error,
    identified_direct_quotient,
    induce_hom,
    reduce,
    validate_spec,
    word_label,
)


@dataclass
class _Parts(Certificate):
    """The certificate an engine returns: it also holds the quotient it built
    and the map into it (for abelian_factor_quotient, the map from A)."""

    target: FiniteGroup = field(default=None, compare=False, repr=False)
    hom: object = field(default=None, compare=False, repr=False)


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


# -------------------------------------------------- abelianized product


def not_perfect_certificate(
    A: FiniteGroup,
    B: FiniteGroup,
    C_A: Subgroup,
    C_B: Subgroup,
    iso: dict,
    *,
    frattini_cap: int = DEFAULT_LATTICE_CAP,
) -> Certificate:
    """Nontrivial abelian quotient of an amalgam over proper subgroups.

    Each side is collapsed by the normal closure of its copy of C together
    with its commutator subgroup; the product of the two collapses is an
    abelian group D the amalgam maps onto. iso maps element indices of C_A
    to element indices of C_B.
    """
    if C_A.parent != A or C_B.parent != B:
        raise IncompatibleAmalgam("subgroups must live in the given factors")
    if C_A.is_whole():
        raise NotProperSubgroup("the amalgam copy in the first factor is not proper")
    if C_B.is_whole():
        raise NotProperSubgroup("the amalgam copy in the second factor is not proper")
    if C_A.order != C_B.order:
        raise IncompatibleAmalgam(
            f"subgroup orders {C_A.order} and {C_B.order} cannot be identified"
        )
    dom = set(C_A.elements)
    if set(iso.keys()) != dom or sorted(iso.values()) != sorted(C_B.elements):
        raise NotIsomorphism("iso is not a bijection between the two copies")
    for x in dom:
        for y in dom:
            if iso[A.mul(x, y)] != B.mul(iso[x], iso[y]):
                raise NotIsomorphism("iso does not preserve products")

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
        map_a.apply(x) == D_fin.identity and map_b.apply(iso[x]) == D_fin.identity
        for x in C_A.elements
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


def _cyclic_error(A: FiniteGroup, B: FiniteGroup, a: int, b: int):
    """Why a and b cannot be identified by the cyclic engine, or None."""
    if a == A.identity or b == B.identity:
        return IdentityElement("amalgam generators must be nonidentity")
    k = A.element_order(a)
    if k != B.element_order(b):
        return OrderMismatch(
            f"generator orders {k} and {B.element_order(b)} differ",
            left=k,
            right=B.element_order(b),
        )
    if not is_solvable(A):
        return NotSolvable("left factor is not solvable")
    if not is_solvable(B):
        return NotSolvable("right factor is not solvable")
    return None


def cyclic_amalgam_quotient(
    A: FiniteGroup, B: FiniteGroup, a: int, b: int, max_order: int = DEFAULT_MAX_ORDER
) -> Certificate:
    """Identify the images of a and b across the two depth-truncated factors."""
    if error := _cyclic_error(A, B, a, b):
        raise error
    k = A.element_order(a)
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

    C = cyclic_group(k)
    e_a = hom_from_generator_images(C, A, {1: a})
    e_b = hom_from_generator_images(C, B, {1: b})
    spec = validate_spec(AmalgamSpec([A, B], C, [e_a, e_b]))
    hom = induce_hom(spec, D, [map_a, map_b])

    dying = [j for j in range(1, k) if map_a.apply(A.power(a, j)) == D.identity]
    separates = not dying
    evidence = (
        f"all powers 1..{k - 1} of the amalgam generator survive"
        if separates
        else f"power {dying[0]} of the amalgam generator maps to the identity"
    )
    return _Parts(
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


def central_amalgam_quotient(
    factors, C: FiniteGroup, embeddings, max_order: int = DEFAULT_MAX_ORDER
) -> Certificate:
    """Collapse the product of the factors along their shared central subgroup."""
    factors = list(factors)
    embeddings = list(embeddings)
    S, mus = build_generalized_central_product(factors, C, embeddings, max_order)
    spec = validate_spec(AmalgamSpec(factors, C, embeddings)) if len(factors) > 1 else None
    hom = induce_hom(spec, S, mus) if spec is not None else None

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
    expected = order_product // C.order ** (len(factors) - 1) if len(factors) else 1
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
    return _Parts(
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


def double_retraction(factors, isos, C_sub: Subgroup) -> Certificate:
    """Collapse isomorphic copies glued along a common subgroup onto copy 0."""
    factors = list(factors)
    isos = list(isos)
    if len(factors) < 2:
        raise IncompatibleAmalgam("a double needs at least two copies")
    if len(isos) != len(factors):
        raise IncompatibleAmalgam(f"{len(isos)} isomorphisms for {len(factors)} copies")
    A0 = factors[0]
    if C_sub.parent != A0:
        raise IncompatibleAmalgam("the amalgam subgroup must live in the first copy")
    for i, (f, iso) in enumerate(zip(factors, isos)):
        if not isinstance(iso, GroupHom) or iso.source != A0 or iso.target != f:
            raise NotIsomorphism(f"map {i} must go from the first copy to copy {i}", factor=i)
        if not iso.is_isomorphism():
            raise NotIsomorphism(f"map {i} is not an isomorphism", factor=i)

    C_grp, incl = subgroup_as_group(A0, C_sub)
    embeds = [incl.then(iso) for iso in isos]
    spec = validate_spec(AmalgamSpec(factors, C_grp, embeds))
    psi = induce_hom(spec, A0, [iso.inverse() for iso in isos])

    retract = all(
        psi.apply_word([(0, isos[0].apply(x))]) == x for x in A0.elements()
    )
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
            w = [(0, isos[0].apply(x)), (i, factors[i].inv(isos[i].apply(x)))]
            if psi.apply_word(w) != A0.identity:
                kernel_ok = False
            if reduce(spec, w).length > 0:
                nontrivial_kernel_words += 1
    solvable = is_solvable(A0)
    return _Parts(
        kind="double",
        quotient_description={
            "order": A0.order,
            "derived_length": derived_length(A0) if solvable else None,
            "copies": len(factors),
        },
        hom_data={
            f"factor_{i}": _gen_images(factors[i], isos[i].inverse().apply, A0.label)
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


def _torsion_error(A):
    if not isinstance(A, FGAbelian):
        return NotTorsionFree("the split factor must be a finitely generated abelian group")
    if A.torsion:
        return NotTorsionFree("the split factor must be torsion-free")
    return None


def abelian_factor_quotient(A: FGAbelian, C) -> Certificate:
    """Finite quotient of the lattice factor that kills the amalgam."""
    if error := _torsion_error(A):
        raise error
    if isinstance(C, FGAbelian):
        raise EmbeddingTypeMismatch(
            "pass the amalgam as a sublattice (its embedded image), not a bare group"
        )
    if isinstance(C, IntMatrix):
        C = LatticeSubgroup(A.ngens, C)
    if not isinstance(C, LatticeSubgroup):
        C = LatticeSubgroup.from_vectors(A.ngens, list(C))
    if C.ambient_rank != A.ngens:
        raise EmbeddingTypeMismatch(
            f"sublattice lives in rank {C.ambient_rank}, factor has rank {A.ngens}"
        )
    split = finite_index_split(A.ngens, C)
    Q = _quotient_of_lattice(split)
    basis_images = []
    for j in range(A.ngens):
        e_j = tuple(1 if t == j else 0 for t in range(A.ngens))
        basis_images.append(split.coset_index(e_j))
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
    return _Parts(
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
        hom=AbelianToFiniteHom(A, Q, basis_images),
    )


# ----------------------------------------------------------- engine table
#
# check(spec, limits) returns the error that rules an engine out for the
# amalgam, or None: certify raises it, separate_element skips the engine
# without a note. build(spec, limits) runs the engine on an amalgam its check
# passed. limits holds max_order, frattini_cap (read by not-perfect only) and
# factor, the lattice factor that abelian-factor quotients.


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


def _not_perfect_build(spec, limits):
    (A, B), (e1, e2) = spec.factors, spec.embeddings
    C_A = subgroup(A, e1.images)
    C_B = subgroup(B, e2.images)
    iso = {e1.apply(c): e2.apply(c) for c in spec.amalgam.elements()}
    return not_perfect_certificate(A, B, C_A, C_B, iso, frattini_cap=limits["frattini_cap"])


def _cyclic_generators(spec):
    """The images (a, b) of a generator of the amalgam, or None if it is not cyclic."""
    C = spec.amalgam
    gen = next((c for c in C.elements() if C.element_order(c) == C.order), None)
    if gen is None:
        return None
    return spec.embeddings[0].apply(gen), spec.embeddings[1].apply(gen)


def _cyclic_check(spec, limits):
    if error := _pair_check(spec):
        return error
    pair = _cyclic_generators(spec)
    if pair is None:
        return InvalidGroup(f"the amalgam group of order {spec.amalgam.order} is not cyclic")
    return _cyclic_error(*spec.factors, *pair)


def _cyclic_build(spec, limits):
    return cyclic_amalgam_quotient(*spec.factors, *_cyclic_generators(spec), limits["max_order"])


def _central_check(spec, limits):
    if not all(isinstance(f, FiniteGroup) for f in spec.factors):
        return EmbeddingTypeMismatch("this theorem needs finite factors")
    return central_product_error(spec.factors, spec.amalgam, spec.embeddings)


def _central_build(spec, limits):
    return central_amalgam_quotient(
        spec.factors, spec.amalgam, spec.embeddings, limits["max_order"]
    )


def _double_check(spec, limits):
    if error := _finite_check(spec):
        return error
    first, images = spec.factors[0], spec.embeddings[0].images
    if any(f != first or e.images != images for f, e in zip(spec.factors, spec.embeddings)):
        return IncompatibleAmalgam(
            "the double theorem needs literal factor copies with identical "
            "amalgam embeddings; these factors differ"
        )
    return None


def _double_build(spec, limits):
    first = spec.factors[0]
    C_sub = subgroup(first, spec.embeddings[0].images)
    return double_retraction(spec.factors, [identity_hom(first)] * len(spec.factors), C_sub)


def _abelian_check(spec, limits):
    i = limits["factor"]
    A, e = spec.factors[i], spec.embeddings[i]
    if not isinstance(A, FGAbelian) or not isinstance(e, (IntMatrix, type(None))):
        return EmbeddingTypeMismatch(f"factor {i} is not a lattice with a matrix embedding")
    return _torsion_error(A)


def _abelian_build(spec, limits):
    """The lattice factor's quotient, with the other factors mapped trivially."""
    i = limits["factor"]
    A, e = spec.factors[i], spec.embeddings[i]
    cert = abelian_factor_quotient(A, e if e is not None else [])
    Q = cert.target
    maps = []
    for j, g in enumerate(spec.factors):
        if j == i:
            maps.append(cert.hom)
        elif isinstance(g, FiniteGroup):
            maps.append(GroupHom(g, Q, (Q.identity,) * g.order))
        else:
            maps.append(AbelianToFiniteHom(g, Q, (Q.identity,) * g.ngens))
    return replace(cert, hom=induce_hom(spec, Q, maps))


# name -> (check, build, note), in witness dispatch order; note is the reason
# recorded when the word dies in the engine's quotient. The oracle has no
# build: its catalog search needs the word, so separate_element runs it.
# not-perfect is for certify only.
ENGINES = {
    "double": (
        _double_check, _double_build, "double: word maps to the identity under the retraction"
    ),
    "central": (
        _central_check, _central_build, "central: word maps to the identity in the central product"
    ),
    "cyclic": (
        _cyclic_check, _cyclic_build, "cyclic: word maps to the identity in the depth quotient"
    ),
    "abelian-factor": (
        _abelian_check, _abelian_build, "abelian-factor (factor {factor}): not separated at level 1"
    ),
    "oracle": (_finite_check, None, None),
    "not-perfect": (_pair_check, _not_perfect_build, None),
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
    validate_spec(spec)
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
                return witness_result(cert, cert.target, w, label, image)
            attempts.append(cert)
            notes.append(note.format(factor=factor))

    return NotSeparatedAtLevelOne(
        word=list(w),
        word_label=label,
        reason="; ".join(notes) if notes else "no engine was applicable",
        certificates=attempts,
    )
