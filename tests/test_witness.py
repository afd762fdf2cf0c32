"""Theorem engines and the separation dispatcher."""

import pytest

from amalgam.certs import NotSeparatedAtLevelOne, WitnessResult
from amalgam.errors import (
    IdentityElement,
    IdentityWord,
    IncompatibleAmalgam,
    NotCentral,
    NotInjective,
    NotProperSubgroup,
    NotSolvable,
    NotTorsionFree,
)
from amalgam.groups import (
    GroupHom,
    alternating_group,
    cyclic_group,
    dihedral_group,
    hom_from_generator_images,
    identity_hom,
    is_solvable,
    quaternion_group,
    symmetric_group,
)
from amalgam.lattice import FGAbelian, IntMatrix
from amalgam.witness import (
    abelian_factor_quotient,
    central_amalgam_quotient,
    cyclic_amalgam_quotient,
    derived_depth,
    double_retraction,
    not_perfect_certificate,
    separate_element,
)
from amalgam.words import AmalgamSpec, InducedHom, reduce


def by_label(G, s):
    return G.labels.index(s)


S3 = symmetric_group(3)
Q8 = quaternion_group()
T12 = by_label(S3, "(1 2)")
T13 = by_label(S3, "(1 3)")
T123 = by_label(S3, "(1 2 3)")
MINUS_ONE = by_label(Q8, "-1")


def over_cyclic(factors, k, images):
    """The factors glued over C_k, its generator sent to images[i] in factor i."""
    C = cyclic_group(k)
    return AmalgamSpec(
        factors, C, [hom_from_generator_images(C, f, {1: x}) for f, x in zip(factors, images)]
    )


def s3_amalgam():
    return over_cyclic([S3, S3], 3, [T123, T123])


def q8_amalgam():
    return over_cyclic([Q8, Q8], 2, [MINUS_ONE, MINUS_ONE])


def q8_s3_amalgam():
    return over_cyclic([Q8, S3], 2, [MINUS_ONE, T12])


def d4_q8_amalgam():
    D4 = dihedral_group(4)
    return over_cyclic([D4, Q8], 2, [by_label(D4, "r2"), MINUS_ONE])


def z2_z_amalgam(b_col):
    """Z^2 and Z glued over Z, embedded as (2,0) on the left."""
    Z2 = FGAbelian(2, ())
    Z1 = FGAbelian(1, ())
    C = FGAbelian(1, ())
    eA = IntMatrix.from_columns([(2, 0)], rows=2)
    eB = IntMatrix.from_columns([b_col], rows=1)
    return AmalgamSpec([Z2, Z1], C, [eA, eB])


# ------------------------------------------------------------ derived_depth


def test_depth_of_transposition_is_one():
    assert derived_depth(S3, T12) == 1


def test_depth_of_three_cycle_is_two():
    assert derived_depth(S3, T123) == 2


def test_depth_of_minus_one_is_two():
    assert derived_depth(Q8, MINUS_ONE) == 2


def test_depth_rejects_identity():
    with pytest.raises(IdentityElement):
        derived_depth(S3, 0)


def test_depth_requires_solvable_group():
    A5 = alternating_group(5)
    with pytest.raises(NotSolvable):
        derived_depth(A5, 1)


def test_depth_law_membership():
    """Depth m means membership in term m-1 and not in term m."""
    from amalgam.groups import series

    for G, g in [(S3, T12), (S3, T123), (Q8, MINUS_ONE), (Q8, by_label(Q8, "i"))]:
        m = derived_depth(G, g)
        terms = series(G, "derived").terms
        assert terms[m - 1].contains(g)
        assert not terms[m].contains(g)


# ----------------------------------------------------- not_perfect engine


def test_not_perfect_s3_pair_over_a3():
    cert = not_perfect_certificate(s3_amalgam())
    assert cert.kind == "not_perfect"
    assert cert.status == "ok"
    assert cert.quotient_description["order"] == 4
    assert cert.quotient_description["abelian_invariants"] == [2, 2]
    assert cert.check("D_nontrivial").passed


def test_not_perfect_c4_pair_over_squares():
    C4 = cyclic_group(4)
    cert = not_perfect_certificate(over_cyclic([C4, C4], 2, [2, 2]))
    assert cert.quotient_description["abelian_invariants"] == [2, 2]
    assert cert.status == "ok"
    # C4 is nilpotent, so the subgroup-plus-commutators properness check runs
    frat = cert.check("frattini_argument")
    assert frat.passed
    assert "Frattini" in frat.evidence


def test_not_perfect_quaternion_against_symmetric():
    cert = not_perfect_certificate(q8_s3_amalgam())
    assert cert.quotient_description["abelian_invariants"] == [2, 2]
    # only the quaternion side survives abelianization
    assert cert.quotient_description["left_quotient_order"] == 4
    assert cert.quotient_description["right_quotient_order"] == 1
    assert cert.check("frattini_argument").passed


def test_not_perfect_has_no_nilpotency_check_for_s3():
    cert = not_perfect_certificate(s3_amalgam())
    with pytest.raises(KeyError):
        cert.check("frattini_argument")


def test_not_perfect_rejects_whole_group():
    C3 = cyclic_group(3)
    with pytest.raises(NotProperSubgroup) as exc:
        not_perfect_certificate(over_cyclic([C3, S3], 3, [1, T123]))
    assert "first factor" in exc.value.message


def test_not_perfect_rejects_order_mismatch():
    """C2 onto the center of Q8 but trivially into S3: copies of orders 2 and 1."""
    C2 = cyclic_group(2)
    trivial = GroupHom(C2, S3, (0, 0))
    with pytest.raises(NotInjective) as exc:
        AmalgamSpec([Q8, S3], C2, [hom_from_generator_images(C2, Q8, {1: MINUS_ONE}), trivial])
    assert exc.value.details["factor"] == 1


def test_not_perfect_rejects_non_isomorphism():
    """C4 sent onto the order-2 center of each Q8 is no isomorphism onto its copies."""
    C4 = cyclic_group(4)
    e = hom_from_generator_images(C4, Q8, {1: MINUS_ONE})
    with pytest.raises(NotInjective) as exc:
        not_perfect_certificate(AmalgamSpec([Q8, Q8], C4, [e, e]))
    assert exc.value.message == "embedding into factor 0 is not injective"


def test_not_perfect_claims_do_not_affect_status():
    cert = not_perfect_certificate(s3_amalgam())
    cert.claims.append("an arbitrary unverified remark")
    assert cert.status == "ok"


# ------------------------------------------------------------ cyclic engine


def test_cyclic_quaternion_separates():
    cert = cyclic_amalgam_quotient(q8_amalgam())
    assert cert.kind == "cyclic_amalgam"
    assert cert.status == "ok"
    assert cert.quotient_description["order"] == 32
    assert cert.quotient_description["left_depth"] == 2
    assert cert.check("separates_C").passed


def test_cyclic_symmetric_fails_to_separate():
    """The identified quotient of two S3 copies kills the amalgam itself."""
    cert = cyclic_amalgam_quotient(s3_amalgam())
    assert cert.status == "checks-failed"
    assert cert.quotient_description["order"] == 4
    assert not cert.check("separates_C").passed
    assert "power 1" in cert.check("separates_C").evidence


def test_cyclic_c6_squares_separate():
    C6 = cyclic_group(6)
    g2 = C6.power(1, 2)
    cert = cyclic_amalgam_quotient(over_cyclic([C6, C6], 3, [g2, g2]))
    assert cert.status == "ok"
    assert cert.quotient_description["order"] == 12
    assert cert.quotient_description["left_depth"] == 1
    assert cert.quotient_description["right_depth"] == 1


def test_cyclic_rejects_order_mismatch():
    """The generator of C4 goes to -1 (order 2) in Q8 and to a generator of C4."""
    C4 = cyclic_group(4)
    with pytest.raises(NotInjective) as exc:
        AmalgamSpec(
            [Q8, C4],
            C4,
            [hom_from_generator_images(C4, Q8, {1: MINUS_ONE}), identity_hom(C4)],
        )
    assert exc.value.details["factor"] == 0


def test_cyclic_rejects_identity_generators():
    C1 = cyclic_group(1)
    e = GroupHom(C1, Q8, (0,))
    with pytest.raises(IdentityElement):
        cyclic_amalgam_quotient(AmalgamSpec([Q8, Q8], C1, [e, e]))


def test_cyclic_rejects_unsolvable_factor():
    A5 = alternating_group(5)
    x = next(a for a in A5.elements() if A5.element_order(a) == 2)
    C2 = cyclic_group(2)
    with pytest.raises(NotSolvable):
        cyclic_amalgam_quotient(over_cyclic([A5, C2], 2, [x, 1]))


# ----------------------------------------------------------- central engine


def test_central_two_quaternions():
    cert = central_amalgam_quotient(q8_amalgam())
    assert cert.kind == "central_amalgam"
    assert cert.status == "ok"
    assert cert.quotient_description["order"] == 32
    assert cert.check("mu_injective_on_factors").passed
    assert cert.check("S_solvable").passed
    assert cert.check("order_count").passed


def test_central_dihedral_with_quaternion():
    cert = central_amalgam_quotient(d4_q8_amalgam())
    assert cert.status == "ok"
    assert cert.quotient_description["order"] == 32


def test_central_triple_quaternion_order():
    """Three factors of order 8 over order-2 centers: 8^3 / 2^2 = 128."""
    cert = central_amalgam_quotient(over_cyclic([Q8, Q8, Q8], 2, [MINUS_ONE] * 3))
    assert cert.status == "ok"
    assert cert.quotient_description["order"] == 128
    assert cert.check("order_count").passed


def test_central_rejects_noncentral_image():
    with pytest.raises(NotCentral) as exc:
        central_amalgam_quotient(over_cyclic([S3, S3], 2, [T12, T12]))
    assert exc.value.details["factor"] == 0


# ------------------------------------------------------------ double engine


def test_double_s3_over_a3_all_checks_pass():
    cert = double_retraction(s3_amalgam())
    assert cert.kind == "double"
    assert cert.status == "ok"
    assert cert.quotient_description["order"] == 6
    assert cert.check("retraction").passed
    assert cert.check("injective_on_each_factor").passed
    assert cert.check("kernel_generators").passed
    # three transposition words survive reduction on the second copy
    assert "3 of them" in cert.check("kernel_generators").evidence


def test_double_kernel_word_dies_but_is_not_trivial():
    spec = s3_amalgam()
    psi = InducedHom(spec, S3, [identity_hom(S3), identity_hom(S3)])
    w = [(0, T12), (1, T12)]
    assert psi.apply_word(w) == 0
    assert not reduce(spec, w).is_identity()


def test_double_full_amalgamation_degenerates():
    e = identity_hom(S3)
    cert = double_retraction(AmalgamSpec([S3, S3], S3, [e, e]))
    assert cert.status == "ok"
    assert "0 of them" in cert.check("kernel_generators").evidence


def test_double_triple_quaternion():
    cert = double_retraction(over_cyclic([Q8, Q8, Q8], 2, [MINUS_ONE] * 3))
    assert cert.status == "ok"
    assert cert.quotient_description["copies"] == 3


def test_double_rejects_non_isomorphism():
    """The amalgam collapses in the second copy, so the copies are not
    identified by an isomorphism."""
    C2 = cyclic_group(2)
    e = hom_from_generator_images(C2, S3, {1: T12})
    collapse = GroupHom(C2, S3, (0, 0))
    with pytest.raises(NotInjective) as exc:
        double_retraction(AmalgamSpec([S3, S3], C2, [e, collapse]))
    assert exc.value.details["factor"] == 1


# ---------------------------------------------------- abelian-factor engine


def lattice_pair(a_col):
    """Z^len(a_col) and Z glued over Z, its generator sent to a_col and to 1."""
    Z1 = FGAbelian(1, ())
    eA = IntMatrix.from_columns([a_col], rows=len(a_col))
    return AmalgamSpec([FGAbelian(len(a_col), ()), Z1], Z1, [eA, IntMatrix.identity(1)])


def test_abelian_index_two_quotient():
    cert = abelian_factor_quotient(z2_z_amalgam((1,)), 0)
    assert cert.kind == "abelian_factor"
    assert cert.status == "ok"
    assert cert.quotient_description["order"] == 2
    assert cert.quotient_description["abelian_invariants"] == [2]
    assert cert.check("kills_C").passed
    assert cert.check("image_order").passed
    assert cert.check("epimorphism").passed


def test_abelian_maps_the_other_factor_trivially():
    cert = abelian_factor_quotient(z2_z_amalgam((1,)), 0)
    assert cert.hom.apply_word([(1, (1,))]) == cert.target.identity
    assert cert.hom.apply_word([(0, (1, 0))]) != cert.target.identity


def test_abelian_full_sublattice_is_vacuous():
    Z2 = FGAbelian(2, ())
    I2 = IntMatrix.identity(2)
    cert = abelian_factor_quotient(AmalgamSpec([Z2, Z2], Z2, [I2, I2]), 0)
    assert cert.status == "ok"
    assert cert.quotient_description["order"] == 1
    assert cert.claims[0] == "vacuous quotient"


def test_abelian_rank_one_index_three():
    cert = abelian_factor_quotient(lattice_pair((3,)), 0)
    assert cert.quotient_description["order"] == 3
    assert cert.quotient_description["abelian_invariants"] == [3]


def test_abelian_rejects_torsion():
    Z1 = FGAbelian(1, ())
    A = FGAbelian(1, (2,))
    spec = AmalgamSpec(
        [A, Z1], Z1, [IntMatrix.from_columns([(0, 1)], rows=2), IntMatrix.identity(1)]
    )
    with pytest.raises(NotTorsionFree):
        abelian_factor_quotient(spec, 0)


def test_abelian_rejects_rank_mismatch():
    """A three-row embedding into the rank-2 factor is an invalid amalgam."""
    Z1 = FGAbelian(1, ())
    e = IntMatrix.from_columns([(1, 0, 0)], rows=3)
    with pytest.raises(IncompatibleAmalgam) as exc:
        AmalgamSpec([FGAbelian(2, ()), Z1], Z1, [e, IntMatrix.identity(1)])
    assert exc.value.message == "embedding into factor 0 must be a 2x1 matrix"


@pytest.mark.parametrize("factor", [5, -2])
def test_abelian_rejects_factor_index_out_of_range(factor):
    """lattice.amg's amalgam has factors 0 and 1; -2 must not wrap around."""
    with pytest.raises(IncompatibleAmalgam) as exc:
        abelian_factor_quotient(lattice_pair((2, 0)), factor)
    assert exc.value.message == f"factor index {factor} out of range"
    assert exc.value.details["factor"] == factor


# ----------------------------------------------------------------- dispatch


def test_dispatch_identical_copies_resolve_as_double():
    spec = q8_amalgam()
    res = separate_element(spec, [(0, by_label(Q8, "i"))])
    assert isinstance(res, WitnessResult)
    assert res.separated
    assert res.engine == "double"
    assert res.target_description["order"] == 8
    assert res.image_label == "i"


def test_dispatch_central_engine_when_requested():
    spec = q8_amalgam()
    res = separate_element(spec, [(0, by_label(Q8, "i"))], engines=("central",))
    assert res.engine == "central_amalgam"
    assert res.target_description["order"] == 32
    assert res.certificate.check("mu_injective_on_factors").passed


def test_dispatch_retraction_separates_first_copy():
    spec = s3_amalgam()
    res = separate_element(spec, [(0, T12)])
    assert res.engine == "double"
    assert res.image_label == "(1 2)"
    assert res.target_description["order"] == 6


def test_dispatch_kernel_word_falls_through_to_oracle():
    """Killed by the retraction and by the abelianized identification, but
    caught by the catalog search."""
    spec = s3_amalgam()
    w = [(0, T12), (1, T12), (0, T13), (1, T13)]
    res = separate_element(spec, w)
    assert isinstance(res, WitnessResult)
    assert res.engine == "oracle_witness"
    assert res.target_description == {"order": 6, "name": "D3", "derived_length": 2}
    assert res.image_label == "r1"


def test_dispatch_without_oracle_reports_not_separated():
    spec = s3_amalgam()
    w = [(0, T12), (1, T12), (0, T13), (1, T13)]
    res = separate_element(spec, w, engines=("double", "central", "cyclic"))
    assert isinstance(res, NotSeparatedAtLevelOne)
    assert not res.separated
    assert len(res.certificates) == 2
    kinds = [c.kind for c in res.certificates]
    assert kinds == ["double", "cyclic_amalgam"]
    assert "retraction" in res.reason


def test_dispatch_mixed_amalgam_separates_lattice_side():
    spec = z2_z_amalgam((1,))
    res = separate_element(spec, [(0, (1, 0))])
    assert isinstance(res, WitnessResult)
    assert res.engine == "abelian_factor"
    assert res.target_description["order"] == 2
    assert res.target_derived_length == 1


def test_dispatch_mixed_amalgam_cannot_separate_opaque_side():
    spec = z2_z_amalgam((1,))
    res = separate_element(spec, [(1, (1,))])
    assert isinstance(res, NotSeparatedAtLevelOne)
    assert "not separated at level 1" in res.reason


def test_dispatch_rejects_identity_words():
    spec = s3_amalgam()
    with pytest.raises(IdentityWord):
        separate_element(spec, [])
    with pytest.raises(IdentityWord):
        separate_element(spec, [(0, T123), (1, S3.inv(T123))])


def test_dispatch_rejects_unknown_engine_names():
    with pytest.raises(ValueError):
        separate_element(s3_amalgam(), [(0, T12)], engines=("double", "sieve"))


def test_dispatch_witness_invariants_hold():
    """Image nonidentity and solvable target, for a spread of words."""
    import random

    spec = s3_amalgam()
    rng = random.Random(5)
    separated = 0
    for _ in range(40):
        w = [(rng.randrange(2), rng.randrange(6)) for _ in range(rng.randrange(1, 6))]
        if reduce(spec, w).is_identity():
            continue
        res = separate_element(spec, w)
        if isinstance(res, WitnessResult):
            separated += 1
            assert res.image_label != "e"
            assert res.target_derived_length >= 1
            assert res.certificate.kind in {
                "double",
                "central_amalgam",
                "cyclic_amalgam",
                "abelian_factor",
                "oracle_witness",
            }
    assert separated > 0


def test_dispatch_serializes_to_plain_data():
    import json

    spec = q8_amalgam()
    res = separate_element(spec, [(0, by_label(Q8, "i"))])
    blob = json.dumps(res.to_dict(), sort_keys=True)
    assert '"separated": true' in blob
