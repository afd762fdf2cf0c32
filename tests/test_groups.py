import gc
import hashlib
import itertools
import random
import re
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amalgam import groups
from amalgam.errors import (
    ClosureCapExceeded,
    ElementOutOfRange,
    InvalidGroup,
    NotAHomomorphism,
    NotAPermutation,
    NotNormal,
)
from amalgam.groups import (
    FiniteGroup,
    abelian_invariants,
    alternating_group,
    all_subgroups,
    center,
    commutator_subgroup,
    cyclic_group,
    cycle_label,
    dihedral_group,
    direct_product,
    frattini,
    group_from_permutations,
    hom_from_generator_images,
    identity_hom,
    is_nilpotent,
    is_solvable,
    maximal_subgroups,
    normal_closure,
    perm_from_cycles,
    permutation_index,
    quaternion_group,
    quotient_group,
    series,
    subgroup,
    subgroup_closure,
    symmetric_group,
    whole_group,
    GroupHom,
)
from amalgam.lattice import abelianization_from_presentation


def product_of_cyclics(*divisors):
    """C_d1 x C_d2 x ..., named like C2xC4."""
    return direct_product([cyclic_group(d) for d in divisors])[0]


def kernel(hom):
    """Sorted elements of the source that map to the identity."""
    return tuple(x for x in hom.source.elements() if hom.images[x] == hom.target.identity)


# -- independent oracles -------------------------------------------------

def brute_closure(G, seeds):
    """Fixpoint of pairwise products, written without the BFS helper."""
    cur = set(seeds) | {G.identity}
    while True:
        nxt = set(cur)
        for a in cur:
            for b in cur:
                nxt.add(G.mul(a, b))
        if nxt == cur:
            return cur
        cur = nxt


def brute_derived_term(G, members):
    coms = set()
    for h in members:
        for k in members:
            coms.add(
                G.mul(G.mul(h, k), G.mul(G.inv(h), G.inv(k)))
            )
    # conjugate-and-close inside the span
    span = brute_closure(G, members)
    conj = {G.conjugate(c, g) for c in coms for g in span}
    return brute_closure(G, conj)


def brute_first_nonassociative(table):
    """Smallest a with (ax)y != a(xy) for some x, y; None for an associative table."""
    n = len(table)
    for a in range(n):
        for x in range(n):
            for y in range(n):
                if table[table[a][x]][y] != table[a][table[x][y]]:
                    return a
    return None


def relator_invariants(G):
    """Invariant factors of G/G' from a presentation on all its nonidentity elements."""
    D = commutator_subgroup(G, whole_group(G), whole_group(G))
    Q, _ = quotient_group(G, D)
    n = Q.order
    relators = []
    for a in range(1, n):
        for b in range(1, n):
            row = [0] * (n - 1)
            row[a - 1] += 1
            row[b - 1] += 1
            c = Q.mul(a, b)
            if c != Q.identity:
                row[c - 1] -= 1
            relators.append(row)
    ab = abelianization_from_presentation(n - 1, relators)
    assert ab.free_rank == 0
    return list(ab.torsion)


def brute_derived_orders(G):
    cur = set(G.elements())
    orders = [len(cur)]
    while True:
        nxt = brute_derived_term(G, cur)
        if nxt == cur:
            break
        orders.append(len(nxt))
        cur = nxt
        if len(cur) == 1:
            break
    return orders


# -- construction and axioms ---------------------------------------------

def test_trivial_group_from_no_generators():
    G = group_from_permutations(1, [])
    assert G.order == 1
    assert G.identity == 0


def test_s3_closure_and_table():
    G = group_from_permutations(3, [perm_from_cycles(3, [(1, 2)]), perm_from_cycles(3, [(1, 2, 3)])])
    assert G.order == 6
    assert G.identity == 0
    assert not np.array_equal(G.table, G.table.T)
    # every element has the order of its cycle type
    orders = sorted(G.element_order(x) for x in G.elements())
    assert orders == [1, 2, 2, 2, 3, 3]


def test_s4_closure_order():
    G = symmetric_group(4)
    assert G.order == 24


def test_bad_permutation_rejected():
    with pytest.raises(NotAPermutation):
        group_from_permutations(3, [(0, 0, 2)])
    with pytest.raises(NotAPermutation):
        perm_from_cycles(3, [(1, 4)])
    with pytest.raises(NotAPermutation):
        perm_from_cycles(4, [(1, 2, 1)])


def test_closure_cap():
    with pytest.raises(ClosureCapExceeded):
        group_from_permutations(5, [perm_from_cycles(5, [(1, 2)]), perm_from_cycles(5, [(1, 2, 3, 4, 5)])], max_order=100)


def test_nonassociative_table_rejected():
    # order-3 magma with identity and "inverses" but broken associativity
    table = [[0, 1, 2], [1, 0, 0], [2, 0, 0]]
    with pytest.raises(InvalidGroup):
        FiniteGroup(table)


# an order-5 loop: identity 0 and unique two-sided inverses, not associative
LOOP5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]


# LOOP5 x C2 with the loop digit most significant: element 1 = (0, 1) is
# associative with everything, so Light's test must go past the first generator
LOOP5_C2 = [[2 * LOOP5[a // 2][b // 2] + (a + b) % 2 for b in range(10)] for a in range(10)]


@pytest.mark.parametrize("table", [LOOP5, LOOP5_C2], ids=["loop5", "loop5_c2"])
def test_nonassociative_loop_rejected_at_first_bad_element(table):
    first = brute_first_nonassociative(table)
    assert first is not None
    with pytest.raises(InvalidGroup, match=f"associativity fails at element {first}$"):
        FiniteGroup(table)


@pytest.mark.parametrize("gens", [(), (1,), (9,)])
def test_associativity_is_reported_before_generation(gens):
    with pytest.raises(InvalidGroup, match="associativity fails"):
        FiniteGroup(LOOP5, generator_indices=gens)


def test_generation_and_range_errors_on_a_group():
    table = cyclic_group(6).table
    with pytest.raises(InvalidGroup, match="do not generate"):
        FiniteGroup(table, generator_indices=(2,))
    with pytest.raises(ElementOutOfRange):
        FiniteGroup(table, generator_indices=(1, 6))


def test_cyclic_order3_table_builds():
    table = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    G = FiniteGroup(table)
    assert G.order == 3


def test_cyclic_1024_builds_and_validates():
    G = cyclic_group(1024)
    assert G.order == 1024
    assert G.small_generators == (1,)
    assert G.mul(1000, 30) == 6 and G.inv(1) == 1023


def _random_latin_square(n, rng):
    """Latin square with first row and column 0..n-1, filled by random backtracking."""
    rows = [list(range(n))] + [[r] + [None] * (n - 1) for r in range(1, n)]
    cells = [(r, c) for r in range(1, n) for c in range(1, n)]

    def fill(k):
        if k == len(cells):
            return True
        r, c = cells[k]
        used = set(rows[r][:c]) | {rows[i][c] for i in range(r)}
        choices = [v for v in range(n) if v not in used]
        rng.shuffle(choices)
        for v in choices:
            rows[r][c] = v
            if fill(k + 1):
                return True
        rows[r][c] = None
        return False

    assert fill(0)
    return rows


@given(st.integers(4, 6), st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_latin_squares_accepted_exactly_when_associative(n, rng):
    table = _random_latin_square(n, rng)
    associative = brute_first_nonassociative(table) is None
    try:
        FiniteGroup(table)
    except InvalidGroup:
        assert not associative
    else:
        assert associative


def _relabelled(G, perm):
    """G's table with element x renamed perm[x]."""
    back = {p: i for i, p in enumerate(perm)}
    return [[perm[G.mul(back[a], back[b])] for b in range(G.order)] for a in range(G.order)]


def test_relabelled_groups_accepted():
    rng = random.Random(5)
    for G in (cyclic_group(6), symmetric_group(3), dihedral_group(4), quaternion_group()):
        perm = [0] + rng.sample(range(1, G.order), G.order - 1)
        assert FiniteGroup(_relabelled(G, perm)).order == G.order


@pytest.mark.parametrize(
    "table",
    [[[0, 1.5], [1.5, 0]], [[True, False], [False, True]], [[0, 2**70], [2**70, 0]]],
    ids=["float", "bool", "huge"],
)
def test_non_integer_tables_rejected(table):
    with pytest.raises(InvalidGroup, match="not fixed-width integers"):
        FiniteGroup(table)


def test_ragged_table_is_an_invalid_group():
    with pytest.raises(InvalidGroup, match="rows differ in length"):
        FiniteGroup([[0, 1], [1]])


def test_range_is_checked_before_narrowing():
    # 65,537 would wrap to 1 in int16
    with pytest.raises(InvalidGroup, match="out of range"):
        FiniteGroup([[0, 1], [1, 65537]])
    with pytest.raises(InvalidGroup, match="out of range"):
        FiniteGroup(np.array([[0, 1], [1, 65537]], dtype=np.int64))


def test_index_dtype_is_the_narrowest_that_holds_every_index():
    assert groups._index_dtype(1) is np.int16
    assert groups._index_dtype(2**15) is np.int16
    assert groups._index_dtype(2**15 + 1) is np.int32


def _s3_over_a3():
    G = symmetric_group(3)
    return quotient_group(G, normal_closure(G, [G.labels.index("(1 2 3)")]))[0]


@pytest.mark.parametrize(
    "make",
    [
        lambda: cyclic_group(12),
        lambda: direct_product([symmetric_group(3), cyclic_group(4)])[0],
        lambda: symmetric_group(4),
        _s3_over_a3,
        lambda: FiniteGroup([[0, 1, 2], [1, 2, 0], [2, 0, 1]]),
    ],
    ids=["cyclic", "direct_product", "permutations", "quotient", "list"],
)
def test_tables_are_int16_read_only_and_contiguous(make):
    G = make()
    for arr in (G.table, G.inverses):
        assert arr.dtype == np.int16
        assert arr.flags.c_contiguous and not arr.flags.writeable


def _traced_peak_over_table(build):
    tracemalloc.start()
    try:
        G = build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / G.table.nbytes


def test_table_builds_peak_below_three_tables():
    C32, C64 = cyclic_group(32), cyclic_group(64)
    assert _traced_peak_over_table(lambda: cyclic_group(2048)) < 3
    assert _traced_peak_over_table(lambda: direct_product([C32, C64])[0]) < 3


def _validation_outcome(table, generator_indices=None):
    try:
        G = FiniteGroup(table, generator_indices=generator_indices)
    except InvalidGroup as e:
        return str(e)
    return G.identity, G.inverses.tolist(), G.small_generators


def _block_test_tables():
    C6 = cyclic_group(6).table.tolist()
    two_inverses = [row[:] for row in C6]
    two_inverses[4][3] = 0  # 4 * 2 = 4 * 3 = 0
    one_sided = [row[:] for row in C6]
    one_sided[5][1], one_sided[5][2] = 1, 0  # 1 * 5 = 0, but 5 * 1 = 1
    s3_at_5 = _relabelled(symmetric_group(3), [5, 0, 1, 2, 3, 4])
    rng = random.Random(11)
    latin = [_random_latin_square(n, rng) for n in (4, 5, 6) for _ in range(10)]
    return [LOOP5, LOOP5_C2, two_inverses, one_sided, s3_at_5, *latin]


@pytest.mark.parametrize("cells", [1, 16])
def test_row_blocks_do_not_change_outcomes(monkeypatch, cells):
    tables = _block_test_tables()
    whole = [_validation_outcome(t) for t in tables]
    assert whole[0] == f"associativity fails at element {brute_first_nonassociative(LOOP5)}"
    assert whole[1] == f"associativity fails at element {brute_first_nonassociative(LOOP5_C2)}"
    assert whole[2] == "element 4 lacks a unique two-sided inverse"
    assert whole[3] == "element 1 lacks a unique two-sided inverse"
    assert whole[4][0] == 5
    monkeypatch.setattr(groups, "_ROW_BLOCK_CELLS", cells)
    assert len(groups._row_blocks(5)) > 1
    assert [_validation_outcome(t) for t in tables] == whole


# -- the kernel against from-scratch references ---------------------------
#
# The references read the table as nested lists and follow the definitions:
# associativity by the O(n^3) scan, closures by a breadth-first search from
# the identity redone after every generator kept.

def ref_bfs_closure(T, e, seeds):
    """Everything reached from e by right products with the seeds."""
    seen, frontier, seeds = {e}, [e], tuple(seeds)
    while frontier:
        x = frontier.pop()
        for g in seeds:
            y = T[x][g]
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


def ref_greedy(T, e, candidates):
    gens, span = [], {e}
    for c in candidates:
        if c not in span:
            gens.append(c)
            span = ref_bfs_closure(T, e, gens)
    return gens, span


def ref_validate(T, generator_indices=None):
    """FiniteGroup's verdict on an in-range square table, from the definitions:
    the InvalidGroup message, or (identity, inverses, small_generators)."""
    n = len(T)
    ids = [e for e in range(n) if all(T[e][x] == x == T[x][e] for x in range(n))]
    if not ids:
        return "no two-sided identity in table"
    e = ids[0]
    inverses = []
    for x in range(n):
        right = [y for y in range(n) if T[x][y] == e]
        if len(right) != 1 or T[right[0]][x] != e:
            return f"element {x} lacks a unique two-sided inverse"
        inverses.append(right[0])
    if generator_indices is None:
        generator_indices = [x for x in range(n) if x != e]
    gens, span = ref_greedy(T, e, generator_indices)
    if len(span) < n:
        gens, _ = ref_greedy(T, e, gens + list(range(n)))
    first = brute_first_nonassociative(T)
    if first is not None:
        return f"associativity fails at element {first}"
    if len(span) < n:
        return "generator_indices do not generate the group"
    return e, inverses, tuple(gens)


def ref_normal_closure(T, e, inv, seeds, conjugators):
    gens, span, queue = [], {e}, list(seeds)
    while queue:
        x = queue.pop()
        if x in span:
            continue
        gens.append(x)
        span = ref_bfs_closure(T, e, gens)
        queue.extend(T[T[c][x]][inv[c]] for c in conjugators)
    return span


def ref_commutator(T, e, inv, H, K):
    X, _ = ref_greedy(T, e, H)
    Y, _ = ref_greedy(T, e, K)
    coms = [T[T[h][k]][T[inv[h]][inv[k]]] for h in X for k in Y]
    return tuple(sorted(ref_normal_closure(T, e, inv, coms, X + Y)))


def ref_series(T, e, inv, kind):
    top = tuple(range(len(T)))
    terms = [top]
    while True:
        cur = terms[-1]
        nxt = ref_commutator(T, e, inv, cur if kind == "derived" else top, cur)
        if nxt == cur:
            if len(cur) > 1:
                terms.append(nxt)
            return terms
        terms.append(nxt)
        if len(nxt) == 1:
            return terms


def ref_all_subgroups(T, e):
    """The lattice search with every <H, g> closed from scratch."""
    seen, frontier = {(e,)}, [(e,)]
    while frontier:
        base = frontier.pop()
        for g in range(len(T)):
            if g not in base:
                closed = tuple(sorted(ref_bfs_closure(T, e, base + (g,))))
                if closed not in seen:
                    seen.add(closed)
                    frontier.append(closed)
    return sorted(seen, key=lambda s: (len(s), s))


def _seeded_group(rng):
    """A small constructor group, its elements renamed at random."""
    small = [
        lambda: cyclic_group(rng.randint(1, 24)),
        lambda: dihedral_group(rng.randint(1, 8)),
        quaternion_group,
        lambda: symmetric_group(rng.randint(1, 4)),
        lambda: alternating_group(4),
    ]
    G = rng.choice(small)()
    if G.order <= 8 and rng.random() < 0.5:
        G = direct_product([G, rng.choice(small[1:3])()])[0]
    perm = rng.sample(range(G.order), G.order)
    return FiniteGroup(_relabelled(G, perm))


def _kernel_cases(seed):
    """(table, generator_indices) pairs: seeded groups, the same tables broken
    in seeded ways, and fixed non-groups."""
    rng = random.Random(seed)
    cases = [(LOOP5, None), (LOOP5, (2,)), (LOOP5_C2, None)]
    cases += [(t, None) for t in _block_test_tables()[2:]]
    for _ in range(40):
        G = _seeded_group(rng)
        T, n = G.table.tolist(), G.order
        gens = rng.choice([None, rng.sample(range(n), min(n, rng.randint(1, 3)))])
        cases.append((T, gens))
        if n < 3:
            continue
        broken = [row[:] for row in T]
        a, b, c = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        how = rng.randrange(3)
        if how == 0:  # one cell changed
            broken[a][b] = (broken[a][b] + 1 + c % (n - 1)) % n
        elif how == 1:  # two cells of one row swapped: rows stay Latin
            broken[a][b], broken[a][c] = broken[a][c], broken[a][b]
        else:  # two rows swapped
            broken[a], broken[b] = broken[b], broken[a]
        cases.append((broken, gens))
    return cases


class _Magma:
    """A table with an identity at 0, not known to be associative."""

    identity = 0

    def __init__(self, table):
        self._cells = memoryview(np.array(table, dtype=np.int16))


def _random_magma(n, rng):
    """Identity at 0, every other product random."""
    return [[a if b == 0 else b if a == 0 else rng.randrange(n) for b in range(n)]
            for a in range(n)]


def test_greedy_spans_are_what_right_products_reach_without_associativity():
    # FiniteGroup keeps its generators before Light's test has run
    rng = random.Random(3)
    latin = [_random_latin_square(n, rng) for n in (5, 6, 7) for _ in range(10)]
    magmas = [_random_magma(n, rng) for n in (5, 8, 12) for _ in range(20)]
    for table in [LOOP5, LOOP5_C2, *latin, *magmas]:
        candidates = rng.sample(range(len(table)), len(table))
        gens, span = groups._greedy_generators(_Magma(table), candidates)
        assert (gens, span) == ref_greedy(table, 0, candidates)


@pytest.mark.parametrize("cells", [None, 1, 16])
@pytest.mark.parametrize("seed", [0, 1])
def test_validation_matches_the_references(monkeypatch, cells, seed):
    if cells is not None:
        monkeypatch.setattr(groups, "_ROW_BLOCK_CELLS", cells)
    seen = set()
    for table, gens in _kernel_cases(seed):
        expected = ref_validate(table, gens)
        assert _validation_outcome(table, gens) == expected
        seen.add(expected.split(" ")[0] if isinstance(expected, str) else "group")
    assert seen == {"group", "element", "associativity", "generator_indices", "no"}, seen


@pytest.mark.parametrize("cells", [None, 1, 16])
def test_closures_and_series_match_the_references(monkeypatch, cells):
    if cells is not None:
        monkeypatch.setattr(groups, "_ROW_BLOCK_CELLS", cells)
    rng = random.Random(7)
    for _ in range(25):
        G = _seeded_group(rng)
        T, e, inv, n = G.table.tolist(), G.identity, G.inverses.tolist(), G.order
        for _ in range(4):
            seeds = rng.sample(range(n), min(n, rng.randint(1, 3)))
            more = rng.sample(range(n), min(n, rng.randint(1, 3)))
            H, K = subgroup_closure(G, seeds), subgroup_closure(G, more)
            assert H.elements == tuple(sorted(ref_bfs_closure(T, e, seeds)))
            assert normal_closure(G, seeds).elements == tuple(
                sorted(ref_normal_closure(T, e, inv, seeds, G.small_generators))
            )
            assert commutator_subgroup(G, H, K).elements == ref_commutator(
                T, e, inv, H.elements, K.elements
            )
        for kind in ("derived", "lower-central"):
            assert [s.elements for s in series(G, kind).terms] == ref_series(T, e, inv, kind)
        if n <= 24:
            assert [s.elements for s in all_subgroups(G)] == ref_all_subgroups(T, e)


def test_cycle_label_roundtrip():
    p = perm_from_cycles(5, [(1, 2, 3), (4, 5)])
    assert cycle_label(p) == "(1 2 3)(4 5)"
    assert cycle_label(tuple(range(5))) == "()"


def test_identity_always_index_zero():
    for G in (cyclic_group(6), dihedral_group(4), quaternion_group(), symmetric_group(3)):
        assert G.identity == 0


# -- closures against the brute-force oracle ------------------------------

@pytest.mark.parametrize("seeds", [[1], [2], [1, 2], [3]])
def test_subgroup_closure_matches_oracle(seeds):
    G = symmetric_group(4)
    assert set(subgroup_closure(G, seeds).elements) == brute_closure(G, seeds)


def test_normal_closure_of_transposition_in_s4():
    G = symmetric_group(4)
    t = next(x for x in G.elements() if G.label(x) == "(1 2)")
    nc = normal_closure(G, [t])
    assert nc.order == 24  # transpositions generate S4


def test_normal_closure_of_double_transposition_in_s4():
    G = symmetric_group(4)
    t = next(x for x in G.elements() if G.label(x) == "(1 2)(3 4)")
    nc = normal_closure(G, [t])
    assert nc.order == 4  # the Klein subgroup
    assert nc.is_normal()


def test_check_accepts_exactly_the_element_indices():
    G = symmetric_group(3)
    assert [G.check(x) for x in G.elements()] == list(range(6))
    for bad in (-1, 6, (0,), (0, 1), "1"):
        with pytest.raises(ElementOutOfRange) as exc:
            G.check(bad)
        assert exc.value.message == f"element {bad!r} out of range"


@pytest.mark.parametrize("seed", [-1, 24])
def test_normal_closure_rejects_out_of_range_seeds(seed):
    with pytest.raises(ElementOutOfRange):
        normal_closure(symmetric_group(4), [seed])


# -- series, solvability, nilpotency --------------------------------------

def test_derived_series_s4():
    G = symmetric_group(4)
    chain = series(G, "derived")
    assert chain.orders == (24, 12, 4, 1)
    assert chain.orders == tuple(brute_derived_orders(G))
    # each term normal in the whole group, not just the previous term
    assert all(t.is_normal() for t in chain.terms)


def test_derived_series_s3():
    chain = series(symmetric_group(3), "derived")
    assert chain.orders == (6, 3, 1)


def test_derived_series_q8():
    chain = series(quaternion_group(), "derived")
    assert chain.orders == (8, 2, 1)


def test_derived_series_c6():
    chain = series(cyclic_group(6), "derived")
    assert chain.orders == (6, 1)


def test_nonsolvable_series_stabilizes_with_single_repeat():
    A5 = alternating_group(5)
    chain = series(A5, "derived")
    assert chain.orders == (60, 60)
    assert not is_solvable(A5)


def test_solvability_flags():
    assert is_solvable(symmetric_group(4))
    assert is_solvable(quaternion_group())
    assert not is_solvable(symmetric_group(5))


def test_nilpotency():
    assert is_nilpotent(quaternion_group())
    assert is_nilpotent(dihedral_group(4))
    assert not is_nilpotent(symmetric_group(3))
    assert is_nilpotent(cyclic_group(12))


def test_lower_central_series_d4():
    chain = series(dihedral_group(4), "lower-central")
    assert chain.orders[0] == 8
    assert chain.stabilizes_trivial()


def test_commutator_subgroup_whole():
    G = symmetric_group(3)
    d = commutator_subgroup(G, whole_group(G), whole_group(G))
    assert d.order == 3


# -- center, subgroup lattice, Frattini ------------------------------------

def test_center_q8():
    Z = center(quaternion_group())
    assert Z.order == 2


def test_center_s3_trivial():
    assert center(symmetric_group(3)).order == 1


def _brute_center(G):
    return tuple(
        x for x in G.elements() if all(G.mul(x, g) == G.mul(g, x) for g in G.elements())
    )


def test_center_matches_brute_force_on_the_catalog():
    from amalgam.oracle import solvable_catalog

    for G in solvable_catalog(24):
        Z = center(G)
        assert Z.parent is G
        assert Z.elements == _brute_center(G)


def test_center_matches_brute_force_on_q8_cubed():
    G, _, _ = direct_product([quaternion_group()] * 3)
    t = G.table
    # every column compared with every row: |G|^2 products
    brute = tuple(np.flatnonzero((t == t.T).all(axis=1)).tolist())
    assert center(G).elements == brute
    assert len(brute) == 8


def test_all_subgroups_q8():
    subs = all_subgroups(quaternion_group())
    assert [s.order for s in subs] == [1, 2, 4, 4, 4, 8]


def test_frattini_q8():
    G = quaternion_group()
    f = frattini(G)
    assert f.order == 2
    assert set(f.elements) == set(center(G).elements)


def test_frattini_klein_trivial():
    f = frattini(product_of_cyclics(2, 2))
    assert f.order == 1


def test_frattini_trivial_group_is_whole():
    G = cyclic_group(1)
    assert frattini(G).order == 1
    assert maximal_subgroups(G) == []


def test_frattini_cap():
    with pytest.raises(ClosureCapExceeded):
        all_subgroups(cyclic_group(6), cap=4)


def test_maximal_subgroups_d4():
    maxes = maximal_subgroups(dihedral_group(4))
    assert sorted(m.order for m in maxes) == [4, 4, 4]


# -- quotients and products -------------------------------------------------

def test_quotient_s3_by_a3():
    G = symmetric_group(3)
    A3 = subgroup_closure(G, [next(x for x in G.elements() if G.element_order(x) == 3)])
    Q, proj = quotient_group(G, A3)
    assert Q.order == 2
    assert set(proj.images) == set(Q.elements())
    assert kernel(proj) == A3.elements


def test_quotient_requires_normal():
    G = symmetric_group(3)
    H = subgroup_closure(G, [next(x for x in G.elements() if G.element_order(x) == 2)])
    with pytest.raises(NotNormal):
        quotient_group(G, H)


def old_quotient_group(G, N):
    """quotient_group as first written: |G|*|N| conjugations, a Python double loop."""
    if not N.is_normal():
        raise NotNormal(f"subgroup of order {N.order} is not normal")
    rep_of = [-1] * G.order
    for x in G.elements():
        if rep_of[x] != -1:
            continue
        coset = sorted(G.mul(x, n) for n in N.elements)
        for y in coset:
            rep_of[y] = coset[0]
    reps = sorted(set(rep_of))
    idx = {r: i for i, r in enumerate(reps)}
    table = [[idx[rep_of[G.mul(a, b)]] for b in reps] for a in reps]
    gen_imgs = sorted({idx[rep_of[g]] for g in G.generator_indices} - {0})
    Q = FiniteGroup(
        table,
        generator_indices=tuple(gen_imgs) if len(reps) > 1 else (),
        labels=tuple(f"[{G.label(r)}]" for r in reps),
        name=f"{G.name or G.order}/{N.order}",
    )
    return Q, GroupHom(G, Q, tuple(idx[rep_of[x]] for x in G.elements()))


def test_quotient_normality_matches_is_normal_on_every_subgroup_of_s4():
    G = symmetric_group(4)
    subs = all_subgroups(G)
    assert len(subs) == 30
    for H in subs:
        if H.is_normal():
            Q, proj = quotient_group(G, H)
            assert Q.order * H.order == G.order
            assert kernel(proj) == H.elements
        else:
            with pytest.raises(NotNormal, match=f"^subgroup of order {H.order} is not normal$"):
                quotient_group(G, H)


def _s4xs4_over_derived():
    P, _, _ = direct_product([symmetric_group(4), symmetric_group(4)])
    return P, commutator_subgroup(P, whole_group(P), whole_group(P))


def _c1024_over_order_two():
    C = cyclic_group(1024)
    return C, subgroup_closure(C, [512])


def _q8_cubed_over_normal_closure():
    Q8 = quaternion_group()
    P, inj, _ = direct_product([Q8, Q8, Q8])
    i, j, z = (Q8.labels.index(s) for s in ("i", "j", "-1"))
    seed = P.mul(P.mul(inj[0].apply(i), inj[1].apply(j)), inj[2].apply(z))
    return P, normal_closure(P, [seed])


@pytest.mark.parametrize(
    "make", [_s4xs4_over_derived, _c1024_over_order_two, _q8_cubed_over_normal_closure]
)
def test_quotient_matches_old_construction(make):
    G, N = make()
    Q, proj = quotient_group(G, N)
    Q0, proj0 = old_quotient_group(G, N)
    assert 1 < Q.order < G.order
    assert np.array_equal(Q.table, Q0.table)
    assert (Q.labels, Q.generator_indices, Q.name) == (Q0.labels, Q0.generator_indices, Q0.name)
    assert proj.images == proj0.images


def test_direct_product_injections_projections():
    P, injs, projs = direct_product([cyclic_group(2), cyclic_group(3)])
    assert P.order == 6
    for i, inj in enumerate(injs):
        assert inj.is_injective()
        assert injs[i].then(projs[i]).images == identity_hom(inj.source).images
    # images of different injections commute
    a = injs[0].apply(1)
    b = injs[1].apply(1)
    assert P.mul(a, b) == P.mul(b, a)


def test_direct_product_cap():
    with pytest.raises(ClosureCapExceeded):
        direct_product([cyclic_group(100), cyclic_group(100)], max_order=5000)


# -- abelian invariants ------------------------------------------------------

def test_abelian_invariants_s3():
    assert abelian_invariants(symmetric_group(3)) == [2]


def test_abelian_invariants_q8():
    assert abelian_invariants(quaternion_group()) == [2, 2]


def test_abelian_invariants_c6():
    assert abelian_invariants(cyclic_group(6)) == [6]


def test_abelian_invariants_perfectish():
    # A5 is perfect: trivial abelianization
    assert abelian_invariants(alternating_group(5)) == []


def test_abelian_invariants_c2xc4():
    assert abelian_invariants(product_of_cyclics(2, 4)) == [2, 4]


@pytest.mark.parametrize(
    "G",
    [
        cyclic_group(1),
        cyclic_group(12),
        product_of_cyclics(2, 2, 4),
        product_of_cyclics(6, 4),
        product_of_cyclics(3, 9),
        symmetric_group(3),
        symmetric_group(4),
        alternating_group(4),
        dihedral_group(4),
        dihedral_group(6),
        quaternion_group(),
    ],
    ids=lambda G: G.name,
)
def test_abelian_invariants_match_relator_presentation(G):
    assert abelian_invariants(G) == relator_invariants(G)


def test_abelian_invariants_c3xc9xc9_as_permutations():
    G = group_from_permutations(
        21,
        [
            perm_from_cycles(21, [(1, 2, 3)]),
            perm_from_cycles(21, [tuple(range(4, 13))]),
            perm_from_cycles(21, [tuple(range(13, 22))]),
        ],
    )
    assert G.order == 243
    assert abelian_invariants(G) == [3, 9, 9]


# -- homomorphisms -----------------------------------------------------------

def test_hom_sign_map():
    G = symmetric_group(3)
    C2 = cyclic_group(2)
    images = tuple(0 if G.element_order(x) in (1, 3) else 1 for x in G.elements())
    h = GroupHom(G, C2, images)
    assert set(h.images) == set(C2.elements())
    assert len(kernel(h)) == 3


def test_hom_rejects_non_multiplicative():
    G = cyclic_group(4)
    with pytest.raises(NotAHomomorphism):
        GroupHom(G, cyclic_group(2), (0, 1, 1, 0))


def full_hom_check(source, target, images):
    """Multiplicativity on all |G|^2 pairs: None, or the message for the
    first failing pair in row-major order."""
    for x in source.elements():
        for y in source.elements():
            if images[source.mul(x, y)] != target.mul(images[x], images[y]):
                return f"map is not multiplicative at pair ({x}, {y})"
    return None


def test_hom_generator_check_matches_full_check():
    rng = random.Random(418)
    groups = [
        cyclic_group(1),
        cyclic_group(2),
        cyclic_group(6),
        symmetric_group(3),
        quaternion_group(),
        dihedral_group(4),
        direct_product([cyclic_group(2), cyclic_group(2)])[0],
    ]
    seen = {"hom": 0, "bad": 0}
    for _ in range(400):
        G, T = rng.choice(groups), rng.choice(groups)
        kind = rng.randrange(4)
        if kind == 0:
            images = [rng.randrange(T.order) for _ in G.elements()]
        elif kind == 3 and G.small_generators:
            # multiplicative along the first generator g only: phi(r g^k) =
            # t_r a^k for random t_r per coset r<g> (t = 1 on <g>), a^|g| = 1
            g = G.small_generators[0]
            a = rng.choice([y for y in T.elements() if G.element_order(g) % T.element_order(y) == 0])
            images = [None] * G.order
            for x in (G.identity, *G.elements()):
                if images[x] is None:
                    t = T.identity if x == G.identity else rng.randrange(T.order)
                    for k in range(G.element_order(g)):
                        images[G.mul(x, G.power(g, k))] = T.mul(t, T.power(a, k))
        else:
            # a homomorphism from generator images, when they extend to one
            try:
                h = hom_from_generator_images(
                    G, T, {g: rng.randrange(T.order) for g in G.generator_indices}
                )
            except NotAHomomorphism:
                continue
            images = list(h.images)
            if kind == 2:
                images[rng.randrange(G.order)] = rng.randrange(T.order)
        expected = full_hom_check(G, T, images)
        seen["hom" if expected is None else "bad"] += 1
        if expected is None:
            GroupHom(G, T, tuple(images))
        else:
            with pytest.raises(NotAHomomorphism) as exc:
                GroupHom(G, T, tuple(images))
            assert str(exc.value) == expected
    assert min(seen.values()) >= 30, seen


@pytest.mark.parametrize("cells", [1, 16])
def test_hom_failure_scan_in_row_blocks_names_the_same_pair(monkeypatch, cells):
    monkeypatch.setattr(groups, "_ROW_BLOCK_CELLS", cells)
    rng = random.Random(22)
    targets = [cyclic_group(2), cyclic_group(6), symmetric_group(3)]
    for G in (cyclic_group(6), symmetric_group(3), quaternion_group()):
        assert len(groups._row_blocks(G.order)) > 1
        for _ in range(40):
            T = rng.choice(targets)
            images = [rng.randrange(T.order) for _ in G.elements()]
            expected = full_hom_check(G, T, images)
            if expected is None:
                continue
            with pytest.raises(NotAHomomorphism) as exc:
                GroupHom(G, T, tuple(images))
            assert str(exc.value) == expected


def test_hom_failure_path_peaks_below_three_tables():
    # rejecting x -> x^2 on C2048 (an 8 MiB table) used to build two
    # |G| x |G| int64 arrays, 171 MiB, to name the first failing pair
    G = cyclic_group(2048)
    squares = tuple(x * x % G.order for x in G.elements())
    tracemalloc.start()
    try:
        with pytest.raises(NotAHomomorphism, match=r"at pair \(1, 1\)$"):
            GroupHom(G, G, squares)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * G.table.nbytes


def test_hom_from_generator_images_extends():
    G = symmetric_group(3)
    C2 = cyclic_group(2)
    gens = G.generator_indices
    h = hom_from_generator_images(G, C2, {gens[0]: 1, gens[1]: 0})
    assert len(kernel(h)) == 3


def test_hom_from_generator_images_rejects_bad():
    G = cyclic_group(3)
    with pytest.raises(NotAHomomorphism):
        hom_from_generator_images(G, cyclic_group(2), {1: 1})


def test_subgroup_validation():
    G = symmetric_group(3)
    x = next(e for e in G.elements() if G.element_order(e) == 3)
    with pytest.raises(InvalidGroup):
        subgroup(G, [0, x])  # missing x^2, not closed
    ok = subgroup(G, [0, x, G.mul(x, x)])
    assert ok.order == 3


# -- pinned permutation-group outputs ----------------------------------------
# Each row pins one group_from_permutations build: the sha256 of its table
# bytes, of its labels joined by newlines, and its two generator tuples. A
# faster closure must number the elements, fill the table and format the
# labels exactly as these record.


def _perms(degree, *elements):
    return [perm_from_cycles(degree, cycles) for cycles in elements]


PINNED_PERMUTATION_GROUPS = [
    ("S1, no generators", lambda: group_from_permutations(1, []), 1,
     "96a296d224f285c67bee93c30f8a309157f0daa35dc5b87e410b78630a09cfc7",
     "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d", (), ()),
    ("S3", lambda: symmetric_group(3), 6,
     "14f6afd17c08d733cd3182516110f0b1aef918187fdaa1ba7ee17b5c64d72c4d",
     "a828604a173396bb74b68e59c75e24a3f7c146c320885d5256d6cf8103b84913", (1, 2), (1, 2)),
    ("Q8 on 8 points",
     lambda: group_from_permutations(
         8, _perms(8, [(1, 3, 2, 4), (5, 7, 6, 8)], [(1, 5, 2, 6), (3, 8, 4, 7)])), 8,
     "176e8e62eb0476db6842c0a6362496b18da11e61397d226fe8786113c2391b6a",
     "6b87cbadd88327eaf120e6310fac4dba0d7abb63c68bea5143e3cb131c459fc9", (1, 2), (1, 2)),
    ("A4", lambda: alternating_group(4), 12,
     "d359ea505ec5421e4f7c423677b916c7624bad3635fa596afc6bf52673848fc9",
     "f56e044145966fdf1296dcf3d02103570fda94e0c3b552f5d0d6479c69188f53", (1, 2), (1, 2)),
    ("S4xS4 on 8 points",
     lambda: group_from_permutations(
         8, _perms(8, [(1, 2)], [(1, 2, 3, 4)], [(5, 6)], [(5, 6, 7, 8)])), 576,
     "41df1597871a9b5f04aeddebe0c1a5ce52a0f931c9fa001737f41eacc927ac52",
     "49da940dffaeedc1e6a2b6884b73dacfbb3a96c170964abc5038f6ca98b98a3e",
     (1, 2, 3, 4), (1, 2, 3, 4)),
    ("C4^3 on 12 points",
     lambda: group_from_permutations(
         12, _perms(12, [(1, 2, 3, 4)], [(5, 6, 7, 8)], [(9, 10, 11, 12)])), 64,
     "d68b5296016459b09a91fab2d34a17d084f07ceaf6645047542b07be47594db3",
     "e24778789512ef55f800e55a1dd84b97613e8f6b07f6aa81118f3f053bc06d05", (1, 2, 3), (1, 2, 3)),
    ("identity and a duplicate among the generators",
     lambda: group_from_permutations(4, _perms(4, [(1, 2)], [], [(1, 2, 3, 4)], [(1, 2)])), 24,
     "7e2c052c49dda99dbedc642009b68609aeddef7e6d4e016c66c4ebc49b3833ae",
     "083c896f423e67cdc162c39677d48200386f1a6bec07ca85a8ad99850bdcce81", (1, 2), (1, 2)),
    ("1000-cycle", lambda: group_from_permutations(1000, _perms(1000, [tuple(range(1, 1001))])),
     1000,
     "8ffd7deb996ed327354c13f81574840dda00474a7e85ac45a4bcc6b53d811e84",
     "2957449f92b55c1abe1b35d1c4de8cc7f653c5baa448b3d285a51230b7a538d7", (1,), (1,)),
]


@pytest.mark.parametrize(
    "build, order, table_sha, labels_sha, gens, small",
    [row[1:] for row in PINNED_PERMUTATION_GROUPS],
    ids=[row[0] for row in PINNED_PERMUTATION_GROUPS],
)
def test_permutation_group_outputs_are_pinned(build, order, table_sha, labels_sha, gens, small):
    G = build()
    assert G.order == order
    assert hashlib.sha256(G.table.tobytes()).hexdigest() == table_sha
    assert hashlib.sha256("\n".join(G.labels).encode()).hexdigest() == labels_sha
    assert (G.generator_indices, G.small_generators) == (gens, small)
    assert [G.label(x) for x in G.elements()] == list(G.labels)


def test_permutation_closure_cap_message_is_pinned():
    with pytest.raises(ClosureCapExceeded) as exc:
        group_from_permutations(4, _perms(4, [(1, 2)], [(1, 2, 3, 4)]), max_order=23)
    assert str(exc.value) == "closure exceeded cap 23"
    assert exc.value.details == {"cap": 23}



# -- labels formatted on first use --------------------------------------------


def _cycles(label):
    return [tuple(map(int, c.split())) for c in re.findall(r"\(([^)]*)\)", label) if c]


def test_permutation_index_finds_every_element_by_its_images():
    G = symmetric_group(4)
    for x in G.elements():
        assert permutation_index(G, perm_from_cycles(4, _cycles(G.label(x)))) == x
    A4 = alternating_group(4)
    assert permutation_index(A4, perm_from_cycles(4, [(1, 2)])) is None
    assert permutation_index(A4, perm_from_cycles(5, [(1, 2, 3)])) is None
    with pytest.raises(InvalidGroup, match="not built from permutations"):
        permutation_index(cyclic_group(4), (0, 1, 2, 3))


def test_cyclic_labels():
    assert cyclic_group(1).labels == ("e",)
    assert cyclic_group(4).labels == ("e", "g", "g^2", "g^3")
    assert cyclic_group(12).label(11) == "g^11"


def test_direct_product_labels_are_the_factor_labels_in_mixed_radix():
    factors = [symmetric_group(3), cyclic_group(4), quaternion_group(), FiniteGroup([[0, 1], [1, 0]])]
    P = direct_product(factors)[0]
    expected = tuple(
        "(" + ",".join(t) + ")"
        for t in itertools.product(*[[g.label(x) for x in g.elements()] for g in factors])
    )
    assert [P.label(x) for x in P.elements()] == list(expected)
    assert P.labels == expected


def _s4_by_klein_four_beside_s4():
    """S4, S4/V4 and S4 x S4/V4, built the same way each time."""
    G = symmetric_group(4)
    V = normal_closure(G, [permutation_index(G, perm_from_cycles(4, [(1, 2), (3, 4)]))])
    Q = quotient_group(G, V)[0]
    return G, Q, direct_product([G, Q])[0]


def test_deferred_labels_keep_no_parent_table():
    G0, Q0, P0 = _s4_by_klein_four_beside_s4()
    assert Q0.labels == (
        "[()]", "[(1 2)]", "[(1 2 3 4)]", "[(2 3 4)]", "[(1 3 4)]", "[(1 3 4 2)]"
    )
    expected = tuple(f"({G0.label(a)},{Q0.label(b)})" for a in G0.elements() for b in Q0.elements())
    G, Q, P = _s4_by_klein_four_beside_s4()
    refs = [weakref.ref(G), weakref.ref(Q)]
    del G, Q
    gc.collect()
    assert [r() for r in refs] == [None, None]
    assert P.labels == expected
