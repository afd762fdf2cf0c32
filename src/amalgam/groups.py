"""Finite groups as explicit multiplication tables.

Elements are indices 0..order-1 into an order x order Cayley table, with the
identity always at index 0 for groups built by the constructors here. Every
constructor verifies the group axioms exactly (associativity by Light's test
on a generating set, O(n^2) per generator), so any FiniteGroup that exists
behaves like one.

Each table is one read-only, C-contiguous array in the narrowest signed
integer type that holds its indices: int16 up to order 2^15, int32 above.
The constructors build their tables in that type, and validation reads the
table in blocks of rows of about 2^17 cells, small enough to stay in cache, so
no temporary the size of the whole table is made beyond the group's own copy.
Light's test permutes the columns of each block with np.take. Single products
and inverses are read through a memoryview of the table, which yields Python
ints without a copy. Closures grow one generator at a time: the span already
reached is multiplied by the new generator, and only new elements by all of
them.

Permutation groups are closed one breadth-first layer at a time on arrays of
images in the narrowest unsigned point type, with one gather per layer and
one lookup of each product's bytes, and their tables are filled one layer at
a time, or one element at a time in Python lists up to order 32. Labels are
display-only: the constructors here hand FiniteGroup a function that formats
one label on first use, from the permutations or from the factors' labels,
never from a parent's table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from math import prod

import numpy as np

from .errors import (
    ClosureCapExceeded,
    ElementOutOfRange,
    InvalidGroup,
    NotAHomomorphism,
    NotAPermutation,
    NotNormal,
)

DEFAULT_MAX_ORDER = 5000
DEFAULT_LATTICE_CAP = 256
# table validation reads the rows in blocks of about this many cells
_ROW_BLOCK_CELLS = 1 << 17
# permutation groups up to this order fill their tables in Python lists: a
# few hundred cells cost less than the numpy calls of a fill by layers
_LIST_FILL_ORDER = 32


def _index_dtype(order: int):
    """The narrowest signed integer type that holds every index below order."""
    return np.int16 if order <= 1 << 15 else np.int32


def _row_blocks(n: int):
    """Slices covering the rows of an n x n table, about _ROW_BLOCK_CELLS cells each."""
    step = max(1, _ROW_BLOCK_CELLS // n)
    return [slice(lo, min(lo + step, n)) for lo in range(0, n, step)]


class FiniteGroup:
    """A finite group given by its full multiplication table.

    table[a][b] is the index of the product a*b. generator_indices must
    generate the whole group and default to every nonidentity element;
    small_generators is a generating set of at most log2(order) of them,
    chosen greedily in order. labels are display-only and never enter any
    computation: a sequence of one string per element, or a function from an
    element to its label, called on first use. Two groups are equal exactly
    when their tables are equal.

    The entries must be in range and of a fixed-width integer type; floats,
    bools and integers too large for a machine integer raise InvalidGroup.
    The group keeps its own read-only, C-contiguous copy of the table, int16
    up to order 2^15 and int32 above, and `inverses` in the same type. The
    inverse and associativity checks read the table one block of rows at a
    time.
    """

    def __init__(self, table, generator_indices=None, labels=None, name: str = ""):
        try:
            t = np.asarray(table)
        except ValueError:  # numpy's "inhomogeneous shape" for ragged rows
            raise InvalidGroup("table rows differ in length") from None
        if t.ndim != 2 or t.shape[0] != t.shape[1]:
            raise InvalidGroup(f"table shape {t.shape} is not square")
        n = int(t.shape[0])
        if n == 0:
            raise InvalidGroup("a group has at least the identity")
        if t.dtype.kind not in "iu":
            raise InvalidGroup(f"table entries of type {t.dtype} are not fixed-width integers")
        # range first, in the given type, so that no entry wraps when narrowed
        if t.min() < 0 or t.max() >= n:
            raise InvalidGroup("table entries out of range")
        t = np.array(t, dtype=_index_dtype(n), order="C")
        t.setflags(write=False)
        self.order = n
        self.table = t
        # cells[a, b] is a * b as a Python int, read without a copy
        self._cells = memoryview(t)

        # e * 0 = 0 only for e = the identity of a group, so only the rows
        # with t[e, 0] == 0 can hold the least two-sided identity
        ar = np.arange(n, dtype=t.dtype)
        for e in np.flatnonzero(t[:, 0] == 0).tolist():
            if np.array_equal(t[e], ar) and np.array_equal(t[:, e], ar):
                break
        else:
            raise InvalidGroup("no two-sided identity in table")
        self.identity = ident = e

        blocks = _row_blocks(n)
        inv = np.empty(n, dtype=t.dtype)
        for rows in blocks:
            hits = t[rows] == ident
            inv[rows] = hits.argmax(axis=1)
            bad = (hits.sum(axis=1) != 1) | (t[inv[rows], ar[rows]] != ident)
            if bad.any():
                raise InvalidGroup(
                    f"element {rows.start + int(bad.argmax())} lacks a unique two-sided inverse"
                )
        inv.setflags(write=False)
        self.inverses = inv
        self._inv_cells = memoryview(inv)

        if generator_indices is None:
            generator_indices = tuple(x for x in range(n) if x != ident)
        self.generator_indices = tuple(int(g) for g in generator_indices)
        # Associativity is tested on a generating set, so generation comes
        # first; declared generators that fall short are extended for the test
        # and reported after it, keeping the order in which errors are raised.
        gens, span = _greedy_generators(
            self, [g for g in self.generator_indices if 0 <= g < n]
        )
        reached = len(span)
        if reached < n:
            gens, _ = _greedy_generators(self, gens + list(range(n)))
        # Light's test. Let S be the set of a with (xa)y = x(ay) for all x, y.
        # S holds the identity, and a, b in S give (x(ab))y = ((xa)b)y =
        # (xa)(by) = x(a(by)) = x((ab)y), so S holds everything gens reach.
        for a in gens:
            if not all(
                np.array_equal(t[t[rows, a]], np.take(t[rows], t[a], axis=1)) for rows in blocks
            ):
                first = next(
                    x
                    for x in range(n)
                    if not all(
                        np.array_equal(t[t[x, rows]], t[x][t[rows]]) for rows in blocks
                    )
                )
                raise InvalidGroup(f"associativity fails at element {first}")
        self.small_generators = tuple(gens)

        for g in self.generator_indices:
            if not 0 <= g < n:
                raise ElementOutOfRange(f"generator index {g} out of range", index=g)
        if reached < n:
            raise InvalidGroup("generator_indices do not generate the group")

        self._labels = None  # every label, once formatted or given
        self._label_of = None  # element -> label, for labels formatted on first use
        if callable(labels):
            self._label_of = labels
        elif labels is not None:
            labels = tuple(str(s) for s in labels)
            if len(labels) != n:
                raise InvalidGroup(f"{len(labels)} labels for {n} elements")
            self._labels = labels
        self.name = name
        self._series = {}  # kind -> SeriesChain, filled by series()

    def check(self, x) -> int:
        """x itself, once it is known to be an element index of this group."""
        if not isinstance(x, int) or not 0 <= x < self.order:
            raise ElementOutOfRange(f"element {x!r} out of range", index=x)
        return x

    def mul(self, a: int, b: int) -> int:
        return self._cells[a, b]

    def inv(self, a: int) -> int:
        return self._inv_cells[a]

    def conjugate(self, x: int, by: int) -> int:
        return self.mul(self.mul(by, x), self.inv(by))

    def power(self, a: int, k: int) -> int:
        """a^k by square-and-multiply, so the cost is logarithmic in |k|."""
        if k < 0:
            a, k = self.inv(a), -k
        out = self.identity
        while k:
            if k & 1:
                out = self.mul(out, a)
            k >>= 1
            if k:
                a = self.mul(a, a)
        return out

    def element_order(self, a: int) -> int:
        cells, x, k = self._cells, a, 1
        while x != self.identity:
            x = cells[x, a]
            k += 1
        return k

    def elements(self) -> range:
        return range(self.order)

    def label(self, a: int) -> str:
        if self._labels is not None:
            return self._labels[a]
        if self._label_of is not None:
            return self._label_of(a)
        return str(a)

    @property
    def labels(self) -> tuple[str, ...] | None:
        """Every element's label in index order; None for a group built without."""
        if self._labels is None and self._label_of is not None:
            self._labels = tuple(map(self._label_of, range(self.order)))
        return self._labels

    def _labeler(self):
        """label as a function that keeps nothing of this group's table."""
        if self._labels is not None:
            return self._labels.__getitem__
        return self._label_of or str

    def __eq__(self, other):
        return isinstance(other, FiniteGroup) and np.array_equal(self.table, other.table)

    def __hash__(self):
        return hash(self.table.tobytes())

    def __repr__(self):
        tag = f" {self.name}" if self.name else ""
        return f"FiniteGroup(order {self.order}{tag})"


def _extend_span(G: FiniteGroup, span: set[int], gens: list[int], new: int) -> None:
    """Add new to gens and grow span to what gens now reach.

    span must hold exactly what gens reach from the identity by right
    products. Each element of span is multiplied by new, and each element
    this adds by every generator, so span ends up holding what gens + [new]
    reach, the same set a search from the identity finds. No associativity
    is assumed.
    """
    cells = G._cells
    gens.append(new)
    frontier = []
    for x in list(span):
        y = cells[x, new]
        if y not in span:
            span.add(y)
            frontier.append(y)
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = cells[x, g]
            if y not in span:
                span.add(y)
                frontier.append(y)


def _greedy_generators(G: FiniteGroup, candidates) -> tuple[list[int], set[int]]:
    """The candidates, in order, that lie outside the span of those kept before.

    Returns the kept elements and their span, everything reached from the
    identity by right products with them. No associativity is assumed, so
    this runs inside FiniteGroup before Light's test; in a group the span is
    the subgroup the candidates generate, and each kept element at least
    doubles it, so at most log2(order) are kept.
    """
    gens: list[int] = []
    span = {G.identity}
    for c in candidates:
        if c not in span:
            _extend_span(G, span, gens, c)
    return gens, span


def _normal_closure_from(G: FiniteGroup, seeds, conjugators) -> set[int]:
    """Smallest subgroup holding the seeds and normalised by the conjugators.

    A subgroup is normalised by a finite group once each conjugator maps each
    of its generators into it, so only the generators kept here are conjugated.
    """
    gens: list[int] = []
    span = {G.identity}
    queue = list(seeds)
    while queue:
        x = queue.pop()
        if x in span:
            continue
        _extend_span(G, span, gens, x)
        queue.extend(G.conjugate(x, c) for c in conjugators)
    return span


@dataclass(frozen=True)
class Subgroup:
    """A subgroup of `parent`, stored as its sorted element indices."""

    parent: FiniteGroup
    elements: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    def contains(self, x: int) -> bool:
        return x in self._members

    @cached_property
    def _members(self) -> frozenset:
        """The elements as a set, built on first use (not a dataclass field)."""
        return frozenset(self.elements)

    def is_whole(self) -> bool:
        return self.order == self.parent.order

    def is_trivial(self) -> bool:
        return self.order == 1

    def is_normal(self) -> bool:
        G = self.parent
        members = self._members
        return all(
            G.conjugate(h, g) in members for h in self.elements for g in G.elements()
        )

    def __repr__(self):
        return f"Subgroup(order {self.order} of {self.parent!r})"


def subgroup(G: FiniteGroup, elements) -> Subgroup:
    """Validated subgroup from an explicit element set."""
    elems = [G.check(x) for x in sorted({int(x) for x in elements})]
    s = set(elems)
    if G.identity not in s:
        raise InvalidGroup("subgroup must contain the identity")
    for a in elems:
        if G.inv(a) not in s:
            raise InvalidGroup(f"subgroup not closed under inversion at {a}")
        for b in elems:
            if G.mul(a, b) not in s:
                raise InvalidGroup(f"subgroup not closed at {a}*{b}")
    return Subgroup(G, tuple(elems))


def whole_group(G: FiniteGroup) -> Subgroup:
    return Subgroup(G, tuple(range(G.order)))


def subgroup_closure(G: FiniteGroup, seeds) -> Subgroup:
    seeds = [G.check(int(x)) for x in seeds]
    return Subgroup(G, tuple(sorted(_greedy_generators(G, seeds)[1])))


def normal_closure(G: FiniteGroup, seeds) -> Subgroup:
    """Smallest normal subgroup of G containing the seeds."""
    seeds = [G.check(int(x)) for x in seeds]
    return Subgroup(G, tuple(sorted(_normal_closure_from(G, seeds, G.small_generators))))


def commutator_subgroup(G: FiniteGroup, H: Subgroup, K: Subgroup) -> Subgroup:
    """[H, K]: normal closure in <H, K> of the commutators [h, k].

    With H = <X> and K = <Y>, the commutators of X with Y suffice (Holt, Eick
    & O'Brien, Handbook of Computational Group Theory, 2005, ch. 3).
    """
    if H.parent is not G or K.parent is not G:
        raise InvalidGroup("subgroups must live in the given group")
    X, _ = _greedy_generators(G, H.elements)
    Y = X if K.elements == H.elements else _greedy_generators(G, K.elements)[0]
    coms = [G.mul(G.mul(h, k), G.mul(G.inv(h), G.inv(k))) for h in X for k in Y]
    return Subgroup(G, tuple(sorted(_normal_closure_from(G, coms, X + Y))))


@dataclass(frozen=True)
class SeriesChain:
    """A descending chain of subgroups produced by an iterated commutator."""

    kind: str
    terms: tuple[Subgroup, ...]

    @property
    def orders(self) -> tuple[int, ...]:
        return tuple(t.order for t in self.terms)

    def stabilizes_trivial(self) -> bool:
        return self.terms[-1].is_trivial()


def series(G: FiniteGroup, kind: str = "derived") -> SeriesChain:
    """Derived or lower-central series, strictly descending until stable.

    A nontrivial stable term is repeated once to witness stabilization; the
    trivial term never is. The table is read-only, so each chain is computed
    once per group object and kind, and later calls return the same chain.
    """
    if kind not in ("derived", "lower-central"):
        raise InvalidGroup(f"unknown series kind {kind!r}")
    if kind in G._series:
        return G._series[kind]
    top = whole_group(G)
    terms = [top]
    while True:
        cur = terms[-1]
        if kind == "derived":
            nxt = commutator_subgroup(G, cur, cur)
        else:
            nxt = commutator_subgroup(G, top, cur)
        if nxt.elements == cur.elements:
            if not cur.is_trivial():
                terms.append(nxt)
            break
        terms.append(nxt)
        if nxt.is_trivial():
            break
    G._series[kind] = SeriesChain(kind=kind, terms=tuple(terms))
    return G._series[kind]


def is_solvable(G: FiniteGroup) -> bool:
    return series(G, "derived").stabilizes_trivial()


def is_nilpotent(G: FiniteGroup) -> bool:
    return series(G, "lower-central").stabilizes_trivial()


def derived_subgroup(G: FiniteGroup) -> Subgroup:
    """[G, G], the second term of the cached derived series."""
    terms = series(G, "derived").terms
    return terms[1] if len(terms) > 1 else terms[0]


def derived_length(G: FiniteGroup) -> int:
    """Number of strict steps in the derived series (0 for the trivial group)."""
    chain = series(G, "derived")
    if not chain.stabilizes_trivial():
        from .errors import NotSolvable

        raise NotSolvable(f"group of order {G.order} is not solvable")
    return len(chain.terms) - 1


def center(G: FiniteGroup) -> Subgroup:
    """Elements commuting with every small generator, hence with all of G."""
    t = G.table
    central = np.ones(G.order, dtype=bool)
    for g in G.small_generators:
        central &= t[:, g] == t[g, :]
    return Subgroup(G, tuple(np.flatnonzero(central).tolist()))


def all_subgroups(G: FiniteGroup, cap: int = DEFAULT_LATTICE_CAP) -> list[Subgroup]:
    """Every subgroup of G, exhaustively. Guarded by the lattice cap."""
    if G.order > cap:
        raise ClosureCapExceeded(
            f"subgroup enumeration needs order <= {cap}, got {G.order}",
            cap=cap,
            order=G.order,
        )
    # each subgroup found is kept with the generators that built it, so that
    # <base, g> grows from base by one _extend_span
    trivial = (G.identity,)
    seen = {trivial}
    frontier = [(trivial, [])]
    while frontier:
        base, base_gens = frontier.pop()
        base_set = set(base)
        for g in G.elements():
            if g in base_set:
                continue
            span, gens = set(base_set), list(base_gens)
            _extend_span(G, span, gens, g)
            closed = tuple(sorted(span))
            if closed not in seen:
                seen.add(closed)
                frontier.append((closed, gens))
    return [Subgroup(G, elems) for elems in sorted(seen, key=lambda e: (len(e), e))]


def maximal_subgroups(G: FiniteGroup, cap: int = DEFAULT_LATTICE_CAP) -> list[Subgroup]:
    subs = [s for s in all_subgroups(G, cap) if not s.is_whole()]
    out = []
    for s in subs:
        if not any(s is not t and s._members < t._members for t in subs):
            out.append(s)
    return out


def frattini(G: FiniteGroup, cap: int = DEFAULT_LATTICE_CAP) -> Subgroup:
    """Intersection of the maximal subgroups; the whole group if none exist."""
    maxes = maximal_subgroups(G, cap)
    if not maxes:
        return whole_group(G)
    common = set(maxes[0].elements)
    for m in maxes[1:]:
        common &= m._members
    return Subgroup(G, tuple(sorted(common)))


@dataclass(frozen=True)
class GroupHom:
    """A verified homomorphism between finite groups, as a total image map."""

    source: FiniteGroup
    target: FiniteGroup
    images: tuple[int, ...]

    def __post_init__(self):
        if len(self.images) != self.source.order:
            raise NotAHomomorphism(
                f"{len(self.images)} images for {self.source.order} elements"
            )
        im = np.array(self.images, dtype=np.int64)
        if im.min() < 0 or im.max() >= self.target.order:
            raise ElementOutOfRange("image index out of range")
        # Checked on generators. Let S be the set of g with phi(xg) =
        # phi(x)phi(g) for all x. For a, b in S, x = a gives phi(ab) =
        # phi(a)phi(b), so phi(x(ab)) = phi((xa)b) = phi(x)phi(a)phi(b) =
        # phi(x)phi(ab): S is closed under products, and in a finite group
        # products of generators reach everything. The identity column covers
        # the order-1 group, which has no generators: phi(e) = phi(e)phi(e).
        src, tgt = self.source.table, self.target.table
        cols = np.array((self.source.identity, *self.source.small_generators))
        if not (im[src[:, cols]] == tgt[im[:, None], im[cols]]).all():
            # a scan in row blocks names the first failing pair in row-major order
            for rows in _row_blocks(self.source.order):
                bad = im[src[rows]] != tgt[im[rows, None], im[None, :]]
                if bad.any():
                    x, y = divmod(int(bad.argmax()), self.source.order)
                    raise NotAHomomorphism(
                        f"map is not multiplicative at pair ({rows.start + x}, {y})"
                    )

    def apply(self, x: int) -> int:
        return self.images[x]

    def then(self, other: GroupHom) -> GroupHom:
        if other.source is not self.target and other.source != self.target:
            raise NotAHomomorphism("composition target/source mismatch")
        return GroupHom(
            self.source, other.target, tuple(other.images[i] for i in self.images)
        )

    def is_injective(self) -> bool:
        return len(set(self.images)) == self.source.order


def identity_hom(G: FiniteGroup) -> GroupHom:
    return GroupHom(G, G, tuple(range(G.order)))


def hom_from_generator_images(
    source: FiniteGroup, target: FiniteGroup, gen_images: dict[int, int]
) -> GroupHom:
    """Extend images of a generating set to a full verified homomorphism.

    Extension proceeds by closure; any inconsistency means the images do not
    define a homomorphism.
    """
    for g in gen_images:
        if g not in source.generator_indices:
            raise NotAHomomorphism(f"{g} is not a declared generator")
    missing = [g for g in source.generator_indices if g not in gen_images]
    if missing:
        raise NotAHomomorphism(f"no image given for generator(s) {missing}")
    images: dict[int, int] = {source.identity: target.identity}
    frontier = [source.identity]
    while frontier:
        x = frontier.pop()
        for g in source.generator_indices:
            y = source.mul(x, g)
            img = target.mul(images[x], gen_images[g])
            if y in images:
                if images[y] != img:
                    raise NotAHomomorphism(
                        f"generator images are inconsistent at element {y}"
                    )
            else:
                images[y] = img
                frontier.append(y)
    return GroupHom(source, target, tuple(images[x] for x in source.elements()))


def _coset_label(label_of, reps, x: int) -> str:
    return f"[{label_of(reps[x])}]"


def _product_label(factor_labels, sizes, x: int) -> str:
    digits = []
    for s in reversed(sizes):  # the first factor is the most significant digit
        x, d = divmod(x, s)
        digits.append(d)
    return "(" + ",".join(f(d) for f, d in zip(factor_labels, reversed(digits))) + ")"


def quotient_group(G: FiniteGroup, N: Subgroup) -> tuple[FiniteGroup, GroupHom]:
    """G/N with the canonical projection. N must be normal.

    Normality is tested by conjugating N by G.small_generators against a
    membership mask. For a finite set N, gNg^-1 within N for every generator
    g already gives equality, hence closure under the group they generate,
    so this agrees with Subgroup.is_normal. The coset xN is represented by
    its least element, the minimum of x*n over n in N, and numbered by the
    rank of that representative; the table of G/N numbers the products of
    the representatives.
    """
    if N.parent is not G and N.parent != G:
        raise InvalidGroup("subgroup belongs to a different group")
    t = G.table
    members = np.zeros(G.order, dtype=bool)
    elems = np.array(N.elements, dtype=np.int64)
    members[elems] = True
    for g in G.small_generators:
        if not members[t[t[g, elems], G.inverses[g]]].all():
            raise NotNormal(f"subgroup of order {N.order} is not normal")
    rep_of = t[:, elems[0]]
    for n in elems[1:]:
        rep_of = np.minimum(rep_of, t[:, n])
    is_rep = rep_of == np.arange(G.order)
    reps = np.flatnonzero(is_rep)
    label = (np.cumsum(is_rep) - 1)[rep_of]
    gen_imgs = sorted({int(label[g]) for g in G.generator_indices} - {0})
    Q = FiniteGroup(
        label[t[np.ix_(reps, reps)]],
        generator_indices=tuple(gen_imgs) if len(reps) > 1 else (),
        labels=partial(_coset_label, G._labeler(), reps.tolist()),
        name=f"{G.name or G.order}/{N.order}",
    )
    proj = GroupHom(G, Q, tuple(label.tolist()))
    return Q, proj


def direct_product(
    groups, max_order: int = DEFAULT_MAX_ORDER
) -> tuple[FiniteGroup, list[GroupHom], list[GroupHom]]:
    """Direct product with its injections and projections."""
    groups = list(groups)
    if not groups:
        raise InvalidGroup("empty product")
    n = prod(g.order for g in groups)
    if n > max_order:
        raise ClosureCapExceeded(
            f"product order {n} exceeds cap {max_order}", cap=max_order, order=n
        )
    sizes = [g.order for g in groups]
    # mixed radix, first factor most significant: x = sum of digit_i * weight_i
    weights = [prod(sizes[i + 1 :]) for i in range(len(sizes))]
    table = np.zeros((1, 1), dtype=_index_dtype(n))
    for g in groups:
        m, s = table.shape[0], g.order
        table = (table[:, None, :, None] * s + g.table[None, :, None, :]).reshape(m * s, m * s)
    base = sum(w * g.identity for w, g in zip(weights, groups))
    gens = [
        base + w * (gen - g.identity)
        for w, g in zip(weights, groups)
        for gen in g.generator_indices
    ]
    P = FiniteGroup(
        table,
        generator_indices=tuple(dict.fromkeys(gens)),
        labels=partial(_product_label, tuple(g._labeler() for g in groups), tuple(sizes)),
        name="x".join(g.name or str(g.order) for g in groups),
    )
    everything = np.arange(n)
    injections = []
    projections = []
    for w, s, g in zip(weights, sizes, groups):
        imgs = tuple(base + w * (x - g.identity) for x in g.elements())
        injections.append(GroupHom(g, P, imgs))
        projections.append(GroupHom(P, g, tuple((everything // w % s).tolist())))
    return P, injections, projections


def abelian_invariants(G: FiniteGroup) -> list[int]:
    """Invariant factors of G/[G,G] (unit factors dropped).

    For a prime p, write the p-parts of the invariant factors as p^e_1, ...,
    p^e_r. The number c_k of cosets xG' with x^(p^k) in G' is then
    p^(min(e_1, k) + ... + min(e_r, k)), so c_k / c_(k-1) = p^(number of e_i >= k).
    """
    whole = whole_group(G)
    D = commutator_subgroup(G, whole, whole)
    in_D = np.zeros(G.order, dtype=bool)
    in_D[list(D.elements)] = True
    # order of every x modulo G', by walking all powers x^k at once
    ar = np.arange(G.order)
    orders = np.zeros(G.order, dtype=np.int64)
    power, k = ar, 1
    while not orders.all():
        orders[(orders == 0) & in_D[power]] = k
        power = G.table[power, ar]
        k += 1
    exponents = []  # per prime p dividing |G/G'|: the e_i, largest first
    rest, p = G.order // D.order, 1
    while rest > 1:
        p += 1
        if rest % p:
            continue
        while rest % p == 0:
            rest //= p
        at_least = []  # at_least[k - 1] = number of e_i >= k
        q, prev = p, 1
        while True:
            count = int(np.count_nonzero(q % orders == 0)) // D.order
            rank, step = 0, count // prev
            while step > 1:
                step //= p
                rank += 1
            if rank == 0:
                break
            at_least.append(rank)
            q, prev = q * p, count
        exponents.append(
            (p, [sum(r >= i for r in at_least) for i in range(1, at_least[0] + 1)])
        )
    width = max((len(es) for _, es in exponents), default=0)
    factors = [
        prod(p ** es[j] for p, es in exponents if j < len(es)) for j in range(width)
    ]
    return factors[::-1]


# -- constructors ------------------------------------------------------------

def perm_from_cycles(degree: int, cycles) -> tuple[int, ...]:
    """Permutation (as an image tuple) from disjoint-or-not cycle notation.

    Cycles are applied right to left, matching composition p*q = "q then p".
    """
    images = list(range(degree))
    for cycle in reversed(list(cycles)):
        pts = [int(p) - 1 for p in cycle]
        for p in pts:
            if not 0 <= p < degree:
                raise NotAPermutation(f"point {p + 1} outside degree {degree}")
        if len(set(pts)) != len(pts):
            raise NotAPermutation(f"repeated point in cycle {tuple(cycle)}")
        step = {pts[i]: pts[(i + 1) % len(pts)] for i in range(len(pts))}
        images = [step.get(images[i], images[i]) for i in range(degree)]
    return tuple(images)


def cycle_label(perm: tuple[int, ...]) -> str:
    """Cycle notation with 1-based points; the identity prints as ()."""
    seen = set()
    parts = []
    for start in range(len(perm)):
        if start in seen or perm[start] == start:
            seen.add(start)
            continue
        cyc = [start]
        seen.add(start)
        nxt = perm[start]
        while nxt != start:
            cyc.append(nxt)
            seen.add(nxt)
            nxt = perm[nxt]
        parts.append("(" + " ".join(str(p + 1) for p in cyc) + ")")
    return "".join(parts) if parts else "()"


def _point_dtype(degree: int):
    """The narrowest unsigned integer type that holds every point below degree."""
    return np.uint8 if degree <= 1 << 8 else np.uint16 if degree <= 1 << 16 else np.uint32


class _Permutations:
    """The elements of a permutation group, kept by the group they build.

    elements[x] is the bytes of element x's images, in the point type
    `dtype`, and index maps those bytes back to x. They format a label on
    first use and find the index of a permutation without formatting any.
    """

    __slots__ = ("elements", "index", "dtype", "degree")

    def __init__(self, index: dict, dtype, degree: int):
        self.elements = list(index)
        self.index = index
        self.dtype = np.dtype(dtype)
        self.degree = degree

    def __call__(self, x: int) -> str:
        # an unsigned numpy type's char is the struct format of its items
        return cycle_label(memoryview(self.elements[x]).cast(self.dtype.char).tolist())

    def find(self, perm) -> int | None:
        if len(perm) != self.degree:
            return None
        return self.index.get(np.asarray(perm, dtype=self.dtype).tobytes())


def permutation_index(G: FiniteGroup, perm) -> int | None:
    """The index of perm in G, a group built by group_from_permutations, or
    None when perm is not one of its elements."""
    perms = G._label_of
    if not isinstance(perms, _Permutations):
        raise InvalidGroup(f"{G!r} was not built from permutations")
    return perms.find(perm)


def group_from_permutations(
    degree: int, generators, max_order: int = DEFAULT_MAX_ORDER, name: str = ""
) -> FiniteGroup:
    """Closure of the given permutations under composition, as a table group.

    The closure runs one breadth-first layer at a time on arrays of images
    in the narrowest unsigned point type. Each layer is composed with every
    generator in one gather, and the products are numbered in (element,
    generator) order by one lookup of their bytes each, which is the
    numbering of a search one element at a time. Element y is first reached
    as parent * generator, so column y of the table is column parent
    followed by right multiplication by that generator; the columns are
    filled one layer at a time, or one at a time in Python lists in a small
    group. Labels are formatted on first use.
    """
    if degree < 1:
        raise NotAPermutation(f"degree {degree} must be positive")
    gens, points = [], list(range(degree))
    for g in generators:
        g = tuple(int(x) for x in g)
        if len(g) != degree or sorted(g) != points:
            raise NotAPermutation(f"{g} is not a permutation of degree {degree}")
        gens.append(g)
    m = len(gens)
    ident = np.array(points, dtype=_point_dtype(degree))
    # gens[j] occupies columns j * degree to (j + 1) * degree - 1 of a
    # layer's products, and np.void items of that width are its elements
    flat_gens = np.array(gens, dtype=np.intp).ravel()
    key = np.dtype(f"V{ident.nbytes}")
    index = {ident.tobytes(): 0}  # element bytes -> index, in index order
    right = []  # right[x * m + j] is the index of element x * gens[j]
    # element y > 0 is first reached as right[born[y]], so it is element
    # born[y] // m times gens[born[y] % m]
    born = [0]
    ends = [1]  # one past the last index of each layer
    layer = ident[None]
    chunk = max(1, _ROW_BLOCK_CELLS // max(1, m * degree))  # layer rows per gather
    n = 1
    while True:
        grown = []
        for lo in range(0, len(layer), chunk):
            products = layer[lo : lo + chunk].take(flat_gens, axis=1)
            for k in products.view(key).ravel().tolist():
                y = index.setdefault(k, n)
                if y == n:
                    if n >= max_order:
                        raise ClosureCapExceeded(
                            f"closure exceeded cap {max_order}", cap=max_order
                        )
                    n += 1
                    grown.append(k)
                    born.append(len(right))
                right.append(y)
        if not grown:
            break
        layer = np.frombuffer(b"".join(grown), dtype=ident.dtype).reshape(-1, degree)
        ends.append(n)
    dtype = _index_dtype(n)
    # row y of `cols` is column y of the table: x * y = (x * parent) * gen
    if n <= _LIST_FILL_ORDER:
        by_gen = [right[j::m] for j in range(m)]
        cols = [list(range(n))]
        for q in born[1:]:
            r = by_gen[q % m]
            cols.append([r[x] for x in cols[q // m]])
        cols = np.array(cols, dtype=dtype)
    else:
        # right_by_gen[j * n + x] is the index of element x * gens[j]
        right_by_gen = np.array(right, dtype=dtype).reshape(n, m).T.ravel()
        parent, via = np.divmod(born, m)
        offsets = np.multiply(via, n, dtype=_index_dtype(m * n))[:, None]
        cols = np.empty((n, n), dtype=dtype)
        cols[0] = np.arange(n)
        step = max(1, _ROW_BLOCK_CELLS // n)
        for lo, hi in zip(ends, ends[1:]):
            for a in range(lo, hi, step):
                b = min(a + step, hi)
                cols[a:b] = right_by_gen.take(cols[parent[a:b]] + offsets[a:b])
    # the identity's products are the generators; the identity itself is index 0
    gen_idx = tuple(dict.fromkeys(y for y in right[:m] if y))
    return FiniteGroup(
        cols.T,
        generator_indices=gen_idx or None,
        labels=_Permutations(index, ident.dtype, degree),
        name=name,
    )


def cyclic_group(n: int, name: str = "") -> FiniteGroup:
    if n < 1:
        raise InvalidGroup(f"cyclic order {n} must be positive")
    if n > DEFAULT_MAX_ORDER:
        raise ClosureCapExceeded(
            f"cyclic order {n} exceeds cap {DEFAULT_MAX_ORDER}", cap=DEFAULT_MAX_ORDER, order=n
        )
    ar = np.arange(n, dtype=_index_dtype(n))
    table = np.add.outer(ar, ar)  # below 2 * DEFAULT_MAX_ORDER, so no sum wraps
    np.remainder(table, n, out=table)
    gens = (1,) if n > 1 else None
    return FiniteGroup(table, generator_indices=gens, labels=_power_label, name=name or f"C{n}")


def _power_label(i: int) -> str:
    return "e" if i == 0 else ("g" if i == 1 else f"g^{i}")


def dihedral_group(n: int, name: str = "") -> FiniteGroup:
    """Dihedral group of order 2n: r of order n, s of order 2, s r s = r^-1."""
    if n < 1:
        raise InvalidGroup(f"dihedral parameter {n} must be positive")

    def idx(b, k):
        return b * n + k % n

    table = [[0] * (2 * n) for _ in range(2 * n)]
    for b1 in range(2):
        for k1 in range(n):
            for b2 in range(2):
                for k2 in range(n):
                    k = (k1 + (k2 if b1 == 0 else -k2)) % n
                    table[idx(b1, k1)][idx(b2, k2)] = idx(b1 ^ b2, k)
    labels = []
    for b in range(2):
        for k in range(n):
            if b == 0:
                labels.append("e" if k == 0 else f"r{k}")
            else:
                labels.append("s" if k == 0 else f"s.r{k}")
    return FiniteGroup(
        table, generator_indices=(1, n) if n > 1 else (n,), labels=tuple(labels),
        name=name or f"D{n}",
    )


def quaternion_group(name: str = "Q8") -> FiniteGroup:
    """The quaternion group {+-1, +-i, +-j, +-k}."""
    axis_mul = {}
    for x in range(4):
        axis_mul[(0, x)] = (0, x)
        axis_mul[(x, 0)] = (0, x)
    for x in (1, 2, 3):
        axis_mul[(x, x)] = (1, 0)
    axis_mul[(1, 2)] = (0, 3)
    axis_mul[(2, 1)] = (1, 3)
    axis_mul[(2, 3)] = (0, 1)
    axis_mul[(3, 2)] = (1, 1)
    axis_mul[(3, 1)] = (0, 2)
    axis_mul[(1, 3)] = (1, 2)

    def idx(sign, axis):
        return 2 * axis + sign

    table = [[0] * 8 for _ in range(8)]
    for a1 in range(4):
        for s1 in range(2):
            for a2 in range(4):
                for s2 in range(2):
                    s, a = axis_mul[(a1, a2)]
                    table[idx(s1, a1)][idx(s2, a2)] = idx(s1 ^ s2 ^ s, a)
    labels = ("1", "-1", "i", "-i", "j", "-j", "k", "-k")
    return FiniteGroup(table, generator_indices=(2, 4), labels=labels, name=name)


def symmetric_group(n: int, name: str = "") -> FiniteGroup:
    if n == 1:
        return group_from_permutations(1, [], name=name or "S1")
    gens = [perm_from_cycles(n, [(1, 2)]), perm_from_cycles(n, [tuple(range(1, n + 1))])]
    return group_from_permutations(n, gens, name=name or f"S{n}")


def alternating_group(n: int, name: str = "") -> FiniteGroup:
    if n < 3:
        return group_from_permutations(max(n, 1), [], name=name or f"A{n}")
    gens = [perm_from_cycles(n, [(i, i + 1, i + 2)]) for i in range(1, n - 1)]
    return group_from_permutations(n, gens, name=name or f"A{n}")
