"""Independent brute-force verifiers for the word engine and the witnesses.

This module deliberately reimplements word reduction by rewriting, sharing
only group arithmetic and the canonical coset-representative definitions
with the engine, none of its reduction code or precomputed tables. Three
rules rewrite a word: drop an identity syllable, merge two neighbours from
the same factor, and move the amalgam part of a syllable into its left
neighbour (or the head). oracle_reduce applies them in two linear passes.
Left to right, a stack drops identities and merges neighbours. Right to
left, a cursor keeps every syllable to its right a nonidentity
representative, with no two neighbours there from one factor: it splits
the syllable under it into amalgam part and representative by scanning
the coset, pushes the amalgam part one slot left, and if the syllable
vanishes merges the two neighbours that now touch and moves onto the
merged syllable. Normal forms are unique, so this is the fixpoint of the
rules. The module also extracts finite presentations of amalgams with
finite factors and searches for separating homomorphisms into a fixed
catalog of small solvable groups.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cache
from weakref import WeakKeyDictionary

from .certs import Certificate, Check, Exhausted, witness_result
from .errors import (
    BudgetExceeded,
    ElementOutOfRange,
    IncompatibleAmalgam,
    TooManyGenerators,
)
from .groups import (
    FiniteGroup,
    GroupHom,
    Subgroup,
    alternating_group,
    cyclic_group,
    derived_length,
    dihedral_group,
    direct_product,
    is_solvable,
    quaternion_group,
    symmetric_group,
)
from .lattice import LatticeSubgroup
from .words import AmalgamSpec, NormalForm

GENERATOR_CAP = 64
DEFAULT_BUDGET = 200_000
DEFAULT_CATALOG_MAX = 24


# ------------------------------------------------------------ reduction lane


class _OracleFactor:
    """Per-factor coset data recomputed from raw spec data, tables and all."""

    def __init__(self, spec: AmalgamSpec, i: int):
        self.group = f = spec.factors[i]
        C = spec.amalgam
        e = spec.embeddings[i]
        self._c_finite = isinstance(C, FiniteGroup)
        self.finite = isinstance(f, FiniteGroup)
        if self.finite:
            if self._c_finite:
                self._image = [e.apply(c) for c in C.elements()]
            else:
                self._image = [f.identity]  # rank-0 abelian amalgam
        else:
            self._embed = e
            cols = []
            if e is not None and e.cols:
                cols = [e.column(j) for j in range(e.cols)]
            self._c_rank = len(cols)
            cols = cols + f.relation_columns()
            self._lat = LatticeSubgroup.from_vectors(f.ngens, cols)

    def is_identity(self, x) -> bool:
        return x == self.group.identity

    def decompose(self, x):
        """x = (amalgam part) * (representative), recomputed by scanning."""
        if self.finite:
            # C's own coset is represented by the identity, any other by its least index
            coset = [self.group.mul(g, x) for g in self._image]
            t = self.group.identity if self.group.identity in coset else min(coset)
            for c, g in enumerate(self._image):
                if self.group.mul(g, t) == x:
                    return (c if self._c_finite else ()), t
            raise AssertionError("coset scan failed")
        rep, coeffs = self._lat.decompose(x)
        return coeffs[: self._c_rank], self.group.mod_torsion(rep)

    def embed_amalgam(self, c):
        if self.finite:
            return self._image[c] if self._c_finite else self.group.identity
        if self._c_rank == 0:
            return self.group.identity
        return self.group.mod_torsion(self._embed.matvec(c))


_HELPERS = WeakKeyDictionary()  # spec -> its _OracleFactor helpers


def _oracle_factors(spec: AmalgamSpec) -> tuple:
    """The helpers of each factor, built on first use and kept while spec lives."""
    helpers = _HELPERS.get(spec)
    if helpers is None:
        helpers = tuple(_OracleFactor(spec, i) for i in range(len(spec.factors)))
        _HELPERS[spec] = helpers
    return helpers


def oracle_reduce(spec: AmalgamSpec, word) -> NormalForm:
    """Normal form by rewriting in two linear passes; same contract as reduce."""
    factors = spec.factors
    c_one = head = spec.amalgam.identity
    helpers = _oracle_factors(spec)
    # left to right: drop identity syllables, merge same-factor neighbours
    syls = []
    for syl in word:
        if not isinstance(syl, (tuple, list)) or len(syl) != 2:
            raise ElementOutOfRange(f"syllable {syl!r} is not a (factor, element) pair")
        i, x = syl
        if not isinstance(i, int) or not 0 <= i < len(factors):
            raise ElementOutOfRange(f"factor index {i!r} out of range")
        x = factors[i].check(x)
        if syls and syls[-1][0] == i:
            x = factors[i].mul(syls.pop()[1], x)
        if not helpers[i].is_identity(x):
            syls.append((i, x))

    # right to left: everything in `tail` is a representative, neighbours
    # there come from different factors, and so do syls[-1] and tail[-1]
    tail = []  # reversed
    while syls:
        i, x = syls.pop()
        c, t = helpers[i].decompose(x)
        if not syls:
            head = c  # nothing to its left
        elif c != c_one:  # push the amalgam part one slot left
            j, y = syls[-1]
            syls[-1] = (j, factors[j].mul(y, helpers[j].embed_amalgam(c)))
        if not helpers[i].is_identity(t):
            tail.append((i, t))
        elif syls and tail and syls[-1][0] == tail[-1][0]:  # x vanished
            j, y = syls[-1]
            syls[-1] = (j, factors[j].mul(y, tail.pop()[1]))
    return NormalForm(head=head, tail=tuple(reversed(tail)), c_identity=c_one)


# ------------------------------------------------------------- presentations


@dataclass(frozen=True)
class Presentation:
    """Finite presentation with signed 1-based generator indices in relators."""

    ngens: int
    relators: tuple
    gen_labels: tuple = ()
    gen_elements: tuple = ()

    def __post_init__(self):
        for name in ("gen_labels", "gen_elements"):
            given = len(getattr(self, name))
            if given not in (0, self.ngens):
                raise ElementOutOfRange(f"{given} {name} for {self.ngens} generators")
        for rel in self.relators:
            if not rel:
                raise ElementOutOfRange("empty relator")
            for g in rel:
                if g == 0 or abs(g) > self.ngens:
                    raise ElementOutOfRange(f"relator letter {g} out of range")


def presentation_of_amalgam(spec: AmalgamSpec, cap: int = GENERATOR_CAP) -> Presentation:
    """Generators: every nonidentity factor element; relators: Cayley + glue."""
    if not all(isinstance(f, FiniteGroup) for f in spec.factors):
        raise IncompatibleAmalgam("presentations need finite factors")
    gen_of = {}
    labels = []
    elements = []
    for i, f in enumerate(spec.factors):
        for x in f.elements():
            if x == f.identity:
                continue
            gen_of[(i, x)] = len(labels) + 1
            labels.append(f"{i}:{f.label(x)}")
            elements.append((i, x))
    if len(labels) > cap:
        raise TooManyGenerators(
            f"{len(labels)} generators exceed the cap {cap}", cap=cap
        )
    relators = []
    for i, f in enumerate(spec.factors):
        for x in f.elements():
            if x == f.identity:
                continue
            for y in f.elements():
                if y == f.identity:
                    continue
                z = f.mul(x, y)
                if z == f.identity:
                    relators.append((gen_of[(i, x)], gen_of[(i, y)]))
                else:
                    relators.append((gen_of[(i, x)], gen_of[(i, y)], -gen_of[(i, z)]))
    C = spec.amalgam
    if isinstance(C, FiniteGroup):
        for c in C.elements():
            if c == C.identity:
                continue
            for i in range(len(spec.factors)):
                for j in range(i + 1, len(spec.factors)):
                    a = spec.embeddings[i].apply(c)
                    b = spec.embeddings[j].apply(c)
                    relators.append((gen_of[(i, a)], -gen_of[(j, b)]))
    return Presentation(
        ngens=len(labels),
        relators=tuple(relators),
        gen_labels=tuple(labels),
        gen_elements=tuple(elements),
    )


def amalgam_word_to_generators(P: Presentation, word) -> tuple:
    """Generator word for an amalgam word, skipping identity syllables."""
    out = []
    index = {pair: g for g, pair in enumerate(P.gen_elements, start=1)}
    for i, x in word:
        g = index.get((i, x))
        if g is not None:
            out.append(g)
    return tuple(out)


# ------------------------------------------------------------------ catalog


@cache
def solvable_catalog(max_order: int = DEFAULT_CATALOG_MAX) -> tuple[FiniteGroup, ...]:
    """Fixed, deduplicated list of small solvable targets, sorted for determinism.

    Constructed, not classified: a useful set, not all groups of these orders.
    Built once per max_order; callers share the result and must not change it.
    """
    base = [cyclic_group(n) for n in range(2, 13)]
    base += [dihedral_group(n) for n in range(3, 7)]
    base += [quaternion_group(), alternating_group(4), symmetric_group(3), symmetric_group(4)]
    base = [g for g in base if g.order <= max_order]
    members = list(base)
    for i, a in enumerate(base):
        for b in base[i:]:
            if a.order * b.order <= max_order:
                p, _, _ = direct_product([a, b])
                p.name = f"{a.name}x{b.name}"
                members.append(p)
    seen = {}
    for g in members:
        key = g.table.tobytes()
        if key not in seen:
            assert is_solvable(g)
            seen[key] = g
    ordered = sorted(seen.values(), key=lambda g: (g.order, g.name))
    return tuple(ordered)


# --------------------------------------------------------------- hom search


def _generator_orders(P: Presentation) -> list:
    """Orders recovered from the Cayley relators; None where underdetermined."""
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


def _eval_letters(target: FiniteGroup, images, letters) -> int:
    out = target.identity
    for g in letters:
        x = images[abs(g)]
        out = target.mul(out, x if g > 0 else target.inv(x))
    return out


def _compile_relator(rel) -> tuple | None:
    """rel = 1 as (a, b, c), meaning images[a] * images[b] == images[c].

    Slot 0 of the image list always holds the identity, so a*b = 1 becomes
    (a, b, 0) and a*b^-1 = 1, that is a = b, becomes (a, 0, b). Any other
    shape gives None and is evaluated letter by letter.
    """
    if len(rel) == 2 and rel[0] > 0:
        a, b = rel
        return (a, b, 0) if b > 0 else (a, 0, -b)
    if len(rel) == 3 and rel[0] > 0 and rel[1] > 0 and rel[2] < 0:
        return (rel[0], rel[1], -rel[2])
    return None


def _relators_by_level(P: Presentation) -> list:
    """P's relators bucketed by their highest generator, in their order."""
    levels = [[] for _ in range(P.ngens + 1)]
    for rel in P.relators:
        levels[max(abs(g) for g in rel)].append(rel)
    return levels


def _block_keys(levels, w_depth: int) -> list:
    """R(k) for each level k that starts a block, None for every other level.

    R(k) is the generators below k read by some relator whose highest
    generator lies in k..w_depth (levels as from _relators_by_level); w
    itself is not counted. Level k, with 2 <= k <= w_depth, starts a block
    when k - 1 is not in R(k). The search of levels k..w_depth, w aside,
    then depends on no earlier image outside R(k). In
    presentation_of_amalgam's presentations the blocks start at the first
    generator of each factor after the first, keyed by the glued elements
    of the factors before it.
    """
    keys = [None] * len(levels)
    read = set()  # signed letters
    for k in range(w_depth, 1, -1):
        read.update(*levels[k])
        if k - 1 not in read and 1 - k not in read:
            keys[k] = tuple(sorted({abs(g) for g in read if abs(g) < k}))
    return keys


def _search_stopped(budget: int) -> BudgetExceeded:
    return BudgetExceeded(
        f"search stopped after {budget} assignment nodes",
        budget=budget,
        nodes=budget + 1,
    )


def hom_search(
    P: Presentation,
    catalog: Sequence[FiniteGroup],
    w,
    budget: int = DEFAULT_BUDGET,
    *,
    word=(),
    word_label: str = "",
):
    """First homomorphism (deterministic order) separating w, or Exhausted.

    Depth-first over generator images per catalog group: generator k takes
    in turn each target element whose order divides k's order (every
    element where the relators leave that order open), and the search
    backtracks as soon as a relator whose highest generator is k fails, or,
    once every letter of w is assigned, w maps to the identity. Each
    candidate tried is one node; BudgetExceeded is raised at node
    budget + 1.

    The checks are compiled once per target against its table as nested
    lists: a relator a*b = 1, a*b*c^-1 = 1 or a*b^-1 = 1 (the Cayley and
    gluing relators of presentation_of_amalgam) is one lookup
    rows[images[a]][images[b]] compared with images[c], and any other
    relator, like w, is evaluated letter by letter. The first such relator
    that names k exactly once fixes k's image from lower generators, so k
    is solved, not tried: only that image can pass, and it alone is
    checked against k's other relators. The candidates before and after it
    in k's list still count as failed nodes, so node counts, the budget
    and the first witness are those of trying every candidate in turn,
    though a skipped node costs next to nothing.

    The levels from a block's start k down to w's level (see _block_keys)
    depend, w aside, only on the images of R(k). So per target, the first
    visit under each (k, images of R(k)) is searched as above and, if it
    finds no witness, kept: each leaf, a candidate at w's level that passes
    its relators, with its images and its node offset from the block's
    entry (the nodes spent below w's level left out), and the block's node
    total. A later visit under the same images replays the leaves: it
    evaluates w on each, recurses below w's level for real where w is not
    the identity, and counts the block's nodes as if it had been searched.
    No witness can arise between two leaves, so node counts, the budget
    (BudgetExceeded once an offset or the total passes it) and the first
    witness stay those of the full search; nodes per second rises without
    any candidate getting cheaper. A replay inside an open recording adds
    its leaves to it, which covers the nested blocks of three or more
    factors. Each kept leaf stands for a node the block counted, and the
    kept blocks are dropped with each target.

    A negative budget is a ValueError. A hit is then verified again on
    every relator through FiniteGroup.mul, independently of the compiled
    checks.
    """
    w = tuple(w)
    if not w:
        raise ElementOutOfRange("hom_search needs a non-empty word")
    for g in w:
        if g == 0 or abs(g) > P.ngens:
            raise ElementOutOfRange(f"word letter {g} out of range")
    if budget < 0:
        raise ValueError(f"negative search budget {budget}")
    n = P.ngens
    orders = _generator_orders(P)
    triples = [[] for _ in range(n + 1)]
    others = [[] for _ in range(n + 1)]
    solvers = [None] * (n + 1)
    levels = _relators_by_level(P)
    for k, rels in enumerate(levels):
        for rel in rels:
            compiled = _compile_relator(rel)
            if compiled is None:
                others[k].append(rel)
            elif solvers[k] is None and compiled.count(k) == 1:
                solvers[k] = compiled
            else:
                triples[k].append(compiled)
    w_depth = max(abs(g) for g in w)
    block_keys = _block_keys(levels, w_depth)
    first = next((k for k in range(2, w_depth + 1) if block_keys[k] is not None), 0)
    nodes = deep = 0  # deep: the nodes spent below w's level
    for target in catalog:
        rows = target.table.tolist()
        inv = target.inverses.tolist()
        e = target.identity
        elem_orders = [target.element_order(x) for x in target.elements()]
        # per generator: its candidates, and each element's place among them
        by_order = {}
        for order in set(orders):
            cands = [
                x for x in target.elements() if order is None or order % elem_orders[x] == 0
            ]
            places = [-1] * target.order
            for p, x in enumerate(cands):
                places[x] = p
            by_order[order] = (cands, places)
        candidates = [by_order[order] for order in orders]
        images = [e] * (n + 1)
        blocks = {}  # (k, images of R(k)) -> (leaves, nodes) of a block without witness
        trail = []  # (nodes above w's level, images[first..w_depth]) per leaf in the open block

        def value(letters):
            out = e
            for g in letters:
                out = rows[out][images[g] if g > 0 else inv[images[-g]]]
            return out

        def below_word():
            """w on the images up to w_depth, then the levels below it."""
            nonlocal deep
            if value(w) == e:
                return False
            before = nodes
            if descend[w_depth + 1](w_depth + 1):
                return True
            deep += nodes - before
            return False

        def block(k: int):
            """The levels from block start k on: replayed, or searched and kept."""
            key = (k, *[images[g] for g in block_keys[k]])
            kept = blocks.get(key)
            if kept is not None:
                return replay(k, *kept)
            start, entry = len(trail), nodes - deep
            if search(k):
                return True
            leaves = [(at - entry, leaf[k - first :]) for at, leaf in trail[start:]]
            blocks[key] = (leaves, nodes - deep - entry)
            if k == first:
                trail.clear()
            return False

        def replay(k: int, leaves, total: int):
            """A block's recorded search, with w and the levels below it redone."""
            nonlocal nodes
            entry = nodes - deep
            for at, leaf in leaves:
                nodes = deep + entry + at
                if nodes > budget:
                    raise _search_stopped(budget)
                images[k : w_depth + 1] = leaf
                if k != first:  # inside the open recording of the first block
                    trail.append((entry + at, tuple(images[first : w_depth + 1])))
                if below_word():
                    return True
            nodes = deep + entry + total
            if nodes > budget:
                raise _search_stopped(budget)
            return False

        def search(k: int):
            nonlocal nodes
            lookups, rest, at_word = triples[k], others[k], k == w_depth
            cands, places = candidates[k]
            after = 0
            if solvers[k] is not None:
                a, b, c = solvers[k]
                if c == k:
                    x = rows[images[a]][images[b]]
                elif a == k:
                    x = rows[images[c]][inv[images[b]]]
                else:
                    x = rows[inv[images[a]]][images[c]]
                p = places[x]
                if p < 0:  # every candidate fails the solver relator
                    after, cands = len(cands), ()
                else:  # the p candidates before x fail; the loop tries x
                    nodes += p
                    after, cands = len(cands) - p - 1, (x,)
            for x in cands:
                nodes += 1
                if nodes > budget:
                    raise _search_stopped(budget)
                images[k] = x
                for a, b, c in lookups:
                    if rows[images[a]][images[b]] != images[c]:
                        break
                else:
                    if rest and any(value(rel) != e for rel in rest):
                        continue
                    if at_word:
                        if first:  # a leaf of the open recording
                            trail.append((nodes - deep, tuple(images[first : w_depth + 1])))
                        if below_word():
                            return True
                    elif descend[k + 1](k + 1):
                        return True
            nodes += after  # the candidates after x fail
            if nodes > budget:
                raise _search_stopped(budget)
            return False

        # descend[k](k) assigns generators k, k + 1, ... depth first and is
        # True once all are assigned with every check passed
        descend = [search if key is None else block for key in block_keys]
        descend.append(lambda k: True)
        if not descend[1](1):
            continue
        # post-hoc verification, independent of the pruning order
        relators_ok = all(
            _eval_letters(target, images, rel) == target.identity for rel in P.relators
        )
        image = _eval_letters(target, images, w)
        solvable = is_solvable(target)
        checks = [
            Check(
                "relators_satisfied",
                relators_ok,
                f"all {len(P.relators)} relators evaluate to the identity",
            ),
            Check("image_nonidentity", image != target.identity, target.label(image)),
            Check("target_solvable", solvable, f"derived length {derived_length(target)}"),
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
        label = word_label or " * ".join(
            (f"g{g}" if g > 0 else f"g{-g}^-1") for g in w
        )
        return witness_result(cert, word, label, image)
    return Exhausted(nodes=nodes, targets_tried=len(catalog))


def exhaustive_injectivity(h: GroupHom, domain_subset: Subgroup):
    """(True, None) if h is injective on the subset, else (False, (x, y))."""
    seen = {}
    for x in sorted(domain_subset.elements):
        y = h.apply(x)
        if y in seen:
            return False, (seen[y], x)
        seen[y] = x
    return True, None
