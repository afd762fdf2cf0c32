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

from dataclasses import dataclass
from functools import cache

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
    """Per-factor arithmetic recomputed from raw spec data, tables and all."""

    def __init__(self, spec: AmalgamSpec, i: int):
        self.i = i
        f = spec.factors[i]
        C = spec.amalgam
        e = spec.embeddings[i]
        self._c_finite = isinstance(C, FiniteGroup)
        if isinstance(f, FiniteGroup):
            self.finite = True
            self.group = f
            if self._c_finite:
                self._image = [e.apply(c) for c in C.elements()]
            else:
                self._image = [f.identity]  # rank-0 abelian amalgam
        else:
            self.finite = False
            self.group = f
            self._embed = e
            cols = []
            if e is not None and e.cols:
                cols = [e.column(j) for j in range(e.cols)]
            self._c_rank = len(cols)
            cols = cols + f.relation_columns()
            self._lat = LatticeSubgroup.from_vectors(f.ngens, cols)

    def check(self, x):
        if self.finite:
            if not isinstance(x, int) or not 0 <= x < self.group.order:
                raise ElementOutOfRange(f"{x!r} out of range in factor {self.i}")
            return x
        if not isinstance(x, (tuple, list)) or len(x) != self.group.ngens:
            raise ElementOutOfRange(f"{x!r} out of range in factor {self.i}")
        return self.group.canon(x)

    def mul(self, x, y):
        return self.group.mul(x, y) if self.finite else self.group.add(x, y)

    def is_identity(self, x) -> bool:
        if self.finite:
            return x == self.group.identity
        return all(v == 0 for v in self.group.canon(x))

    def decompose(self, x):
        """x = (amalgam part) * (representative), recomputed by scanning."""
        if self.finite:
            coset = sorted(self.group.mul(g, x) for g in self._image)
            t = coset[0]
            for c, g in enumerate(self._image):
                if self.group.mul(g, t) == x:
                    return (c if self._c_finite else ()), t
            raise AssertionError("coset scan failed")
        rep, coeffs = self._lat.decompose(x)
        return coeffs[: self._c_rank], self.group.canon(rep)

    def embed_amalgam(self, c):
        if self.finite:
            return self._image[c] if self._c_finite else self.group.identity
        if self._c_rank == 0:
            return self.group.zero()
        return self.group.canon(self._embed.matvec(c))


def oracle_reduce(spec: AmalgamSpec, word) -> NormalForm:
    """Normal form by rewriting in two linear passes; same contract as reduce."""
    C = spec.amalgam
    c_one = head = C.identity if isinstance(C, FiniteGroup) else C.zero()
    helpers = [_OracleFactor(spec, i) for i in range(len(spec.factors))]
    # left to right: drop identity syllables, merge same-factor neighbours
    syls = []
    for syl in word:
        if not isinstance(syl, (tuple, list)) or len(syl) != 2:
            raise ElementOutOfRange(f"syllable {syl!r} is not a (factor, element) pair")
        i, x = syl
        if not isinstance(i, int) or not 0 <= i < len(helpers):
            raise ElementOutOfRange(f"factor index {i!r} out of range")
        x = helpers[i].check(x)
        if syls and syls[-1][0] == i:
            x = helpers[i].mul(syls.pop()[1], x)
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
            syls[-1] = (j, helpers[j].mul(y, helpers[j].embed_amalgam(c)))
        if not helpers[i].is_identity(t):
            tail.append((i, t))
        elif syls and tail and syls[-1][0] == tail[-1][0]:  # x vanished
            j, y = syls[-1]
            syls[-1] = (j, helpers[j].mul(y, tail.pop()[1]))
    return NormalForm(head=head, tail=tuple(reversed(tail)))


# ------------------------------------------------------------- presentations


@dataclass(frozen=True)
class Presentation:
    """Finite presentation with signed 1-based generator indices in relators."""

    ngens: int
    relators: tuple
    gen_labels: tuple = ()
    gen_elements: tuple = ()

    def __post_init__(self):
        for rel in self.relators:
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


@dataclass(frozen=True)
class SolvableCatalog:
    groups: tuple
    max_order: int

    def __iter__(self):
        return iter(self.groups)

    def __len__(self):
        return len(self.groups)


@cache
def solvable_catalog(max_order: int = DEFAULT_CATALOG_MAX) -> SolvableCatalog:
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
    return SolvableCatalog(groups=tuple(ordered), max_order=max_order)


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


def hom_search(
    P: Presentation,
    catalog: SolvableCatalog,
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
    relator, like w, is evaluated letter by letter. A hit is then verified
    again on every relator through FiniteGroup.mul, independently of the
    compiled checks.
    """
    w = tuple(w)
    if not w:
        raise ElementOutOfRange("hom_search needs a non-empty word")
    for g in w:
        if g == 0 or abs(g) > P.ngens:
            raise ElementOutOfRange(f"word letter {g} out of range")
    n = P.ngens
    orders = _generator_orders(P)
    triples = [[] for _ in range(n + 1)]
    others = [[] for _ in range(n + 1)]
    for rel in P.relators:
        k = max(abs(g) for g in rel)
        compiled = _compile_relator(rel)
        if compiled is None:
            others[k].append(rel)
        else:
            triples[k].append(compiled)
    w_depth = max(abs(g) for g in w)
    nodes = 0
    for target in catalog:
        rows = target.table.tolist()
        inv = target.inverses.tolist()
        e = target.identity
        elem_orders = [target.element_order(x) for x in target.elements()]
        candidates = [
            [
                x
                for x in target.elements()
                if orders[k] is None or orders[k] % elem_orders[x] == 0
            ]
            for k in range(n + 1)
        ]
        images = [e] * (n + 1)

        def value(letters):
            out = e
            for g in letters:
                out = rows[out][images[g] if g > 0 else inv[images[-g]]]
            return out

        def assign(k: int):
            nonlocal nodes
            if k > n:
                return True
            lookups, rest, at_word = triples[k], others[k], k == w_depth
            for x in candidates[k]:
                nodes += 1
                if nodes > budget:
                    raise BudgetExceeded(
                        f"search stopped after {budget} assignment nodes",
                        budget=budget,
                        nodes=nodes,
                    )
                images[k] = x
                for a, b, c in lookups:
                    if rows[images[a]][images[b]] != images[c]:
                        break
                else:
                    if (
                        all(value(rel) == e for rel in rest)
                        and not (at_word and value(w) == e)
                        and assign(k + 1)
                    ):
                        return True
            images[k] = e
            return False

        if not assign(1):
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
