"""Words and normal forms in amalgamated free products.

An amalgam is given by factor groups (finite table groups, or finitely
generated abelian groups), a common subgroup C, and verified embeddings of C
into each factor. Every element has a unique normal form

    head * t_1 * t_2 * ... * t_n

where head lies in C, each t_j is a coset representative of the image of C
inside its factor, consecutive t_j come from different factors, and no t_j is
the identity. Representatives are chosen deterministically: the minimal
element index per coset for finite factors, the Hermite-reduced vector for
abelian ones, so the identity always represents the trivial coset.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    DisagreeOnAmalgam,
    ElementOutOfRange,
    IncompatibleAmalgam,
    NotAHomomorphism,
    NotCentral,
    NotInjective,
)
from .groups import (
    DEFAULT_MAX_ORDER,
    FiniteGroup,
    GroupHom,
    center,
    direct_product,
    normal_closure,
    quotient_group,
)
from .lattice import FGAbelian, IntMatrix, LatticeSubgroup, lattice_kernel


@dataclass(frozen=True)
class NormalForm:
    """Reduced form: amalgam head plus alternating transversal tail."""

    head: object
    tail: tuple

    def is_identity(self) -> bool:
        if self.tail:
            return False
        if isinstance(self.head, tuple):
            return all(x == 0 for x in self.head)
        return self.head == 0

    @property
    def length(self) -> int:
        return len(self.tail)


class _FiniteAdapter:
    """Word arithmetic for a finite factor with its amalgam embedding."""

    kind = "finite"

    def __init__(self, factor: FiniteGroup, embed: GroupHom | None, index: int):
        self.group = factor
        self.index = index
        self.embed = embed
        if embed is None:
            # trivial amalgam (rank-0 abelian C): every element is its own rep
            self._preimage = {factor.identity: ()}
            self.rep_of = list(range(factor.order))
            self._embed_image = lambda c: factor.identity
        else:
            if not embed.is_injective():
                raise NotInjective(f"embedding into factor {index} is not injective", factor=index)
            self._preimage = {embed.images[c]: c for c in range(embed.source.order)}
            image = set(embed.images)
            rep_of = [-1] * factor.order
            for x in factor.elements():
                if rep_of[x] != -1:
                    continue
                coset = sorted(factor.mul(y, x) for y in image)
                for z in coset:
                    rep_of[z] = coset[0]
            self.rep_of = rep_of
            self._embed_image = lambda c: embed.images[c]
        self.reps = tuple(sorted(set(self.rep_of)))

    @property
    def identity(self):
        return self.group.identity

    def check(self, x):
        if not isinstance(x, int) or not 0 <= x < self.group.order:
            raise ElementOutOfRange(
                f"{x!r} is not an element of factor {self.index}", factor=self.index
            )
        return x

    def mul(self, a, b):
        return self.group.mul(a, b)

    def inv(self, a):
        return self.group.inv(a)

    def is_identity(self, x) -> bool:
        return x == self.group.identity

    def embed_c(self, c):
        return self._embed_image(c)

    def decompose(self, x):
        """x = embed(c) * t with t the chosen representative of its coset."""
        t = self.rep_of[x]
        c = self._preimage[self.group.mul(x, self.group.inv(t))]
        return c, t

    def label(self, x) -> str:
        return self.group.label(x)


class _AbelianAdapter:
    """Word arithmetic for a finitely generated abelian factor."""

    kind = "abelian"

    def __init__(self, factor: FGAbelian, embed: IntMatrix | None, index: int, c_rank: int):
        self.group = factor
        self.index = index
        m = factor.ngens
        if embed is None:
            embed = IntMatrix.zeros(m, 0)
        if embed.rows != m or embed.cols != c_rank:
            raise IncompatibleAmalgam(
                f"embedding into factor {index} must be a {m}x{c_rank} matrix",
                factor=index,
            )
        self.embed = embed
        cols = [embed.column(j) for j in range(embed.cols)]
        cols += factor.relation_columns()
        self._membership = LatticeSubgroup.from_vectors(m, cols)
        self._c_rank = c_rank
        # injectivity: no nonzero C-vector may land in the torsion lattice
        if c_rank:
            ker = lattice_kernel(self._membership.gens)
            for j in range(ker.cols):
                if any(ker.column(j)[:c_rank]):
                    raise NotInjective(
                        f"embedding into factor {index} has a kernel", factor=index
                    )

    @property
    def identity(self):
        return self.group.zero()

    def check(self, x):
        if not isinstance(x, (tuple, list)) or len(x) != self.group.ngens:
            raise ElementOutOfRange(
                f"{x!r} is not a coordinate vector for factor {self.index}",
                factor=self.index,
            )
        return self.group.canon(x)

    def mul(self, a, b):
        return self.group.add(a, b)

    def inv(self, a):
        return self.group.neg(a)

    def is_identity(self, x) -> bool:
        return all(v == 0 for v in self.group.canon(x))

    def embed_c(self, c):
        return self.group.canon(self.embed.matvec(c))

    def decompose(self, x):
        # x - rep lies in the lattice; injectivity makes the C part of its
        # coefficients unique, so canonicalising rep does not change it.
        rep, coeffs = self._membership.decompose(x)
        return coeffs[: self._c_rank], self.group.canon(rep)

    def label(self, x) -> str:
        return self.group.element_label(x)


class _FiniteCOps:
    def __init__(self, C: FiniteGroup):
        self.group = C
        self.identity = C.identity

    def mul(self, a, b):
        return self.group.mul(a, b)

    def inv(self, a):
        return self.group.inv(a)

    def is_identity(self, c) -> bool:
        return c == self.group.identity

    def check(self, c):
        if not isinstance(c, int) or not 0 <= c < self.group.order:
            raise ElementOutOfRange(f"{c!r} is not an amalgam element")
        return c

    def label(self, c) -> str:
        return self.group.label(c)


class _AbelianCOps:
    def __init__(self, C: FGAbelian):
        self.group = C
        self.identity = C.zero()

    def mul(self, a, b):
        return self.group.add(a, b)

    def inv(self, a):
        return self.group.neg(a)

    def is_identity(self, c) -> bool:
        return all(x == 0 for x in c)

    def check(self, c):
        if not isinstance(c, (tuple, list)) or len(c) != self.group.ngens:
            raise ElementOutOfRange(f"{c!r} is not an amalgam coordinate vector")
        return self.group.canon(c)

    def label(self, c) -> str:
        return self.group.element_label(c)


class AmalgamSpec:
    """Factors, a common subgroup C, and injective embeddings of C into each.

    Construction is validation: it checks every embedding and computes the
    coset transversal data, so an AmalgamSpec that exists is an amalgam.
    A non-injective embedding raises NotInjective here.
    """

    def __init__(self, factors, amalgam, embeddings):
        self.factors = tuple(factors)
        self.amalgam = C = amalgam
        self.embeddings = tuple(embeddings)
        if len(self.factors) < 2:
            raise IncompatibleAmalgam(f"need at least two factors, got {len(self.factors)}")
        if len(self.embeddings) != len(self.factors):
            raise IncompatibleAmalgam(
                f"{len(self.embeddings)} embeddings for {len(self.factors)} factors"
            )
        adapters = []
        if isinstance(C, FiniteGroup):
            self.c_ops = _FiniteCOps(C)
            for i, (f, e) in enumerate(zip(self.factors, self.embeddings)):
                if not isinstance(f, FiniteGroup):
                    raise IncompatibleAmalgam(
                        "a finite amalgam requires finite factors", factor=i
                    )
                if not isinstance(e, GroupHom) or e.source != C or e.target != f:
                    raise IncompatibleAmalgam(
                        f"embedding {i} must be a homomorphism from the amalgam into factor {i}",
                        factor=i,
                    )
                adapters.append(_FiniteAdapter(f, e, i))
        elif isinstance(C, FGAbelian):
            if C.torsion:
                raise IncompatibleAmalgam("an abelian amalgam subgroup must be free")
            k = C.free_rank
            self.c_ops = _AbelianCOps(C)
            for i, (f, e) in enumerate(zip(self.factors, self.embeddings)):
                if isinstance(f, FiniteGroup):
                    if k != 0:
                        raise IncompatibleAmalgam(
                            "a finite factor cannot contain a free abelian subgroup",
                            factor=i,
                        )
                    adapters.append(_FiniteAdapter(f, None, i))
                elif isinstance(f, FGAbelian):
                    adapters.append(_AbelianAdapter(f, e, i, k))
                else:
                    raise IncompatibleAmalgam(f"unsupported factor type {type(f)!r}", factor=i)
        else:
            raise IncompatibleAmalgam(f"unsupported amalgam type {type(C)!r}")
        self.adapters = tuple(adapters)

    def transversal_reps(self, i):
        """Finite factors only: the full list of coset representatives."""
        ad = self.adapters[i]
        if ad.kind != "finite":
            raise IncompatibleAmalgam("abelian factors have no finite transversal list")
        return ad.reps

    def __repr__(self):
        kinds = ",".join(
            f"{f.order}" if isinstance(f, FiniteGroup) else f"Z^{f.free_rank}x{list(f.torsion)}"
            for f in self.factors
        )
        return f"AmalgamSpec({kinds})"


def validate_spec(spec: AmalgamSpec) -> AmalgamSpec:
    """Return spec unchanged: an AmalgamSpec is checked when it is constructed.

    Kept because perfbench calls and traces it by name.
    """
    return spec


def check_word(spec: AmalgamSpec, word) -> list:
    """Canonicalize and range-check a raw word's syllables."""
    out = []
    for syl in word:
        if not isinstance(syl, (tuple, list)) or len(syl) != 2:
            raise ElementOutOfRange(f"syllable {syl!r} is not a (factor, element) pair")
        i, x = syl
        if not isinstance(i, int) or not 0 <= i < len(spec.factors):
            raise ElementOutOfRange(f"factor index {i!r} out of range")
        out.append((i, spec.adapters[i].check(x)))
    return out


def identity_form(spec: AmalgamSpec) -> NormalForm:
    return NormalForm(head=spec.c_ops.identity, tail=())


def _left_mul_syllable(spec: AmalgamSpec, i: int, x, nf: NormalForm) -> NormalForm:
    ad = spec.adapters[i]
    cops = spec.c_ops
    y = ad.mul(x, ad.embed_c(nf.head))
    c1, t1 = ad.decompose(y)
    if ad.is_identity(t1):
        return NormalForm(head=c1, tail=nf.tail)
    if not nf.tail or nf.tail[0][0] != i:
        return NormalForm(head=c1, tail=((i, t1),) + nf.tail)
    z = ad.mul(t1, nf.tail[0][1])
    c2, t2 = ad.decompose(z)
    head = cops.mul(c1, c2)
    rest = nf.tail[1:]
    if ad.is_identity(t2):
        return NormalForm(head=head, tail=rest)
    return NormalForm(head=head, tail=((i, t2),) + rest)


def reduce(spec: AmalgamSpec, word) -> NormalForm:
    """Normal form of a raw word, by folding syllables from the right."""
    syls = check_word(spec, word)
    nf = identity_form(spec)
    for i, x in reversed(syls):
        nf = _left_mul_syllable(spec, i, x, nf)
    return nf


def multiply(spec: AmalgamSpec, u: NormalForm, v: NormalForm) -> NormalForm:
    nf = v
    for i, t in reversed(u.tail):
        nf = _left_mul_syllable(spec, i, t, nf)
    return NormalForm(head=spec.c_ops.mul(u.head, nf.head), tail=nf.tail)


def nf_to_word(spec: AmalgamSpec, nf: NormalForm) -> list:
    """A raw word evaluating to nf (head embedded through factor 0)."""
    word = []
    if not spec.c_ops.is_identity(nf.head):
        word.append((0, spec.adapters[0].embed_c(nf.head)))
    word.extend(nf.tail)
    return word


def invert(spec: AmalgamSpec, nf: NormalForm) -> NormalForm:
    word = []
    for i, t in reversed(nf.tail):
        word.append((i, spec.adapters[i].inv(t)))
    c_inv = spec.c_ops.inv(nf.head)
    if not spec.c_ops.is_identity(c_inv):
        word.append((0, spec.adapters[0].embed_c(c_inv)))
    return reduce(spec, word)


def words_equal(spec: AmalgamSpec, w1, w2) -> bool:
    return reduce(spec, w1) == reduce(spec, w2)


def is_normal_form(spec: AmalgamSpec, nf: NormalForm) -> bool:
    """Structural check of the normal-form invariants."""
    try:
        spec.c_ops.check(nf.head)
    except ElementOutOfRange:
        return False
    prev = None
    for i, t in nf.tail:
        ad = spec.adapters[i]
        if ad.is_identity(t):
            return False
        c, rep = ad.decompose(t)
        if rep != t or not spec.c_ops.is_identity(c):
            return False
        if prev == i:
            return False
        prev = i
    return True


def word_label(spec: AmalgamSpec, word) -> str:
    if not word:
        return "1"
    return " * ".join(f"{i}:{spec.adapters[i].label(x)}" for i, x in word)


class InducedHom:
    """Homomorphism out of an amalgam, given per-factor maps agreeing on C.

    Finite factors take a GroupHom; abelian factors take an
    AbelianToFiniteHom. Evaluation is syllable-by-syllable.
    """

    def __init__(self, spec: AmalgamSpec, target: FiniteGroup, maps):
        self.spec = spec
        self.target = target
        self.maps = list(maps)
        if len(self.maps) != len(spec.factors):
            raise DisagreeOnAmalgam(
                f"{len(self.maps)} maps for {len(spec.factors)} factors"
            )
        for i, (f, m) in enumerate(zip(spec.factors, self.maps)):
            if isinstance(f, FiniteGroup):
                if not isinstance(m, GroupHom) or m.source != f or m.target != target:
                    raise NotAHomomorphism(
                        f"map {i} must be a homomorphism from factor {i} into the target"
                    )
            else:
                if not isinstance(m, AbelianToFiniteHom) or m.source != f or m.target != target:
                    raise NotAHomomorphism(
                        f"map {i} must be an abelian-to-finite map for factor {i}"
                    )
        self._check_agreement()

    def _check_agreement(self):
        spec = self.spec
        C = spec.amalgam
        if isinstance(C, FiniteGroup):
            for c in C.elements():
                imgs = {
                    self.maps[i].apply(spec.adapters[i].embed_c(c))
                    for i in range(len(spec.factors))
                }
                if len(imgs) != 1:
                    raise DisagreeOnAmalgam(
                        f"factor maps disagree on amalgam element {C.label(c)}"
                    )
        else:
            k = C.free_rank
            for j in range(k):
                basis = tuple(1 if t == j else 0 for t in range(k))
                imgs = {
                    self.maps[i].apply(spec.adapters[i].embed_c(basis))
                    for i in range(len(spec.factors))
                }
                if len(imgs) != 1:
                    raise DisagreeOnAmalgam(
                        f"factor maps disagree on amalgam basis vector {j}"
                    )

    def apply_word(self, word) -> int:
        out = self.target.identity
        for i, x in check_word(self.spec, word):
            out = self.target.mul(out, self.maps[i].apply(x))
        return out

    def apply_nf(self, nf: NormalForm) -> int:
        return self.apply_word(nf_to_word(self.spec, nf))


class AbelianToFiniteHom:
    """Linear map from a finitely generated abelian group into a finite group.

    Defined by generator images, which must commute pairwise and kill the
    torsion relations; both are verified.
    """

    def __init__(self, source: FGAbelian, target: FiniteGroup, gen_images):
        self.source = source
        self.target = target
        self.gen_images = tuple(int(g) for g in gen_images)
        if len(self.gen_images) != source.ngens:
            raise NotAHomomorphism(
                f"{len(self.gen_images)} generator images for {source.ngens} generators"
            )
        for a in self.gen_images:
            if not 0 <= a < target.order:
                raise ElementOutOfRange(f"image {a} out of range")
        for a in self.gen_images:
            for b in self.gen_images:
                if target.mul(a, b) != target.mul(b, a):
                    raise NotAHomomorphism("generator images do not commute")
        for i, d in enumerate(source.torsion):
            if target.power(self.gen_images[i], d) != target.identity:
                raise NotAHomomorphism(
                    f"image of torsion generator {i} does not have order dividing {d}"
                )

    def apply(self, v) -> int:
        v = self.source.canon(v)
        out = self.target.identity
        for coord, img in zip(v, self.gen_images):
            out = self.target.mul(out, self.target.power(img, coord))
        return out


def central_product_error(factors, C, embeddings):
    """Why the factors have no central product over C, or None.

    Each embedding must be an injective homomorphism from C into the
    center of its factor.
    """
    if not factors or len(factors) != len(embeddings):
        return IncompatibleAmalgam(
            f"{len(embeddings)} embeddings for {len(factors)} factors"
        )
    for i, (f, e) in enumerate(zip(factors, embeddings)):
        if not isinstance(e, GroupHom) or e.source != C or e.target != f:
            return IncompatibleAmalgam(
                f"embedding {i} must map the amalgam into factor {i}", factor=i
            )
        if not e.is_injective():
            return NotInjective(f"embedding {i} is not injective", factor=i)
        central = set(center(f).elements)
        bad = [c for c in C.elements() if e.apply(c) not in central]
        if bad:
            return NotCentral(
                f"image of amalgam element {C.label(bad[0])} is not central in factor {i}",
                factor=i,
            )
    return None


def build_generalized_central_product(
    factors, C: FiniteGroup, embeddings, max_order: int = DEFAULT_MAX_ORDER
) -> tuple[FiniteGroup, list[GroupHom]]:
    """Quotient of the direct product identifying all copies of C.

    The embeddings must land in the centers of their factors. Returns the
    quotient S together with the induced maps mu_i: factor_i -> S.
    """
    factors = list(factors)
    embeddings = list(embeddings)
    if error := central_product_error(factors, C, embeddings):
        raise error
    P, injs, _ = direct_product(factors, max_order)
    seeds = []
    for c in C.elements():
        if c == C.identity:
            continue
        for i in range(len(factors)):
            for j in range(len(factors)):
                if i >= j:
                    continue
                a = injs[i].apply(embeddings[i].apply(c))
                b = injs[j].apply(embeddings[j].apply(c))
                seeds.append(P.mul(a, P.inv(b)))
    N = normal_closure(P, seeds)
    S, proj = quotient_group(P, N)
    mus = [inj.then(proj) for inj in injs]
    return S, mus


def identified_direct_quotient(
    X: FiniteGroup,
    Y: FiniteGroup,
    x: int,
    y: int,
    max_order: int = DEFAULT_MAX_ORDER,
) -> tuple[FiniteGroup, GroupHom]:
    """(X x Y) / ncl((x, y^-1)), with the projection from the product.

    Implemented literally: the normal closure is computed by conjugation,
    with no assumption that (x, y^-1) is central. Pairs are encoded
    row-major, so (a, b) has product index a * |Y| + b.
    """
    P, injs, _ = direct_product([X, Y], max_order)
    seed = P.mul(injs[0].apply(x), P.inv(injs[1].apply(y)))
    N = normal_closure(P, [seed])
    D, proj = quotient_group(P, N)
    return D, proj
