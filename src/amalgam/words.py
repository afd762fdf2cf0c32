"""Words and normal forms in amalgamated free products.

An amalgam is given by factor groups (finite table groups, or finitely
generated abelian groups), a common subgroup C, and verified embeddings of C
into each factor. Every element has a unique normal form

    head * t_1 * t_2 * ... * t_n

where head lies in C, each t_j is a coset representative of the image of C
inside its factor, consecutive t_j come from different factors, and no t_j is
the identity. Representatives are chosen deterministically. In a finite
factor the identity represents the image of C itself and the least element
index represents every other coset; in an abelian factor the Hermite-reduced
vector represents its coset, which makes the zero vector represent C's image.
NormalForm.is_identity compares the head against C's identity, so no element
index is assumed to be the identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from operator import itemgetter

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
    c_identity: object = field(compare=False)  # C's identity, for is_identity

    def is_identity(self) -> bool:
        return not self.tail and self.head == self.c_identity

    @property
    def length(self) -> int:
        return len(self.tail)


class _FiniteAdapter:
    """Coset data of a finite factor: C's embedding and a transversal of it."""

    def __init__(self, factor: FiniteGroup, embed: GroupHom | None, index: int):
        self.group = factor
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
                coset = [factor.mul(y, x) for y in image]
                rep = factor.identity if x in image else min(coset)
                for z in coset:
                    rep_of[z] = rep
            self.rep_of = rep_of
            self._embed_image = lambda c: embed.images[c]

    def embed_c(self, c):
        return self._embed_image(c)

    def decompose(self, x):
        """x = embed(c) * t with t the chosen representative of its coset."""
        t = self.rep_of[x]
        c = self._preimage[self.group.mul(x, self.group.inv(t))]
        return c, t


class _AbelianAdapter:
    """Coset data of a finitely generated abelian factor."""

    def __init__(self, factor: FGAbelian, embed: IntMatrix | None, index: int, c_rank: int):
        self.group = factor
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

    def embed_c(self, c):
        # matvec returns exact ints of the right length; only torsion can
        # leave them non-canonical
        return self.group.mod_torsion(self.embed.matvec(c))

    def decompose(self, x):
        """x = embed(c) + rep, rep already canonical.

        The lattice holds d_i * e_i for each torsion coordinate i, so its HNF
        has a pivot p_i dividing d_i in row i, and reduction leaves rep_i in
        [0, p_i). Injectivity makes the C part of the coefficients unique.
        """
        rep, coeffs = self._membership.decompose(x)
        return coeffs[: self._c_rank], rep


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
        out.append((i, spec.factors[i].check(x)))
    return out


def reduce(spec: AmalgamSpec, word) -> NormalForm:
    """Normal form of a raw word, by one fold from the right.

    Each run of syllables from one factor i is multiplied out, then by the
    head (it lies in C) and by the nearest tail representative when that
    comes from factor i too: all of it is one element of factor i, which a
    single decompose splits into the new head and a representative.
    """
    one = head = spec.amalgam.identity
    tail = []  # (factor, representative), right to left
    for i, run in groupby(reversed(check_word(spec, word)), key=itemgetter(0)):
        f, ad = spec.factors[i], spec.adapters[i]
        _, y = next(run)
        for _, x in run:
            y = f.mul(x, y)
        if head != one:
            y = f.mul(y, ad.embed_c(head))
        if tail and tail[-1][0] == i:
            y = f.mul(y, tail.pop()[1])
        head, t = ad.decompose(y)
        # every element here is canonical, so identity is tested by equality
        if t != f.identity:
            tail.append((i, t))
    return NormalForm(head=head, tail=tuple(reversed(tail)), c_identity=one)


def word_label(spec: AmalgamSpec, word) -> str:
    if not word:
        return "1"
    return " * ".join(f"{i}:{spec.factors[i].label(x)}" for i, x in word)


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
        """Every factor map sends each element of a finite C, or each basis
        vector of a free abelian C, to one image."""
        C = self.spec.amalgam
        finite = isinstance(C, FiniteGroup)
        k = 0 if finite else C.free_rank
        basis = [tuple(int(t == j) for t in range(k)) for j in range(k)]
        for j, c in enumerate(C.elements() if finite else basis):
            if len({m.apply(ad.embed_c(c)) for m, ad in zip(self.maps, self.spec.adapters)}) != 1:
                what = f"element {C.label(c)}" if finite else f"basis vector {j}"
                raise DisagreeOnAmalgam(f"factor maps disagree on amalgam {what}")

    def apply_word(self, word) -> int:
        out = self.target.identity
        for i, x in check_word(self.spec, word):
            out = self.target.mul(out, self.maps[i].apply(x))
        return out


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
    if error := central_product_error(factors, C, embeddings):
        raise error
    identified = [tuple(e.apply(c) for e in embeddings) for c in C.elements() if c != C.identity]
    return glued_product(factors, identified, max_order)


def glued_product(
    factors, identified, max_order: int = DEFAULT_MAX_ORDER
) -> tuple[FiniteGroup, list[GroupHom]]:
    """The direct product of the factors glued along `identified`.

    Each entry of `identified` holds one element per factor, and all of
    them are made equal: the quotient is by the normal closure of every
    x_i * x_j^-1 with i < j, computed by conjugation with no assumption that
    these are central. Returns the quotient with the induced maps
    mu_i: factor_i -> quotient.
    """
    P, injs, _ = direct_product(factors, max_order)
    seeds = []
    for xs in identified:
        imgs = [inj.apply(x) for inj, x in zip(injs, xs)]
        seeds += [P.mul(a, P.inv(b)) for i, a in enumerate(imgs) for b in imgs[i + 1 :]]
    S, proj = quotient_group(P, normal_closure(P, seeds))
    return S, [inj.then(proj) for inj in injs]
