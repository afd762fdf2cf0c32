"""Line-oriented text format for groups, embeddings, amalgams, and words.

One statement per line:

    group <name> = perm <degree> { <cycles>; <cycles>; ... }
    group <name> = cyclic <n>
    group <name> = free-abelian <r>
    group <name> = abelian [d1,d2,...]
    embed <name> : <C> -> <G> { g<i> -> <element-expr>; ... }
    amalgam <name> = <G1>, <G2> [, ...] over <C> via <e1>, <e2> [, ...]
    word <name> in <amalgam> = <factor>:<element-expr> ( * <factor>:<element-expr> )*

Element expressions are products of atoms, each an optionally powered
generator symbol (g, g1, g2, ...), cycle (permutation groups only), or the
identity symbol e. Word syllables name their factor either by group name
(which must occur exactly once among the factors) or by 0-based position.
Blank lines and ``#`` comments are ignored. In ``abelian [...]`` literals
the torsion divisors (>= 2) must precede the free markers (0) so that
generator numbers match coordinates; the entries are separated by commas,
one comma may follow the last, and ``[]`` is the trivial group. ``over``
and ``via`` are keywords: no group or embedding may take either name, so a
trailing comma before one, or a missing amalgam group before ``via``, is an
error at the keyword. A perm degree is at most MAX_PERM_DEGREE.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import (
    EmbeddingTypeMismatch,
    NotAHomomorphism,
    ParseError,
    ResolutionError,
    WordTooLong,
)
from .groups import (
    FiniteGroup,
    cycle_label,
    cyclic_group,
    group_from_permutations,
    hom_from_generator_images,
    perm_from_cycles,
    permutation_index,
)
from .lattice import FGAbelian, IntMatrix
from .words import AmalgamSpec

MAX_WORD_SYLLABLES = 64
# largest perm degree a spec may declare; the largest in use here is 14
MAX_PERM_DEGREE = 1000

# One match per token, with the blanks before it. A well-formed cycle of
# nonnegative points is matched whole: its token is the "(" (kind "cycle"),
# and the parser reads its points from the line. Any other "(" is punct and
# its points are tokens of their own. A comment, or a character that starts
# no token ("bad"), takes the rest of the line, so it is the last match.
_TOKEN_RE = re.compile(
    r"[ \t]*(?:"
    r"(?P<comment>#.*)"
    r"|(?P<arrow>->)"
    r"|(?P<num>-?\d+)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*(?:-[A-Za-z_][A-Za-z0-9_]*)*)"
    r"|(?P<cycle>\()[ \t]*(?:\d+(?:[ \t]+\d+)*[ \t]*)?\)"
    r"|(?P<punct>[={}()\[\],;:*^])"
    r"|(?P<bad>[^ \t].*)"
    r")"
)
_POINT_RE = re.compile(r"\d+")
# keywords that end a name list in an amalgam statement, so no group or
# embedding may be named after them
_KEYWORDS = ("over", "via")
_GEN_RE = re.compile(r"g(\d*)")


class Token(NamedTuple):
    kind: str  # "arrow" | "num" | "ident" | "cycle" | "punct"
    text: str
    line: int
    col: int


_new_tuple = tuple.__new__


class Atom(NamedTuple):
    """One factor of an element expression, with its exponent."""

    kind: str  # "gen" | "cycle" | "identity"
    index: int = 0  # 1-based generator number, for kind "gen"
    points: tuple = ()  # 1-based points, for kind "cycle"
    power: int = 1


class ElementExpr(NamedTuple):
    atoms: tuple


@dataclass(frozen=True)
class GroupDecl:
    name: str
    kind: str  # "perm" | "cyclic" | "free-abelian" | "abelian"
    degree: int = 0
    order: int = 0
    rank: int = 0
    divisors: tuple = ()
    generators: tuple = ()  # per generator: tuple of cycles (point tuples)

    def generator_count(self) -> int:
        if self.kind == "perm":
            return len(self.generators)
        if self.kind == "cyclic":
            return 1
        if self.kind == "free-abelian":
            return self.rank
        return len(self.divisors)


@dataclass(frozen=True)
class EmbedDecl:
    name: str
    source: str
    target: str
    images: tuple  # ordered (generator number, ElementExpr) pairs


@dataclass(frozen=True)
class AmalgamDecl:
    name: str
    factors: tuple
    amalgam: str
    embeds: tuple


@dataclass(frozen=True)
class WordDecl:
    name: str
    amalgam: str
    syllables: tuple  # (("name", str) | ("index", int), ElementExpr) pairs


@dataclass(frozen=True)
class SpecFile:
    declarations: tuple = ()


def _error_at(tok, message: str, expected: str = "") -> ParseError:
    """A ParseError that points at tok's line and column."""
    return ParseError(message, tok.line, tok.col, expected=expected)


def _found(tok, what: str, expected: str) -> ParseError:
    """The error for tok where the grammar needs `what`."""
    return _error_at(tok, f"expected {what}, found {tok.text!r}", expected)


class _Cursor:
    """Token stream over one statement line; a None sentinel marks its end."""

    def __init__(self, tokens, line: int, text: str):
        tokens.append(None)
        self.tokens = tokens
        self.pos = 0
        self.line = line
        self.text = text
        self.end_col = len(text) + 1

    def peek(self) -> Token | None:
        return self.tokens[self.pos]

    def end(self) -> Token:
        """A token just past the end of the line, for errors about what is missing."""
        return Token("end", "", self.line, self.end_col)

    def _end_of_line(self, expected: str) -> ParseError:
        return _error_at(self.end(), f"unexpected end of line, expected {expected}", expected)

    def next(self, expected: str) -> Token:
        tok = self.tokens[self.pos]
        if tok is None:
            raise self._end_of_line(expected)
        self.pos += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.tokens[self.pos]
        if tok is None:
            raise self._end_of_line(repr(text))
        if tok.text != text:
            raise _found(tok, repr(text), text)
        self.pos += 1
        return tok

    def expect_ident(self, what: str) -> Token:
        tok = self.next(what)
        if tok.kind != "ident":
            raise _found(tok, what, what)
        return tok

    def expect_number(self, what: str) -> int:
        tok = self.next(what)
        if tok.kind != "num":
            raise _found(tok, what, what)
        return int(tok.text)

    def accept(self, text: str) -> bool:
        """Consume the next token if its text is ``text``; say whether it did."""
        tok = self.tokens[self.pos]
        if tok is not None and tok.text == text:
            self.pos += 1
            return True
        return False

    def keyword(self, word: str):
        """The next token must be the identifier ``word``."""
        tok = self.expect_ident(repr(word))
        if tok.text != word:
            raise _found(tok, repr(word), word)

    def name(self, what: str) -> str:
        """An identifier that is not one of the keywords ``over`` and ``via``."""
        tok = self.expect_ident(what)
        if tok.text in _KEYWORDS:
            raise _found(tok, what, what)
        return tok.text

    def names(self, what: str) -> list:
        """A comma-separated list of names, so that a trailing comma before
        ``over`` or ``via`` is an error there."""
        out = [self.name(what)]
        while self.accept(","):
            out.append(self.name(what))
        return out

    def require_end(self):
        tok = self.peek()
        if tok is not None:
            raise _error_at(tok, f"trailing input {tok.text!r}", "end of line")


def _tokenize_line(text: str, line_no: int) -> list:
    # tuple.__new__ skips the Python-level Token.__new__
    tokens = [
        _new_tuple(Token, ((kind := m.lastgroup), m[kind], line_no, m.start(kind) + 1))
        for m in _TOKEN_RE.finditer(text)
    ]
    if tokens and tokens[-1].kind in ("comment", "bad"):
        last = tokens.pop()
        if last.kind == "bad":
            raise _error_at(last, f"unrecognized character {last.text[0]!r}", "token")
    return tokens


def _parse_gen_symbol(tok: Token, gen_count: int) -> int:
    m = _GEN_RE.fullmatch(tok.text)
    if m is None:
        raise _found(tok, "a generator symbol", f"g1..g{gen_count}")
    idx = int(m.group(1)) if m.group(1) else 1
    if not 1 <= idx <= gen_count:
        raise _error_at(
            tok,
            f"generator {tok.text} out of range (the group declares {gen_count})",
            f"g1..g{gen_count}",
        )
    return idx


def _point_error(tok: Token, p: int, degree: int) -> ParseError:
    return _error_at(tok, f"point {p} outside degree {degree}", f"1..{degree}")


def _parse_cycle(cur: _Cursor, decl: GroupDecl) -> tuple:
    open_tok = cur.next("'('")  # callers have seen the "("
    if decl.kind != "perm":
        raise _error_at(
            open_tok, "cycle notation is only valid in permutation groups", "generator symbol"
        )
    degree = decl.degree
    if open_tok.kind == "cycle":
        # the points up to ")" are digit runs between blanks
        start = open_tok.col  # index just past the "("
        body = cur.text[start : cur.text.index(")", start)]
        points = tuple(map(int, body.split()))
        if points and (min(points) < 1 or max(points) > degree):
            for m in _POINT_RE.finditer(body):
                p = int(m[0])
                if not 1 <= p <= degree:
                    raise _point_error(open_tok._replace(col=start + m.start() + 1), p, degree)
        return points
    # Any other "(" is not followed by points in range and blanks up to a
    # ")", so this walk over its tokens ends at the first error.
    while True:
        tok = cur.next("a point or ')'")
        if tok.kind != "num":
            raise _found(tok, "a point", "integer")
        p = int(tok.text)
        if not 1 <= p <= degree:
            raise _point_error(tok, p, degree)


def _parse_power(cur: _Cursor) -> int:
    return cur.expect_number("an exponent") if cur.accept("^") else 1


_EXPR_STOP = {";", "}", "*"}


def _parse_element_expr(cur: _Cursor, decl: GroupDecl) -> ElementExpr:
    atoms = []
    while True:
        tok = cur.peek()
        if tok is None or tok.text in _EXPR_STOP:
            break
        if tok.text == "(":
            points = _parse_cycle(cur, decl)
            atoms.append(Atom("cycle", points=points, power=_parse_power(cur)))
        elif tok.kind == "ident" and tok.text == "e":
            cur.next("identity")
            atoms.append(Atom("identity", power=_parse_power(cur)))
        elif tok.kind == "ident":
            idx = _parse_gen_symbol(cur.next("generator"), decl.generator_count())
            atoms.append(Atom("gen", index=idx, power=_parse_power(cur)))
        else:
            raise _error_at(
                tok, f"unexpected {tok.text!r} in element expression", "generator, cycle, or 'e'"
            )
    if not atoms:
        raise _error_at(cur.peek() or cur.end(), "empty element expression", "an atom")
    return ElementExpr(tuple(atoms))


def _parse_group(cur: _Cursor) -> GroupDecl:
    name = cur.name("a group name")
    cur.expect("=")
    kind_tok = cur.expect_ident("perm, cyclic, free-abelian, or abelian")
    kind = kind_tok.text
    if kind == "perm":
        degree_tok = cur.peek()
        degree = cur.expect_number("a degree")
        if degree < 1:
            raise _error_at(kind_tok, f"degree {degree} must be positive")
        if degree > MAX_PERM_DEGREE:
            raise _error_at(
                degree_tok,
                f"degree {degree} exceeds the cap {MAX_PERM_DEGREE}",
                f"1..{MAX_PERM_DEGREE}",
            )
        cur.expect("{")
        shell = GroupDecl(name, "perm", degree=degree)
        generators = []
        while not cur.accept("}"):
            cycles = []
            while (tok := cur.peek()) is not None and tok.text == "(":
                cycles.append(_parse_cycle(cur, shell))
            if not cycles:
                raise _found(cur.next("a cycle"), "a cycle", "(p1 p2 ...)")
            generators.append(tuple(cycles))
            cur.accept(";")
        cur.require_end()
        return GroupDecl(name, "perm", degree=degree, generators=tuple(generators))
    if kind == "cyclic":
        n = cur.expect_number("an order")
        cur.require_end()
        if n < 1:
            raise _error_at(kind_tok, f"order {n} must be positive")
        return GroupDecl(name, "cyclic", order=n)
    if kind == "free-abelian":
        r = cur.expect_number("a rank")
        cur.require_end()
        if r < 0:
            raise _error_at(kind_tok, f"rank {r} must be nonnegative")
        return GroupDecl(name, "free-abelian", rank=r)
    if kind == "abelian":
        cur.expect("[")
        divisors = []
        misplaced = None  # the first torsion divisor after a free factor
        # divisors are comma-separated, and a comma may end the list
        while not cur.accept("]"):
            tok = cur.next("a divisor or ']'")
            if tok.kind != "num":
                raise _found(tok, "a divisor", "integer")
            d = int(tok.text)
            if d != 0 and d < 2:
                raise _error_at(tok, f"divisor {d} must be 0 (a free factor) or at least 2")
            if d and 0 in divisors and misplaced is None:
                misplaced = tok
            divisors.append(d)
            tok = cur.next("',' or ']'")
            if tok.text == "]":
                break
            if tok.text != ",":
                raise _found(tok, "',' or ']'", "',' or ']'")
        if misplaced is not None:
            raise _error_at(misplaced, "torsion divisors must precede free factors (0 entries)")
        cur.require_end()
        return GroupDecl(name, "abelian", divisors=tuple(divisors))
    raise _error_at(
        kind_tok, f"unknown group kind {kind!r}", "perm, cyclic, free-abelian, or abelian"
    )


def _known(table: dict, name: str, kind: str):
    """The earlier declaration of the `kind` called name, which table holds."""
    decl = table.get(name)
    if decl is None:
        raise ResolutionError(f"unknown {kind} {name!r}", name=name)
    return decl


def _parse_embed(cur: _Cursor, groups: dict) -> EmbedDecl:
    name = cur.name("an embedding name")
    cur.expect(":")
    src_decl = _known(groups, cur.expect_ident("the amalgam group name").text, "group")
    cur.expect("->")
    tgt_decl = _known(groups, cur.expect_ident("the factor group name").text, "group")
    cur.expect("{")
    images = []
    seen = set()
    while not cur.accept("}"):
        gen_tok = cur.expect_ident("a source generator")
        idx = _parse_gen_symbol(gen_tok, src_decl.generator_count())
        if idx in seen:
            raise _error_at(gen_tok, f"generator g{idx} mapped twice")
        seen.add(idx)
        cur.expect("->")
        images.append((idx, _parse_element_expr(cur, tgt_decl)))
        cur.accept(";")
    cur.require_end()
    missing = sorted(set(range(1, src_decl.generator_count() + 1)) - seen)
    if missing:
        raise _error_at(
            cur.end(), f"no image for generator(s) g{', g'.join(str(m) for m in missing)}"
        )
    return EmbedDecl(name, src_decl.name, tgt_decl.name, tuple(images))


def _parse_amalgam(cur: _Cursor, groups: dict, embeds: dict) -> AmalgamDecl:
    name = cur.expect_ident("an amalgam name").text
    cur.expect("=")
    factors = cur.names("a factor group name")
    cur.keyword("over")
    amalgam = cur.name("the amalgam group name")
    cur.keyword("via")
    embed_names = cur.names("an embedding name")
    cur.require_end()
    for g in factors + [amalgam]:
        _known(groups, g, "group")
    for e in embed_names:
        _known(embeds, e, "embedding")
    return AmalgamDecl(name, tuple(factors), amalgam, tuple(embed_names))


def _parse_word(cur: _Cursor, groups: dict, amalgams: dict) -> WordDecl:
    name = cur.expect_ident("a word name").text
    cur.keyword("in")
    decl = _known(amalgams, cur.expect_ident("an amalgam name").text, "amalgam")
    cur.expect("=")
    syllables = []
    while True:
        tok = cur.next("a factor reference")
        if tok.kind == "num":
            idx = int(tok.text)
            if not 0 <= idx < len(decl.factors):
                raise _error_at(
                    tok, f"factor index {idx} out of range", f"0..{len(decl.factors) - 1}"
                )
            ref = ("index", idx)
            factor_decl = groups[decl.factors[idx]]
        elif tok.kind == "ident":
            hits = [i for i, f in enumerate(decl.factors) if f == tok.text]
            if not hits:
                raise ResolutionError(
                    f"{tok.text!r} is not a factor of {decl.name!r}", name=tok.text
                )
            if len(hits) > 1:
                raise ResolutionError(
                    f"{tok.text!r} occurs {len(hits)} times among the factors; "
                    "use a 0-based index instead",
                    name=tok.text,
                )
            ref = ("name", tok.text)
            factor_decl = groups[tok.text]
        else:
            raise _found(tok, "a factor reference", "group name or index")
        cur.expect(":")
        syllables.append((ref, _parse_element_expr(cur, factor_decl)))
        if len(syllables) > MAX_WORD_SYLLABLES:
            raise WordTooLong(
                f"words are capped at {MAX_WORD_SYLLABLES} syllables",
                cap=MAX_WORD_SYLLABLES,
            )
        tok = cur.peek()
        if tok is None:
            break
        if tok.text != "*":
            raise _found(tok, "'*' between syllables", "*")
        cur.next("'*'")
    return WordDecl(name, decl.name, tuple(syllables))


def parse(text: str) -> SpecFile:
    """Parse a complete spec file; every reference must precede its use."""
    decls = []
    groups: dict[str, GroupDecl] = {}
    embeds: dict[str, EmbedDecl] = {}
    amalgams: dict[str, AmalgamDecl] = {}
    names: set[str] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize_line(raw, line_no)
        if not tokens:
            continue
        cur = _Cursor(tokens, line_no, raw)
        head = cur.next("a statement")
        if head.kind != "ident" or head.text not in ("group", "embed", "amalgam", "word"):
            raise _error_at(
                head, f"unknown statement {head.text!r}", "group, embed, amalgam, or word"
            )
        if head.text == "group":
            decl = _parse_group(cur)
        elif head.text == "embed":
            decl = _parse_embed(cur, groups)
        elif head.text == "amalgam":
            decl = _parse_amalgam(cur, groups, embeds)
        else:
            decl = _parse_word(cur, groups, amalgams)
        if decl.name in names:
            raise _error_at(head, f"name {decl.name!r} already declared")
        names.add(decl.name)
        decls.append(decl)
        if isinstance(decl, GroupDecl):
            groups[decl.name] = decl
        elif isinstance(decl, EmbedDecl):
            embeds[decl.name] = decl
        elif isinstance(decl, AmalgamDecl):
            amalgams[decl.name] = decl
    return SpecFile(tuple(decls))


# -------------------------------------------------------------- formatting


def _format_cycle(points) -> str:
    return "(" + " ".join(str(p) for p in points) + ")"


def _format_atom(atom: Atom) -> str:
    if atom.kind == "gen":
        base = f"g{atom.index}"
    elif atom.kind == "identity":
        base = "e"
    else:
        base = _format_cycle(atom.points)
    return base if atom.power == 1 else f"{base}^{atom.power}"


def _format_expr(expr: ElementExpr) -> str:
    return " ".join(_format_atom(a) for a in expr.atoms)


def format_specfile(sf: SpecFile) -> str:
    """Canonical text whose re-parse equals ``sf``."""
    lines = []
    for d in sf.declarations:
        if isinstance(d, GroupDecl):
            if d.kind == "perm":
                gens = "; ".join(
                    "".join(_format_cycle(c) for c in cycles) for cycles in d.generators
                )
                lines.append(f"group {d.name} = perm {d.degree} {{ {gens} }}")
            elif d.kind == "cyclic":
                lines.append(f"group {d.name} = cyclic {d.order}")
            elif d.kind == "free-abelian":
                lines.append(f"group {d.name} = free-abelian {d.rank}")
            else:
                body = ",".join(str(x) for x in d.divisors)
                lines.append(f"group {d.name} = abelian [{body}]")
        elif isinstance(d, EmbedDecl):
            body = "; ".join(f"g{i} -> {_format_expr(e)}" for i, e in d.images)
            lines.append(f"embed {d.name} : {d.source} -> {d.target} {{ {body} }}")
        elif isinstance(d, AmalgamDecl):
            lines.append(
                f"amalgam {d.name} = {', '.join(d.factors)} "
                f"over {d.amalgam} via {', '.join(d.embeds)}"
            )
        else:
            body = " * ".join(
                f"{ref[1]}:{_format_expr(e)}" for ref, e in d.syllables
            )
            lines.append(f"word {d.name} in {d.amalgam} = {body}")
    return "\n".join(lines) + ("\n" if lines else "")


# -------------------------------------------------------------- resolution


@dataclass
class ResolvedSpec:
    """Semantic objects for every declaration, in declaration order."""

    groups: dict = field(default_factory=dict)
    embeds: dict = field(default_factory=dict)
    amalgams: dict = field(default_factory=dict)
    words: dict = field(default_factory=dict)  # name -> (amalgam name, word)


def _perm_mul(p, q):
    # (p*q)(x) = p(q(x))
    return tuple(p[x] for x in q)


def _invert(p):
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def _perm_pow(p, k: int):
    # square-and-multiply: the atom need not be a group member, so k cannot
    # be reduced modulo an order read off a table
    if k < 0:
        p, k = _invert(p), -k
    out = tuple(range(len(p)))
    while k:
        if k & 1:
            out = _perm_mul(out, p)
        k >>= 1
        if k:
            p = _perm_mul(p, p)
    return out


class _Lookups:
    """Tables that live for one resolve call: declarations by name, atom
    permutations, and element indices of evaluated expressions."""

    def __init__(self, sf: SpecFile):
        self.decls = {d.name: d for d in sf.declarations}
        self._perms = {}  # (degree, cycles, power) -> permutation
        self._exprs = {}  # (group name, ElementExpr) -> element index

    def perm(self, degree: int, cycles: tuple, power: int = 1):
        key = (degree, cycles, power)
        p = self._perms.get(key)
        if p is None:
            p = perm_from_cycles(degree, cycles)
            if power != 1:
                p = _perm_pow(p, power)
            self._perms[key] = p
        return p

    def index(self, G: FiniteGroup, perm) -> int:
        idx = permutation_index(G, perm)
        if idx is None:
            label = cycle_label(perm)
            raise ResolutionError(
                f"permutation {label} is not an element of {G.name or 'the group'}",
                name=label,
            )
        return idx

    def evaluate(self, expr: ElementExpr, decl: GroupDecl, G: FiniteGroup) -> int:
        """Index in the permutation group G of the product of expr's atoms."""
        key = (decl.name, expr)
        idx = self._exprs.get(key)
        if idx is None:
            # whole expression composes as permutations, so juxtaposed cycles
            # form one element even when the pieces are not members themselves
            acc = None
            for atom in expr.atoms:
                if atom.kind == "identity":
                    continue
                if atom.kind == "gen":
                    cycles = decl.generators[atom.index - 1]
                else:
                    cycles = (atom.points,)
                p = self.perm(decl.degree, cycles, atom.power)
                acc = p if acc is None else _perm_mul(acc, p)
            idx = self.index(G, tuple(range(decl.degree)) if acc is None else acc)
            self._exprs[key] = idx
        return idx


def _finite_generator_elements(decl: GroupDecl, G: FiniteGroup, look: _Lookups) -> list:
    if decl.kind == "cyclic":
        return [1 % G.order]  # g; in cyclic 1 it is the identity
    return [look.index(G, look.perm(decl.degree, cycles)) for cycles in decl.generators]


def _eval_finite(expr: ElementExpr, decl: GroupDecl, G: FiniteGroup, look: _Lookups) -> int:
    if decl.kind == "perm":
        return look.evaluate(expr, decl, G)
    out = G.identity
    for atom in expr.atoms:
        if atom.kind != "gen":
            continue
        out = G.mul(out, G.power(1 % G.order, atom.power))
    return out


def _eval_abelian(expr: ElementExpr, A: FGAbelian) -> tuple:
    v = [0] * A.ngens
    for atom in expr.atoms:
        if atom.kind == "identity":
            continue
        # cycle atoms cannot reach here: the parser pins them to perm groups
        v[atom.index - 1] += atom.power
    return A.canon(v)


def _build_group(decl: GroupDecl, look: _Lookups):
    if decl.kind == "perm":
        gens = [look.perm(decl.degree, cycles) for cycles in decl.generators]
        return group_from_permutations(decl.degree, gens, name=decl.name)
    if decl.kind == "cyclic":
        return cyclic_group(decl.order, name=decl.name)
    if decl.kind == "free-abelian":
        return FGAbelian(decl.rank, ())
    torsion = tuple(d for d in decl.divisors if d != 0)
    free_rank = sum(1 for d in decl.divisors if d == 0)
    return FGAbelian(free_rank, torsion)


def _build_embed(decl: EmbedDecl, ctx: ResolvedSpec, look: _Lookups):
    C = ctx.groups[decl.source]
    G = ctx.groups[decl.target]
    exprs = dict(decl.images)
    if isinstance(C, FiniteGroup) and isinstance(G, FiniteGroup):
        tgt_decl = look.decls[decl.target]
        gen_elems = _finite_generator_elements(look.decls[decl.source], C, look)
        mapping: dict[int, int] = {}
        for i, e in exprs.items():
            key = gen_elems[i - 1]
            img = _eval_finite(e, tgt_decl, G, look)
            if key == C.identity:
                if img != G.identity:
                    raise NotAHomomorphism(
                        f"generator g{i} is the identity but maps to {G.label(img)}"
                    )
                continue
            if key in mapping and mapping[key] != img:
                raise NotAHomomorphism(
                    f"generators g{i} and an earlier one are the same element "
                    "but map differently"
                )
            mapping[key] = img
        return hom_from_generator_images(C, G, mapping)
    if isinstance(C, FGAbelian) and isinstance(G, FGAbelian):
        cols = [
            list(_eval_abelian(exprs[i], G)) for i in range(1, C.ngens + 1)
        ]
        return IntMatrix.from_columns(cols, rows=G.ngens)
    if isinstance(C, FGAbelian) and isinstance(G, FiniteGroup):
        if C.ngens == 0:
            return None
        raise EmbeddingTypeMismatch(
            "an abelian group with generators cannot embed into a finite factor"
        )
    raise EmbeddingTypeMismatch(
        "a finite amalgam group cannot embed into an abelian factor"
    )


def resolve(sf: SpecFile) -> ResolvedSpec:
    """Build groups, homomorphisms, amalgams, and words from a parse tree.

    Every declaration is built and checked, whether or not a later command
    reads it.
    """
    ctx = ResolvedSpec()
    look = _Lookups(sf)
    for decl in sf.declarations:
        if isinstance(decl, GroupDecl):
            ctx.groups[decl.name] = _build_group(decl, look)
        elif isinstance(decl, EmbedDecl):
            ctx.embeds[decl.name] = _build_embed(decl, ctx, look)
        elif isinstance(decl, AmalgamDecl):
            ctx.amalgams[decl.name] = AmalgamSpec(
                [ctx.groups[f] for f in decl.factors],
                ctx.groups[decl.amalgam],
                [ctx.embeds[e] for e in decl.embeds],
            )
        else:
            factors = look.decls[decl.amalgam].factors
            word = []
            for ref, expr in decl.syllables:
                idx = ref[1] if ref[0] == "index" else factors.index(ref[1])
                fname = factors[idx]
                F = ctx.groups[fname]
                if isinstance(F, FiniteGroup):
                    word.append((idx, _eval_finite(expr, look.decls[fname], F, look)))
                else:
                    word.append((idx, _eval_abelian(expr, F)))
            ctx.words[decl.name] = (decl.amalgam, word)
    return ctx
