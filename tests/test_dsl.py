"""Text format: parsing, canonical printing, and resolution."""

import gc
import re
import time
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amalgam import dsl, groups
from amalgam.dsl import (
    MAX_PERM_DEGREE,
    MAX_WORD_SYLLABLES,
    AmalgamDecl,
    EmbedDecl,
    GroupDecl,
    SpecFile,
    WordDecl,
    _tokenize_line,
    format_specfile,
    parse,
    resolve,
)
from amalgam.errors import (
    ClosureCapExceeded,
    EmbeddingTypeMismatch,
    NotAHomomorphism,
    ParseError,
    ResolutionError,
    WordTooLong,
)
from amalgam.groups import FiniteGroup
from amalgam.lattice import FGAbelian, IntMatrix
from amalgam.witness import double_retraction
from amalgam.words import reduce, word_label

S3_PAIR = """\
group S3 = perm 3 { (1 2); (1 2 3) }
group C3 = cyclic 3
embed ea : C3 -> S3 { g -> (1 2 3) }
embed eb : C3 -> S3 { g1 -> (1 2 3) }
amalgam G = S3, S3 over C3 via ea, eb
word t in G = 0:(1 2) * 1:(1 2 3)
"""

LATTICE_PAIR = """\
group A = free-abelian 2
group B = free-abelian 1
group C = free-abelian 1
embed ea : C -> A { g -> g1^2 }
embed eb : C -> B { g -> g1 }
amalgam M = A, B over C via ea, eb
word wa in M = A:g1
word wb in M = B:g1
"""


def _decl(sf, name):
    return next((d for d in sf.declarations if d.name == name), None)


def test_parse_declaration_kinds():
    sf = parse(S3_PAIR)
    kinds = [type(d) for d in sf.declarations]
    assert kinds == [GroupDecl, GroupDecl, EmbedDecl, EmbedDecl, AmalgamDecl, WordDecl]
    assert _decl(sf, "G").factors == ("S3", "S3")
    assert _decl(sf, "missing") is None


def test_empty_input_parses_to_empty_file():
    assert parse("") == SpecFile()
    assert parse("\n  \n# only a comment\n") == SpecFile()
    assert format_specfile(SpecFile()) == ""


def test_comments_and_blank_lines_are_skipped():
    sf = parse("# header\n\ngroup C2 = cyclic 2  # trailing note\n")
    assert len(sf.declarations) == 1
    assert sf.declarations[0].order == 2


def test_bare_g_is_generator_one():
    sf = parse("group C4 = cyclic 4\ngroup C2 = cyclic 2\n"
               "embed e : C2 -> C4 { g -> g^2 }\n")
    decl = _decl(sf, "e")
    assert decl.images[0][0] == 1


def test_word_syllables_and_inverse_power():
    sf = parse(S3_PAIR + "word w in G = 0:(1 2) * 1:(1 2 3)^-1\n")
    w = _decl(sf, "w")
    assert len(w.syllables) == 2
    assert w.syllables[1][1].atoms[0].power == -1


def test_round_trip_on_the_sample_files():
    for text in (S3_PAIR, LATTICE_PAIR):
        printed = format_specfile(parse(text))
        assert parse(printed) == parse(text)
        assert format_specfile(parse(printed)) == printed


def test_print_normalizes_bare_g():
    printed = format_specfile(parse("group C6 = cyclic 6\n"
                                    "group C3 = cyclic 3\n"
                                    "embed e : C3 -> C6 { g -> g^2 }\n"))
    assert "g1 -> g1^2" in printed


# ---------------------------------------------------------------- errors


def test_unknown_statement_location():
    with pytest.raises(ParseError) as exc:
        parse("group C2 = cyclic 2\nfnord x = 1\n")
    assert (exc.value.line, exc.value.col) == (2, 1)
    assert "group, embed, amalgam, or word" in exc.value.expected


def test_duplicate_name_rejected():
    with pytest.raises(ParseError, match="already declared"):
        parse("group X = cyclic 2\ngroup X = cyclic 3\n")


def test_forward_reference_rejected():
    with pytest.raises(ResolutionError) as exc:
        parse("group C2 = cyclic 2\n"
              "embed e : C2 -> S3 { g -> g }\n"
              "group S3 = perm 3 { (1 2); (1 2 3) }\n")
    assert exc.value.name == "S3"


def test_unknown_amalgam_in_word():
    with pytest.raises(ResolutionError) as exc:
        parse("word w in Nope = 0:g\n")
    assert exc.value.name == "Nope"


def test_generator_symbol_out_of_range():
    with pytest.raises(ParseError, match="out of range"):
        parse("group C2 = cyclic 2\ngroup C4 = cyclic 4\n"
              "embed e : C2 -> C4 { g2 -> g }\n")


def test_cycle_point_outside_degree():
    with pytest.raises(ParseError) as exc:
        parse("group S3 = perm 3 { (1 4) }")
    assert exc.value.line == 1
    assert "degree 3" in str(exc.value)


def test_cycle_atom_rejected_outside_perm_groups():
    with pytest.raises(ParseError, match="only valid in permutation groups"):
        parse("group C4 = cyclic 4\ngroup C2 = cyclic 2\n"
              "embed e : C2 -> C4 { g -> (1 2) }\n")


def test_free_factor_before_torsion_rejected():
    with pytest.raises(ParseError, match="torsion divisors must precede"):
        parse("group A = abelian [0,2]\n")


def test_divisor_one_rejected():
    with pytest.raises(ParseError, match="at least 2"):
        parse("group A = abelian [1,2]\n")


def test_missing_generator_image():
    with pytest.raises(ParseError, match="no image for generator"):
        parse("group V = abelian [2,2]\ngroup C2 = cyclic 2\n"
              "embed e : V -> C2 { g1 -> g }\n")


def test_repeated_generator_image():
    with pytest.raises(ParseError, match="mapped twice"):
        parse("group C2 = cyclic 2\ngroup C4 = cyclic 4\n"
              "embed e : C2 -> C4 { g1 -> g^2; g1 -> g^2 }\n")


def test_trailing_tokens_rejected():
    with pytest.raises(ParseError) as exc:
        parse("group A = cyclic 2 extra")
    assert exc.value.col == 20


def test_unterminated_line_points_past_the_end():
    with pytest.raises(ParseError) as exc:
        parse("group A = perm 3 { (1 2)")
    assert exc.value.col == len("group A = perm 3 { (1 2)") + 1


def test_factor_name_ambiguous_in_doubled_amalgam():
    with pytest.raises(ResolutionError, match="use a 0-based index"):
        parse(S3_PAIR + "word w in G = S3:(1 2)\n")


def test_factor_index_out_of_range():
    with pytest.raises(ParseError, match="factor index 2 out of range"):
        parse(S3_PAIR + "word w in G = 2:(1 2)\n")


def test_word_cap_enforced():
    body = " * ".join(f"{i % 2}:(1 2)" for i in range(MAX_WORD_SYLLABLES + 1))
    with pytest.raises(WordTooLong):
        parse(S3_PAIR + f"word w in G = {body}\n")


def test_cap_boundary_still_parses():
    body = " * ".join(f"{i % 2}:(1 2)" for i in range(MAX_WORD_SYLLABLES))
    sf = parse(S3_PAIR + f"word w in G = {body}\n")
    assert len(_decl(sf, "w").syllables) == MAX_WORD_SYLLABLES


def test_unrecognized_character():
    with pytest.raises(ParseError) as exc:
        parse("group C2 = cyclic 2\ngroup A = cyclic 2 @ # @ in a comment is fine\n")
    assert str(exc.value) == "unrecognized character '@'"
    assert (exc.value.line, exc.value.col, exc.value.expected) == (2, 20, "token")
    with pytest.raises(ParseError, match="unrecognized character 'é'") as exc:
        parse("group é = cyclic 2\n")
    assert exc.value.col == 7


def test_perm_degree_over_the_cap_fails_fast():
    for degree in (MAX_PERM_DEGREE + 1, 3_000_000, 100_000_000):
        start = time.perf_counter()
        with pytest.raises(ParseError) as exc:
            parse(f"group P = perm {degree} {{ (1 2) }}\n")
        assert time.perf_counter() - start < 1
        assert str(exc.value) == f"degree {degree} exceeds the cap {MAX_PERM_DEGREE}"
        assert (exc.value.line, exc.value.col) == (1, 16)
        assert exc.value.expected == f"1..{MAX_PERM_DEGREE}"


def test_perm_degree_at_the_cap_parses_and_resolves():
    text = f"group P = perm {MAX_PERM_DEGREE} {{ (1 {MAX_PERM_DEGREE}) }}\n"
    assert parse(text).declarations[0].degree == MAX_PERM_DEGREE
    assert resolve(parse(text)).groups["P"].order == 2


def test_bad_points_in_cycles_are_reported_at_their_own_columns():
    line = "group S3 = perm 3 { (1 2)(2\t 07 3); (3 0) }"
    with pytest.raises(ParseError) as exc:
        parse(line)
    assert str(exc.value) == "point 7 outside degree 3"
    assert (exc.value.col, exc.value.expected) == (line.index("07") + 1, "1..3")
    with pytest.raises(ParseError) as exc:
        parse("group C2 = cyclic 2\nembed e : C2 -> C2 { g -> (1 2) }\n")
    assert str(exc.value) == "cycle notation is only valid in permutation groups"
    assert exc.value.col == 27


# Each bad line follows the first `kept` lines of S3_PAIR, so it is line kept + 1.
# The rows pin the message, column and expected text of every ParseError the
# parser raises: at the end of the line, at a token it did not expect, and
# at a token whose value is out of range.
GRAMMAR_ERRORS = [
    (2, "embed ea : C3", "unexpected end of line, expected '->'", 14, "'->'"),
    (2, "embed ea : C3 = S3 { g -> (1 2 3) }", "expected '->', found '='", 15, "->"),
    (2, "embed ea : C3 -> S3 { g", "unexpected end of line, expected '->'", 24, "'->'"),
    (2, "embed ea : C3 -> S3 { g (1 2 3) }", "expected '->', found '('", 25, "->"),
    (4, "amalgam G = S3, S3 under C3 via ea, eb", "expected 'over', found 'under'", 20, "over"),
    (4, "amalgam G = S3, S3 : C3 via ea, eb", "expected 'over', found ':'", 20, "'over'"),
    (4, "amalgam G = S3, S3", "unexpected end of line, expected 'over'", 19, "'over'"),
    (4, "amalgam G = S3, S3 over C3 with ea, eb", "expected 'via', found 'with'", 28, "via"),
    (4, "amalgam G = S3, S3 over C3 ; ea, eb", "expected 'via', found ';'", 28, "'via'"),
    (4, "amalgam G = S3, S3 over C3", "unexpected end of line, expected 'via'", 27, "'via'"),
    (6, "word w on G = 0:(1 2)", "expected 'in', found 'on'", 8, "in"),
    (6, "word w = 0:(1 2)", "expected 'in', found '='", 8, "'in'"),
    (6, "word w", "unexpected end of line, expected 'in'", 7, "'in'"),
    (4, "amalgam G = S3,", "unexpected end of line, expected a factor group name", 16,
     "a factor group name"),
    (4, "amalgam G = S3, , S3 over C3 via ea, eb", "expected a factor group name, found ','",
     17, "a factor group name"),
    (4, "amalgam G = S3, S3, over C3 via ea, eb", "expected a factor group name, found 'over'",
     21, "a factor group name"),
    (4, "amalgam G = S3, S3 over C3 via ea, via", "expected an embedding name, found 'via'", 36,
     "an embedding name"),
    (4, "amalgam G = S3, S3 over via ea, eb", "expected the amalgam group name, found 'via'",
     25, "the amalgam group name"),
    (0, "group over = cyclic 2", "expected a group name, found 'over'", 7, "a group name"),
    (2, "embed via : C3 -> S3 { g -> (1 2 3) }", "expected an embedding name, found 'via'", 7,
     "an embedding name"),
    (4, "amalgam G = S3, S3 over C3 via ea,", "unexpected end of line, expected an embedding name",
     35, "an embedding name"),
    (4, "amalgam G = S3, S3 over C3 via ea, ; eb", "expected an embedding name, found ';'", 36,
     "an embedding name"),
    (0, "group P = perm 3 { (1 2)", "unexpected end of line, expected a cycle", 25, "a cycle"),
    (0, "group P = perm 3 { (1 2);", "unexpected end of line, expected a cycle", 26, "a cycle"),
    (0, "group P = perm 3 { (1 2);; (1 2 3) }", "expected a cycle, found ';'", 26, "(p1 p2 ...)"),
    (2, "embed ea : C3 -> S3 { g -> (1 2 3)",
     "unexpected end of line, expected a source generator", 35, "a source generator"),
    (2, "embed ea : C3 -> S3 { g -> (1 2 3);",
     "unexpected end of line, expected a source generator", 36, "a source generator"),
    (2, "embed ea : C3 -> S3 { g -> (1 2 3)^", "unexpected end of line, expected an exponent", 36,
     "an exponent"),
    (2, "embed ea : C3 -> S3 { g -> (1 2 3)^ }", "expected an exponent, found '}'", 37,
     "an exponent"),
    (2, "embed ea : C3 -> S3 { g -> g^ }", "expected an exponent, found '}'", 31, "an exponent"),
    (0, "group A = abelian [2,,4]", "expected a divisor, found ','", 22, "integer"),
    (0, "group A = abelian [2,", "unexpected end of line, expected a divisor or ']'", 22,
     "a divisor or ']'"),
    (0, "group A = abelian [2 4]", "expected ',' or ']', found '4'", 22, "',' or ']'"),
    (0, "group A = abelian [2", "unexpected end of line, expected ',' or ']'", 21, "',' or ']'"),
    (0, "group A = cyclic 2 extra", "trailing input 'extra'", 20, "end of line"),
    (0, "group A = cyclic 2 @", "unrecognized character '@'", 20, "token"),
    (2, "embed ea : C3 -> S3 { x -> (1 2 3) }", "expected a generator symbol, found 'x'", 23,
     "g1..g1"),
    (2, "embed ea : C3 -> S3 { g2 -> (1 2 3) }",
     "generator g2 out of range (the group declares 1)", 23, "g1..g1"),
    (2, "embed ea : C3 -> S3 { g -> (1 4) }", "point 4 outside degree 3", 31, "1..3"),
    (0, "group S3 = perm 3 { (1 2)(2 07 3) }", "point 7 outside degree 3", 29, "1..3"),
    (0, "group S3 = perm 3 { (1 -2) }", "point -2 outside degree 3", 24, "1..3"),
    (0, "group S3 = perm 3 { (1 x) }", "expected a point, found 'x'", 24, "integer"),
    (2, "embed ea : C3 -> C3 { g -> (1 2) }",
     "cycle notation is only valid in permutation groups", 28, "generator symbol"),
    (2, "embed ea : C3 -> S3 { g -> 5 }", "unexpected '5' in element expression", 28,
     "generator, cycle, or 'e'"),
    (2, "embed ea : C3 -> S3 { g -> }", "empty element expression", 28, "an atom"),
    (5, "word w in G = 0:", "empty element expression", 17, "an atom"),
    (0, "group P = perm 0 { }", "degree 0 must be positive", 11, ""),
    (0, "group Z = cyclic 0", "order 0 must be positive", 11, ""),
    (0, "group Z = free-abelian -1", "rank -1 must be nonnegative", 11, ""),
    (0, "group A = abelian [1,2]", "divisor 1 must be 0 (a free factor) or at least 2", 20, ""),
    (0, "group A = abelian [0,2]", "torsion divisors must precede free factors (0 entries)", 22,
     ""),
    (0, "group A = abelian [2, 0, 3]", "torsion divisors must precede free factors (0 entries)",
     26, ""),
    (0, "group A = dihedral 4", "unknown group kind 'dihedral'", 11,
     "perm, cyclic, free-abelian, or abelian"),
    (2, "embed ea : C3 -> S3 { g -> (1 2 3); g -> (1 2 3) }", "generator g1 mapped twice", 37,
     ""),
    (2, "embed ex : S3 -> S3 { g1 -> (1 2) }", "no image for generator(s) g2", 36, ""),
    (5, "word w in G = 2:(1 2)", "factor index 2 out of range", 15, "0..1"),
    (5, "word w in G = :(1 2)", "expected a factor reference, found ':'", 15,
     "group name or index"),
    (5, "word w in G = 0:(1 2) ; 1:(1 2 3)", "expected '*' between syllables, found ';'", 23,
     "*"),
    (1, "fnord x = 1", "unknown statement 'fnord'", 1, "group, embed, amalgam, or word"),
    (1, "group S3 = cyclic 2", "name 'S3' already declared", 1, ""),
]


@pytest.mark.parametrize("kept, line, message, col, expected", GRAMMAR_ERRORS)
def test_grammar_error_details(kept, line, message, col, expected):
    prefix = "".join(S3_PAIR.splitlines(keepends=True)[:kept])
    with pytest.raises(ParseError) as exc:
        parse(prefix + line)
    err = exc.value
    assert (str(err), err.line, err.col, err.expected) == (message, kept + 1, col, expected)


# Each text follows the first `kept` lines of S3_PAIR. The rows pin the message
# and name of every ResolutionError that parse or resolve raises.
RESOLUTION_ERRORS = [
    (2, "embed ex : C9 -> S3 { g -> (1 2 3) }", "unknown group 'C9'", "C9"),
    (2, "embed ex : C3 -> S9 { g -> (1 2 3) }", "unknown group 'S9'", "S9"),
    (4, "amalgam H = S3, S9 over C3 via ea, eb", "unknown group 'S9'", "S9"),
    (4, "amalgam H = S3, S3 over C9 via ea, eb", "unknown group 'C9'", "C9"),
    (4, "amalgam H = S9, S3 over C9 via ea, ec", "unknown group 'S9'", "S9"),
    (4, "amalgam H = S3, S3 over C3 via ea, ec", "unknown embedding 'ec'", "ec"),
    (5, "word w in H = 0:(1 2)", "unknown amalgam 'H'", "H"),
    (5, "word w in G = C3:g", "'C3' is not a factor of 'G'", "C3"),
    (5, "word w in G = S3:(1 2)",
     "'S3' occurs 2 times among the factors; use a 0-based index instead", "S3"),
    (2, "group A3 = perm 3 { (1 2 3) }\nembed ex : C3 -> A3 { g -> (1 2) }",
     "permutation (1 2) is not an element of A3", "(1 2)"),
]


@pytest.mark.parametrize("kept, text, message, name", RESOLUTION_ERRORS)
def test_resolution_error_details(kept, text, message, name):
    prefix = "".join(S3_PAIR.splitlines(keepends=True)[:kept])
    with pytest.raises(ResolutionError) as exc:
        resolve(parse(prefix + text))
    assert (str(exc.value), exc.value.name) == (message, name)


# ---------------------------------------------------------------- tokenizer

REFERENCE_TOKEN_RE = re.compile(
    r"(?P<ws>[ \t]+)"
    r"|(?P<comment>#.*)"
    r"|(?P<arrow>->)"
    r"|(?P<num>-?\d+)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*(?:-[A-Za-z_][A-Za-z0-9_]*)*)"
    r"|(?P<punct>[={}()\[\],;:*^])"
)


def reference_tokenize_line(text: str, line_no: int) -> list:
    """The per-match tokenizer that the one-pass scan replaced, as
    (kind, text, line, col) tuples; a cycle is "(", its points and ")"."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = REFERENCE_TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(
                f"unrecognized character {text[pos]!r}", line_no, pos + 1, expected="token"
            )
        kind = m.lastgroup
        if kind not in ("ws", "comment"):
            tokens.append((kind, m.group(), line_no, pos + 1))
        pos = m.end()
    return tokens


def _tokens_or_error(tokenize, text: str):
    try:
        tokens = tokenize(text, 7)
    except ParseError as e:
        return ("error", str(e), e.line, e.col, e.expected)
    if tokenize is reference_tokenize_line:
        return tokens
    # a cycle token stands for "(", the points and ")" that follow it
    out = []
    for tok in tokens:
        if tok.kind != "cycle":
            out.append(tuple(tok))
            continue
        assert tok.text == "("
        end = text.index(")", tok.col)
        inner = reference_tokenize_line(text[tok.col - 1 : end + 1], tok.line)
        assert [k for k, *_ in inner] == ["punct"] + ["num"] * (len(inner) - 2) + ["punct"]
        assert all(s.isdecimal() for _, s, *_ in inner[1:-1])  # no sign
        out += [(k, s, ln, tok.col - 1 + c) for k, s, ln, c in inner]
    return out


def assert_same_tokens(text: str):
    assert _tokens_or_error(_tokenize_line, text) == _tokens_or_error(
        reference_tokenize_line, text
    ), text


def test_tokens_match_the_reference_on_the_golden_specs():
    lines = 0
    for path in sorted((Path(__file__).parent / "golden").glob("*.amg")):
        for line in path.read_text(encoding="utf-8").splitlines():
            assert_same_tokens(line)
            lines += 1
    assert lines > 50


Q8_ATOMS = ["(1 3 2 4)(5 7 6 8)", "(1 4 2 3)(5 8 6 7)", "(1 5 2 6)(3 8 4 7)",
            "(1 6 2 5)(3 7 4 8)", "(1 2)(3 4)(5 6)(7 8)", "e", "g1^-1", "g2^3"]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 1), st.sampled_from(Q8_ATOMS)), min_size=1, max_size=64),
    st.sampled_from([" ", "  ", "\t", ""]),
)
def test_property_long_words_tokenize_like_the_reference(syllables, gap):
    body = f"{gap}*{gap}".join(f"{i}:{gap}{a}" for i, a in syllables)
    assert_same_tokens(f"word w in G = {body}{gap}")


FRAGMENTS = ["(", ")", "1", "23", "0", "-5", "-", "->", ">", " ", "  ", "\t", "#", "é", "@",
             "g", "g2", "e", "^", "*", ":", ";", "{", "}", "[", "]", ",", "=", "perm",
             "free-abelian", "x-", "_a", "(1 2)", "( 3\t4 )", "()", "(1 -2)"]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(FRAGMENTS), max_size=24).map("".join))
def test_property_random_lines_tokenize_like_the_reference(line):
    assert_same_tokens(line)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.lists(st.integers(-3, 12), max_size=5), min_size=1, max_size=4),
    st.sampled_from([" ", "\t", " \t "]),
)
def test_property_cycle_points_are_checked_at_their_columns(cycles, gap):
    degree = 9
    line = "group P = perm 9 { " + "".join(
        "(" + gap.join(str(p) for p in c) + ")" for c in cycles
    ) + " }"
    bad = [tok for tok in reference_tokenize_line(line, 1)[7:]
           if tok[0] == "num" and not 1 <= int(tok[1]) <= degree]
    if not bad:
        assert parse(line).declarations[0].generators == (tuple(tuple(c) for c in cycles),)
        return
    with pytest.raises(ParseError) as exc:
        parse(line)
    assert str(exc.value) == f"point {int(bad[0][1])} outside degree {degree}"
    assert (exc.value.col, exc.value.expected) == (bad[0][3], f"1..{degree}")


# ------------------------------------------------------------- resolution


def test_resolve_builds_the_permutation_group():
    ctx = resolve(parse(S3_PAIR))
    S3 = ctx.groups["S3"]
    assert isinstance(S3, FiniteGroup)
    assert S3.order == 6
    assert ctx.groups["C3"].order == 3


def test_resolve_formats_no_labels(monkeypatch):
    # labels are display-only: resolving finds permutations by their images
    formatted = []

    def spy(perm):
        formatted.append(perm)
        return "()"

    monkeypatch.setattr(groups, "cycle_label", spy)
    monkeypatch.setattr(dsl, "cycle_label", spy)
    monkeypatch.setattr(FiniteGroup, "label", lambda G, a: formatted.append(a))
    monkeypatch.setattr(FiniteGroup, "labels", property(lambda G: formatted.append(G)))
    for path in sorted((Path(__file__).parent / "golden").glob("*.amg")):
        text = path.read_text()
        if path.name != "bad_point.amg":
            resolve(parse(text))
    assert formatted == []


def test_resolve_keeps_nothing_alive_after_it_returns():
    ctx = resolve(parse(S3_PAIR + "word w in G = 0:(1 2)(1 3) * 1:g2^-1\n"))
    refs = [weakref.ref(G) for G in ctx.groups.values()]
    del ctx
    gc.collect()
    assert [r() for r in refs] == [None, None]


def test_resolve_evaluates_each_syllable_in_its_own_factor():
    # one expression text in two groups, and one cycle at several powers
    ctx = resolve(parse(
        "group S3 = perm 3 { (1 2); (1 2 3) }\n"
        "group S4 = perm 4 { (1 2); (1 2 3 4) }\n"
        "group C2 = cyclic 2\n"
        "embed a : C2 -> S3 { g -> (1 2) }\n"
        "embed b : C2 -> S4 { g -> (1 2) }\n"
        "amalgam G = S3, S4 over C2 via a, b\n"
        "word w in G = 0:(1 2 3) * 1:(1 2 3) * 0:(1 2 3)^2 * 1:(1 2 3)^-1 * 0:g2 * 1:g2^3\n"
    ))
    factors = [ctx.groups["S3"], ctx.groups["S4"]]
    _, w = ctx.words["w"]
    assert [factors[i].label(x) for i, x in w] == [
        "(1 2 3)", "(1 2 3)", "(1 3 2)", "(1 3 2)", "(1 2 3)", "(1 4 3 2)"
    ]


def test_cyclic_group_over_the_order_cap_is_refused():
    # checked before the 5001 x 5001 table is allocated
    with pytest.raises(ClosureCapExceeded, match="cyclic order 5001 exceeds cap 5000"):
        resolve(parse("group Z = cyclic 5001\n"))


def test_resolve_embedding_is_a_hom():
    ctx = resolve(parse(S3_PAIR))
    e = ctx.embeds["ea"]
    C3, S3 = ctx.groups["C3"], ctx.groups["S3"]
    g = e.apply(1)
    assert S3.label(g) == "(1 2 3)"
    assert e.apply(C3.mul(1, 1)) == S3.mul(g, g)


def test_resolve_amalgam_word_and_reduce():
    ctx = resolve(parse(S3_PAIR))
    spec = ctx.amalgams["G"]
    name, w = ctx.words["t"]
    assert name == "G"
    assert word_label(spec, w) == "0:(1 2) * 1:(1 2 3)"
    assert not reduce(spec, w).is_identity()


def test_resolve_abelian_groups_and_matrix_embedding():
    ctx = resolve(parse(LATTICE_PAIR))
    A = ctx.groups["A"]
    assert isinstance(A, FGAbelian)
    assert (A.free_rank, A.torsion) == (2, ())
    ea = ctx.embeds["ea"]
    assert isinstance(ea, IntMatrix)
    assert ea.to_rows() == [[2], [0]]
    _, wa = ctx.words["wa"]
    assert wa == [(0, (1, 0))]


def test_resolve_mixed_divisor_list():
    ctx = resolve(parse("group T = abelian [2,4,0]\n"))
    T = ctx.groups["T"]
    assert (T.free_rank, T.torsion) == (1, (2, 4))


@pytest.mark.parametrize(
    "body, divisors",
    [("[]", ()), ("[2]", (2,)), ("[2,4,0]", (2, 4, 0)), ("[ 2 , 4 , 0 ]", (2, 4, 0)),
     ("[2,4,0,]", (2, 4, 0)), ("[0,]", (0,))],
)
def test_abelian_divisors_are_comma_separated_with_an_optional_trailing_comma(body, divisors):
    assert parse(f"group A = abelian {body}\n").declarations[0].divisors == divisors


def test_resolve_trivial_abelian_into_finite_factor():
    ctx = resolve(parse("group S3 = perm 3 { (1 2); (1 2 3) }\n"
                        "group Z0 = free-abelian 0\n"
                        "embed e : Z0 -> S3 { }\n"))
    assert ctx.embeds["e"] is None


def test_resolve_rejects_abelian_into_finite():
    sf = parse("group S3 = perm 3 { (1 2); (1 2 3) }\n"
               "group Z = free-abelian 1\n"
               "embed e : Z -> S3 { g -> (1 2 3) }\n")
    with pytest.raises(EmbeddingTypeMismatch):
        resolve(sf)


def test_resolve_rejects_finite_into_abelian():
    sf = parse("group Z = free-abelian 1\ngroup C2 = cyclic 2\n"
               "embed e : C2 -> Z { g -> g1 }\n")
    with pytest.raises(EmbeddingTypeMismatch):
        resolve(sf)


def test_resolve_rejects_non_hom_images():
    sf = parse("group C2 = cyclic 2\ngroup C4 = cyclic 4\n"
               "embed e : C2 -> C4 { g -> g }\n")
    with pytest.raises(NotAHomomorphism):
        resolve(sf)


C1_INTO_S3 = """\
group C1 = cyclic 1
group S3 = perm 3 { (1 2); (1 2 3) }
embed a : C1 -> S3 { g -> e }
"""


def test_cyclic_1_embeds_with_its_generator_at_the_identity():
    ctx = resolve(parse(C1_INTO_S3))
    assert ctx.embeds["a"].images == (ctx.groups["S3"].identity,)


def test_cyclic_1_generator_must_map_to_the_identity():
    sf = parse(C1_INTO_S3.replace("g -> e", "g -> (1 2)"))
    with pytest.raises(NotAHomomorphism) as exc:
        resolve(sf)
    assert str(exc.value) == "generator g1 is the identity but maps to (1 2)"


IDENTITY_GENERATOR = """\
group P = perm 3 { (); (1 2) }
group C1 = cyclic 1
group C2 = cyclic 2
embed e : P -> C2 { g1 -> e; g2 -> g }
embed a : C1 -> P { g -> e }
amalgam D = P, P over C1 via a, a
"""


def test_identity_listed_in_a_perm_group_is_not_a_generator():
    ctx = resolve(parse(IDENTITY_GENERATOR))
    assert ctx.groups["P"].generator_indices == (1,)
    assert ctx.embeds["e"].images == (0, 1)
    cert = double_retraction(ctx.amalgams["D"])
    assert cert.hom_data["factor_0"] == [["(1 2)", "(1 2)"]]


def test_identity_listed_in_a_perm_group_must_map_to_the_identity():
    sf = parse(IDENTITY_GENERATOR.replace("g1 -> e; g2 -> g", "g1 -> g; g2 -> g"))
    with pytest.raises(NotAHomomorphism) as exc:
        resolve(sf)
    assert str(exc.value) == "generator g1 is the identity but maps to g"


def test_cyclic_1_is_a_target():
    ctx = resolve(parse("group C1 = cyclic 1\ngroup C2 = cyclic 2\n"
                        "embed b : C2 -> C1 { g -> g }\n"))
    assert ctx.embeds["b"].images == (0, 0)


def test_resolve_word_element_not_in_group():
    sf = parse("group V = perm 4 { (1 2)(3 4); (1 3)(2 4) }\n"
               "group C2 = cyclic 2\n"
               "embed ea : C2 -> V { g -> (1 2)(3 4) }\n"
               "embed eb : C2 -> V { g -> (1 3)(2 4) }\n"
               "amalgam G = V, V over C2 via ea, eb\n"
               "word w in G = 0:(1 2)\n")
    with pytest.raises(ResolutionError) as exc:
        resolve(sf)
    assert exc.value.name == "(1 2)"


C6_PAIR = """\
group C6 = cyclic 6
group C2 = cyclic 2
embed ea : C2 -> C6 { g -> g^3 }
embed eb : C2 -> C6 { g -> g^3 }
amalgam G = C6, C6 over C2 via ea, eb
"""


@pytest.mark.parametrize(
    "text,word,order",
    [
        (S3_PAIR, "0:(1 2)^{k} * 1:(1 2)", 2),
        (S3_PAIR, "0:(1 2 3)^{k} * 1:(1 2)", 3),
        (C6_PAIR, "0:g^{k} * 1:g", 6),
    ],
)
@pytest.mark.parametrize("k", [10**18 + 1, -(10**18) - 1])
def test_huge_exponent_resolves_fast(text, word, order, k):
    def normal_form(exponent):
        ctx = resolve(parse(text + f"word w in G = {word.format(k=exponent)}\n"))
        name, w = ctx.words["w"]
        return reduce(ctx.amalgams[name], w)

    start = time.perf_counter()
    nf = normal_form(k)
    assert time.perf_counter() - start < 1.0
    assert nf == normal_form(k % order)


# -------------------------------------------------------------- property


@st.composite
def random_specfiles(draw):
    lines = ["group S3 = perm 3 { (1 2); (1 2 3) }",
             "group C3 = cyclic 3",
             "embed ea : C3 -> S3 { g -> (1 2 3) }",
             "embed eb : C3 -> S3 { g -> (1 2 3)^-1 }",
             "amalgam G = S3, S3 over C3 via ea, eb"]
    atoms = ["(1 2)", "(1 3)", "(2 3)", "(1 2 3)^-1", "(1 2)(1 3)", "e"]
    n_words = draw(st.integers(min_value=0, max_value=3))
    for k in range(n_words):
        syls = draw(st.lists(
            st.tuples(st.integers(0, 1), st.sampled_from(atoms)),
            min_size=1, max_size=6))
        body = " * ".join(f"{i}:{a}" for i, a in syls)
        lines.append(f"word w{k} in G = {body}")
    return "\n".join(lines) + "\n"


@settings(max_examples=60, deadline=None)
@given(random_specfiles())
def test_property_print_parse_round_trip(text):
    sf = parse(text)
    printed = format_specfile(sf)
    assert parse(printed) == sf
    assert format_specfile(parse(printed)) == printed


@settings(max_examples=30, deadline=None)
@given(random_specfiles())
def test_property_resolution_survives_round_trip(text):
    before = resolve(parse(text))
    after = resolve(parse(format_specfile(parse(text))))
    spec_b = before.amalgams["G"]
    for name, (_, w) in before.words.items():
        _, w2 = after.words[name]
        assert w == w2
        assert reduce(spec_b, w).is_identity() == reduce(
            after.amalgams["G"], w2).is_identity()
