"""Output checks that share no code with amalgam.

Everything here is recomputed from first principles: permutation and
small-group arithmetic, integer matrix algebra, and byte comparison with
stored transcripts. Each check raises Mismatch with a reason when the
output it is given is wrong, and returns quietly otherwise. This module
never imports amalgam.
"""

from __future__ import annotations

import itertools
import re


class Mismatch(Exception):
    """An operation's output contradicts an independent computation."""


def require(condition, reason: str):
    if not condition:
        raise Mismatch(reason)


# ------------------------------------------------------------- permutations
#
# A permutation of degree n is a tuple of 0-based images. Products follow
# the spec format: (p * q)(x) = p(q(x)), so q acts first.


def perm_mul(p, q):
    return tuple(p[x] for x in q)


def perm_inv(p):
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def perm_pow(p, k: int):
    if k < 0:
        p, k = perm_inv(p), -k
    out = tuple(range(len(p)))
    for _ in range(k):
        out = perm_mul(out, p)
    return out


def parse_cycles(text: str, degree: int):
    """Cycle notation with 1-based points; "()" and "e" are the identity."""
    images = list(range(degree))
    for cycle in re.findall(r"\(([^()]*)\)", text):
        points = [int(p) - 1 for p in cycle.split()]
        for a, b in zip(points, points[1:] + points[:1]):
            images[a] = b
    return tuple(images)


def format_cycles(p) -> str:
    seen, parts = set(), []
    for start in range(len(p)):
        if start in seen or p[start] == start:
            continue
        cycle, x = [], start
        while x not in seen:
            seen.add(x)
            cycle.append(str(x + 1))
            x = p[x]
        parts.append("(" + " ".join(cycle) + ")")
    return "".join(parts) or "e"


def closure(gens, identity, mul):
    """Every product of the generators, in breadth-first order."""
    elems, seen, i = [identity], {identity}, 0
    while i < len(elems):
        for g in gens:
            y = mul(elems[i], g)
            if y not in seen:
                seen.add(y)
                elems.append(y)
        i += 1
    return elems


def perm_group(degree: int, generator_cycles):
    gens = [parse_cycles(c, degree) for c in generator_cycles]
    return closure(gens, tuple(range(degree)), perm_mul)


# ------------------------------------------------------------ target models


class Model:
    """A small finite group: its elements, product and label syntax."""

    def __init__(self, name, elements, mul, parse):
        self.name = name
        self.elements = list(elements)
        self.mul = mul
        self.parse = parse
        self.identity = next(
            e for e in self.elements if all(mul(e, x) == x for x in self.elements)
        )

    @property
    def order(self) -> int:
        return len(self.elements)

    def derived_length(self):
        """Strict steps down the derived series, or None if it stalls."""
        current, steps = self.elements, 0
        while len(current) > 1:
            inv = {x: next(y for y in self.elements if self.mul(x, y) == self.identity)
                   for x in current}
            comms = {self.mul(self.mul(x, y), self.mul(inv[x], inv[y]))
                     for x in current for y in current}
            nxt = closure(sorted(comms), self.identity, self.mul)
            if len(nxt) == len(current):
                return None
            current, steps = nxt, steps + 1
        return steps


_QUATERNION_UNITS = {"1": (1, 0, 0, 0), "i": (0, 1, 0, 0), "j": (0, 0, 1, 0), "k": (0, 0, 0, 1)}


def _hamilton(p, q):
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    return (
        a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
        a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
        a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
        a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
    )


def _parse_quaternion(label: str):
    sign = -1 if label.startswith("-") else 1
    return tuple(sign * v for v in _QUATERNION_UNITS[label.lstrip("-")])


def _split_pair(label: str):
    """"(a,b)" -> ("a", "b"), splitting at the comma outside parentheses."""
    inner, depth = label[1:-1], 0
    for pos, ch in enumerate(inner):
        depth += {"(": 1, ")": -1}.get(ch, 0)
        if ch == "," and depth == 0:
            return inner[:pos], inner[pos + 1:]
    raise Mismatch(f"label {label!r} is not a pair")


def target_model(name: str) -> Model:
    """The catalog group a witness names, rebuilt from its name alone."""
    if "x" in name:
        left, right = name.split("x", 1)
        a, b = target_model(left), target_model(right)
        return Model(
            name,
            itertools.product(a.elements, b.elements),
            lambda x, y: (a.mul(x[0], y[0]), b.mul(x[1], y[1])),
            lambda s: tuple(m.parse(part) for m, part in zip((a, b), _split_pair(s))),
        )
    kind, n = name[0], int(name[1:])
    if kind == "C":
        return Model(
            name, range(n), lambda x, y: (x + y) % n,
            lambda s: 0 if s == "e" else 1 if s == "g" else int(s[2:]) % n,
        )
    if kind == "D":
        def dmul(x, y):
            return (x[0] ^ y[0], (x[1] + (y[1] if x[0] == 0 else -y[1])) % n)

        def dparse(s):
            flip = 1 if s.startswith("s") else 0
            turn = re.search(r"r(\d+)$", s)
            return (flip, int(turn.group(1)) % n if turn else 0)

        return Model(name, itertools.product((0, 1), range(n)), dmul, dparse)
    if name == "Q8":
        units = [tuple(s * v for v in u) for u in _QUATERNION_UNITS.values() for s in (1, -1)]
        return Model(name, units, _hamilton, _parse_quaternion)
    if kind in "SA":
        perms = [
            p for p in itertools.permutations(range(n))
            if kind == "S" or _is_even(p)
        ]
        return Model(name, perms, perm_mul, lambda s: parse_cycles(s, n))
    raise Mismatch(f"unknown target group {name!r}")


def _is_even(p) -> bool:
    return sum(1 for i in range(len(p)) for j in range(i) if p[j] > p[i]) % 2 == 0


# ------------------------------------------------------ separation witnesses


def check_oracle_witness(doc: dict, factors, glue, word):
    """A reported homomorphism onto a catalog group really separates the word.

    factors: per factor, (degree, list of its elements as permutations).
    glue: per factor, the image of the amalgamated generator; the
    amalgamated subgroup is cyclic of order glue_order = its order.
    word: (factor index, permutation) syllables.
    Re-evaluates every relator of the amalgam's presentation (the Cayley
    products of each factor and the gluing) and the word under the images.
    """
    require(doc.get("separated") is True, "the word was not separated")
    target = doc["target"]
    model = target_model(target["name"])
    require(model.order == target["order"], f"{target['name']} has order {model.order}")
    dl = model.derived_length()
    require(dl is not None, f"{target['name']} is not solvable")
    require(dl == target["derived_length"], f"{target['name']} has derived length {dl}")
    images = {}
    for gen_label, image_label in doc["hom"]["generator_images"]:
        i, perm_text = gen_label.split(":", 1)
        degree = factors[int(i)][0]
        images[(int(i), parse_cycles(perm_text, degree))] = model.parse(image_label)

    def img(i, p):
        if p == tuple(range(len(p))):
            return model.identity
        require((i, p) in images, f"no image for {i}:{format_cycles(p)}")
        return images[(i, p)]

    for i, (_, elems) in enumerate(factors):
        for x in elems:
            for y in elems:
                require(
                    img(i, perm_mul(x, y)) == model.mul(img(i, x), img(i, y)),
                    f"relator {i}:{format_cycles(x)} * {i}:{format_cycles(y)} breaks",
                )
    for k in range(1, _perm_order(glue[0])):
        first = img(0, perm_pow(glue[0], k))
        for i, g in enumerate(glue):
            require(img(i, perm_pow(g, k)) == first, f"gluing relator breaks at factor {i}")
    value = model.identity
    for i, p in word:
        value = model.mul(value, img(i, p))
    require(value != model.identity, "the word maps to the identity")
    require(value == model.parse(doc["image"]["label"]), "reported image differs")


def _split_top(text: str):
    """"a,b,c" -> ["a", "b", "c"], splitting at commas outside parentheses."""
    parts, depth, start = [], 0, 0
    for pos, ch in enumerate(text):
        depth += {"(": 1, ")": -1}.get(ch, 0)
        if ch == "," and depth == 0:
            parts.append(text[start:pos])
            start = pos + 1
    return parts + [text[start:]]


def check_central_witness(doc: dict, factors, glue, word):
    """A central-product witness really separates the word.

    The quotient is rebuilt here as the direct product of the factors modulo
    {(g_0^a_0, ..., g_k^a_k) : a_0 + ... + a_k = 0 mod |g|}, g_i = glue[i]
    central in factor i. Its labels "[(x_0,...,x_k)]" name coset
    representatives. Checks that each factor's generator images extend to
    an injective homomorphism, that the glue images agree, that the word's
    image is not the identity and equals the reported one, and that the
    reported order and derived length are those of the rebuilt quotient.
    """
    require(doc.get("separated") is True, "the word was not separated")
    # components are indices into each factor's element list
    index = [{x: k for k, x in enumerate(elems)} for _, elems in factors]
    table = [[[idx[perm_mul(x, y)] for y in elems] for x in elems]
             for idx, (_, elems) in zip(index, factors)]
    m = _perm_order(glue[0])
    powers = [[idx[perm_pow(g, a)] for a in range(m)] for idx, g in zip(index, glue)]
    # per factor and element x: (least index in x<g>, a with x * g^a at it)
    least = [[min((tab[x][p], a) for a, p in enumerate(pw)) for x in range(len(tab))]
             for tab, pw in zip(table, powers)]

    def canon(xs):
        out, total = [], 0
        for x, lst in zip(xs[:-1], least):
            out.append(lst[x][0])
            total += lst[x][1]
        return tuple(out) + (table[-1][xs[-1]][powers[-1][-total % m]],)

    def mul(xs, ys):
        return canon(tuple(tab[x][y] for tab, x, y in zip(table, xs, ys)))

    def component(text, i):
        x = parse_cycles(text, factors[i][0])
        require(x in index[i], f"{text} is not in factor {i}")
        return index[i][x]

    def parse(label):
        require(label.startswith("[(") and label.endswith(")]"), f"bad coset label {label!r}")
        parts = _split_top(label[2:-2])
        require(len(parts) == len(factors), f"label {label!r} has {len(parts)} components")
        return canon(tuple(component(p, i) for i, p in enumerate(parts)))

    identity = canon(tuple(idx[tuple(range(deg))] for idx, (deg, _) in zip(index, factors)))
    homs = []
    for i, (deg, elems) in enumerate(factors):
        gens = [(parse_cycles(g, deg), parse(img)) for g, img in doc["hom"][f"factor_{i}"]]
        hom, queue = {tuple(range(deg)): identity}, [tuple(range(deg))]
        for x in queue:  # extend along the Cayley graph; a clash breaks a relator
            for g, image in gens:
                y, value = perm_mul(x, g), mul(hom[x], image)
                if y not in hom:
                    hom[y] = value
                    queue.append(y)
                require(hom[y] == value, f"relator breaks at {i}:{format_cycles(y)}")
        require(len(hom) == len(elems), f"factor {i} generators miss elements")
        require(len(set(hom.values())) == len(elems), f"factor {i} does not embed")
        homs.append(hom)
    require(len({hom[g] for hom, g in zip(homs, glue)}) == 1, "gluing relator breaks")
    value = identity
    for i, p in word:
        value = mul(value, homs[i][p])
    require(value != identity, "the word maps to the identity")
    require(value == parse(doc["image"]["label"]), "reported image differs")
    elems = closure([v for hom in homs for v in hom.values()], identity, mul)
    at = {x: k for k, x in enumerate(elems)}
    products = [[at[mul(x, y)] for y in elems] for x in elems]
    quotient = Model("quotient", range(len(elems)), lambda a, b: products[a][b], None)
    size = 1
    for _, factor_elems in factors:
        size *= len(factor_elems)
    require(quotient.order == size // m ** (len(factors) - 1),
            f"quotient of order {quotient.order}")
    require(doc["target"]["order"] == quotient.order, f"reported order {doc['target']['order']}")
    require(doc["target"]["derived_length"] == quotient.derived_length(),
            "reported derived length differs")


def _perm_order(p) -> int:
    k, x = 1, p
    while x != tuple(range(len(p))):
        x, k = perm_mul(x, p), k + 1
    return k


# ------------------------------------------------------------ integer algebra


def mat_mul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def det(m) -> int:
    """Fraction-free Bareiss elimination; exact for integer matrices."""
    a = [list(r) for r in m]
    n, sign, prev = len(a), 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def check_snf(m, u, d, v, invariant_factors):
    """U * M * V = D, D is a divisibility chain, U and V are unimodular."""
    require(mat_mul(mat_mul(u, m), v) == d, "U * M * V differs from D")
    diag = [d[i][i] for i in range(min(len(d), len(d[0])))]
    require(
        all(d[i][j] == 0 for i in range(len(d)) for j in range(len(d[0])) if i != j),
        "D has an off-diagonal entry",
    )
    require(all(x >= 0 for x in diag), "D has a negative diagonal entry")
    for a, b in zip(diag, diag[1:]):
        require((a == 0 and b == 0) or (a != 0 and b % a == 0), f"{a} does not divide {b}")
    require(list(invariant_factors) == diag, "invariant factors differ from the diagonal of D")
    require(abs(det(u)) == 1, "U is not unimodular")
    require(abs(det(v)) == 1, "V is not unimodular")
    dm = det(m) if len(m) == len(m[0]) else None
    if dm:
        product = 1
        for x in diag:
            product *= x
        require(product == abs(dm), f"invariant factors multiply to {product}, |det M| = {abs(dm)}")


# -------------------------------------------------------------- transcripts


def check_transcript(result, exit_code: int, stream: str, expected: str):
    """A CLI run's exit code and bytes equal a stored golden transcript."""
    code, out, err = result
    require(code == exit_code, f"exit {code}, transcript says {exit_code}")
    shown, silent = (out, err) if stream == "out" else (err, out)
    require(shown == expected, f"std{stream} differs from the transcript")
    require(silent == "", "the other stream is not empty")


def check_same_output(result, first):
    require(result == first, "output differs from the first pass")


def check_reductions(engine_nf, oracle_nf, round_trip_is_identity: bool):
    """Both reduction lanes agree, and w * w^-1 reduces to the identity."""
    require(engine_nf == oracle_nf, "engine and oracle normal forms differ")
    require(round_trip_is_identity, "w * w^-1 does not reduce to the identity")
