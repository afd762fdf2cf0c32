"""Command-line front end.

Every command reads declarations from a spec file (see the dsl module),
runs one engine, and prints a canonical JSON document: keys sorted,
two-space indent, integers only, trailing newline. Identical inputs
produce byte-identical output.

Exit codes: 0 when every check passed (or the query succeeded), 2 when the
construction ran but a check failed or a word was not separated, 1 on any
error. A witness engine stopped by --max-order, --budget or the generator cap
is not an error: it is named in the reason, and the next engine runs.
Errors are printed to stderr as structured JSON, never tracebacks.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from . import dsl, oracle
from .certs import word_to_json
from .errors import AmalgamError, IntegerTooLarge, InvalidGroup
from .groups import (
    DEFAULT_LATTICE_CAP,
    DEFAULT_MAX_ORDER,
    FiniteGroup,
    abelian_invariants,
    frattini,
    is_nilpotent,
    series,
)
from .lattice import FGAbelian, IntMatrix, snf
from .witness import ENGINE_ORDER, ENGINES, THEOREMS, separate_element
from .words import AmalgamSpec, reduce, word_label

SCHEMA = 1


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports through our error channel instead of exiting."""

    def error(self, message):
        raise _UsageError(message)


def _check_json_safe(obj, path="$"):
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return
    if isinstance(obj, float):
        raise TypeError(f"floating point value at {path}")
    if isinstance(obj, (list, tuple)):
        for k, v in enumerate(obj):
            _check_json_safe(v, f"{path}[{k}]")
        return
    if isinstance(obj, dict):
        for k, v in obj.items():
            if not isinstance(k, str):
                raise TypeError(f"non-string key at {path}")
            _check_json_safe(v, f"{path}.{k}")
        return
    raise TypeError(f"unserializable {type(obj).__name__} at {path}")


def emit_certificate(payload: dict) -> str:
    """Canonical JSON: sorted keys, exact integers, newline-terminated."""
    _check_json_safe(payload)
    try:
        text = json.dumps(payload, sort_keys=True, indent=2)
    except ValueError:
        # the only ValueError left once the payload is JSON-safe: the
        # interpreter's limit on converting an int to decimal text
        limit = sys.get_int_max_str_digits()
        raise IntegerTooLarge(
            f"result holds an integer with more than {limit} decimal digits",
            max_digits=limit,
        ) from None
    return text + "\n"


def _result(command: str, body: dict) -> dict:
    out = {"schema": SCHEMA, "command": command}
    out.update(body)
    return out


def _load(path: str) -> dsl.ResolvedSpec:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InvalidGroup(f"cannot read spec file: {exc}") from None
    return dsl.resolve(dsl.parse(text))


def _pick_amalgam(ctx: dsl.ResolvedSpec, requested):
    if requested is not None:
        if requested not in ctx.amalgams:
            raise _UsageError(f"no amalgam named {requested!r} in the spec file")
        return requested
    if len(ctx.amalgams) == 1:
        return next(iter(ctx.amalgams))
    raise _UsageError(
        "pass --amalgam: the spec file declares "
        f"{len(ctx.amalgams)} amalgams"
    )


def _pick_word(ctx: dsl.ResolvedSpec, name: str, amalgam):
    if name not in ctx.words:
        raise _UsageError(f"no word named {name!r} in the spec file")
    aname, w = ctx.words[name]
    if amalgam is not None and aname != amalgam:
        raise _UsageError(f"word {name!r} lives in amalgam {aname!r}")
    return aname, w


def _pick_group(ctx: dsl.ResolvedSpec, name):
    if name is None:
        raise _UsageError("pass --group")
    if name not in ctx.groups:
        raise _UsageError(f"no group named {name!r} in the spec file")
    return ctx.groups[name]


def _element_json(x):
    return list(x) if isinstance(x, (tuple, list)) else x


def _nf_json(spec: AmalgamSpec, nf) -> dict:
    return {
        "head": _element_json(nf.head),
        "head_label": spec.c_ops.label(nf.head),
        "tail": word_to_json(nf.tail),
        "tail_labels": [spec.adapters[i].label(x) for i, x in nf.tail],
        "is_identity": nf.is_identity(),
        "length": nf.length,
    }


# ---------------------------------------------------------------- commands


def _cmd_normal_form(ctx, args):
    aname, w = _pick_word(ctx, args.word[0], args.amalgam)
    spec = ctx.amalgams[aname]
    nf = reduce(spec, w)
    body = {
        "amalgam": aname,
        "word": word_to_json(w),
        "word_label": word_label(spec, w),
        "normal_form": _nf_json(spec, nf),
    }
    return _result("normal-form", body), 0


def _cmd_equal(ctx, args):
    aname1, w1 = _pick_word(ctx, args.word[0], args.amalgam)
    aname2, w2 = _pick_word(ctx, args.word[1], args.amalgam)
    if aname1 != aname2:
        raise _UsageError("the two words live in different amalgams")
    spec = ctx.amalgams[aname1]
    nf1, nf2 = reduce(spec, w1), reduce(spec, w2)
    body = {
        "amalgam": aname1,
        "equal": nf1 == nf2,
        "left": {"word": word_to_json(w1), "label": word_label(spec, w1)},
        "right": {"word": word_to_json(w2), "label": word_label(spec, w2)},
    }
    return _result("equal", body), 0


def _series_orders(G: FiniteGroup):
    chain = series(G, "derived")
    orders = [t.order for t in chain.terms]
    solvable = chain.stabilizes_trivial()
    return orders, solvable, (len(chain.terms) - 1 if solvable else None)


def _cmd_derived_series(ctx, args):
    G = _pick_group(ctx, args.group)
    if not isinstance(G, FiniteGroup):
        raise InvalidGroup("derived-series works on finite groups only")
    orders, solvable, dl = _series_orders(G)
    body = {
        "group": args.group,
        "order": G.order,
        "term_orders": orders,
        "solvable": solvable,
        "derived_length": dl,
    }
    return _result("derived-series", body), 0


def _cmd_abelianize(ctx, args):
    G = _pick_group(ctx, args.group)
    if isinstance(G, FGAbelian):
        factors = list(G.torsion)
        free_rank = G.free_rank
    else:
        factors = list(abelian_invariants(G))
        free_rank = 0
    order = 1
    for d in factors:
        order *= d
    body = {
        "group": args.group,
        "invariant_factors": factors,
        "free_rank": free_rank,
        "torsion_order": order,
    }
    return _result("abelianize", body), 0


def _cmd_snf(ctx, args):
    if args.matrix is None:
        raise _UsageError("pass --matrix '[[a,b],[c,d]]'")
    try:
        rows = json.loads(args.matrix)
    except json.JSONDecodeError as exc:
        raise _UsageError(f"bad matrix literal: {exc}") from None
    except ValueError:
        # json.loads raises a bare ValueError only for an integer literal
        # past the interpreter's decimal-digit conversion limit
        raise _UsageError(
            "matrix literal holds an integer with more than "
            f"{sys.get_int_max_str_digits()} decimal digits"
        ) from None
    except RecursionError:
        raise _UsageError("matrix literal is nested too deeply") from None
    if (
        not isinstance(rows, list)
        or not rows
        or not all(isinstance(r, list) and r for r in rows)
        or any(not isinstance(x, int) or isinstance(x, bool) for r in rows for x in r)
    ):
        raise _UsageError("matrix literal must be a nonempty list of integer rows")
    M = IntMatrix.from_rows(rows)
    dec = snf(M)
    if dec.U.mul(M).mul(dec.V) != dec.D:
        raise InvalidGroup("decomposition failed to verify")
    body = {
        "matrix": M.to_rows(),
        "invariant_factors": list(dec.invariant_factors),
        "diagonal": [dec.D.entry(i, i) for i in range(min(M.rows, M.cols))],
        "U": dec.U.to_rows(),
        "V": dec.V.to_rows(),
        "verified": True,
    }
    return _result("snf", body), 0


def _cmd_frattini(ctx, args):
    G = _pick_group(ctx, args.group)
    if not isinstance(G, FiniteGroup):
        raise InvalidGroup("frattini works on finite groups only")
    phi = frattini(G, cap=args.frattini_cap)
    chain = series(G, "derived")
    delta2 = chain.terms[1] if len(chain.terms) > 1 else chain.terms[0]
    phi_set = set(phi.elements)
    body = {
        "group": args.group,
        "order": G.order,
        "frattini_order": phi.order,
        "frattini_elements": [G.label(x) for x in phi.elements],
        "nilpotent": is_nilpotent(G),
        "commutator_subgroup_order": delta2.order,
        "contains_commutator_subgroup": set(delta2.elements) <= phi_set,
    }
    return _result("frattini", body), 0


def _cmd_certify(ctx, args):
    aname = _pick_amalgam(ctx, args.amalgam)
    spec = ctx.amalgams[aname]
    if args.theorem == "abelian-factor" and not 0 <= args.factor < len(spec.factors):
        raise _UsageError(f"--factor {args.factor} out of range")
    _, build, _ = ENGINES[args.theorem]
    limits = {
        "max_order": args.max_order,
        "frattini_cap": args.frattini_cap,
        "factor": args.factor,
    }
    cert = build(spec, limits)
    body = {
        "amalgam": aname,
        "theorem": args.theorem,
        "certificate": cert.to_dict(),
        "status": cert.status,
    }
    return _result("certify", body), 0 if cert.all_passed else 2


def _cmd_witness(ctx, args):
    aname, w = _pick_word(ctx, args.word[0], args.amalgam)
    spec = ctx.amalgams[aname]
    engines = ENGINE_ORDER if args.engines is None else tuple(args.engines.split(","))
    if not all(e in ENGINE_ORDER for e in engines):
        raise _UsageError(
            f"--engines takes a comma-separated list of {', '.join(ENGINE_ORDER)}; "
            f"got {args.engines!r}"
        )
    res = separate_element(
        spec,
        w,
        engines=engines,
        budget=args.budget,
        catalog_max=args.catalog_max,
        max_order=args.max_order,
    )
    body = {"amalgam": aname}
    body.update(res.to_dict())
    return _result("witness", body), 0 if res.separated else 2


def _random_word(spec: AmalgamSpec, rng: random.Random, max_len: int):
    w = []
    for _ in range(rng.randint(0, max_len)):
        i = rng.randrange(len(spec.factors))
        f = spec.factors[i]
        if isinstance(f, FiniteGroup):
            w.append((i, rng.randrange(f.order)))
        else:
            w.append((i, tuple(rng.randint(-3, 3) for _ in range(f.ngens))))
    return w


def _cmd_oracle_check(ctx, args):
    aname = _pick_amalgam(ctx, args.amalgam)
    spec = ctx.amalgams[aname]
    words = []
    for name in args.word or []:
        wa, w = _pick_word(ctx, name, aname)
        words.append((name, w))
    rng = random.Random(args.seed)
    for k in range(args.random):
        words.append((f"random-{k}", _random_word(spec, rng, args.max_len)))
    checked = 0
    for name, w in words:
        engine_nf = reduce(spec, w)
        oracle_nf = oracle.oracle_reduce(spec, w)
        checked += 1
        if engine_nf != oracle_nf:
            body = {
                "amalgam": aname,
                "agree": False,
                "words_checked": checked,
                "mismatch": {
                    "name": name,
                    "word": word_to_json(w),
                    "engine": _nf_json(spec, engine_nf),
                    "oracle": _nf_json(spec, oracle_nf),
                },
            }
            return _result("oracle-check", body), 2
    body = {"amalgam": aname, "agree": True, "words_checked": checked}
    return _result("oracle-check", body), 0


_COMMANDS = {
    "normal-form": _cmd_normal_form,
    "equal": _cmd_equal,
    "derived-series": _cmd_derived_series,
    "abelianize": _cmd_abelianize,
    "snf": _cmd_snf,
    "frattini": _cmd_frattini,
    "certify": _cmd_certify,
    "witness": _cmd_witness,
    "oracle-check": _cmd_oracle_check,
}


def _build_parser() -> _Parser:
    p = _Parser(prog="amalgam", description=__doc__, add_help=True)
    p.add_argument("command", choices=sorted(_COMMANDS))
    p.add_argument("--spec", help="path to a spec file")
    p.add_argument("--word", action="append", help="declared word name (repeatable)")
    p.add_argument("--group", help="declared group name")
    p.add_argument("--amalgam", help="declared amalgam name")
    p.add_argument("--matrix", help="integer matrix literal, e.g. [[2,4],[6,8]]")
    p.add_argument("--theorem", choices=THEOREMS)
    p.add_argument("--factor", type=int, default=0, help="factor index (abelian-factor)")
    p.add_argument("--engines", help="comma-separated engine subset")
    p.add_argument("--max-order", type=int, default=DEFAULT_MAX_ORDER)
    p.add_argument("--budget", type=int, default=oracle.DEFAULT_BUDGET)
    p.add_argument("--catalog-max", type=int, default=oracle.DEFAULT_CATALOG_MAX)
    p.add_argument("--frattini-cap", type=int, default=DEFAULT_LATTICE_CAP)
    p.add_argument("--random", type=int, default=100, help="random word count (oracle-check)")
    p.add_argument("--max-len", type=int, default=6, help="random word length cap")
    p.add_argument("--seed", type=int, default=0)
    return p


def _error_payload(code: str, message: str, details=None) -> dict:
    err = {"code": code, "message": message}
    if details:
        err["details"] = details
    return {"schema": SCHEMA, "error": err}


def run(argv, out, err) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "certify" and args.theorem is None:
            raise _UsageError("certify needs --theorem")
        if args.command in ("normal-form", "witness") and not args.word:
            raise _UsageError(f"{args.command} needs --word")
        if args.command == "equal" and len(args.word or []) != 2:
            raise _UsageError("equal needs exactly two --word flags")
        if args.command == "snf":
            ctx = None
        else:
            if not args.spec:
                raise _UsageError(f"{args.command} needs --spec")
            ctx = _load(args.spec)
        payload, code = _COMMANDS[args.command](ctx, args)
        out.write(emit_certificate(payload))
        return code
    except _UsageError as exc:
        err.write(emit_certificate(_error_payload("usage-error", str(exc))))
        return 1
    except AmalgamError as exc:
        p = exc.payload()
        err.write(
            emit_certificate(
                _error_payload(p["code"], p["message"], p.get("details"))
            )
        )
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:], sys.stdout, sys.stderr))


if __name__ == "__main__":
    main()
