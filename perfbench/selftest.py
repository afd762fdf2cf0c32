"""Self-test of the benchmark's checks: each must reject a corrupted result.

    python3 perfbench/selftest.py

For every workload it runs one real operation, confirms its checker
accepts the genuine result, then corrupts the result and confirms the
checker raises Mismatch. It also confirms that BENCHMARK.json lists the
per-layer metrics the tracer reports. Exits 1 if any case fails.
"""

import dataclasses
import json
import sys
import tempfile
from pathlib import Path

import run
from spans import METRICS
from verify import Mismatch, check_snf

CASES = []


def case(fn):
    CASES.append(fn)
    return fn


def rejects(check, result, reason_part: str = ""):
    try:
        check(result)
    except Mismatch as exc:
        if reason_part not in str(exc):
            raise AssertionError(f"rejected for another reason: {exc}") from None
        return
    raise AssertionError("the corrupted result was accepted")


def op_named(ops, name):
    return next(op for op in ops if op.name == name)


@case
def golden_byte_flip(workdir):
    _, wl, _ = run.set_up("golden", 0, workdir)
    op = op_named(wl, "certify_central_q8")
    code, out, err = op.run()
    assert op.check((code, out, err)) is False
    flipped = out[:40] + chr(ord(out[40]) ^ 1) + out[41:]
    rejects(op.check, (code, flipped, err), "differs from the transcript")


@case
def wrong_invariant_factor(workdir):
    _, wl, _ = run.set_up("quotients", 0, workdir)
    op = op_named(wl, "abelianize_c2_c4_c8")
    code, out, err = op.run()
    assert op.check((code, out, err)) is False
    doc = json.loads(out)
    doc["invariant_factors"] = [2, 4, 4]
    rejects(op.check, (code, json.dumps(doc), err), "invariants")


@case
def central_images_break_relator(workdir):
    _, wl, _ = run.set_up("quotients", 0, workdir)
    op = op_named(wl, "witness_q8_triple")
    code, out, err = op.run()
    assert op.check((code, out, err)) is False
    doc = json.loads(out)
    assert doc["engine"] == "central_amalgam", doc["engine"]
    # send g1 of factor 1 where g1 of factor 0 goes: the word then dies
    doc["hom"]["factor_1"][0][1] = doc["hom"]["factor_0"][0][1]
    rejects(op.check, (code, json.dumps(doc), err), "relator")


@case
def snf_not_unimodular(workdir):
    _, wl, _ = run.set_up("quotients", 0, workdir)
    op = op_named(wl, "snf_9x9_0")
    assert op.check(op.run()) is False
    # U * M * V = D and D is a valid chain, but det U = 2
    m = [[1, 0], [0, 2]]
    rejects(lambda _: check_snf(m, [[2, 0], [0, 1]], [[2, 0], [0, 2]], [[1, 0], [0, 1]], [2, 2]),
            None, "U is not unimodular")


@case
def oracle_images_break_relator(workdir):
    _, wl, _ = run.set_up("search", 0, workdir)
    op = op_named(wl, "witness_q8_pair_s0")
    code, out, err = op.run()
    assert op.check((code, out, err)) is False
    doc = json.loads(out)
    images = doc["hom"]["generator_images"]
    labels = sorted({img for _, img in images})
    images[0][1] = next(lab for lab in labels if lab != images[0][1])
    rejects(op.check, (code, json.dumps(doc), err), "relator")


@case
def engine_disagrees_with_oracle(workdir):
    _, wl, _ = run.set_up("words", 0, workdir)
    op = wl[0]
    engine_nf, oracle_nf = op.run()
    assert op.check((engine_nf, oracle_nf)) is False
    assert oracle_nf.tail, "the sample word reduced to its head"
    wrong = dataclasses.replace(oracle_nf, tail=oracle_nf.tail[:-1])
    rejects(op.check, (engine_nf, wrong), "normal forms differ")


@case
def benchmark_lists_tracer_metrics(workdir):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert listed == METRICS, "BENCHMARK.json per_layer differs from spans.METRICS"


def main() -> int:
    bad = 0
    for fn in CASES:
        run.RESULTS.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.RESULTS) as tmp:
            try:
                fn(Path(tmp))
                print(f"ok    {fn.__name__}")
            except AssertionError as exc:
                bad += 1
                print(f"FAIL  {fn.__name__}: {exc}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
