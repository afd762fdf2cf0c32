"""Certificates and witness results produced by the theorem engines.

A Certificate separates machine-verified ``checks`` from recorded-but-
unverified ``claims``; only the checks decide pass or fail. Everything here
serializes to JSON-safe dicts of ints, strings, booleans, lists, and dicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .groups import FiniteGroup, derived_length


@dataclass(frozen=True)
class Check:
    """One named, reproducible boolean verification with its evidence."""

    name: str
    passed: bool
    evidence: str = ""

    def to_dict(self) -> dict:
        out = {"name": self.name, "passed": self.passed}
        if self.evidence:
            out["evidence"] = self.evidence
        return out


@dataclass
class Certificate:
    """A construction's description, checks and claims. target and hom, the
    quotient built and the map into it, are kept for witness results and
    never serialized."""

    kind: str
    quotient_description: dict = field(default_factory=dict)
    hom_data: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    claims: list = field(default_factory=list)
    target: FiniteGroup | None = field(default=None, compare=False, repr=False)
    hom: object = field(default=None, compare=False, repr=False)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def status(self) -> str:
        return "ok" if self.all_passed else "checks-failed"

    def check(self, name: str) -> Check:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "status": self.status,
            "quotient_description": dict(self.quotient_description),
            "hom_data": dict(self.hom_data),
            "checks": [c.to_dict() for c in self.checks],
            "claims": list(self.claims),
        }


def word_to_json(word) -> list:
    """Raw word as JSON-safe [[factor, element], ...] (vectors become lists)."""
    out = []
    for i, x in word:
        out.append([i, list(x) if isinstance(x, (tuple, list)) else x])
    return out


@dataclass
class WitnessResult:
    """A successful separation: a solvable target and a nonidentity image."""

    word: list
    word_label: str
    engine: str
    target_description: dict
    hom_data: dict
    image: int
    image_label: str
    target_derived_length: int
    certificate: Certificate
    separated: bool = True

    def to_dict(self) -> dict:
        return {
            "separated": self.separated,
            "engine": self.engine,
            "word": word_to_json(self.word),
            "word_label": self.word_label,
            "target": dict(self.target_description),
            "hom": dict(self.hom_data),
            "image": {"index": self.image, "label": self.image_label},
            "target_derived_length": self.target_derived_length,
            "certificate": self.certificate.to_dict(),
        }


def witness_result(cert: Certificate, word, word_label: str, image: int) -> WitnessResult:
    """The separation of word by cert's construction: image is its image in cert.target."""
    target = cert.target
    dl = derived_length(target)
    return WitnessResult(
        word=list(word),
        word_label=word_label,
        engine=cert.kind,
        target_description={"order": target.order, "name": target.name, "derived_length": dl},
        hom_data=cert.hom_data,
        image=image,
        image_label=target.label(image),
        target_derived_length=dl,
        certificate=cert,
    )


@dataclass
class NotSeparatedAtLevelOne:
    """No engine separated the word.

    reason has one note per engine that ran: the word died in its quotient,
    its search was exhausted, or it stopped at a resource limit (the note
    names the error code). certificates holds each quotient that was built.
    """

    word: list
    word_label: str
    reason: str
    certificates: list = field(default_factory=list)

    separated = False

    def to_dict(self) -> dict:
        return {
            "separated": False,
            "word": word_to_json(self.word),
            "word_label": self.word_label,
            "reason": self.reason,
            "certificates": [c.to_dict() for c in self.certificates],
        }


@dataclass
class Exhausted:
    """A completed brute-force search that found no separating map."""

    nodes: int
    targets_tried: int

    def to_dict(self) -> dict:
        return {"exhausted": True, "nodes": self.nodes, "targets_tried": self.targets_tried}
