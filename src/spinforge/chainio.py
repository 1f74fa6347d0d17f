"""Serialization of designed chains to a small JSON document format.

One schema covers the four chain kinds the tools exchange: ``pst``
(mirror-transfer couplings), ``ising`` (transverse fields plus ZZ
couplings), ``zy`` (the deformed family, stored as underlying couplings,
on-site terms, and the deformation parameter), and ``xx`` (exchange
chains).  Every document embeds provenance, the command line, seed, and
tolerances that produced it, so any artifact can be regenerated.
Serialization is deterministic: identical documents produce identical
bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .ghz_ising import IsingChain
from .isoflow import GammaMatrix
from .numerics import SymTridiag
from .pst import PstChain

SCHEMA_VERSION = 1
KINDS = ("pst", "ising", "zy", "xx")


@dataclass(frozen=True)
class ChainDocument:
    """A chain artifact: kind, arrays, optional deformation, provenance."""

    kind: str
    n: int
    couplings: np.ndarray
    fields: np.ndarray
    gamma: Optional[float] = None
    provenance: dict = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self):
        couplings = np.asarray(self.couplings, dtype=float)
        fields = np.asarray(self.fields, dtype=float)
        object.__setattr__(self, "couplings", couplings)
        object.__setattr__(self, "fields", fields)
        if self.schema_version != SCHEMA_VERSION:
            raise ValueError(f"unsupported schema version {self.schema_version}")
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")
        if self.n < 2:
            raise ValueError("chains need at least two sites")
        for name, values in (("couplings", couplings), ("fields", fields)):
            if not np.isfinite(values).all():
                raise ValueError(f"{name} must be finite, got {values.tolist()}")
        if couplings.shape != (self.n - 1,):
            raise ValueError("coupling count must be one less than the size")
        expected_fields = 0 if self.kind == "pst" else self.n
        if fields.shape != (expected_fields,):
            raise ValueError(f"a {self.kind} document needs {expected_fields} "
                             "field entries")
        if self.kind == "zy":
            if self.gamma is None or not 0.0 <= self.gamma <= 1.0:
                raise ValueError("zy documents need gamma in [0, 1]")
        elif self.gamma is not None:
            raise ValueError(f"{self.kind} documents carry no gamma")
        if not isinstance(self.provenance, dict):
            raise ValueError("provenance must be a mapping")
        for value in self.provenance.get("tolerances", {}).values():
            if not value > 0:
                raise ValueError("tolerances must be positive")


def make_provenance(command: str, seed: Optional[int] = None,
                    tolerances: Optional[dict] = None) -> dict:
    return {
        "command": command,
        "seed": seed,
        "tolerances": dict(tolerances or {}),
    }


def document_to_json(doc: ChainDocument) -> str:
    payload = {
        "schema_version": doc.schema_version,
        "kind": doc.kind,
        "n": doc.n,
        "couplings": [float(c) for c in doc.couplings],
        "fields": [float(b) for b in doc.fields],
        "gamma": doc.gamma,
        "provenance": doc.provenance,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def document_from_json(text: str) -> ChainDocument:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as err:
        raise ValueError(f"not a chain document: {err}") from err
    if not isinstance(payload, dict):
        raise ValueError("not a chain document: top level must be an object")
    missing = {"schema_version", "kind", "n", "couplings", "fields"} - set(payload)
    if missing:
        raise ValueError(f"chain document is missing {sorted(missing)}")
    try:
        n, version = int(payload["n"]), int(payload["schema_version"])
    except (TypeError, ValueError, OverflowError) as err:
        raise ValueError(f"chain document n and schema_version must be "
                         f"integers: {err}") from err
    return ChainDocument(
        kind=payload["kind"],
        n=n,
        couplings=np.asarray(payload["couplings"], dtype=float),
        fields=np.asarray(payload["fields"], dtype=float),
        gamma=payload.get("gamma"),
        provenance=payload.get("provenance", {}),
        schema_version=version,
    )


def write_document(doc: ChainDocument, path) -> None:
    Path(path).write_text(document_to_json(doc))


def read_document(path) -> ChainDocument:
    return document_from_json(Path(path).read_text())


# ---------------------------------------------------------------------------
# conversions between documents and the module objects


def document_from_pst(chain: PstChain, provenance: dict) -> ChainDocument:
    return ChainDocument(kind="pst", n=chain.n, couplings=chain.couplings,
                         fields=np.zeros(0), provenance=provenance)


def pst_chain(doc: ChainDocument) -> PstChain:
    """Rebuild the mirror-transfer chain; its half period is pi/2 by the
    standard spectrum convention."""
    if doc.kind != "pst":
        raise ValueError(f"expected a pst document, got {doc.kind}")
    return PstChain(couplings=doc.couplings, transfer_time=np.pi / 2)


def document_from_ising(chain: IsingChain, provenance: dict) -> ChainDocument:
    return ChainDocument(kind="ising", n=chain.n, couplings=chain.couplings,
                         fields=chain.fields, provenance=provenance)


def ising_chain(doc: ChainDocument) -> IsingChain:
    if doc.kind != "ising":
        raise ValueError(f"expected an ising document, got {doc.kind}")
    return IsingChain(fields=doc.fields, couplings=doc.couplings)


def document_from_gamma(x: GammaMatrix, provenance: dict) -> ChainDocument:
    return ChainDocument(kind="zy", n=x.n, couplings=x.couplings(),
                         fields=x.diag, gamma=float(x.gamma),
                         provenance=provenance)


def gamma_matrix(doc: ChainDocument) -> GammaMatrix:
    if doc.kind != "zy":
        raise ValueError(f"expected a zy document, got {doc.kind}")
    return GammaMatrix(diag=doc.fields,
                       upper=doc.couplings * (1.0 + doc.gamma),
                       lower=doc.couplings * (1.0 - doc.gamma),
                       gamma=doc.gamma)


def document_from_xx(chain: SymTridiag, provenance: dict) -> ChainDocument:
    return ChainDocument(kind="xx", n=chain.n, couplings=chain.offdiag,
                         fields=chain.diag, provenance=provenance)


def xx_chain(doc: ChainDocument) -> SymTridiag:
    if doc.kind != "xx":
        raise ValueError(f"expected an xx document, got {doc.kind}")
    return SymTridiag(doc.fields, doc.couplings)
