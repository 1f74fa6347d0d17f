"""Serialization of designed chains to a small JSON document format.

One schema covers the four chain kinds the tools exchange: ``pst``
(mirror-transfer couplings), ``ising`` (n transverse fields plus n - 1 ZZ
couplings, read into the 2n-site ``Chain`` of their Majorana band B1, J1,
..., Bn, as ``ghz_ising`` takes it), ``zy`` (a member of the deformed
family, stored as its couplings J, on-site terms and deformation parameter,
the three fields of ``isoflow.GammaMatrix``, which alone derives the bands
from them), and ``xx`` (exchange chains, whose field entries are all
zero).  Every document embeds provenance, the command line, seed,
and tolerances that produced it, so any artifact can be regenerated, and
the numpy, BLAS and thread settings it ran under.
Serialization is deterministic: identical documents produce identical
bytes.
"""

from __future__ import annotations

import json
import numbers
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import THREAD_VARIABLES, __version__
from .isoflow import GammaMatrix
from .numerics import Chain

SCHEMA_VERSION = 1
KINDS = ("pst", "ising", "zy", "xx")


def _is_number(value) -> bool:
    """A real number that JSON writes as one: not a bool, not a string."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _float_array(name: str, values) -> np.ndarray:
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError) as err:
        raise ValueError(f"{name} must be a list of numbers, got {values!r}") from err


@dataclass(frozen=True, eq=False)
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
        couplings = _float_array("couplings", self.couplings)
        fields = _float_array("fields", self.fields)
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
            if not (_is_number(self.gamma) and 0.0 <= self.gamma <= 1.0):
                raise ValueError(
                    f"zy documents need gamma in [0, 1], got {self.gamma!r}")
        elif self.gamma is not None:
            raise ValueError(f"{self.kind} documents carry no gamma")
        if not isinstance(self.provenance, dict):
            raise ValueError("provenance must be a mapping")
        tolerances = self.provenance.get("tolerances", {})
        if not isinstance(tolerances, dict):
            raise ValueError(f"provenance tolerances must be a mapping, "
                             f"got {tolerances!r}")
        for name, value in tolerances.items():
            if not (_is_number(value) and value > 0):
                raise ValueError(f"tolerance {name!r} must be a positive "
                                 f"number, got {value!r}")


def make_provenance(command: str, seed: Optional[int] = None,
                    tolerances: Optional[dict] = None) -> dict:
    """Command, seed and tolerances, plus the package version, the numpy
    version, the BLAS it was built against, the SciPy version if a caller
    loaded SciPy (null if not; no module of the package imports it) and the
    thread variables the process saw (null if unset)."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    scipy = sys.modules.get("scipy")
    return {
        "command": command,
        "seed": seed,
        "tolerances": dict(tolerances or {}),
        "spinforge": __version__,
        "numpy": np.__version__,
        "scipy": None if scipy is None else scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {name: os.environ.get(name) for name in THREAD_VARIABLES},
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
    for name in ("n", "schema_version"):
        if isinstance(payload[name], bool) or not isinstance(payload[name], int):
            raise ValueError(f"chain document n and schema_version must be "
                             f"integers, got {name} = {payload[name]!r}")
    return ChainDocument(
        kind=payload["kind"],
        n=payload["n"],
        couplings=payload["couplings"],
        fields=payload["fields"],
        gamma=payload.get("gamma"),
        provenance=payload.get("provenance", {}),
        schema_version=payload["schema_version"],
    )


def write_document(doc: ChainDocument, path) -> None:
    Path(path).write_text(document_to_json(doc))


def read_document(path) -> ChainDocument:
    return document_from_json(Path(path).read_text())


# ---------------------------------------------------------------------------
# conversions between documents and the module objects


def document_from_pst(chain: Chain, provenance: dict) -> ChainDocument:
    return ChainDocument(kind="pst", n=chain.n, couplings=chain.couplings,
                         fields=np.zeros(0), provenance=provenance)


def pst_chain(doc: ChainDocument) -> Chain:
    """Rebuild the mirror-transfer chain; it transfers at
    ``pst.TRANSFER_TIME`` by the standard spectrum convention, and every
    coupling must be positive."""
    if doc.kind != "pst":
        raise ValueError(f"expected a pst document, got {doc.kind}")
    if not np.all(doc.couplings > 0):
        raise ValueError(f"pst couplings must be strictly positive, "
                         f"got {doc.couplings.tolist()}")
    return Chain(doc.couplings)


def ising_chain(doc: ChainDocument) -> Chain:
    """Rebuild the Ising chain as the 2n-site chain of its band."""
    if doc.kind != "ising":
        raise ValueError(f"expected an ising document, got {doc.kind}")
    return Chain(np.insert(doc.fields, np.arange(1, doc.n), doc.couplings))


def document_from_gamma(x: GammaMatrix, provenance: dict) -> ChainDocument:
    return ChainDocument(kind="zy", n=x.n, couplings=x.couplings,
                         fields=x.diag, gamma=float(x.gamma),
                         provenance=provenance)


def gamma_matrix(doc: ChainDocument) -> GammaMatrix:
    if doc.kind != "zy":
        raise ValueError(f"expected a zy document, got {doc.kind}")
    return GammaMatrix(diag=doc.fields, couplings=doc.couplings, gamma=doc.gamma)


def document_from_xx(chain: Chain, provenance: dict) -> ChainDocument:
    return ChainDocument(kind="xx", n=chain.n, couplings=chain.couplings,
                         fields=np.zeros(chain.n), provenance=provenance)


def xx_chain(doc: ChainDocument) -> Chain:
    """Rebuild the exchange chain; its on-site fields must all be zero."""
    if doc.kind != "xx":
        raise ValueError(f"expected an xx document, got {doc.kind}")
    if doc.fields.any():
        raise ValueError(f"xx chains carry no on-site fields, "
                         f"got {doc.fields.tolist()}")
    return Chain(doc.couplings)
