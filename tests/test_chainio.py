import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinforge
from spinforge.chainio import (
    SCHEMA_VERSION,
    ChainDocument,
    document_from_gamma,
    document_from_pst,
    document_from_xx,
    document_from_json,
    document_to_json,
    gamma_matrix,
    ising_chain,
    make_provenance,
    pst_chain,
    read_document,
    write_document,
    xx_chain,
)
from spinforge.isoflow import interpolate_gamma
from spinforge.numerics import Chain
from spinforge.pst import standard_couplings

ROOT = Path(__file__).resolve().parents[1]


def provenance():
    return make_provenance("spinforge design pst --n 6", seed=0,
                           tolerances={"mirror": 1e-9})


def ising_document(chain, provenance):
    """Ising document of a chain given by its band: fields at its even
    positions, ZZ couplings at its odd ones."""
    return ChainDocument(kind="ising", n=chain.n // 2, fields=chain.couplings[0::2],
                         couplings=chain.couplings[1::2], provenance=provenance)


class TestProvenance:
    def test_records_numpy_blas_and_threads(self, monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "4")
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        record = make_provenance("cmd", seed=3)
        assert record["numpy"] == np.__version__
        assert set(record["blas"]) == {"name", "version"}
        assert record["threads"] == {"OPENBLAS_NUM_THREADS": None,
                                     "OMP_NUM_THREADS": "4", "MKL_NUM_THREADS": None}
        assert json.loads(json.dumps(record)) == record

    def test_records_the_package_version(self):
        assert make_provenance("cmd")["spinforge"] == spinforge.__version__
        # the build reads the same attribute; there is no second literal
        lines = (ROOT / "pyproject.toml").read_text().splitlines()
        assert 'dynamic = ["version"]' in lines
        assert 'version = {attr = "spinforge.__version__"}' in lines
        assert not [line for line in lines if line.startswith('version = "')]


class TestChainDocument:
    def test_pst_round_trip(self):
        chain = standard_couplings(6)
        doc = document_from_pst(chain, provenance())
        back = pst_chain(document_from_json(document_to_json(doc)))
        assert np.allclose(back.couplings, chain.couplings)

    def test_ising_round_trip(self):
        chain = standard_couplings(8)
        doc = ising_document(chain, provenance())
        back = ising_chain(document_from_json(document_to_json(doc)))
        assert np.array_equal(back.couplings, chain.couplings)

    @pytest.mark.parametrize("sites, fields, couplings", [
        (4, [np.sqrt(3), np.sqrt(3)], [2.0]),
        (6, [np.sqrt(5), 3.0, np.sqrt(5)], [np.sqrt(8), np.sqrt(8)]),
    ], ids=["four", "six"])
    def test_ising_document_splits_the_band(self, sites, fields, couplings):
        # fields at the band's even positions, ZZ couplings at its odd ones
        doc = ChainDocument(kind="ising", n=sites // 2, fields=fields,
                            couplings=couplings, provenance=provenance())
        assert np.allclose(ising_chain(doc).couplings, standard_couplings(sites).couplings)

    def test_gamma_round_trip(self):
        # the document holds the member's three fields, so the bands come back bit for bit
        for n, ends in ((21, (0.0, 0.7)), (6, (0.0, 0.5)), (9, (1.0, 0.2))):
            x, _ = interpolate_gamma(n, *ends)
            doc = document_from_gamma(x, provenance())
            back = gamma_matrix(document_from_json(document_to_json(doc)))
            assert back.gamma == x.gamma
            for name in ("diag", "couplings", "upper", "lower"):
                assert np.array_equal(getattr(back, name), getattr(x, name)), (n, name)

    def test_xx_round_trip(self):
        chain = Chain(np.array([1.0, -2.0, 2.0, 1.5]))
        doc = document_from_xx(chain, provenance())
        assert doc.fields.tolist() == [0.0] * 5
        back = xx_chain(document_from_json(document_to_json(doc)))
        assert np.array_equal(back.couplings, chain.couplings)

    def test_serialization_is_deterministic(self):
        doc = document_from_pst(standard_couplings(6), provenance())
        assert document_to_json(doc) == document_to_json(doc)

    def test_file_round_trip(self, tmp_path):
        doc = ising_document(standard_couplings(4), provenance())
        path = tmp_path / "chain.json"
        write_document(doc, path)
        back = read_document(path)
        assert back.kind == "ising"
        assert np.allclose(back.couplings, doc.couplings)
        assert back.provenance == doc.provenance


class TestValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ChainDocument(kind="heisenberg", n=3, couplings=np.ones(2),
                          fields=np.zeros(3))

    def test_coupling_size_checked(self):
        with pytest.raises(ValueError):
            ChainDocument(kind="xx", n=3, couplings=np.ones(3),
                          fields=np.zeros(3))

    def test_pst_takes_no_fields(self):
        with pytest.raises(ValueError):
            ChainDocument(kind="pst", n=3, couplings=np.ones(2),
                          fields=np.zeros(3))

    def test_gamma_required_for_zy_only(self):
        with pytest.raises(ValueError):
            ChainDocument(kind="zy", n=3, couplings=np.ones(2),
                          fields=np.zeros(3))
        with pytest.raises(ValueError):
            ChainDocument(kind="xx", n=3, couplings=np.ones(2),
                          fields=np.zeros(3), gamma=0.5)

    def test_schema_version_checked(self):
        doc = document_from_pst(standard_couplings(4), provenance())
        text = document_to_json(doc).replace(
            f'"schema_version": {SCHEMA_VERSION}', '"schema_version": 99')
        with pytest.raises(ValueError):
            document_from_json(text)

    def test_tolerances_must_be_positive(self):
        bad = make_provenance("cmd", seed=1, tolerances={"mirror": 0.0})
        with pytest.raises(ValueError):
            ChainDocument(kind="pst", n=3, couplings=np.ones(2),
                          fields=np.zeros(0), provenance=bad)

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            document_from_json("not json")
        with pytest.raises(ValueError):
            document_from_json('{"kind": "pst"}')

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_pst_couplings_must_be_positive(self, bad):
        doc = ChainDocument(kind="pst", n=4, couplings=[1.0, bad, 1.0],
                            fields=np.zeros(0))
        with pytest.raises(ValueError, match="pst couplings must be strictly positive"):
            pst_chain(document_from_json(document_to_json(doc)))

    def test_xx_fields_rejected(self):
        doc = ChainDocument(kind="xx", n=3, couplings=np.ones(2),
                            fields=[0.0, 0.5, 0.0])
        with pytest.raises(ValueError, match="xx chains carry no on-site fields"):
            xx_chain(document_from_json(document_to_json(doc)))

    def test_kind_mismatch_on_conversion(self):
        doc = document_from_pst(standard_couplings(4), provenance())
        with pytest.raises(ValueError):
            ising_chain(doc)
        with pytest.raises(ValueError):
            xx_chain(doc)


finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@st.composite
def documents(draw, kind):
    n = draw(st.integers(2, 12))
    couplings = draw(st.lists(finite, min_size=n - 1, max_size=n - 1))
    fields = [] if kind == "pst" else draw(st.lists(finite, min_size=n, max_size=n))
    gamma = draw(st.floats(0.0, 1.0)) if kind == "zy" else None
    tolerances = draw(st.dictionaries(st.sampled_from(["mirror", "stage"]),
                                      st.floats(1e-15, 1.0)))
    return ChainDocument(kind=kind, n=n, couplings=np.array(couplings),
                         fields=np.array(fields), gamma=gamma,
                         provenance=make_provenance("cmd", seed=draw(st.integers(0, 99)),
                                                    tolerances=tolerances))


class TestRoundTripProperty:
    @pytest.mark.parametrize("kind", ["pst", "ising", "zy", "xx"])
    def test_write_then_read_is_exact(self, kind, tmp_path_factory):
        path = tmp_path_factory.mktemp(kind) / "chain.json"

        @settings(max_examples=40, deadline=None)
        @given(doc=documents(kind))
        def round_trip(doc):
            write_document(doc, path)
            back = read_document(path)
            assert (back.kind, back.n, back.gamma) == (doc.kind, doc.n, doc.gamma)
            np.testing.assert_array_equal(back.couplings, doc.couplings)
            np.testing.assert_array_equal(back.fields, doc.fields)
            assert back.provenance == doc.provenance
            assert document_to_json(back) == path.read_text()

        round_trip()


class TestNonFinite:
    """``json`` reads NaN and Infinity; the document must refuse them."""

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("kind, field", [("pst", "couplings"),
                                             ("ising", "couplings"),
                                             ("ising", "fields"),
                                             ("zy", "fields"),
                                             ("xx", "couplings")])
    def test_read_names_the_field(self, kind, field, value):
        text = nonfinite_document(kind, field, value)
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            document_from_json(text)

    @pytest.mark.parametrize("value", ["NaN", "Infinity"])
    def test_non_integer_size_is_a_value_error(self, value):
        text = document_to_json(document_from_pst(standard_couplings(4),
                                                  provenance()))
        with pytest.raises(ValueError, match="integers"):
            document_from_json(text.replace('"n": 4', f'"n": {value}'))


def nonfinite_document(kind, field, value):
    """A valid document's JSON with the second entry of ``field`` replaced."""
    doc = {"pst": lambda: document_from_pst(standard_couplings(4), provenance()),
           "ising": lambda: ising_document(standard_couplings(8), provenance()),
           "zy": lambda: ChainDocument(kind="zy", n=4, couplings=np.ones(3),
                                       fields=np.ones(4), gamma=0.5),
           "xx": lambda: ChainDocument(kind="xx", n=4, couplings=np.ones(3),
                                       fields=np.zeros(4))}[kind]()
    payload = json.loads(document_to_json(doc))
    payload[field][1] = float(value.replace("Infinity", "inf"))
    return json.dumps(payload)
