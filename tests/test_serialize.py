"""Unit tests for matrix serialization."""

import numpy as np
import pytest

from repro.formats.serialize import (
    ContainerFormatError,
    load_csdb,
    save_csdb,
)


def _write(path, **overrides):
    """A valid 3x3 CSDB container (one edge 0->1) with fields overridden."""
    arrays = {
        "kind": np.array(["csdb"]),
        "version": np.array([1]),
        "shape": np.array([3, 3]),
        "deg_list": np.array([1, 0]),
        "deg_ind": np.array([0, 1, 3]),
        "col_list": np.array([1]),
        "nnz_list": np.array([1.0]),
        "perm": np.array([0, 1, 2]),
    }
    arrays.update(overrides)
    np.savez(path, **arrays)


class TestCSDBRoundtrip:
    def test_roundtrip(self, tmp_path, skewed_csdb):
        path = tmp_path / "graph.npz"
        save_csdb(path, skewed_csdb)
        loaded = load_csdb(path)
        assert loaded.shape == skewed_csdb.shape
        assert np.array_equal(loaded.deg_list, skewed_csdb.deg_list)
        assert np.array_equal(loaded.col_list, skewed_csdb.col_list)
        assert np.array_equal(loaded.perm, skewed_csdb.perm)
        assert np.allclose(loaded.to_dense(), skewed_csdb.to_dense())

    def test_loaded_matrix_is_functional(self, tmp_path, skewed_csdb, rng):
        path = tmp_path / "graph.npz"
        save_csdb(path, skewed_csdb)
        loaded = load_csdb(path)
        dense = rng.standard_normal((skewed_csdb.n_cols, 4))
        assert np.allclose(loaded.spmm(dense), skewed_csdb.spmm(dense))


class TestValidation:
    def test_the_hand_written_container_loads(self, tmp_path):
        path = tmp_path / "graph.npz"
        _write(path)
        assert load_csdb(path).to_dense().tolist() == [
            [0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]
        ]

    def test_kind_mismatch(self, tmp_path):
        path = tmp_path / "graph.npz"
        _write(path, kind=np.array(["csr"]))
        with pytest.raises(ValueError, match="expected 'csdb'"):
            load_csdb(path)

    def test_not_a_container(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, foo=np.zeros(3))
        with pytest.raises(ValueError, match="not a repro matrix"):
            load_csdb(path)

    def test_future_version_rejected(self, tmp_path, paper_csdb):
        path = tmp_path / "graph.npz"
        np.savez(
            path,
            kind=np.array(["csdb"]),
            version=np.array([999]),
            shape=np.array([1, 1]),
        )
        with pytest.raises(ValueError, match="newer"):
            load_csdb(path)

    def test_errors_are_typed(self, tmp_path):
        path = tmp_path / "graph.npz"
        _write(path, kind=np.array(["csr"]))
        with pytest.raises(ContainerFormatError):
            load_csdb(path)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("kind", np.array([], dtype=str)),
            ("version", np.array(1)),
            ("shape", np.array([3])),
            ("version", np.array(["x"])),
            ("perm", np.array([0, 0, 2])),
            ("shape", np.array([3.5, 3])),
            # Index arrays an int64 cast would silently truncate.
            ("col_list", np.array([1.7])),
            ("perm", np.array([0, 1, 2]) + 0.2),
            ("deg_ind", np.array([0.0, 1.5, 3.0])),
            ("deg_list", np.array([1.5, 0.0])),
            # Versions start at 1.
            ("version", np.array([0])),
            ("version", np.array([-5])),
        ],
        ids=[
            "empty-kind", "0d-version", "1-element-shape", "string-version",
            "perm-not-a-permutation", "float-shape", "fractional-col_list",
            "fractional-perm", "fractional-deg_ind", "fractional-deg_list",
            "version-0", "negative-version",
        ],
    )
    def test_malformed_fields_raise_the_typed_error(
        self, tmp_path, field, value
    ):
        path = tmp_path / "graph.npz"
        _write(path, **{field: value})
        with pytest.raises(ContainerFormatError, match="graph.npz"):
            load_csdb(path)

    def test_truncated_blob(self, tmp_path, skewed_csdb):
        path = tmp_path / "graph.npz"
        save_csdb(path, skewed_csdb)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 3])
        with pytest.raises(ContainerFormatError, match="not a readable"):
            load_csdb(path)

    def test_garbage_blob(self, tmp_path):
        path = tmp_path / "graph.npz"
        path.write_bytes(b"this is not a zip archive at all")
        with pytest.raises(ContainerFormatError):
            load_csdb(path)

    def test_missing_arrays(self, tmp_path):
        path = tmp_path / "graph.npz"
        np.savez(
            path,
            kind=np.array(["csdb"]),
            version=np.array([1]),
            shape=np.array([1, 1]),
        )
        with pytest.raises(ContainerFormatError, match="missing arrays"):
            load_csdb(path)

    def test_missing_file_stays_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csdb(tmp_path / "absent.npz")
