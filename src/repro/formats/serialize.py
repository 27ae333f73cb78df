"""Binary (de)serialization of CSDB matrices.

Large-scale pipelines persist the converted graph so the reading
procedure (Fig. 19a) runs once; this module provides a compact ``.npz``
container for CSDB with kind/version validation, so a CSDB graph built
once is loaded back without re-running the degree sort.  Loading reads
the whole (zip-compressed) container into memory.
"""

from __future__ import annotations

import zipfile
from pathlib import Path

import numpy as np

from repro.formats.csdb import CSDBMatrix

#: Container-format version; bump on layout changes.
FORMAT_VERSION = 1


class ContainerFormatError(ValueError):
    """A matrix container is corrupt, truncated, or of the wrong kind.

    Subclasses :class:`ValueError` so existing ``except ValueError``
    handlers keep working; the typed error lets ingestion pipelines
    distinguish a corrupt blob from other value errors.
    """


#: Arrays every CSDB container must carry.
_REQUIRED_KEYS = (
    "shape", "deg_list", "deg_ind", "col_list", "nnz_list", "perm",
)
#: The CSDB arrays that hold counts, offsets or ids: integers only, since
#: the matrix casts them to int64 and would silently truncate fractions.
_INDEX_KEYS = ("deg_list", "deg_ind", "col_list", "perm")


def _open_container(path: Path) -> np.lib.npyio.NpzFile:
    try:
        return np.load(path, allow_pickle=False)
    except FileNotFoundError:
        raise
    except (zipfile.BadZipFile, OSError, ValueError) as exc:
        # A truncated/garbage file surfaces as BadZipFile or as a
        # pickle-refusal ValueError from np.load.
        raise ContainerFormatError(
            f"{path}: not a readable matrix container ({exc})"
        ) from exc


def save_csdb(path: str | Path, matrix: CSDBMatrix) -> None:
    """Persist a CSDB matrix as a compressed .npz container."""
    np.savez_compressed(
        Path(path),
        kind=np.array(["csdb"]),
        version=np.array([FORMAT_VERSION]),
        shape=np.array(matrix.shape, dtype=np.int64),
        deg_list=matrix.deg_list,
        deg_ind=matrix.deg_ind,
        col_list=matrix.col_list,
        nnz_list=matrix.nnz_list,
        perm=matrix.perm,
    )


def load_csdb(path: str | Path) -> CSDBMatrix:
    """Load a CSDB matrix saved by :func:`save_csdb`.

    Raises:
        ContainerFormatError: the file is not a well-formed CSDB
            container; the message names ``path``.
    """
    path = Path(path)
    with _open_container(path) as data:
        _check_container(data, path)
        shape = data["shape"]
        if shape.shape != (2,) or shape.dtype.kind not in "iu":
            raise ContainerFormatError(
                f"{path}: shape must be two integers, got {shape!r}"
            )
        arrays = {k: data[k] for k in _REQUIRED_KEYS if k != "shape"}
        for key in _INDEX_KEYS:
            if arrays[key].dtype.kind not in "iu":
                raise ContainerFormatError(
                    f"{path}: {key} must hold integers,"
                    f" got dtype {arrays[key].dtype}"
                )
        try:
            return CSDBMatrix(
                **arrays, shape=(int(shape[0]), int(shape[1]))
            )
        except ValueError as exc:
            raise ContainerFormatError(f"{path}: {exc}") from exc


def _one_entry(data: np.lib.npyio.NpzFile, key: str, path: Path):
    array = data[key]
    if array.shape != (1,):
        raise ContainerFormatError(
            f"{path}: {key} must hold one entry, got shape {array.shape}"
        )
    return array[0]


def _check_container(data: np.lib.npyio.NpzFile, path: Path) -> None:
    if "kind" not in data or "version" not in data:
        raise ContainerFormatError(f"{path}: not a repro matrix container")
    kind = str(_one_entry(data, "kind", path))
    if kind != "csdb":
        raise ContainerFormatError(
            f"{path}: container holds a {kind!r} matrix, expected 'csdb'"
        )
    version = _one_entry(data, "version", path)
    if not isinstance(version, np.integer):
        raise ContainerFormatError(
            f"{path}: container version {version!r} is not an integer"
        )
    if version < 1:
        raise ContainerFormatError(
            f"{path}: container version {int(version)} is below 1"
        )
    if version > FORMAT_VERSION:
        raise ContainerFormatError(
            f"{path}: container version {int(version)} is newer than"
            f" supported ({FORMAT_VERSION})"
        )
    missing = [k for k in _REQUIRED_KEYS if k not in data]
    if missing:
        raise ContainerFormatError(
            f"{path}: csdb container is missing arrays: {missing}"
        )
