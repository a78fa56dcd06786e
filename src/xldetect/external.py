"""Document-feature files: one labelled row of floats per document.

`export-vectors` writes the classifier's document vectors in this format,
and features computed by an external encoder can be read back from it.
Imported rows need no trainer of their own: a linear head over frozen
features is `baselines.train_logreg` on the matrix passed as a
`baselines.SparseRows` that holds every column of every row.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from . import formats


def import_external_features(path: str | Path) -> tuple[list[str], np.ndarray]:
    """Read "<count> <dim>" then one "document_id v1 .. vdim" line each."""
    return formats.read_matrix(path, None)


def save_external_features(ids: list[str], matrix: np.ndarray, path: str | Path) -> None:
    if len(ids) != matrix.shape[0]:
        raise ValueError("ids/matrix length mismatch")
    formats.write_matrix(path, f"{matrix.shape[0]} {matrix.shape[1]}", matrix, ids)
