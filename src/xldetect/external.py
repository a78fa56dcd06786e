"""Document-feature files: one labelled row of floats per document.

`export-vectors` writes the classifier's document vectors in this format,
the text-matrix layout of a vectors file with document ids as the words,
so `embedding.load_vectors` reads it back, as it reads features computed
by an external encoder. Such rows need no trainer of their own: a linear
head over frozen features is `baselines.train_logreg` on the matrix passed
as a `baselines.SparseRows` that holds every column of every row.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from . import formats


def save_external_features(ids: list[str], matrix: np.ndarray, path: str | Path) -> None:
    if len(ids) != matrix.shape[0]:
        raise ValueError("ids/matrix length mismatch")
    formats.write_matrix(path, None, matrix, ids)
