import numpy as np
import pytest

from xldetect.errors import FormatError
from xldetect.embedding import load_vectors
from xldetect.external import save_external_features


class TestFeatureFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        ids = [f"doc{i}" for i in range(6)]
        matrix = rng.standard_normal((6, 4))
        path = tmp_path / "features.txt"
        save_external_features(ids, matrix, path)
        got = load_vectors(path)
        assert got.words == ids
        assert (got.vectors == matrix).all()

    def test_header_mismatch(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 2\nd0 1 2\nd1 3 4\n", encoding="utf-8")
        with pytest.raises(FormatError):
            load_vectors(path)

    def test_dim_mismatch_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 3\nd0 1 2\n", encoding="utf-8")
        with pytest.raises(FormatError):
            load_vectors(path)
