"""Every artifact format, damaged one bit at a time: each flip must either
load or raise an XLDetectError that names the file, so a stage fed a
damaged artifact exits 2 with one error line."""

import re

import numpy as np
import pytest

from xldetect import align as al
from xldetect import baselines as bl
from xldetect import classifier as clf
from xldetect import embedding as emb
from xldetect import external as ext
from xldetect.corpus import AccountDocument
from xldetect.errors import AlignmentError, FormatError
from xldetect.vocab import SubwordIndex


def _values(rng, shape):
    # float32-representable values, as the trainers produce
    return rng.standard_normal(shape).astype(np.float32).astype(np.float64)


def write_vectors(path, rng):
    emb.save_vectors(emb.VectorTable(["alpha", "beta", "gamma", "delta"], _values(rng, (4, 3))), path)


def write_features(path, rng):
    ext.save_external_features(["d0", "d1", "d2", "d3"], _values(rng, (4, 3)), path)


def write_map(path, rng):
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    al.save_map(al.OrthogonalMap(q), path)


def write_feats(path, rng):
    docs = [["a", "b", "a"], ["b", "c"], ["c", "d", "e"], ["a", "e"]]
    vocab, _ = bl.count_features(docs, bl.bow_extractor, max_features=4)
    bl.save_feature_vocab(vocab, path)


def write_checkpoint(path, rng):
    corpus = [["ab", "cd", "ef"], ["cd", "ab"]] * 3
    config = emb.SkipgramConfig(
        dim=2, epochs=1, min_count=1, subsample_t=1.0, window=1, negatives=1,
        subwords=SubwordIndex(2, 3, 3),
    )
    emb.save_checkpoint(emb.train_skipgram(corpus, config), path)


def write_classifier(path, rng):
    docs = [AccountDocument(f"a{i}", "xy zz" if i % 2 else "qq", i % 2) for i in range(4)]
    config = clf.SupervisedConfig(dim=2, epochs=1, subwords=SubwordIndex(2, 3, 3))
    clf.save_classifier(clf.train_supervised(docs, config), path)


# (name, writer, loader, accepted exceptions, what follows the path in a FormatError)
FORMATS = [
    ("vectors", write_vectors, emb.load_vectors, (FormatError,), r":\d+: "),
    ("features", write_features, ext.import_external_features, (FormatError,), r":\d+: "),
    ("map", write_map, al.load_map, (FormatError, AlignmentError), r":\d+: "),
    ("feats", write_feats, bl.load_feature_vocab, (FormatError,), r":\d+: "),
    ("xlemb1", write_checkpoint, emb.load_checkpoint, (FormatError,), r": "),
    ("xlclf1", write_classifier, clf.load_classifier, (FormatError,), r": "),
]


@pytest.mark.parametrize(
    "name,write,load,accepted,where", FORMATS, ids=[row[0] for row in FORMATS]
)
def test_every_bit_flip_loads_or_raises_format_error(tmp_path, name, write, load, accepted, where):
    path = tmp_path / f"{name}.artifact"
    write(path, np.random.default_rng(7))
    data = path.read_bytes()
    load(path)  # the undamaged file loads
    damaged = tmp_path / f"damaged-{name}"
    located = re.compile(re.escape(str(damaged)) + where)
    leaks = []
    for bit in range(8 * len(data)):
        flipped = bytearray(data)
        flipped[bit // 8] ^= 1 << (bit % 8)
        damaged.write_bytes(flipped)
        try:
            load(damaged)
        except accepted as exc:
            if isinstance(exc, FormatError) and not located.match(str(exc)):
                leaks.append((bit, f"unlocated message {exc}"))
        except Exception as exc:  # any other type escapes the CLI's handler
            leaks.append((bit, f"{type(exc).__name__}: {exc}"))
    assert not leaks, f"{len(leaks)}/{8 * len(data)} flips leaked, first: {leaks[:3]}"
