"""Every artifact format, damaged one bit at a time: each flip must either
load or raise an XLDetectError that names the file, so a stage fed a
damaged artifact exits 2 with one error line."""

import re
import struct
import time

import numpy as np
import pytest

from xldetect import align as al
from xldetect import baselines as bl
from xldetect import classifier as clf
from xldetect import corpus as cp
from xldetect import embedding as emb
from xldetect import external as ext
from xldetect.corpus import AccountDocument
from xldetect.errors import AlignmentError, FormatError
from xldetect.vocab import MAX_BUCKETS, SubwordIndex


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
    vocab, _ = bl.count_features(docs, 1, 1, max_features=4)
    bl.save_feature_vocab(vocab, path)


def write_documents(path, rng):
    docs = [AccountDocument(f"u{i}", f"post {i} text", i % 2) for i in range(4)]
    cp.write_documents(docs, path)


def write_statuses(path, rng):
    path.write_text("".join(f"u{i}\t{s.value}\n" for i, s in enumerate(cp.AccountStatus)),
                    encoding="utf-8")


def write_dictionary(path, rng):
    pairs = [("alpha", "alfa"), ("beta", "beta"), ("alpha", "uno")]  # a word may repeat
    al.save_dictionary(al.BilingualDictionary(pairs), path)


# more buckets than training touches, so that some are not stored and the
# stored-id block holds several ids
def write_checkpoint(path, rng):
    corpus = [["ab", "cd", "ef"], ["cd", "ab"]] * 3
    config = emb.SkipgramConfig(
        dim=2, epochs=1, min_count=1, subsample_t=1.0, window=1, negatives=1,
        subwords=SubwordIndex(2, 3, 50),
    )
    emb.save_checkpoint(emb.train_skipgram(corpus, config), path)


def write_classifier(path, rng):
    docs = [AccountDocument(f"a{i}", "xy zz" if i % 2 else "qq", i % 2) for i in range(4)]
    config = clf.SupervisedConfig(dim=2, epochs=1, subwords=SubwordIndex(2, 3, 50))
    clf.save_classifier(clf.train_supervised(docs, config), path)


# (name, writer, loader, accepted exceptions, what follows the path in a FormatError)
FORMATS = [
    ("vectors", write_vectors, emb.load_vectors, (FormatError,), r":\d+: "),
    ("features", write_features, emb.load_vectors, (FormatError,), r":\d+: "),
    ("map", write_map, al.load_map, (FormatError, AlignmentError), r":\d+: "),
    ("feats", write_feats, bl.load_feature_vocab, (FormatError,), r":\d+: "),
    ("documents", write_documents, cp.read_documents, (FormatError,), r":\d+: "),
    ("statuses", write_statuses, cp.read_status_file, (FormatError,), r":\d+: "),
    ("dictionary", write_dictionary, al.load_dictionary, (FormatError,), r":\d+: "),
    ("xlemb2", write_checkpoint, emb.load_checkpoint, (FormatError,), r": "),
    ("xlclf2", write_classifier, clf.load_classifier, (FormatError,), r": "),
]
MODELS = [
    ("xlemb2", write_checkpoint, emb.load_checkpoint, emb.save_checkpoint),
    ("xlclf2", write_classifier, clf.load_classifier, clf.save_classifier),
]


def model_params(model):
    """The float32 matrices a model file holds: the input rows, then the
    context rows or the output weights."""
    tail = model.context_rows if isinstance(model, emb.EmbeddingMatrix) else model.output_weights
    return model.input_rows, tail


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


@pytest.mark.parametrize("name,write,load,save", MODELS, ids=[row[0] for row in MODELS])
def test_model_save_load_is_byte_exact(tmp_path, name, write, load, save):
    first, second = tmp_path / "first", tmp_path / "second"
    write(first, np.random.default_rng(7))
    model = load(first)
    assert 0 < len(model.bucket_ids) < model.subwords.buckets
    save(model, second)
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("name,write,load,save", MODELS, ids=[row[0] for row in MODELS])
def test_bad_stored_bucket_ids_rejected(tmp_path, name, write, load, save):
    path, damaged = tmp_path / "model", tmp_path / "damaged"
    write(path, np.random.default_rng(7))
    model = load(path)
    ids, seed, buckets = model.bucket_ids.tolist(), model.bucket_seed, model.subwords.buckets
    data = path.read_bytes()

    def block(rule, ids):
        return struct.pack("<BQQ", *rule, len(ids)) + np.asarray(ids, dtype="<u8").tobytes()

    at = data.index(block((1, seed), ids))
    rest = data[at + len(block((1, seed), ids)) :]
    damages = {
        "not strictly increasing": block((1, seed), [ids[1], ids[0]] + ids[2:]),
        "repeated": block((1, seed), ids[:1] + ids[:-1]),
        "at the bucket count": block((1, seed), ids[:-1] + [buckets]),
        "far out of range": block((1, seed), ids[:-1] + [2**64 - 1]),
        "one id fewer than rows": block((1, seed), ids[:-1]),
        "one id more than rows": block((1, seed), ids + [buckets - 1]),
        "unknown init rule": block((2, seed), ids),
        "zero init with a seed": block((0, seed or 1), ids),
    }
    for what, bad in damages.items():
        damaged.write_bytes(data[:at] + bad + rest)
        with pytest.raises(FormatError, match=re.escape(str(damaged)) + ": "):
            load(damaged)
    # a head whose bucket count is beyond MAX_BUCKETS, or whose n-gram range
    # is empty, is rejected at the head; a count at the bound loads, and
    # bounds the stored ids
    sub = model.subwords

    def head(count, n_min=sub.n_min, n_max=sub.n_max):
        return struct.pack("<IIQII", model.dim, len(model.vocab), count, n_min, n_max)

    assert data.index(head(buckets)) == 6  # right after the magic
    for bad in (head(MAX_BUCKETS + 1), head(2**64 - 1), head(buckets, 0), head(buckets, 4, 3)):
        damaged.write_bytes(data.replace(head(buckets), bad, 1))
        with pytest.raises(FormatError, match=re.escape(str(damaged)) + ": .* at byte 6: "):
            load(damaged)
    damaged.write_bytes(data.replace(head(buckets), head(MAX_BUCKETS), 1))
    assert load(damaged).subwords.buckets == MAX_BUCKETS
    damaged.write_bytes(
        (data[:at] + block((1, seed), ids[:-1] + [MAX_BUCKETS]) + rest)
        .replace(head(buckets), head(MAX_BUCKETS), 1))
    with pytest.raises(FormatError, match=re.escape(str(damaged)) + rf": .* at byte {at}$"):
        load(damaged)


@pytest.mark.parametrize("name,write,load,save", MODELS, ids=[row[0] for row in MODELS])
def test_every_byte_mutation_raises_or_loads_sound(tmp_path, name, write, load, save):
    # each byte set to 0x00, to 0xFF and to itself ^ 0x80: a file that loads
    # holds finite parameters and unique words
    path, damaged = tmp_path / "model", tmp_path / "damaged"
    write(path, np.random.default_rng(7))
    data = path.read_bytes()
    start = time.perf_counter()
    leaks, loaded = [], 0
    for at in range(len(data)):
        for byte in sorted({0x00, 0xFF, data[at] ^ 0x80} - {data[at]}):
            damaged.write_bytes(data[:at] + bytes([byte]) + data[at + 1 :])
            try:
                model = load(damaged)
            except FormatError:
                continue
            except Exception as exc:
                leaks.append((at, byte, f"{type(exc).__name__}: {exc}"))
                continue
            loaded += 1
            if not all(np.isfinite(m).all() for m in model_params(model)):
                leaks.append((at, byte, "non-finite parameter loaded"))
            if len(model.vocab.word_to_id) != len(model.vocab.words):
                leaks.append((at, byte, "repeated word loaded"))
    assert not leaks, f"{len(leaks)} mutations leaked, first: {leaks[:3]}"
    assert loaded  # some mutations (counts, seeds, values) are not damage a file can show
    assert time.perf_counter() - start < 2.0


@pytest.mark.parametrize("name,write,load,save", MODELS, ids=[row[0] for row in MODELS])
def test_non_finite_value_rejected(tmp_path, name, write, load, save):
    path, damaged = tmp_path / "model", tmp_path / "damaged"
    write(path, np.random.default_rng(7))
    data = path.read_bytes()
    rows, tail = model_params(load(path))
    first_row = data.index(rows.astype("<f4").tobytes())
    assert first_row + 4 * (rows.size + tail.size) == len(data)
    # a word row's value, a stored bucket row's, and the file's last value
    # (the last context row's or output weight's)
    offsets = (first_row + 4, first_row + 4 * (rows.size - 1), len(data) - 4)
    for value in (np.nan, np.inf, -np.inf):
        for at in offsets:
            damaged.write_bytes(data[:at] + struct.pack("<f", value) + data[at + 4 :])
            with pytest.raises(FormatError, match=re.escape(
                    f"{damaged}: non-finite value at byte {at}") + "$"):
                load(damaged)


@pytest.mark.parametrize("name,write,load,save", MODELS, ids=[row[0] for row in MODELS])
def test_repeated_word_rejected(tmp_path, name, write, load, save):
    path, damaged = tmp_path / "model", tmp_path / "damaged"
    write(path, np.random.default_rng(7))
    data = path.read_bytes()
    vocab = load(path).vocab
    # the last word renamed to the first, which has as many UTF-8 bytes
    first, last = vocab.words[0].encode("utf-8"), vocab.words[-1].encode("utf-8")
    assert len(first) == len(last)
    record = struct.pack("<HQ", len(last), vocab.counts[-1]) + last
    at = data.index(record) + len(record) - len(last)
    damaged.write_bytes(data[:at] + first + data[at + len(first) :])
    with pytest.raises(FormatError, match=re.escape(
            f"{damaged}: repeated word {vocab.words[0]!r} at byte {at}") + "$"):
        load(damaged)


def test_models_without_subwords_save_load_byte_exact(tmp_path):
    # no subword table: a zero bucket head and the 17-byte empty
    # stored-bucket block, which save -> load -> save keeps
    corpus = [["ab", "cd", "ef"], ["cd", "ab"]] * 3
    config = emb.SkipgramConfig(dim=2, epochs=1, min_count=1, subsample_t=1.0, window=1,
                                negatives=1, subwords=None)
    docs = [AccountDocument(f"a{i}", "xy zz" if i % 2 else "qq", i % 2) for i in range(4)]
    models = [
        (emb.train_skipgram(corpus, config), emb.save_checkpoint, emb.load_checkpoint),
        (clf.train_supervised(docs, clf.SupervisedConfig(dim=2, epochs=1, subwords=None)),
         clf.save_classifier, clf.load_classifier),
    ]
    for model, save, load in models:
        first, second = tmp_path / "first", tmp_path / "second"
        save(model, first)
        loaded = load(first)
        assert loaded.subwords is None and loaded.bucket_seed is None
        save(loaded, second)
        assert first.read_bytes() == second.read_bytes()
        assert bytes(17) in first.read_bytes()
        for saved, read in zip(model_params(model), model_params(loaded)):
            np.testing.assert_array_equal(saved, read)
