"""Linear softmax text classification over averaged embeddings.

A document's vector is the mean of every input row its tokens contribute
(word rows and hashed subword rows, their ids from vocab.word_rows_csr and
vocab.subword_ids_csr; there are no word n-grams). Training is
per-document SGD on softmax cross-entropy; with pretrained vectors the
word rows start from the given table and keep training unless frozen.
The model stores the bucket rows of its training documents only (their
out-of-vocabulary tokens included); any other bucket reads its initial
value (vocab.InputTable).

loss_history[0] is the mean cross-entropy of the untrained model over the
training documents. loss_history[e] is the mean loss over epoch e: each
document's cross-entropy at the parameters its SGD step started from, an
empty document (which takes no step) counting log 2, the running epoch
loss fastText reports.
"""

from __future__ import annotations

import logging
import struct
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .corpus import AccountDocument, LABEL_NAMES, tokenize
from . import formats
from .embedding import VectorTable, _check_finite, _epoch_guard
from .errors import FormatError, TrainingError
from .vocab import (
    InputTable,
    SubwordIndex,
    Vocabulary,
    build_vocab,
    init_input_rows,
    subword_ids_csr,
    word_rows_csr,
)

logger = logging.getLogger(__name__)

_MAGIC_MODEL = b"XLCLF2"
_N_CLASSES = 2
# an empty document takes no step; its distribution is uniform
_EMPTY_DOC_LOSS = float(np.log(_N_CLASSES))
# the XLCLF2 word n-gram order field: no word n-grams, so always 1
_WORD_NGRAMS = 1


@dataclass
class SupervisedConfig:
    dim: int = 100
    epochs: int = 100
    initial_lr: float = 1.0
    min_count: int = 1
    word_ngrams: int = 1  # only 1: there are no word n-gram features
    subwords: SubwordIndex | None = field(default_factory=SubwordIndex)
    pretrained: VectorTable | None = None
    freeze_pretrained: bool = False
    seed: int = 1

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.initial_lr <= 0:
            raise ValueError(f"initial_lr must be > 0, got {self.initial_lr}")
        if self.word_ngrams != 1:
            raise ValueError(f"word n-grams are not supported: word_ngrams must be 1, "
                             f"got {self.word_ngrams}")
        if self.pretrained is not None and self.pretrained.dim != self.dim:
            raise ValueError(
                f"pretrained vectors have dim {self.pretrained.dim}, config says {self.dim}"
            )


class TextClassifier(InputTable):
    """Input embedding table (vocab.InputTable) plus a 2 x d softmax head.

    Label index 1 is always the positive "Suspended" class.
    """

    def __init__(
        self,
        vocab: Vocabulary,
        subwords: SubwordIndex | None,
        input_rows: np.ndarray,
        output_weights: np.ndarray,
        bucket_ids: np.ndarray | None = None,
        bucket_seed: int | None = None,
    ):
        super().__init__(vocab, subwords, input_rows, bucket_ids, bucket_seed)
        if output_weights.shape != (_N_CLASSES, input_rows.shape[1]):
            raise ValueError("output weights must be 2 x dim")
        self.output_weights = output_weights
        self.label_names = LABEL_NAMES
        self.loss_history: list[float] = []

    @cached_property
    def word_rows(self) -> list[np.ndarray]:
        """Each vocabulary word's input_ids, as views into one CSR
        (vocab.word_rows_csr) built on first use."""
        indptr, flat = word_rows_csr(self.vocab, self.subwords)
        return [flat[a:b] for a, b in zip(indptr[:-1].tolist(), indptr[1:].tolist())]

    def doc_rows(self, tokens: list[str]) -> tuple[np.ndarray, np.ndarray]:
        """Unique contributing input ids, ascending, and their multiplicities.

        In-vocabulary tokens take their rows from word_rows; only
        out-of-vocabulary tokens are hashed, in one subword_ids_csr call.
        """
        word_to_id, word_rows = self.vocab.word_to_id, self.word_rows
        parts: list[np.ndarray] = []
        oov: list[str] = []
        for tok in tokens:
            wid = word_to_id.get(tok)
            if wid is None:
                oov.append(tok)
            else:
                parts.append(word_rows[wid])
        if oov and self.subwords is not None:
            parts.append(subword_ids_csr(oov, self.subwords, len(self.vocab))[1])
        ids = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
        uniq, counts = np.unique(ids, return_counts=True)
        return uniq, counts.astype(np.float32)


def doc_embedding(tokens: list[str], model: TextClassifier) -> np.ndarray:
    """Mean over all contributing input rows; zero vector when none."""
    return _mean_row(model, *model.doc_rows(tokens))


def _mean_row(model: TextClassifier, ids: np.ndarray, counts: np.ndarray) -> np.ndarray:
    if len(ids) == 0:
        return np.zeros(model.dim, dtype=np.float32)
    return (counts @ model.rows(ids)) / counts.sum()


def _class_probs(model: TextClassifier, ids: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Float64 softmax class distribution of the document whose rows are
    ids with multiplicities counts."""
    h = _mean_row(model, ids, counts).astype(np.float64)
    z = model.output_weights.astype(np.float64) @ h
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


def predict(tokens: list[str], model: TextClassifier) -> tuple[int, np.ndarray]:
    """Predicted label and class distribution; a tie never flags positive."""
    probs = _class_probs(model, *model.doc_rows(tokens))
    label = 1 if probs[1] > probs[0] else 0
    return label, probs


def train_supervised(
    train_docs: list[AccountDocument], config: SupervisedConfig
) -> TextClassifier:
    """Train a classifier from scratch or from pretrained word vectors."""
    if not train_docs:
        raise ValueError("empty training set")
    token_docs = [tokenize(d.text) for d in train_docs]
    labels = np.asarray([d.label for d in train_docs], dtype=np.int64)
    for cls in (0, 1):
        if not (labels == cls).any():
            logger.warning("training data has no documents of class %s", LABEL_NAMES[cls])

    vocab = build_vocab(token_docs, min_count=config.min_count)
    input_rows = init_input_rows(vocab, config.dim, config.seed)
    if config.pretrained is not None:
        hits = 0
        for i, word in enumerate(vocab.words):
            vec = config.pretrained.get(word)
            if vec is not None:
                input_rows[i] = vec.astype(np.float32)
                hits += 1
        logger.info("pretrained init: %d/%d vocabulary words covered", hits, len(vocab))
    # bucket rows start at zero under pretrained vectors
    uniform = config.subwords is not None and config.pretrained is None
    output_weights = np.zeros((_N_CLASSES, config.dim), dtype=np.float32)
    model = TextClassifier(vocab, config.subwords, input_rows, output_weights,
                           bucket_seed=config.seed if uniform else None)

    docs_rows = [model.doc_rows(toks) for toks in token_docs]
    nwords = len(vocab)
    model.store_buckets(np.unique(np.concatenate([ids[ids >= nwords] for ids, _ in docs_rows]))
                        - nwords)
    model.loss_history.append(_mean_loss(model, docs_rows, labels))
    if config.epochs == 0:
        return model
    # the steps index input_rows directly; the map keeps ids ascending
    docs_rows = [(model.row_slots[ids].astype(np.int64), counts) for ids, counts in docs_rows]

    trainable_input = not (config.pretrained is not None and config.freeze_pretrained)
    total_steps = config.epochs * len(train_docs)
    step = 0
    for epoch in range(config.epochs):
        order = np.random.default_rng((config.seed, epoch)).permutation(len(train_docs))
        loss = 0.0
        for di in order:
            step += 1
            ids, counts = docs_rows[di]
            if len(ids) == 0:
                loss += _EMPTY_DOC_LOSS
                continue
            lr = np.float32(config.initial_lr * max(0.0, 1.0 - step / total_steps))
            loss += _doc_step(model.input_rows, model.output_weights, ids, counts, labels[di],
                              lr, trainable_input)
        _epoch_guard(model.output_weights, epoch)
        model.loss_history.append(loss / len(train_docs))
    _check_finite(model.input_rows, "input rows")
    _check_finite(model.output_weights, "output weights")
    return model


def _doc_step(input_rows, output_weights, ids, counts, label, lr, trainable_input) -> float:
    """One SGD step on the softmax cross-entropy of one document, in place.
    Returns that cross-entropy at the pre-step parameters."""
    total = counts.sum()
    h = (counts @ input_rows[ids]) / total
    z = output_weights @ h
    z = z - z.max()
    e = np.exp(z)
    e_sum = e.sum()
    g = e / e_sum
    if not np.isfinite(g).all():
        raise TrainingError("non-finite class probabilities in an SGD step")
    # -log g[label], finite even where g[label] underflows
    loss = float(np.log(e_sum) - z[label])
    g[label] -= 1.0
    g *= lr
    hidden_grad = output_weights.T @ g
    output_weights -= np.outer(g, h)
    if trainable_input:
        if (ids[1:] <= ids[:-1]).any():
            # a fancy-index add keeps one update per index, so merge
            # repeated ids first; doc_rows yields strictly increasing ids
            ids, at = np.unique(ids, return_inverse=True)
            counts = np.bincount(at, counts).astype(counts.dtype)
        input_rows[ids] += np.outer(counts, -hidden_grad / total)
    return loss


def _mean_loss(model, docs_rows, labels) -> float:
    total = 0.0
    for (ids, counts), label in zip(docs_rows, labels):
        total += -float(np.log(max(_class_probs(model, ids, counts)[label], 1e-300)))
    return total / len(labels)


# ---------------------------------------------------------------------------
# persistence


def save_classifier(model: TextClassifier, path: str | Path) -> None:
    with open(path, "wb") as fh:
        formats.write_model_head(fh, _MAGIC_MODEL, model.dim, model.vocab, model.subwords)
        for name in model.label_names:
            data = name.encode("utf-8")
            fh.write(struct.pack("<H", len(data)) + data)
        fh.write(struct.pack("<I", _WORD_NGRAMS))
        formats.write_vocab_block(fh, model.vocab)
        formats.write_bucket_block(fh, model.bucket_ids, model.bucket_seed)
        formats.write_floats(fh, model.input_rows, model.output_weights)


def load_classifier(path: str | Path) -> TextClassifier:
    with open(path, "rb") as fh:
        reader = formats.ArtifactReader(fh, path)
        dim, nwords, sub = formats.read_model_head(reader, _MAGIC_MODEL, "a classifier model file")
        names = tuple(reader.text(reader.unpack("<H")[0]) for _ in range(_N_CLASSES))
        if names != LABEL_NAMES:
            raise FormatError(f"{path}: unexpected label names {list(names)}")
        (word_ngrams,) = reader.unpack("<I")
        if word_ngrams != _WORD_NGRAMS:
            raise FormatError(f"{path}: word n-gram order {word_ngrams} is not supported "
                              f"(must be {_WORD_NGRAMS})")
        vocab = formats.read_vocab_block(reader, nwords)
        bucket_ids, bucket_seed = formats.read_bucket_block(reader, sub)
        input_rows = reader.floats(nwords + len(bucket_ids), dim)
        output_weights = reader.floats(_N_CLASSES, dim)
        reader.end()
    return TextClassifier(vocab, sub, input_rows, output_weights, bucket_ids, bucket_seed)
