"""Linear softmax text classification over averaged embeddings.

A document's vector h is the mean of every input row its tokens contribute
(word rows and hashed subword rows, their ids from vocab.word_rows_csr and
vocab.subword_ids_csr; there are no word n-grams). Documents travel as one
CSR batch (doc_batch), and one forward (_forward) serves training and scoring.
Training is SGD on softmax cross-entropy, one document per step; with
pretrained vectors the word rows start from the given table and keep
training unless frozen. The learning rate decays linearly to 0 over a
cell's steps (embedding._learning_rate, the skipgram's formula), and
after every epoch embedding._epoch_guard checks each live cell's output
weights, and its input rows unless frozen: a non-finite parameter or one
above the divergence limit raises TrainingError naming the cell. It is
the only divergence check: a step whose loss is NaN also makes its cell's
output weights NaN.
train_many trains independent classifiers (cells) in lockstep: one
batched step per iteration serves every cell, and a cell trains
identically, bit for bit, alone (train_supervised) or in a batch.
The model stores the bucket rows of its training documents only (their
out-of-vocabulary tokens included); any other bucket reads its initial
value (vocab.InputTable).

loss_history[0] is the mean cross-entropy of the untrained model over the
training documents: exactly log 2, since the output weights start at zero
and so every logit is 0. loss_history[e]
is the mean loss over epoch e: each document's cross-entropy at the
parameters its SGD step started from, the running epoch loss fastText
reports. An empty document steps like any other: its mean row is zero, so
its logits are 0, its loss is log 2 and its step moves no parameter.
"""

from __future__ import annotations

import logging
import struct
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .corpus import AccountDocument, LABEL_NAMES, tokenize
from . import formats
from .embedding import VectorTable, _epoch_guard, _learning_rate
from .errors import DataError, FormatError, TrainingError
from .metrics import flagged
from .params import at_least, check, param, positive
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
# the cross-entropy of a uniform class distribution: every document's under
# zero output weights, and an empty document's (its logits are 0) at any step
_UNIFORM_LOSS = float(np.log(_N_CLASSES))
# the XLCLF2 word n-gram order field: no word n-grams, so always 1
_WORD_NGRAMS = 1
_BLOCK_SLOTS = 1024  # padded (document, slot) cells per scoring block


@dataclass
class SupervisedConfig:
    dim: int = param(100, at_least(1))
    epochs: int = param(100, at_least(0))
    initial_lr: float = param(1.0, positive())
    min_count: int = param(1, at_least(1))
    word_ngrams: int = param(1, (lambda v: v == 1, "must be 1: word n-grams are not supported"))
    subwords: SubwordIndex | None = field(default_factory=SubwordIndex)
    pretrained: VectorTable | None = None
    freeze_pretrained: bool = False
    seed: int = 1

    def __post_init__(self):
        check(self)
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
    def word_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Each vocabulary word's input_ids as CSR (vocab.word_rows_csr)."""
        return word_rows_csr(self.vocab, self.subwords)

    def doc_batch(self, token_docs: list[list[str]]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The documents as CSR (lengths, ids, shares): each one's unique
        input ids, ascending, and their float32 shares (multiplicity over
        the document's). In-vocabulary tokens read word_rows; the batch's
        out-of-vocabulary tokens are hashed in one subword_ids_csr call. A
        document's ids and counts come from one sort of its rows and the
        mask of where the sorted value changes."""
        get, (indptr, flat) = self.vocab.word_to_id.get, self.word_rows
        known, oov, oov_end = [], [], [0]
        for tokens in token_docs:
            wids = []
            for token in tokens:
                wid = get(token)
                if wid is None:
                    oov.append(token)
                else:
                    wids.append(wid)
            known.append(wids)
            oov_end.append(len(oov))
        # without subwords an out-of-vocabulary token has no row
        oov_ptr, oov_rows = np.zeros(len(oov) + 1, dtype=np.int64), np.empty(0, dtype=np.int64)
        if oov and self.subwords is not None:
            oov_ptr, oov_rows = subword_ids_csr(oov, self.subwords, len(self.vocab))
        ids, shares = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.float32)]
        o = oov_ptr.take(oov_end).tolist()
        for wids, c, d in zip(known, o, o[1:]):
            wids = np.array(wids, dtype=np.int64)
            at = indptr.take(wids)
            n = indptr.take(wids + 1) - at
            at -= n.cumsum() - n  # less each token's first place among the document's rows
            rows = at.repeat(n)
            rows += np.arange(len(rows))
            rows = np.concatenate((flat.take(rows), oov_rows[c:d]))
            rows.sort()
            change = np.empty(len(rows) + 1, dtype=bool)
            change[0] = change[-1] = True
            np.not_equal(rows[1:], rows[:-1], out=change[1:-1])
            first = change.nonzero()[0]
            ids.append(rows.take(first[:-1]))
            shares.append(np.divide(first[1:] - first[:-1], len(rows), dtype=np.float32))
        lengths = np.fromiter(map(len, ids[1:]), dtype=np.int64, count=len(token_docs))
        return lengths, np.concatenate(ids), np.concatenate(shares)


def _forward(block: np.ndarray, share: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The mean rows h (A x d) and logits z (A x 2) of A documents: their
    gathered rows block (A x L x d) weighted by share (A x L), and output
    weights w (A x 2 x d, or 1 x 2 x d for all). A document's mean is a
    numpy sum in slot order, to which padding slots (share 0 at a zero row)
    add exact zeros last, and its logits one small matmul; so for dim >= 2
    its numbers are the same, bit for bit, whatever else is in the batch."""
    h = np.einsum("al,ald->ad", share, block)
    return h, np.matmul(w, h[:, :, None])[:, :, 0]


def _score(model: TextClassifier, batch) -> tuple[np.ndarray, np.ndarray]:
    """(h, z) of every document of a doc_batch, from _forward over blocks of
    consecutive documents padded as in training, of at most _BLOCK_SLOTS
    (document, slot) cells or one document."""
    lengths, ids, shares = batch
    if len(lengths) == 1:  # one document is its own block, unpadded
        return _forward(model.rows(ids)[None], shares[None], model.output_weights[None])
    h = np.empty((len(lengths), model.dim), dtype=np.float32)
    z = np.empty((len(lengths), _N_CLASSES), dtype=np.float32)
    step = max(1, _BLOCK_SLOTS // max(1, int(lengths.max(initial=0))))
    at = 0
    for a in range(0, len(lengths), step):
        lens = lengths[a : a + step]
        end = at + int(lens.sum())
        block, share = (_padded(x, lens, int(lens.max()))
                        for x in (model.rows(ids[at:end]), shares[at:end]))
        h[a : a + step], z[a : a + step] = _forward(block, share, model.output_weights[None])
        at = end
    return h, z


def _padded(values: np.ndarray, lens: np.ndarray, width: int) -> np.ndarray:
    """CSR values of documents of lengths lens as a (documents x width ...)
    block, zero past each document's end; a view when none is shorter."""
    if len(values) == len(lens) * width:
        return values.reshape((len(lens), width) + values.shape[1:])
    out = np.zeros((len(lens), width) + values.shape[1:], dtype=values.dtype)
    out[np.arange(width) < lens[:, None]] = values
    return out


def doc_vectors(model: TextClassifier, batch) -> np.ndarray:
    """Each document's mean input row, float32 (n x d); zero when none."""
    return _score(model, batch)[0]


def class_probs(model: TextClassifier, batch) -> np.ndarray:
    """Each document's float64 softmax class distribution (n x 2)."""
    z = _score(model, batch)[1].astype(np.float64)
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def doc_embedding(tokens: list[str], model: TextClassifier) -> np.ndarray:
    """Mean over all contributing input rows; zero vector when none."""
    return doc_vectors(model, model.doc_batch([tokens]))[0]


def predict(tokens: list[str], model: TextClassifier) -> tuple[int, np.ndarray]:
    """Predicted label (by metrics.flagged) and class distribution."""
    probs = class_probs(model, model.doc_batch([tokens]))[0]
    return int(flagged(probs)), probs


def train_supervised(
    train_docs: list[AccountDocument], config: SupervisedConfig
) -> TextClassifier:
    """Train a classifier from scratch or from pretrained word vectors."""
    return train_many([(train_docs, config)])[0]


def train_many(
    cells: list[tuple[list[AccountDocument], SupervisedConfig]],
) -> list[TextClassifier]:
    """Train one classifier per (train_docs, config) cell, in lockstep.

    The cells are independent: in epoch e each visits its documents in
    the order default_rng((seed, e)).permutation(n), and iteration i takes
    one batched SGD step (_sgd_step) on the i-th document of every cell
    that has one, each at its own learning rate, which decays over its own
    steps. So every cell takes exactly the steps it would take alone, and
    (for dim >= 2) its model comes out bit for bit the same whichever
    cells share the batch. The cells must share dim. A cell whose data
    cannot train (DataError) or whose training fails (TrainingError) raises
    an error naming its index, also held in the error's cell.
    In a batch of several cells, the models' input_rows are views of one
    table that holds every cell's rows.
    """
    dims = sorted({config.dim for _, config in cells})
    if len(dims) > 1:
        raise ValueError(f"the cells of one batch must share dim, got dims {dims}")
    prepared = []
    for i, (docs, config) in enumerate(cells):
        try:
            prepared.append(_init_cell(i, docs, config))
        except DataError as exc:
            raise DataError(f"cell {i}: {exc}", cell=i) from exc
    training = [cell for cell in prepared if cell.config.epochs > 0]
    if training:
        _train_lockstep(training)
    return [cell.model for cell in prepared]


class _Cell(NamedTuple):
    """A cell of a train_many batch: its untrained model (loss_history[0]
    set) and its doc_batch, ids mapped to input_rows positions (rows)."""

    index: int
    config: SupervisedConfig
    model: TextClassifier
    labels: np.ndarray
    lengths: np.ndarray
    rows: np.ndarray
    shares: np.ndarray

    @property
    def trains_input(self) -> bool:
        return not (self.config.pretrained is not None and self.config.freeze_pretrained)


def _init_cell(index: int, train_docs: list[AccountDocument], config: SupervisedConfig) -> _Cell:
    if not train_docs:
        raise DataError("empty training set")
    token_docs = [tokenize(d.text) for d in train_docs]
    labels = np.asarray([d.label for d in train_docs], dtype=np.int64)
    for cls in (0, 1):
        if not (labels == cls).any():
            logger.warning("training data has no documents of class %s", LABEL_NAMES[cls])

    vocab = build_vocab(token_docs, min_count=config.min_count)
    input_rows = init_input_rows(vocab, config.dim, config.seed)
    if config.pretrained is not None:
        at = np.array([config.pretrained.word_to_id.get(w, -1) for w in vocab.words])
        hit = np.flatnonzero(at >= 0)
        input_rows[hit] = config.pretrained.vectors[at[hit]]
        logger.info("pretrained init: %d/%d vocabulary words covered", len(hit), len(vocab))
    # bucket rows start at zero under pretrained vectors
    uniform = config.subwords is not None and config.pretrained is None
    output_weights = np.zeros((_N_CLASSES, config.dim), dtype=np.float32)
    model = TextClassifier(vocab, config.subwords, input_rows, output_weights,
                           bucket_seed=config.seed if uniform else None)

    lengths, ids, shares = model.doc_batch(token_docs)
    # the steps index input_rows directly; the map keeps ids ascending
    rows = model.store_buckets(ids)
    # output weights start at zero, so every logit is 0
    model.loss_history.append(_UNIFORM_LOSS)
    return _Cell(index, config, model, labels, lengths, rows, shares)


def _shared_table(cells: list[_Cell]):
    """The table every step gathers from, and every document's slots in it
    as CSR: (table, read, write, shares). A lone cell's table is its own
    input_rows, so that it trains in place, and it is never padded.
    Several cells share a copy of their rows, which their models then
    view, followed by the zero row that padding slots read and the sink
    row that padding slots and frozen cells write to; the slots end with
    one padding slot. write is None when no input row trains."""
    if len(cells) == 1:
        (cell,) = cells
        write = cell.rows if cell.trains_input else None
        return cell.model.input_rows, cell.rows, write, cell.shares
    models = [cell.model for cell in cells]
    table = np.concatenate([m.input_rows for m in models]
                           + [np.zeros((2, models[0].dim), dtype=np.float32)])
    zero, sink = len(table) - 2, len(table) - 1
    offsets = np.cumsum([0] + [len(m.input_rows) for m in models])
    for c, model in enumerate(models):
        model.input_rows = table[offsets[c] : offsets[c + 1]]
    read = [cell.rows + offsets[c] for c, cell in enumerate(cells)]
    write = None
    if any(cell.trains_input for cell in cells):
        write = np.concatenate([r if cell.trains_input else np.full(len(r), sink)
                                for r, cell in zip(read, cells)] + [[sink]])
    shares = np.concatenate([cell.shares for cell in cells] + [np.zeros(1, dtype=np.float32)])
    return table, np.concatenate(read + [[zero]]), write, shares


@np.errstate(over="ignore", invalid="ignore")  # _epoch_guard reports a divergence
def _train_lockstep(cells: list[_Cell]) -> None:
    """Train the cells in place, as train_many describes."""
    table, read, write, shares = _shared_table(cells)
    weights = np.stack([cell.model.output_weights for cell in cells])
    for c, cell in enumerate(cells):
        cell.model.output_weights = weights[c]
    lengths = np.concatenate([cell.lengths for cell in cells])
    starts = np.cumsum(lengths) - lengths
    # the scatter needs unique ids: doc_batch yields them strictly increasing
    total = int(lengths.sum())
    rising = np.diff(read[:total]) > 0
    rising[starts[(starts > 0) & (starts < total)] - 1] = True  # document boundaries
    if not rising.all():
        raise ValueError("a document's row ids must be strictly increasing")
    doc_labels = np.concatenate([cell.labels for cell in cells])

    n = np.array([len(cell.labels) for cell in cells])
    first_doc = np.cumsum(n) - n
    epochs = np.array([cell.config.epochs for cell in cells])
    initial_lr = np.array([cell.config.initial_lr for cell in cells])
    span = np.arange(int(lengths.max()))
    for epoch in range(int(epochs.max())):
        # the live cells, most documents first: at iteration i the cells
        # that still have a document are a prefix of them
        live = np.flatnonzero(epochs > epoch)
        live = live[np.argsort(-n[live], kind="stable")]
        width = int(n[live[0]])
        order = np.full((width, len(live)), -1, dtype=np.int64)
        for j, c in enumerate(live.tolist()):
            perm = np.random.default_rng((cells[c].config.seed, epoch)).permutation(int(n[c]))
            order[: n[c], j] = first_doc[c] + perm
        step = epoch * n[live] + np.arange(1, width + 1)[:, None]
        lr = _learning_rate(initial_lr[live], step, epochs[live] * n[live]).astype(np.float32)
        present = order >= 0
        active = present.sum(axis=1).tolist()
        length = np.where(present, lengths[order], 0)
        slots = length.max(axis=1).tolist()
        doc_start, label = starts[order], doc_labels[order]
        loss = np.zeros(len(live))
        for i in range(width):
            k = active[i]
            if k == 1:  # one document's slots are one run: step on views of it
                run = np.s_[None, doc_start[i, 0] : doc_start[i, 0] + slots[i]]
                ids, share = read[run], shares[run]
                to = None if write is None else write[run]
            else:
                at = np.where(span[: slots[i]] < length[i, :k, None],
                              doc_start[i, :k, None] + span[: slots[i]], len(read) - 1)
                ids, share = read.take(at), shares.take(at)
                to = None if write is None else write.take(at)
            loss[:k] += _sgd_step(table, weights, live[:k], ids, share, label[i, :k], lr[i, :k],
                                  to)
        for j, c in enumerate(live.tolist()):
            cell = cells[c]
            trained = [cell.model.output_weights]
            if cell.trains_input:
                trained.append(cell.model.input_rows)
            try:
                _epoch_guard(epoch, *trained)
            except TrainingError as exc:
                raise TrainingError(f"cell {cell.index}: {exc}", cell=cell.index) from exc
            cell.model.loss_history.append(float(loss[j]) / int(n[c]))


def _sgd_step(table, weights, cells, ids, share, labels, lr, write) -> np.ndarray:
    """One SGD step on the softmax cross-entropy of A documents, each of a
    different cell, in place; returns each document's cross-entropy at the
    pre-step parameters (NaN where its class probabilities are not
    finite).

    Document a is the mean (_forward) of the table rows ids[a] (ids is
    A x L) weighted by share[a]; a document shorter than L pads with share
    0 at a zero row, and an empty one (L may be 0) has h = 0 and z = 0, so
    its loss is log 2 and it moves no parameter. It belongs to cell
    cells[a], whose output weights are weights[cells[a]] (weights is
    C x 2 x d), and steps at rate lr[a]. The updated rows go to write
    (A x L): ids, except that padding slots and frozen cells write to a
    sink row. With write None no input row moves.

    Ids are unique within a document and disjoint across documents, so one
    gather and one scatter serve every row. A document's hidden gradient,
    like its forward, is one small matmul: for dim >= 2 it steps the same,
    bit for bit, whatever else is in the batch.
    """
    block = table.take(ids, axis=0)  # A x L x d
    w = weights.take(cells, axis=0)
    h, z = _forward(block, share, w)
    z -= np.maximum(z[:, :1], z[:, 1:])
    e = np.exp(z)
    e_sum = e[:, 0] + e[:, 1]
    docs = np.arange(len(labels))
    # -log g[label], finite even where g[label] underflows
    loss = np.log(e_sum) - z[docs, labels]
    g = e / e_sum[:, None]
    g[docs, labels] -= 1.0
    g *= lr[:, None]
    weights[cells] = w - g[:, :, None] * h[:, None, :]
    if write is not None:
        hidden_grad = np.matmul(g[:, None, :], w)[:, 0]
        # einsum's outer product takes half the time of a broadcast one
        block -= np.einsum("al,ad->ald", share, hidden_grad)
        table[write] = block
    return loss


# ---------------------------------------------------------------------------
# persistence


def save_classifier(model: TextClassifier, path: str | Path) -> None:
    """formats.write_model, with the label names and the word n-gram
    order as the preamble and the output weights as the tail."""
    names = [name.encode("utf-8") for name in model.label_names]
    preamble = b"".join(struct.pack("<H", len(data)) + data for data in names)
    formats.write_model(path, _MAGIC_MODEL, model, model.output_weights,
                        preamble + struct.pack("<I", _WORD_NGRAMS))


def _read_preamble(reader: formats.ArtifactReader) -> None:
    names = tuple(reader.text(reader.unpack("<H")[0]) for _ in range(_N_CLASSES))
    if names != LABEL_NAMES:
        raise FormatError(f"{reader.path}: unexpected label names {list(names)}")
    (word_ngrams,) = reader.unpack("<I")
    if word_ngrams != _WORD_NGRAMS:
        raise FormatError(f"{reader.path}: word n-gram order {word_ngrams} is not supported "
                          f"(must be {_WORD_NGRAMS})")


def load_classifier(path: str | Path) -> TextClassifier:
    return TextClassifier(*formats.read_model(
        path, _MAGIC_MODEL, "a classifier model file", _N_CLASSES, _read_preamble))
