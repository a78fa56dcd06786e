"""Orthogonal alignment of two monolingual embedding spaces.

A seed dictionary anchors a Procrustes fit; refinement alternates
CSLS-based dictionary induction with refitting. Retrieval (induction,
evaluation) runs on L2-normalized vectors; the Procrustes fit itself
uses the raw dictionary vectors.

Retrieval scores one block of query rows against a whole table at a
time: _block_rows(n) rows against a table of n rows, at most
_BLOCK_CELLS cells (2 MiB of float64) unless the 64-row floor for wide
tables applies. Each consumer works on its block in place, so besides
the normalized tables a search holds a few blocks at once, whatever the
number of queries.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import formats
from .embedding import VectorTable
from .errors import AlignmentError

logger = logging.getLogger(__name__)

_MAGIC_MAP = "XLMAP1"
# float64 cells per similarity block: 2 MiB
_BLOCK_CELLS = 1 << 18


@dataclass
class BilingualDictionary:
    pairs: list[tuple[str, str]]
    role: str = "train"
    scores: list[float] | None = None  # set on induced dictionaries

    def __len__(self) -> int:
        return len(self.pairs)

    def filtered(self, source: VectorTable, target: VectorTable) -> tuple["BilingualDictionary", int]:
        """Drop pairs whose source or target word is missing from the tables."""
        kept = [
            (s, t)
            for s, t in self.pairs
            if s in source.word_to_id and t in target.word_to_id
        ]
        dropped = len(self.pairs) - len(kept)
        if dropped:
            logger.info(
                "dictionary (%s): dropped %d/%d out-of-vocabulary pairs",
                self.role, dropped, len(self.pairs),
            )
        return BilingualDictionary(kept, self.role), dropped


@dataclass
class OrthogonalMap:
    w: np.ndarray

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=np.float64)
        d = self.w.shape[0]
        if d == 0 or self.w.shape != (d, d):
            raise AlignmentError(f"map must be square and non-empty, got {self.w.shape}")
        err = np.abs(self.w.T @ self.w - np.eye(d)).max()
        if not err <= 1e-6:  # also catches NaN
            raise AlignmentError(f"map is not orthogonal: max |W'W - I| = {err:.3e}")

    @property
    def dim(self) -> int:
        return self.w.shape[0]


def procrustes(x: np.ndarray, y: np.ndarray) -> OrthogonalMap:
    """Orthogonal W minimizing sum ||W x_i - y_i||^2 over paired rows.

    Parameters
    ----------
    x, y : ndarray, shape (n, d)
        Paired vectors, one dictionary entry per row.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 2:
        raise ValueError(f"paired shapes required, got {x.shape} and {y.shape}")
    n, d = x.shape
    if n < d:
        warnings.warn(
            f"procrustes fit with {n} pairs in dimension {d}; n >= d is recommended",
            stacklevel=2,
        )
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is checked next
        m = y.T @ x
    if not np.isfinite(m).all():
        raise AlignmentError("degenerate alignment: non-finite cross-covariance")
    if not m.any():
        raise AlignmentError("degenerate alignment: zero cross-covariance")
    u, _, vt = np.linalg.svd(m, full_matrices=False)
    return OrthogonalMap(u @ vt)


def apply_map(omap: OrthogonalMap, table: VectorTable) -> VectorTable:
    """Map every vector x to W x; the vocabulary is unchanged."""
    if table.dim != omap.dim:
        raise ValueError(f"dimension mismatch: map {omap.dim}, table {table.dim}")
    return VectorTable(list(table.words), table.vectors @ omap.w.T)


def _normalized(vectors: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(vectors, axis=1)
    if (norms == 0).any():
        raise AlignmentError("cannot L2-normalize a zero vector")
    return vectors / norms[:, None]


def _check_positive(**values: int) -> None:
    for name, value in values.items():
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")


def _block_rows(n_columns: int) -> int:
    """Rows per similarity block against a table of n_columns rows: at most
    _BLOCK_CELLS cells, but never under 64 rows, which keeps the GEMM
    efficient on wide tables."""
    return max(64, _BLOCK_CELLS // n_columns)


def _mean_topk(sims: np.ndarray, k: int) -> np.ndarray:
    """Row-wise mean of the k largest entries; partitions sims in place."""
    n = sims.shape[1]
    k = min(k, n)
    sims.partition(n - k, axis=1)
    return sims[:, n - k :].mean(axis=1)


def _cosine_blocks(a: np.ndarray, b: np.ndarray):
    """Cosines of _block_rows(len(b)) rows of a at a time to every row of b
    (rows normalized). Each block is a fresh array its consumer may overwrite."""
    rows = _block_rows(b.shape[0])
    for start in range(0, a.shape[0], rows):
        yield a[start : start + rows] @ b.T


def _knn_means(a: np.ndarray, b: np.ndarray, k: int) -> np.ndarray:
    """For each row of a, mean cosine to its k nearest rows of b."""
    return np.concatenate([_mean_topk(block, k) for block in _cosine_blocks(a, b)])


def csls_blocks(x: np.ndarray, y: np.ndarray, r_y: np.ndarray):
    """CSLS of normalized rows x against normalized rows y, in the blocks of
    _cosine_blocks (_block_rows(len(y)) rows of x each), as
    2 cos(x, y) - r_y[y]. That is CSLS minus r_x[x], which is constant along
    a row, so a row's argmax and top-k are CSLS's own. Each block is
    computed in place and may be overwritten by its consumer."""
    for block in _cosine_blocks(x, y):
        block *= 2.0
        block -= r_y
        yield block


def induce_dictionary(
    mapped_source: VectorTable,
    target: VectorTable,
    top_k_vocab: int = 10000,
    csls_k: int = 10,
) -> BilingualDictionary:
    """Mutual CSLS nearest neighbors among the most frequent words.

    Table row order is taken as frequency rank. Pairs are returned sorted
    by descending CSLS score (ties by source id).
    """
    _check_positive(top_k_vocab=top_k_vocab, csls_k=csls_k)
    if mapped_source.dim != target.dim:
        raise ValueError("embedding dimensions differ")
    ns = min(top_k_vocab, len(mapped_source))
    nt = min(top_k_vocab, len(target))
    if ns == 0 or nt == 0:
        raise AlignmentError("dictionary induction needs words on both sides")
    xs = _normalized(mapped_source.vectors[:ns])
    yt = _normalized(target.vectors[:nt])
    r_src = _knn_means(xs, yt, csls_k)   # per-source mean cosine to k nearest targets
    r_tgt = _knn_means(yt, xs, csls_k)   # per-target mean cosine to k nearest sources

    best_tgt = np.concatenate([b.argmax(axis=1) for b in csls_blocks(xs, yt, r_tgt)])
    best_src = np.concatenate([b.argmax(axis=1) for b in csls_blocks(yt, xs, r_src)])
    src = np.flatnonzero(best_src[best_tgt] == np.arange(ns))
    if not src.size:
        raise AlignmentError("dictionary induction found no mutual nearest neighbors")
    tgt = best_tgt[src]
    scores = 2.0 * np.einsum("ij,ij->i", xs[src], yt[tgt]) - r_src[src] - r_tgt[tgt]
    order = np.lexsort((src, -scores))
    logger.info("induced %d mutual-neighbor pairs", len(src))
    return BilingualDictionary(
        [(mapped_source.words[i], target.words[j])
         for i, j in zip(src[order].tolist(), tgt[order].tolist())],
        role="induced",
        scores=scores[order].tolist(),
    )


def _dictionary_matrices(
    dictionary: BilingualDictionary, source: VectorTable, target: VectorTable
) -> tuple[np.ndarray, np.ndarray]:
    filtered, _ = dictionary.filtered(source, target)
    if not filtered.pairs:
        raise AlignmentError(f"no usable pairs in {dictionary.role} dictionary")
    src_ids = [source.word_to_id[s] for s, _ in filtered.pairs]
    tgt_ids = [target.word_to_id[t] for _, t in filtered.pairs]
    return source.vectors[src_ids], target.vectors[tgt_ids]


def refine(
    source: VectorTable,
    target: VectorTable,
    seed_dict: BilingualDictionary,
    iterations: int = 5,
    eval_dict: BilingualDictionary | None = None,
    top_k_vocab: int = 10000,
    csls_k: int = 10,
) -> OrthogonalMap:
    """Fit on the seed dictionary, then alternate induction and refitting.

    iterations counts the induced refits, so iterations=0 is a plain
    Procrustes fit on the seed dictionary.
    """
    _check_positive(top_k_vocab=top_k_vocab, csls_k=csls_k)
    x, y = _dictionary_matrices(seed_dict, source, target)
    omap = procrustes(x, y)
    _log_eval(omap, source, target, eval_dict, 0, csls_k)
    for it in range(1, iterations + 1):
        try:
            induced = induce_dictionary(
                apply_map(omap, source), target, top_k_vocab, csls_k
            )
            x, y = _dictionary_matrices(induced, source, target)
            omap = procrustes(x, y)
        except AlignmentError as exc:
            raise AlignmentError(f"refinement iteration {it}: {exc}") from exc
        _log_eval(omap, source, target, eval_dict, it, csls_k)
    return omap


def _log_eval(omap, source, target, eval_dict, iteration, csls_k):
    if eval_dict is None:
        return
    p1 = evaluate_translation(omap, source, target, eval_dict, k=1, csls_k=csls_k)
    logger.info("refinement iteration %d: precision@1 = %.4f", iteration, p1)


def evaluate_translation(
    omap: OrthogonalMap,
    source: VectorTable,
    target: VectorTable,
    eval_dict: BilingualDictionary,
    k: int = 1,
    csls_k: int = 10,
) -> float:
    """Fraction of source words whose CSLS top-k neighbors contain a listed
    translation; a source word with several translations is one query."""
    _check_positive(k=k, csls_k=csls_k)
    filtered, _ = eval_dict.filtered(source, target)
    if not filtered.pairs:
        raise AlignmentError("evaluation dictionary has no usable pairs")
    gold: dict[int, set[int]] = {}
    for s, t in filtered.pairs:
        gold.setdefault(source.word_to_id[s], set()).add(target.word_to_id[t])

    xs = _normalized(apply_map(omap, source).vectors)
    yt = _normalized(target.vectors)
    r_tgt = _knn_means(yt, xs, csls_k)

    queries = sorted(gold)
    kk = min(k, yt.shape[0])
    correct = 0
    rows = _block_rows(yt.shape[0])
    blocks = csls_blocks(xs[queries], yt, r_tgt)
    for start, scores in zip(range(0, len(queries), rows), blocks):
        np.negative(scores, out=scores)
        top = scores.argpartition(kk - 1, axis=1)[:, :kk]
        for q, row in zip(queries[start : start + rows], top.tolist()):
            if gold[q].intersection(row):
                correct += 1
    return correct / len(queries)


def merge_tables(target: VectorTable, mapped_source: VectorTable) -> VectorTable:
    """Union of both vocabularies in the shared space; on a collision the
    target-language vector wins (collision count logged)."""
    if target.dim != mapped_source.dim:
        raise ValueError("embedding dimensions differ")
    words = list(target.words)
    vectors = [target.vectors]
    collisions = 0
    extra_ids = []
    for i, w in enumerate(mapped_source.words):
        if w in target.word_to_id:
            collisions += 1
        else:
            extra_ids.append(i)
            words.append(w)
    if extra_ids:
        vectors.append(mapped_source.vectors[extra_ids])
    if collisions:
        logger.info("merge: %d shared words kept their target-language vector", collisions)
    return VectorTable(words, np.concatenate(vectors, axis=0))


def load_dictionary(path: str | Path, role: str = "train") -> BilingualDictionary:
    """Read "source_word target_word" pairs, one per line, UTF-8.

    Duplicate source words are allowed (a word may have several valid
    translations)."""
    rows = formats.TextArtifact(path).rows(None, 2, "'source target'")
    return BilingualDictionary([(s, t) for _, (s, t) in rows], role)


def save_dictionary(dictionary: BilingualDictionary, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s, t in dictionary.pairs:
            fh.write(f"{s} {t}\n")


def save_map(omap: OrthogonalMap, path: str | Path) -> None:
    formats.write_matrix(path, _MAGIC_MAP, omap.w)


def load_map(path: str | Path) -> OrthogonalMap:
    return OrthogonalMap(formats.read_matrix(path, _MAGIC_MAP)[1])
