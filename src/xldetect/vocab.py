"""Word vocabularies and hashed character n-gram decomposition.

A word owns a dense vocabulary row; its character n-grams (over the
boundary-wrapped form "<word>") are hashed into a fixed table of buckets
so that out-of-vocabulary words still compose a vector.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DataError

FNV_OFFSET_BASIS = 2166136261
FNV_PRIME = 16777619
_U32 = 0xFFFFFFFF


def fnv1a_32(data: bytes) -> int:
    """FNV-1a 32-bit hash; bit-exact across platforms."""
    h = FNV_OFFSET_BASIS
    for byte in data:
        h = ((h ^ byte) * FNV_PRIME) & _U32
    return h


def hash_subword(ngram: str, buckets: int) -> int:
    if buckets < 1:
        raise ValueError(f"buckets must be >= 1, got {buckets}")
    return fnv1a_32(ngram.encode("utf-8")) % buckets


@dataclass(frozen=True)
class SubwordIndex:
    """Character n-gram extraction parameters. Pass None where an index is
    expected to disable subwords entirely."""

    n_min: int = 3
    n_max: int = 6
    buckets: int = 2_000_000

    def __post_init__(self):
        if not 1 <= self.n_min <= self.n_max:
            raise ValueError(f"need 1 <= n_min <= n_max, got {self.n_min}..{self.n_max}")
        if self.buckets < 1:
            raise ValueError(f"buckets must be >= 1, got {self.buckets}")


class Vocabulary:
    """Distinct words with counts, ordered by count desc then lexicographic.

    Ids are dense 0..|V|-1 in that order, so rebuilding from the same
    corpus reproduces the same assignment byte for byte.
    """

    def __init__(self, words: list[str], counts: list[int], min_count: int, total_tokens: int):
        self.words = list(words)
        self.counts = np.asarray(counts, dtype=np.int64)
        self.min_count = min_count
        self.total_tokens = total_tokens
        self.word_to_id = {w: i for i, w in enumerate(self.words)}

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, word: str) -> bool:
        return word in self.word_to_id


def build_vocab(corpus: Iterable[list[str]], min_count: int = 5) -> Vocabulary:
    """Count words over a tokenized corpus and keep those with count >= min_count."""
    counts: dict[str, int] = {}
    total = 0
    for tokens in corpus:
        for tok in tokens:
            counts[tok] = counts.get(tok, 0) + 1
            total += 1
    if total == 0:
        raise DataError("empty corpus: no tokens to build a vocabulary from")
    kept = sorted(
        ((w, c) for w, c in counts.items() if c >= min_count),
        key=lambda wc: (-wc[1], wc[0]),
    )
    if not kept:
        raise DataError(
            f"empty vocabulary: no word reaches min_count={min_count} "
            f"(corpus has {len(counts)} distinct words)"
        )
    words, kept_counts = zip(*kept)
    return Vocabulary(list(words), list(kept_counts), min_count, total)


def subwords(word: str, index: SubwordIndex) -> list[str]:
    """All character n-grams of length n_min..n_max over the wrapped "<word>".

    "<" and ">" are reserved boundary markers; occurrences inside the word
    are replaced with "_" before wrapping. For a word of length L this
    yields sum over n of max(0, L+3-n) n-grams.
    """
    if not word:
        raise ValueError("cannot decompose an empty word")
    wrapped = "<" + word.replace("<", "_").replace(">", "_") + ">"
    total = len(wrapped)
    grams = []
    for n in range(index.n_min, index.n_max + 1):
        for i in range(total - n + 1):
            grams.append(wrapped[i : i + n])
    return grams


def input_ids(word: str, vocab: Vocabulary, index: SubwordIndex | None) -> list[int]:
    """Row indices contributing to a word's vector.

    In-vocabulary words contribute their word row plus hashed subword
    rows (offset by |V|); out-of-vocabulary words contribute bucket rows
    only. Hash collisions are kept, so a bucket can contribute multiply.
    """
    ids: list[int] = []
    wid = vocab.word_to_id.get(word)
    if wid is not None:
        ids.append(wid)
    if index is not None:
        offset = len(vocab)
        ids.extend(offset + hash_subword(g, index.buckets) for g in subwords(word, index))
        if wid is None and len(ids) == 0:
            # unreachable with n_min <= 3 since the wrapped form has length >= 3
            raise ValueError(f"no input rows for out-of-vocabulary word {word!r}")
    return ids


def word_rows_csr(
    vocab: Vocabulary, index: SubwordIndex | None
) -> tuple[np.ndarray, np.ndarray]:
    """CSR (indptr, flat row ids) of each word's input_ids, in id order;
    without subwords every word is its own single row."""
    flat, indptr = array("q"), array("q", [0])
    for word in vocab.words:
        flat.extend(input_ids(word, vocab, index))
        indptr.append(len(flat))
    return np.array(indptr, dtype=np.int64), np.array(flat, dtype=np.int64)


def init_input_rows(
    vocab: Vocabulary, index: SubwordIndex | None, dim: int, seed: int
) -> np.ndarray:
    """The |V| word rows then the bucket rows that input_ids indexes,
    drawn uniformly from [-1/dim, 1/dim) in float32, scaled in place so
    that the table is never held twice."""
    buckets = index.buckets if index is not None else 0
    rng = np.random.default_rng(seed)
    rows = rng.random((len(vocab) + buckets, dim), dtype=np.float32)
    rows *= np.float32(2.0)
    rows -= np.float32(1.0)
    rows *= np.float32(1.0 / dim)
    return rows
