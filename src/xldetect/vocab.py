"""Word vocabularies, hashed character n-gram decomposition and the input
table both trainers share.

A word owns a dense vocabulary row; its character n-grams (over the
boundary-wrapped form "<word>") are hashed into a fixed table of buckets
so that out-of-vocabulary words still compose a vector. subword_ids_csr
is the one n-gram hasher: every stage, input_ids included, takes bucket
ids from it, and it builds no n-gram string. The per-string spec it
matches bit for bit lives with the tests (tests/subword_spec.py).

A bucket row's initial value is a pure function of (seed, bucket), so an
InputTable stores only the bucket rows training can touch and derives any
other from that rule.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import le
from typing import Iterable

import numpy as np

from .errors import DataError
from .params import at_least, check, param

FNV_OFFSET_BASIS = 2166136261
FNV_PRIME = 16777619
# FNV-1a's first step, from the offset basis, over every byte value
_FNV_FIRST = (np.arange(256, dtype=np.uint32) ^ np.uint32(FNV_OFFSET_BASIS)) * np.uint32(FNV_PRIME)
_BLOCK_CHARS = 1 << 15  # hash cells per block of subword_ids_csr
# splitmix64 (Steele et al. 2014): the stream increment and the two mix multipliers
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_U64 = (1 << 64) - 1
# 64-bit outputs per block of init_bucket_rows: a block's 256 KiB of states
# stays in cache over its passes, a quarter faster than 2 MiB blocks
_INIT_WORDS = 1 << 15
# 8x fastText's 2M default; bounds InputTable.row_slots at 64 MiB of int32
MAX_BUCKETS = 1 << 24


@dataclass(frozen=True)
class SubwordIndex:
    """Character n-gram extraction parameters. Pass None where an index is
    expected to disable subwords entirely."""

    n_min: int = param(3, at_least(1))
    n_max: int = param(6, at_least(1))
    buckets: int = param(2_000_000, (lambda v: 1 <= v <= MAX_BUCKETS, "must be in [1, 2^24]"))

    CROSS_RULES = ((("n_min", "n_max"), le, "{n_min} must be <= {n_max}"),)

    def __post_init__(self):
        check(self)


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
    counts: Counter[str] = Counter()
    for tokens in corpus:
        counts.update(tokens)
    total = counts.total()
    if total == 0:
        raise DataError("empty corpus: no tokens to build a vocabulary from")
    # by word, then stably by count, descending: ties stay in word order
    words = sorted(w for w, c in counts.items() if c >= min_count)
    words.sort(key=counts.__getitem__, reverse=True)
    if not words:
        raise DataError(
            f"empty vocabulary: no word reaches min_count={min_count} "
            f"(corpus has {len(counts)} distinct words)"
        )
    return Vocabulary(words, list(map(counts.__getitem__, words)), min_count, total)


def input_ids(word: str, vocab: Vocabulary, index: SubwordIndex | None) -> list[int]:
    """Row indices contributing to a word's vector: its word row when it is
    in the vocabulary, then, with subwords on, its bucket rows (offset by
    |V|) in subword_ids_csr order, none when the wrapped word is shorter
    than n_min. Hash collisions are kept, so a bucket can contribute
    multiply."""
    wid = vocab.word_to_id.get(word)
    if index is None:
        return [] if wid is None else [wid]
    first = None if wid is None else np.array([wid])
    return subword_ids_csr([word], index, len(vocab), first=first)[1].tolist()


def subword_ids_csr(
    words: list[str], index: SubwordIndex, offset: int, first: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """CSR (indptr, ids) of every word's bucket rows. Word w is wrapped as
    "<w>", with "<" and ">" inside it replaced by "_"; its row holds, for
    each n-gram g of the wrapped form, by length n_min..n_max and then by
    start, offset + FNV-1a-32(UTF-8 bytes of g) mod index.buckets. A word
    of L characters has sum over n of max(0, L + 3 - n) n-grams. With first
    given, each row starts with first[w] (word_rows_csr puts the word's own
    row there).

    No n-gram string is built. FNV-1a streams left to right, so the hash
    of w[i:i+n+1] is one step on from that of w[i:i+n]: one state per
    (word, start character) advances over the UTF-8 bytes of one more
    character for each n. Words are hashed in blocks of at most about
    _BLOCK_CHARS (n-gram length, start character) cells, whatever the
    n-gram range, which bounds the memory a block takes.
    """
    if "" in words:
        raise ValueError("cannot decompose an empty word")
    lengths = np.fromiter(map(len, words), dtype=np.int64, count=len(words))
    lengths += 2
    # a block takes (characters x n-gram lengths of its longest word) cells
    rows = min(index.n_max, max(map(len, words), default=0) + 2) - index.n_min + 1
    chars = _BLOCK_CHARS // max(1, rows)
    ends = lengths.cumsum()
    firsts = ends - lengths  # each word's first character
    indptr = np.zeros(len(words) + 1, dtype=np.int64)
    ids, start = [], 0
    while start < len(words):
        stop = len(words)
        if ends[-1] - firsts[start] > chars:
            stop = max(start + 1, int(ends.searchsorted(firsts[start] + chars, side="right")))
        block = slice(start, stop)
        block_ends, block_ids = _hash_block(words[block], lengths[block],
                                            firsts[block] - firsts[start], index)
        np.add(block_ends, indptr[start], out=indptr[start + 1 : stop + 1])
        ids.append(block_ids)
        start = stop
    ids = ids[0] if len(ids) == 1 else np.concatenate([np.empty(0, dtype=np.int64), *ids])
    ids += offset
    if first is not None:
        ids = np.insert(ids, indptr[:-1], first)
        indptr += np.arange(len(indptr))
    return indptr, ids


def _hash_block(words, lengths, firsts, index) -> tuple[np.ndarray, np.ndarray]:
    """(each word's n-gram count plus those of the words before it, bucket
    ids in n-gram order) of words whose wrapped forms have lengths
    characters and start at characters firsts of the block. Grid cell
    (k, c) holds the hash of the n_min + k characters from character c on;
    step n takes every start c over character c + n - 1, a shifted slice of
    the bytes, in uint32, which wraps as FNV-1a's mod 2^32. An index of runs
    of cells, one per word and n-gram length, built from the lengths, reads
    them in n-gram order."""
    n_min = index.n_min
    rows = min(index.n_max, max(map(len, words)) + 2) - n_min + 1
    if rows <= 0:  # no word has an n-gram
        return np.zeros(len(words), dtype=np.int64), np.empty(0, dtype=np.int64)
    text = "<" + "><".join(words) + ">"
    if text.count("<") > len(words) or text.count(">") > len(words):
        text = "<" + "><".join(w.replace("<", "_").replace(">", "_") for w in words) + ">"
    buf = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
    first_bytes, more = buf, []  # more: (byte j >= 1, whether it is one)
    if len(buf) > len(text):  # some character takes more than one byte
        at = np.flatnonzero((buf & 0xC0) != 0x80)  # the bytes that start a character
        first_bytes, width = buf.take(at), np.diff(at, append=len(buf))  # bytes per character
        more = [(buf.take(at + j, mode="clip"), width > j) for j in range(1, int(width.max()))]
    chars = len(first_bytes)
    grid = np.empty((rows, chars), dtype=np.uint32)  # row k is written for n = n_min + k
    prev, prime = None, np.uint32(FNV_PRIME)
    for n in range(1, n_min + rows):
        row = grid[max(0, n - n_min), : chars - n + 1]
        if prev is None:  # from the offset basis: a lookup of each first byte
            _FNV_FIRST.take(first_bytes, out=row, mode="clip")
        else:
            np.bitwise_xor(prev[: chars - n + 1], first_bytes[n - 1 :], row)
            row *= prime
        for byte, has in more:  # continuation bytes
            np.copyto(row, (row ^ byte[n - 1 :]) * prime, where=has[n - 1 :])
        prev = row
    # runs[w, k]: the n-grams of n_min + k characters of word w, a run of
    # cells from its first character on in row k
    runs = np.subtract.outer(lengths, np.arange(n_min - 1, n_min - 1 + rows))
    np.maximum(runs, 0, out=runs)
    shift = firsts[:, None] + np.arange(0, rows * chars, chars)
    run_ends = runs.cumsum().reshape(runs.shape)
    shift -= run_ends - runs  # less each run's first id's place
    cell = shift.ravel().repeat(runs.ravel())
    cell += np.arange(len(cell))
    return run_ends[:, -1], grid.take(cell) % np.int64(index.buckets)


def word_rows_csr(
    vocab: Vocabulary, index: SubwordIndex | None
) -> tuple[np.ndarray, np.ndarray]:
    """CSR (indptr, flat row ids) of each word's input_ids, in id order;
    without subwords every word is its own single row."""
    if index is None:
        return np.arange(len(vocab) + 1, dtype=np.int64), np.arange(len(vocab), dtype=np.int64)
    return subword_ids_csr(vocab.words, index, len(vocab), first=np.arange(len(vocab)))


def init_input_rows(vocab: Vocabulary, dim: int, seed: int) -> np.ndarray:
    """The |V| word rows, drawn uniformly from [-1/dim, 1/dim) in float32
    by default_rng(seed) and scaled in place. Bucket rows come from
    init_bucket_rows, through InputTable.store_buckets, which stores those
    the training ids name and returns each id's position in input_rows."""
    rows = np.random.default_rng(seed).random((len(vocab), dim), dtype=np.float32)
    rows *= np.float32(2.0)
    rows -= np.float32(1.0)
    rows *= np.float32(1.0 / dim)
    return rows


def _splitmix64(z: np.ndarray) -> np.ndarray:
    """splitmix64's output mix of uint64 states, in place."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return z


@lru_cache(maxsize=16)
def _init_stream(seed: int, dim: int) -> tuple[np.ndarray, np.uint64, np.float32]:
    """(state of output j of every bucket's row less its bucket term, the
    state step per bucket, the value scale) of init_bucket_rows; cached,
    since scoring asks for a few rows per document under one rule."""
    if not 0 <= seed <= _U64:
        raise ValueError(f"seed must be in [0, 2^64), got {seed}")
    half = (dim + 1) // 2
    key = _splitmix64(np.array([(seed + _GAMMA) & _U64], dtype=np.uint64))
    offsets = np.arange(1, half + 1, dtype=np.uint64) * np.uint64(_GAMMA) + key
    offsets.flags.writeable = False
    return offsets, np.uint64(half * _GAMMA & _U64), np.float32(2.0**-23) * np.float32(1.0 / dim)


def init_bucket_rows(
    buckets: np.ndarray, dim: int, seed: int | None, out: np.ndarray | None = None
) -> np.ndarray:
    """Initial float32 rows of the given buckets: zeros when seed is None,
    else uniform over [-1/dim, 1/dim), a pure function of (seed, bucket, dim).

    Value 2j of bucket b's row comes from the low 32-bit half, and value
    2j+1 (when 2j+1 < dim) from the high half, of output c = b*ceil(dim/2) + j
    of splitmix64 started from key, the first output of splitmix64 seeded
    with seed: mix(key + (c + 1) * gamma). The top 24 bits u of a half map
    to (u - 2^23) * (2^-23 * float32(1/dim)), rounded once, so no row
    depends on which other rows are asked for, or in what order.
    """
    buckets = np.asarray(buckets, dtype=np.int64)
    if out is None:
        out = np.empty((len(buckets), dim), dtype=np.float32)
    if seed is None:
        out[...] = 0.0
        return out
    offsets, stride, scale = _init_stream(seed, dim)
    step = max(1, _INIT_WORDS // len(offsets))
    for start in range(0, len(buckets), step):
        z = buckets[start : start + step, None].astype(np.uint64) * stride + offsets
        # little-endian: each output's low half, then its high half
        halves = _splitmix64(z).astype("<u8", copy=False).view("<u4")
        halves >>= np.uint32(8)
        # u - 2^23 is exact in int32, and int32 converts to float32 faster than uint32
        centred = halves.view("<i4")
        centred -= np.int32(2**23)
        np.multiply(centred[:, :dim], scale, out=out[start : start + step], dtype=np.float32,
                    casting="unsafe")
    return out


class InputTable:
    """The input rows of a subword model, as both trainers build them.

    input_rows holds the |V| word rows, then one row per stored bucket in
    bucket_ids order (strictly increasing). Input id |V| + b names bucket b
    whether it is stored or not: a bucket that is not stored holds its
    initial value, init_bucket_rows(b, dim, bucket_seed), so the table
    reads as the dense (|V| + B, d) one would.
    """

    def __init__(
        self,
        vocab: Vocabulary,
        subwords: SubwordIndex | None,
        input_rows: np.ndarray,
        bucket_ids: np.ndarray | None = None,
        bucket_seed: int | None = None,
    ):
        bucket_ids = np.zeros(0, dtype=np.int64) if bucket_ids is None else bucket_ids
        if input_rows.ndim != 2 or input_rows.shape[0] != len(vocab) + len(bucket_ids):
            raise ValueError(
                f"input_rows has shape {input_rows.shape}, expected |V| + stored buckets "
                f"= {len(vocab) + len(bucket_ids)} rows"
            )
        self.vocab = vocab
        self.subwords = subwords
        self.input_rows = input_rows
        self.bucket_ids = np.asarray(bucket_ids, dtype=np.int64)
        self.bucket_seed = bucket_seed

    @property
    def dim(self) -> int:
        return self.input_rows.shape[1]

    @cached_property
    def row_slots(self) -> np.ndarray:
        """The position in input_rows of every input id up to the last
        stored bucket, -1 for a bucket not stored, then one -1 for every
        later id: one int32 per id, built on first use. Its size follows
        the stored ids, not the bucket count a file's head claims. A
        searchsorted lookup on bucket_ids in its place was slower and took
        more memory on the subword-scoring benchmark, so bucket counts are
        bounded by MAX_BUCKETS instead."""
        nwords = len(self.vocab)
        top = int(self.bucket_ids[-1]) + 1 if len(self.bucket_ids) else 0
        slots = np.full(nwords + top + 1, -1, dtype=np.int32)
        slots[:nwords] = np.arange(nwords)
        slots[nwords + self.bucket_ids] = np.arange(nwords, len(self.input_rows))
        return slots

    def rows(self, ids: np.ndarray) -> np.ndarray:
        """The float32 rows of input ids, in the order given; a bucket not
        stored reads its initial value."""
        at = self.row_slots.take(ids, mode="clip")  # a later id reads the final -1
        out = self.input_rows.take(at, axis=0)  # faster than input_rows[at]
        missing = (at < 0).nonzero()[0]
        if len(missing):
            out[missing] = init_bucket_rows(
                ids.take(missing) - len(self.vocab), self.dim, self.bucket_seed
            )
        return out

    def store_buckets(self, ids: np.ndarray) -> np.ndarray:
        """Store, after the word rows, the initial rows of every bucket that
        the input ids training reads name, so that training can update them
        in place; returns each id's position in input_rows. Called once,
        while no bucket is stored. The stored buckets are found with a map
        over the id range, which neither sorts nor copies the ids."""
        nwords = len(self.vocab)
        named = np.zeros(int(ids.max(initial=nwords - 1)) + 1, dtype=bool)
        named[ids] = True
        bucket_ids = np.flatnonzero(named[nwords:])
        rows = np.empty((nwords + len(bucket_ids), self.dim), dtype=np.float32)
        rows[:nwords] = self.input_rows
        init_bucket_rows(bucket_ids, self.dim, self.bucket_seed, out=rows[nwords:])
        self.input_rows = rows
        self.bucket_ids = bucket_ids
        self.__dict__.pop("row_slots", None)
        return self.row_slots[ids]
