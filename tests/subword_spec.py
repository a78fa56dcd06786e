"""The per-string subword spec that vocab.subword_ids_csr, the one n-gram
hasher in xldetect, must match bit for bit: every n-gram of a word is
built as a string and hashed with FNV-1a, one byte at a time. No stage
runs it; the tests compare the kernel and everything built on it here.
"""

from __future__ import annotations

from xldetect.vocab import SubwordIndex, Vocabulary

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
    only, and none when the wrapped word is shorter than n_min. Hash
    collisions are kept, so a bucket can contribute multiply.
    """
    ids: list[int] = []
    wid = vocab.word_to_id.get(word)
    if wid is not None:
        ids.append(wid)
    if index is not None:
        offset = len(vocab)
        ids.extend(offset + hash_subword(g, index.buckets) for g in subwords(word, index))
    return ids
