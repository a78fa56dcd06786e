import itertools
import tracemalloc

import numpy as np
import pytest

from subword_spec import fnv1a_32, hash_subword, input_ids as spec_input_ids, subwords
from xldetect import vocab as vocab_module

from xldetect.vocab import (
    MAX_BUCKETS,
    SubwordIndex,
    build_vocab,
    init_bucket_rows,
    init_input_rows,
    input_ids,
    subword_ids_csr,
    word_rows_csr,
)


class TestBuildVocab:
    def test_threshold(self):
        vocab = build_vocab([["a", "a", "b"]], min_count=2)
        assert vocab.words == ["a"]
        assert vocab.counts.tolist() == [2]
        assert vocab.total_tokens == 3

    def test_ordering_count_then_lex(self):
        vocab = build_vocab([["a", "a", "b"]], min_count=1)
        assert vocab.words == ["a", "b"]
        assert vocab.word_to_id == {"a": 0, "b": 1}

    def test_lexicographic_ties(self):
        vocab = build_vocab([["zz", "aa", "mm"]], min_count=1)
        assert vocab.words == ["aa", "mm", "zz"]

    def test_all_below_threshold(self):
        with pytest.raises(ValueError, match="empty vocabulary"):
            build_vocab([["a", "b"]], min_count=5)

    def test_empty_corpus(self):
        with pytest.raises(ValueError, match="empty corpus"):
            build_vocab([], min_count=1)

    def test_rebuild_is_identical(self):
        corpus = [["x", "y", "x"], ["z", "y", "x"]]
        a = build_vocab(corpus, 1)
        b = build_vocab(corpus, 1)
        assert a.words == b.words and a.word_to_id == b.word_to_id


class TestSubwords:
    def test_where_trigrams(self):
        idx = SubwordIndex(n_min=3, n_max=3, buckets=10)
        assert subwords("where", idx) == ["<wh", "whe", "her", "ere", "re>"]

    def test_single_char_word(self):
        idx = SubwordIndex(3, 6, 10)
        assert subwords("a", idx) == ["<a>"]

    def test_abcd_full_enumeration(self):
        idx = SubwordIndex(3, 6, 10)
        got = subwords("abcd", idx)
        expected = [
            "<ab", "abc", "bcd", "cd>",
            "<abc", "abcd", "bcd>",
            "<abcd", "abcd>",
            "<abcd>",
        ]
        assert got == expected
        assert len(got) == 10

    def test_count_formula_all_lengths(self):
        # sum over n of max(0, L+3-n) for every word length 1..20
        for length in range(1, 21):
            word = "x" * length
            for n_min, n_max in [(3, 6), (1, 2), (2, 7), (4, 4)]:
                idx = SubwordIndex(n_min, n_max, 10)
                expected = sum(max(0, length + 3 - n) for n in range(n_min, n_max + 1))
                assert len(subwords(word, idx)) == expected

    def test_reserved_characters_sanitized(self):
        idx = SubwordIndex(3, 3, 10)
        assert subwords("a<b", idx) == subwords("a_b", idx)

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError):
            subwords("", SubwordIndex(3, 6, 10))

    def test_bad_index_params(self):
        with pytest.raises(ValueError):
            SubwordIndex(4, 3, 10)
        with pytest.raises(ValueError):
            SubwordIndex(0, 3, 10)
        with pytest.raises(ValueError):
            SubwordIndex(3, 6, 0)


class TestHash:
    def test_fnv_offset_basis(self):
        # published FNV-1a constant: hash of the empty string is the offset basis
        assert fnv1a_32(b"") == 2166136261
        assert hash_subword("", 10**9) == 2166136261 % 10**9

    def test_modulo_one(self):
        for g in ("abc", "<ab", "x"):
            assert hash_subword(g, 1) == 0

    def test_deterministic(self):
        assert hash_subword("her", 1000) == hash_subword("her", 1000)

    def test_range(self):
        for g in ("a", "bb", "ccc", "dddd"):
            for b in (1, 2, 7, 1000):
                assert 0 <= hash_subword(g, b) < b


class TestInputIds:
    def setup_method(self):
        self.vocab = build_vocab([["hello", "hello", "world"]], min_count=1)
        self.idx = SubwordIndex(3, 6, 100)

    def test_in_vocab_word(self):
        ids = input_ids("hello", self.vocab, self.idx)
        k = len(subwords("hello", self.idx))
        assert len(ids) == k + 1
        assert ids[0] == self.vocab.word_to_id["hello"]
        assert all(i >= len(self.vocab) for i in ids[1:])
        assert input_ids("hello", self.vocab, None) == [ids[0]]

    def test_oov_word_buckets_only(self):
        ids = input_ids("unseen", self.vocab, self.idx)
        assert ids and all(i >= len(self.vocab) for i in ids)

    def test_no_subwords_oov_empty(self):
        assert input_ids("unseen", self.vocab, None) == []

    def test_all_ids_in_range(self):
        for word in ("hello", "world", "zebra", "a"):
            for i in input_ids(word, self.vocab, self.idx):
                assert 0 <= i < len(self.vocab) + self.idx.buckets

    def test_distinct_words_distinct_word_rows(self):
        a = input_ids("hello", self.vocab, self.idx)[0]
        b = input_ids("world", self.vocab, self.idx)[0]
        assert a != b

    def test_bucket_collision_possible(self):
        # brute-force search two distinct trigrams sharing a bucket at B=7
        idx = SubwordIndex(3, 3, 7)
        seen = {}
        collision = None
        for chars in itertools.product("abcdefgh", repeat=3):
            g = "".join(chars)
            h = hash_subword(g, idx.buckets)
            if h in seen and seen[h] != g:
                collision = (seen[h], g)
                break
            seen[h] = g
        assert collision is not None


def subword_ids_reference(words, index, offset):
    """CSR of every word's hash_subword ids, one n-gram string at a time."""
    indptr, ids = [0], []
    for word in words:
        ids.extend(offset + hash_subword(g, index.buckets) for g in subwords(word, index))
        indptr.append(len(ids))
    return indptr, ids


class TestSubwordIdsCsr:
    WORDS = [
        "where", "hello", "x", "ab",  # ASCII; 1- and 2-character words
        "ñandú", "日本", "😀", "a😀ñ日z",  # 2-, 3- and 4-byte UTF-8 characters
        "a<b", "<>", ">x<",  # reserved markers inside words
        "supercalifragilistic",  # longer than n_max
    ]

    def check(self, words, index, offset):
        indptr, ids = subword_ids_csr(words, index, offset)
        ref_indptr, ref_ids = subword_ids_reference(words, index, offset)
        assert indptr.dtype == np.int64 and ids.dtype == np.int64
        assert indptr.tolist() == ref_indptr
        assert ids.tolist() == ref_ids

    def test_matches_per_ngram_reference(self):
        for index in (
            SubwordIndex(3, 6, 2_000_000),
            SubwordIndex(3, 6, 16),  # colliding buckets
            SubwordIndex(4, 4, 1009),  # n_min == n_max
            SubwordIndex(1, 2, 97),  # n_min = 1
            SubwordIndex(1, 8, 1),  # one bucket
            SubwordIndex(6, 8, 101),  # n_min above short words' wrapped length
        ):
            for offset in (0, 7):
                self.check(self.WORDS, index, offset)
                for word in self.WORDS:
                    self.check([word], index, offset)
                self.check([], index, offset)

    def test_words_span_many_blocks(self, monkeypatch):
        monkeypatch.setattr(vocab_module, "_BLOCK_CHARS", 8)
        index = SubwordIndex(2, 5, 1000)
        self.check(self.WORDS * 3, index, 3)
        # word_rows_csr: each word's own row, then its bucket rows
        vocab = build_vocab([self.WORDS], min_count=1)
        indptr, flat = word_rows_csr(vocab, index)
        for w, word in enumerate(vocab.words):
            assert flat[indptr[w] : indptr[w + 1]].tolist() == spec_input_ids(word, vocab, index)

    def test_empty_word_rejected(self):
        for words in ([""], ["abc", ""]):
            with pytest.raises(ValueError):
                subword_ids_csr(words, SubwordIndex(3, 6, 10), 0)

    # code points of 1-, 2-, 3- and 4-byte UTF-8 characters (no surrogates)
    RANGES = ((0x21, 0x80), (0x80, 0x800), (0x800, 0xD800), (0xE000, 0x10000),
              (0x10000, 0x110000))

    def random_words(self, rng, count):
        """Words of 1-30 code points: a third ASCII only, the rest mixing
        every UTF-8 width and the reserved markers."""
        words = []
        for w in range(count):
            kinds = rng.integers(0, 1 if w % 3 == 0 else len(self.RANGES) + 1,
                                 size=int(rng.integers(1, 31)))
            words.append("".join("<>"[int(rng.integers(2))] if k == len(self.RANGES)
                                 else chr(int(rng.integers(*self.RANGES[k]))) for k in kinds))
        return words

    @pytest.mark.parametrize("block", [None, 8, 64, 1000])
    def test_random_words_match_reference(self, monkeypatch, block):
        if block is not None:
            monkeypatch.setattr(vocab_module, "_BLOCK_CHARS", block)
        rng = np.random.default_rng(block or 0)
        words = self.random_words(rng, 150)
        # input_ids' vocabulary holds the first 100 words and two short
        # ones, so it sees in-vocabulary and out-of-vocabulary words, and
        # words with no n-gram at n_min = 6 on both sides
        short = ["q", "ñ", "日本", "😀", "<"]
        full, vocab = (build_vocab([ws], min_count=1) for ws in (words, words[:100] + short[:2]))
        for index in (
            SubwordIndex(3, 6, 2_000_000),
            SubwordIndex(3, 6, 16),
            SubwordIndex(4, 4, 1009),
            SubwordIndex(1, 2, 97),
            SubwordIndex(1, 8, 1),
            SubwordIndex(6, 8, 101),
            SubwordIndex(1, 40, MAX_BUCKETS),  # the largest table
        ):
            self.check(words, index, 5)
            indptr, flat = word_rows_csr(full, index)
            for w, word in enumerate(full.words):
                assert flat[indptr[w] : indptr[w + 1]].tolist() == spec_input_ids(word, full, index)
            for word in words + short:
                assert input_ids(word, vocab, index) == spec_input_ids(word, vocab, index)

    def test_block_memory_does_not_grow_with_ngram_range(self, monkeypatch):
        # a block's cells are (characters x n-gram lengths), so blocks
        # shrink as the range grows
        hash_block, peaks = vocab_module._hash_block, {}

        def spy(*args):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = hash_block(*args)
            peaks[index].append(tracemalloc.get_traced_memory()[1] - before)
            return result

        monkeypatch.setattr(vocab_module, "_hash_block", spy)
        rng = np.random.default_rng(1)
        words = ["".join(chr(97 + c) for c in rng.integers(0, 26, size=int(n)))
                 for n in rng.integers(1, 31, size=3000)]
        tracemalloc.start()
        try:
            for index in (SubwordIndex(3, 6), SubwordIndex(1, 64)):
                peaks[index] = []
                subword_ids_csr(words, index, 0)
        finally:
            tracemalloc.stop()
        narrow, wide = (max(peaks[i]) for i in (SubwordIndex(3, 6), SubwordIndex(1, 64)))
        assert len(peaks[SubwordIndex(3, 6)]) > 1
        assert wide <= 1.1 * narrow

    def test_bucket_count_at_most_max_buckets(self):
        # the bound keeps InputTable.row_slots to 64 MiB of int32
        assert MAX_BUCKETS == 2**24
        assert SubwordIndex(3, 6, MAX_BUCKETS).buckets == MAX_BUCKETS
        for buckets in (0, MAX_BUCKETS + 1, 2**64 - 1, 2**64, 2**70):
            with pytest.raises(ValueError, match="buckets"):
                SubwordIndex(3, 6, buckets)


class TestInitInputRows:
    def test_matches_out_of_place_draw(self):
        # the in-place scaling rounds exactly like the expression it replaced
        vocab = build_vocab([["a", "b", "c"]], min_count=1)
        for dim, seed in ((1, 0), (7, 3), (100, 13)):
            rng = np.random.default_rng(seed)
            old = rng.random((len(vocab), dim), dtype=np.float32) * 2.0 - 1.0
            old *= np.float32(1.0 / dim)
            rows = init_input_rows(vocab, dim, seed)
            assert rows.dtype == np.float32
            assert rows.tobytes() == old.tobytes()

    def test_word_rows_are_prefix_of_full_draw(self):
        # the word rows are the stream every model drew before bucket rows
        # came from init_bucket_rows: the prefix of one (|V| + B, d) draw
        vocab = build_vocab([["a", "b", "c", "d"]], min_count=1)
        full = np.random.default_rng(4).random((len(vocab) + 1000, 9), dtype=np.float32)
        full = (full * np.float32(2.0) - np.float32(1.0)) * np.float32(1.0 / 9)
        assert init_input_rows(vocab, 9, 4).tobytes() == full[: len(vocab)].tobytes()


def splitmix64_row(seed, bucket, dim):
    """init_bucket_rows' rule, one Python int at a time: the reference."""
    mask, gamma = (1 << 64) - 1, 0x9E3779B97F4A7C15

    def mix(z):
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & mask
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB & mask
        return z ^ (z >> 31)

    key, half, values = mix((seed + gamma) & mask), (dim + 1) // 2, []
    for j in range(half):
        z = mix((key + (bucket * half + j + 1) * gamma) & mask)
        for u in ((z & 0xFFFFFFFF) >> 8, z >> 40):
            values.append((np.float32(u) * np.float32(2.0**-23) - np.float32(1.0))
                          * np.float32(1.0 / dim))
    return np.asarray(values[:dim], dtype=np.float32)


class TestInitBucketRows:
    BUCKETS = np.array([0, 1, 7, 1_999_999, 123_456, 42, 2**40])

    def test_row_depends_on_nothing_else_requested(self):
        rng = np.random.default_rng(0)
        for dim in (1, 4, 7):
            full = init_bucket_rows(self.BUCKETS, dim, 5)
            for trial in range(5):
                pick = rng.choice(len(self.BUCKETS), size=int(rng.integers(1, 10)))
                got = init_bucket_rows(self.BUCKETS[pick], dim, 5)
                assert got.tobytes() == full[pick].tobytes()
            for b, row in zip(self.BUCKETS, full):
                assert row.tobytes() == splitmix64_row(5, int(b), dim).tobytes()

    def test_rows_span_blocks(self, monkeypatch):
        full = init_bucket_rows(np.arange(50), 9, 3)
        monkeypatch.setattr(vocab_module, "_INIT_WORDS", 7)
        assert init_bucket_rows(np.arange(50), 9, 3).tobytes() == full.tobytes()

    def test_range_and_seeds(self):
        buckets = np.arange(4000)
        for dim in (1, 2, 5, 100):
            bound = np.float32(1.0 / dim)
            rows = init_bucket_rows(buckets, dim, 11)
            assert rows.dtype == np.float32 and rows.shape == (4000, dim)
            assert rows.min() >= -bound and rows.max() < bound
            # uniform: both ends reached, mean near 0
            assert rows.min() < -0.99 * bound and rows.max() > 0.99 * bound
            assert abs(rows.mean()) < 0.05 * bound
            assert (rows != init_bucket_rows(buckets, dim, 12)).mean() > 0.99
        assert init_bucket_rows(np.array([3]), 1, 2**64 - 1).shape == (1, 1)
        for seed in (-1, 2**64):
            with pytest.raises(ValueError, match="seed"):
                init_bucket_rows(np.array([3]), 4, seed)

    def test_no_seed_is_zeros(self):
        rows = init_bucket_rows(self.BUCKETS, 6, None)
        assert rows.shape == (len(self.BUCKETS), 6) and not rows.any()

    def test_golden_values(self):
        # pinned, so that the stream cannot drift without a test failing
        golden = {
            (0, 0, 1): "089acbbe",
            (1, 5, 4): "4e3263be50006b3df0bd2cbe780b5b3e",
            (13, 1_999_999, 3): "cb4602bd2b0d4cbe9bf180bd",
            (11, 123_456, 8): "508c563d24a7303d3ed2babdc6bcb8bd10e5e23d684cacbd0001e13a90e239bc",
        }
        for (seed, bucket, dim), hex_bytes in golden.items():
            assert init_bucket_rows(np.array([bucket]), dim, seed).tobytes().hex() == hex_bytes
