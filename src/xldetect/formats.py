"""Artifact codecs: every file one stage hands to the next is written and
read here. Text artifacts are UTF-8 lines, and every text table is read
by TextArtifact.rows: blank lines are skipped, each record has its
layout's field count, and documents, statuses, FEATS v1 features and
labelled matrix rows are keyed by a non-empty, unique first field
(dictionaries are not: a source word may have several translations).
Vectors, external document features and the orthogonal map share one
text-matrix layout, written by write_matrix and read by read_matrix. The
binary XLEMB2 and XLCLF2 files share one layout, written by write_model
and read by read_model: a model head, the caller's preamble, one
vocabulary block of unique words, one block of stored bucket ids with
the rule that gives every other bucket its value, and finite float32
rows. Readers raise FormatError naming the path and the line or byte
offset of the damage, so a stage exits 2 with one error line."""

from __future__ import annotations

import os
import struct
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import FormatError
from .vocab import InputTable, SubwordIndex, Vocabulary

_INT64_LIMIT = 2**63
_MODEL_HEAD = "<IIQII"  # dim, |V|, subword buckets, n_min, n_max
_VOCAB_HEAD = "<IQ"  # min_count, total_tokens
_WORD_HEAD = "<HQ"  # UTF-8 byte length, count
_BUCKET_HEAD = "<BQQ"  # bucket init (0 zeros, 1 uniform), its seed, stored bucket count
_BUCKET_ID = np.dtype("<u8")


def format_float(x: float) -> str:
    """Shortest decimal that parses back to the same float64."""
    return np.format_float_positional(np.float64(x), unique=True, trim="0")


class TextArtifact:
    """The lines of a UTF-8 text artifact, numbered as in the file."""

    def __init__(self, path: str | Path):
        self.path = path
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError as exc:
            lineno = exc.object.count(b"\n", 0, exc.start) + 1
            raise self.error(lineno, f"invalid UTF-8 at byte {exc.start}") from None
        self.lines = text.split("\n")
        if not self.lines[-1]:
            self.lines.pop()  # what follows the last newline, or an empty file

    def error(self, lineno: int, message: str) -> FormatError:
        return FormatError(f"{self.path}:{lineno}: {message}")

    def count(self, lineno: int, text: str) -> int:
        """A non-negative integer field that fits an int64."""
        try:
            if 0 <= int(text) < _INT64_LIMIT:
                return int(text)
        except ValueError:
            pass
        raise self.error(lineno, f"expected a non-negative integer, found {text!r}")

    def header(self, magic: str, n: int) -> list[int]:
        """Line 1: the words of magic, then n counts."""
        first = self.lines[0] if self.lines else ""
        words, expected = first.split(), magic.split()
        if len(words) != len(expected) + n or words[: len(expected)] != expected:
            raise self.error(1, f"bad header {first!r}")
        return [self.count(1, w) for w in words[len(expected):]]

    def rows(self, sep: str | None, width: int, layout: str, key: str | None = None,
             count: int | None = None) -> Iterator[tuple[int, list[str]]]:
        """(line number, fields) of each non-blank line, split on sep (None:
        any whitespace, so a whitespace-only line is blank too). With count,
        line 1 is a header that promised count records. A record without
        width fields is rejected, described by layout; when key names the
        first field, an empty or repeated one is rejected too."""
        lines = enumerate(self.lines, start=1)
        if count is not None:
            lines = [(i, ln) for i, ln in enumerate(self.lines[1:], start=2) if ln]
            if len(lines) != count:
                raise self.error(1, f"header says {count} records, found {len(lines)}")
        seen: set[str] = set()
        for lineno, line in lines:
            fields = line.split(sep)
            if len(fields) != width:
                if not line or not fields:  # blank; a one-field table needs a header
                    continue
                raise self.error(lineno, f"expected {layout}, found {len(fields)} fields")
            if key is not None:
                if not fields[0]:
                    raise self.error(lineno, f"empty {key}")
                if fields[0] in seen:
                    raise self.error(lineno, f"duplicate {key} {fields[0]!r}")
                seen.add(fields[0])
            yield lineno, fields


def write_matrix(path: str | Path, magic: str | None, matrix: np.ndarray, labels=None) -> None:
    """The header read_matrix(path, magic) reads, "<rows> <dim>" without
    magic and "<magic> <dim>" with it, then one row per line: its label
    when labels are given, then its values, separated by single spaces."""
    rows, dim = matrix.shape
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{rows if magic is None else magic} {dim}\n")
        for i, row in enumerate(matrix):
            fields = [format_float(x) for x in row]
            if labels is not None:
                fields.insert(0, labels[i])
            fh.write(" ".join(fields) + "\n")


def read_matrix(path: str | Path, magic: str | None) -> tuple[list[str], np.ndarray]:
    """Read a write_matrix file of finite values. Without magic the header
    is "<rows> <dim>" and each row starts with a unique label; with magic
    it is "<magic> <dim>", dim unlabelled rows follow and no labels return."""
    art = TextArtifact(path)
    if magic is None:
        rows, dim = art.header("", 2)
    else:
        rows = dim = art.header(magic, 1)[0]
    labelled = magic is None
    if rows * dim > sum(map(len, art.lines)):  # a value takes at least one character
        raise art.error(1, f"header promises {rows} x {dim} values, more than the file holds")
    labels, linenos = [], []
    matrix = np.empty((rows, dim), dtype=np.float64)
    layout = f"a label and {dim} values" if labelled else f"{dim} values"
    records = art.rows(" ", dim + labelled, layout, "label" if labelled else None, rows)
    for i, (lineno, fields) in enumerate(records):
        linenos.append(lineno)
        if labelled:
            labels.append(fields[0])
        try:
            matrix[i] = [float(x) for x in fields[labelled:]]
        except ValueError:
            raise art.error(lineno, "non-numeric field") from None
    finite = np.isfinite(matrix).all(axis=1)
    if not finite.all():
        raise art.error(linenos[int(np.argmin(finite))], "non-finite value")
    return labels, matrix


class ArtifactReader:
    """Sequential reads from an open binary artifact that raise FormatError,
    naming the path and byte offset, on truncation, bad UTF-8 or trailing
    bytes."""

    def __init__(self, fh, path):
        self.fh = fh
        self.path = path
        self.offset = fh.tell()
        self.size = os.fstat(fh.fileno()).st_size

    def _claim(self, n: int) -> int:
        # checked against the bytes left before reading, so a damaged
        # length field never turns into a huge allocation
        if n > self.size - self.offset:
            raise FormatError(
                f"{self.path}: truncated at byte {self.size}: "
                f"{n} bytes expected at offset {self.offset}"
            )
        self.offset += n
        return n

    def take(self, n: int) -> bytes:
        return self.fh.read(self._claim(n))

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def text(self, n: int) -> str:
        offset = self.offset
        try:
            return self.take(n).decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"{self.path}: invalid UTF-8 at byte {offset}") from None

    def floats(self, rows: int, cols: int) -> np.ndarray:
        """A rows x cols float32 matrix of finite values."""
        at = self.offset
        self._claim(rows * cols * 4)
        out = np.empty((rows, cols), dtype="<f4")
        self.fh.readinto(out)
        # min() and max() propagate NaN and make no copy of the matrix
        if out.size and not np.isfinite([out.min(), out.max()]).all():
            bad = int(np.argmin(np.isfinite(out).ravel()))
            raise FormatError(f"{self.path}: non-finite value at byte {at + 4 * bad}")
        return out

    def end(self) -> None:
        if self.offset != self.size:
            raise FormatError(f"{self.path}: trailing bytes after offset {self.offset}")


def write_model(path: str | Path, magic: bytes, model: InputTable, tail: np.ndarray,
                preamble: bytes = b"") -> None:
    """The XLEMB2/XLCLF2 layout: magic, model head, preamble, vocabulary
    block, stored-bucket block (the init rule of vocab.init_bucket_rows,
    a seed or zeros for None, then the stored ids), then the input rows
    and tail as little-endian float32."""
    vocab, sub, seed = model.vocab, model.subwords, model.bucket_seed
    buckets = (sub.buckets, sub.n_min, sub.n_max) if sub else (0, 0, 0)
    with open(path, "wb") as fh:
        fh.write(magic + struct.pack(_MODEL_HEAD, model.dim, len(vocab), *buckets) + preamble)
        fh.write(struct.pack(_VOCAB_HEAD, vocab.min_count, vocab.total_tokens))
        for word, count in zip(vocab.words, vocab.counts):
            data = word.encode("utf-8")
            fh.write(struct.pack(_WORD_HEAD, len(data), count) + data)
        uniform = seed is not None
        fh.write(struct.pack(_BUCKET_HEAD, uniform, seed if uniform else 0, len(model.bucket_ids)))
        fh.write(np.asarray(model.bucket_ids, dtype=_BUCKET_ID).data)
        for matrix in (model.input_rows, tail):
            fh.write(np.ascontiguousarray(matrix, dtype="<f4").data)


def read_model(path: str | Path, magic: bytes, what: str, tail_rows: int | None = None,
               read_preamble=None) -> tuple:
    """Read a write_model file: (vocabulary, SubwordIndex or None, input
    rows, tail, stored bucket ids, init seed or None), the arguments of
    both model constructors. The tail has tail_rows rows (None: one per
    word); read_preamble(reader) reads and checks the preamble. Words
    must be unique, stored bucket ids strictly increasing below the
    bucket count, and every row finite."""
    with open(path, "rb") as fh:
        reader = ArtifactReader(fh, path)
        if reader.take(len(magic)) != magic:
            raise FormatError(f"{path}: not {what}")
        dim, nwords, buckets, n_min, n_max = reader.unpack(_MODEL_HEAD)
        sub = None
        if buckets:
            try:
                sub = SubwordIndex(n_min, n_max, buckets)
            except ValueError as exc:
                raise FormatError(f"{path}: bad subword head at byte {len(magic)}: {exc}") from None
        if read_preamble is not None:
            read_preamble(reader)
        min_count, total_tokens = reader.unpack(_VOCAB_HEAD)
        counts: dict[str, int] = {}  # by word, in file order
        for _ in range(nwords):
            wlen, count = reader.unpack(_WORD_HEAD)
            if count >= _INT64_LIMIT:
                raise FormatError(f"{path}: word count over int64 before byte {reader.offset}")
            at = reader.offset
            word = reader.text(wlen)
            if word in counts:
                raise FormatError(f"{path}: repeated word {word!r} at byte {at}")
            counts[word] = count
        vocab = Vocabulary(list(counts), list(counts.values()), min_count, total_tokens)
        at = reader.offset
        uniform, seed, stored = reader.unpack(_BUCKET_HEAD)
        if uniform > 1 or (not uniform and seed):
            raise FormatError(f"{path}: bad bucket init rule at byte {at}")
        ids = np.frombuffer(reader.take(stored * _BUCKET_ID.itemsize), dtype=_BUCKET_ID)
        limit = sub.buckets if sub is not None else 0
        if stored and ((ids[1:] <= ids[:-1]).any() or ids[-1] >= limit):
            raise FormatError(f"{path}: stored bucket ids are not strictly increasing "
                              f"below {limit} at byte {at}")
        input_rows = reader.floats(nwords + stored, dim)
        tail = reader.floats(nwords if tail_rows is None else tail_rows, dim)
        reader.end()
    return vocab, sub, input_rows, tail, ids.astype(np.int64), (seed if uniform else None)
