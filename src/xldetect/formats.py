"""Artifact codecs: every file one stage hands to the next is written and
read here. Text artifacts are UTF-8 lines, a header and then one record
per line (blank lines are skipped); vectors, external document features
and the orthogonal map share one text-matrix layout. The binary XLEMB2
and XLCLF2 files share a model head, one vocabulary block, one block of
stored bucket ids with the rule that gives every other bucket its value,
and float32 rows. Readers raise FormatError naming the path and the line
or byte offset of the damage, so a stage exits 2 with one error line."""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np

from .errors import FormatError
from .vocab import SubwordIndex, Vocabulary

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

    def records(self, count: int) -> list[tuple[int, str]]:
        """(line number, line) of the count non-blank lines after the header."""
        body = [(i, ln) for i, ln in enumerate(self.lines[1:], start=2) if ln]
        if len(body) != count:
            raise self.error(1, f"header says {count} records, found {len(body)}")
        return body


def write_matrix(path: str | Path, header: str, matrix, labels=None) -> None:
    """The header line, then one row per line: its label when labels are
    given, then its values, separated by single spaces."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
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
    records = art.records(rows)
    if rows * dim > sum(map(len, art.lines)):  # a value takes at least one character
        raise art.error(1, f"header promises {rows} x {dim} values, more than the file holds")
    labels: dict[str, int] = {}  # label -> line, in file order
    matrix = np.empty((rows, dim), dtype=np.float64)
    for i, (lineno, line) in enumerate(records):
        fields = line.split(" ")
        if len(fields) != dim + labelled:
            raise art.error(lineno, f"expected {dim + labelled} fields, found {len(fields)}")
        if labelled and labels.setdefault(fields[0], lineno) != lineno:
            raise art.error(lineno, f"duplicate label {fields[0]!r}")
        try:
            matrix[i] = [float(x) for x in fields[labelled:]]
        except ValueError:
            raise art.error(lineno, "non-numeric field") from None
    finite = np.isfinite(matrix).all(axis=1)
    if not finite.all():
        raise art.error(records[int(np.argmin(finite))][0], "non-finite value")
    return list(labels), matrix


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
        self._claim(rows * cols * 4)
        out = np.empty((rows, cols), dtype="<f4")
        self.fh.readinto(out)
        return out

    def end(self) -> None:
        if self.offset != self.size:
            raise FormatError(f"{self.path}: trailing bytes after offset {self.offset}")


def write_floats(fh, *matrices: np.ndarray) -> None:
    for matrix in matrices:
        fh.write(np.ascontiguousarray(matrix, dtype="<f4").data)


def write_model_head(fh, magic: bytes, dim: int, vocab: Vocabulary, sub: SubwordIndex | None):
    buckets = (sub.buckets, sub.n_min, sub.n_max) if sub else (0, 0, 0)
    fh.write(magic + struct.pack(_MODEL_HEAD, dim, len(vocab), *buckets))


def read_model_head(reader: ArtifactReader, magic: bytes, what: str):
    """(dim, vocabulary size, SubwordIndex or None) after the magic."""
    if reader.take(len(magic)) != magic:
        raise FormatError(f"{reader.path}: not {what}")
    dim, nwords, buckets, n_min, n_max = reader.unpack(_MODEL_HEAD)
    if buckets == 0:
        return dim, nwords, None
    try:
        return dim, nwords, SubwordIndex(n_min, n_max, buckets)
    except ValueError as exc:
        raise FormatError(f"{reader.path}: bad subword head at byte {len(magic)}: {exc}") from None


def write_vocab_block(fh, vocab: Vocabulary) -> None:
    fh.write(struct.pack(_VOCAB_HEAD, vocab.min_count, vocab.total_tokens))
    for word, count in zip(vocab.words, vocab.counts):
        data = word.encode("utf-8")
        fh.write(struct.pack(_WORD_HEAD, len(data), count) + data)


def read_vocab_block(reader: ArtifactReader, nwords: int) -> Vocabulary:
    min_count, total_tokens = reader.unpack(_VOCAB_HEAD)
    words, counts = [], []
    for _ in range(nwords):
        wlen, count = reader.unpack(_WORD_HEAD)
        if count >= _INT64_LIMIT:
            raise FormatError(f"{reader.path}: word count over int64 before byte {reader.offset}")
        words.append(reader.text(wlen))
        counts.append(count)
    return Vocabulary(words, counts, min_count, total_tokens)


def write_bucket_block(fh, bucket_ids: np.ndarray, seed: int | None) -> None:
    """The init rule of vocab.init_bucket_rows (seed, or zeros for None),
    then the stored bucket ids."""
    uniform = seed is not None
    fh.write(struct.pack(_BUCKET_HEAD, uniform, seed if uniform else 0, len(bucket_ids)))
    fh.write(np.asarray(bucket_ids, dtype=_BUCKET_ID).data)


def read_bucket_block(reader: ArtifactReader, sub: SubwordIndex | None):
    """(stored bucket ids, init seed or None): the ids must be strictly
    increasing and below the bucket count."""
    at = reader.offset
    uniform, seed, count = reader.unpack(_BUCKET_HEAD)
    if uniform > 1 or (not uniform and seed):
        raise FormatError(f"{reader.path}: bad bucket init rule at byte {at}")
    ids = np.frombuffer(reader.take(count * _BUCKET_ID.itemsize), dtype=_BUCKET_ID)
    limit = sub.buckets if sub is not None else 0
    if count and ((ids[1:] <= ids[:-1]).any() or ids[-1] >= limit):
        raise FormatError(f"{reader.path}: stored bucket ids are not strictly increasing "
                          f"below {limit} at byte {at}")
    return ids.astype(np.int64), (seed if uniform else None)
