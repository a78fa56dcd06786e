"""Post ingestion, per-account aggregation, labeling, and data splits.

Raw posts arrive as tab-separated lines (account_id, language_tag, text).
Each account's posts are concatenated in input order into one document,
labeled 1 when the account status is "suspended" and 0 otherwise.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from . import formats
from .errors import DataError, FormatError, LabelingError
from .params import check, open01, param, unit_fraction

logger = logging.getLogger(__name__)

LABEL_NOT_SUSPENDED = 0
LABEL_SUSPENDED = 1
LABEL_NAMES = ("NotSuspended", "Suspended")


class AccountStatus(Enum):
    ACTIVE = "active"
    SUSPENDED = "suspended"
    NOT_FOUND = "not_found"
    PROTECTED = "protected"


@dataclass(frozen=True)
class PostRecord:
    account_id: str
    text: str
    language_tag: str


@dataclass(frozen=True)
class AccountDocument:
    account_id: str
    text: str
    label: int


@dataclass(frozen=True)
class SplitSpec:
    train_fraction: float = param(0.8, open01())
    seed: int = 0

    def __post_init__(self):
        check(self)


@dataclass
class IngestResult:
    records: list[PostRecord]
    malformed: int
    total_lines: int


def tokenize(text: str) -> list[str]:
    """Split on Unicode whitespace only; everything else is preserved."""
    return text.split()


def label_from_status(status: AccountStatus) -> int:
    return LABEL_SUSPENDED if status is AccountStatus.SUSPENDED else LABEL_NOT_SUSPENDED


def _parse_post_line(line: str) -> PostRecord | None:
    fields = line.split("\t")
    if len(fields) != 3:
        return None
    account_id, language_tag, text = fields
    if not account_id or not text.strip():
        return None
    return PostRecord(account_id=account_id, text=text, language_tag=language_tag)


def _check_account_id(account_id: str, where: str) -> None:
    # doc_vectors.txt rows start with the id, space-separated, so it must be one word
    if account_id.split() != [account_id]:
        raise FormatError(f"{where}: account id {account_id!r} contains whitespace")


def ingest_posts(source: str | Path | Iterable[str]) -> IngestResult:
    """Read tab-separated post records from a path or an iterable of lines.

    Malformed lines (wrong field count, empty account id or text) are
    counted and reported, not silently dropped. More than 50% malformed
    lines indicates the wrong input file and raises FormatError, as does
    an account id holding whitespace.
    """
    if isinstance(source, (str, Path)):
        try:
            lines = formats.TextArtifact(source).lines
        except OSError as exc:
            raise OSError(f"cannot read posts file {source}: {exc}") from exc
    else:
        lines = [ln.rstrip("\r\n") for ln in source]
    name = source if isinstance(source, (str, Path)) else "<posts>"

    records: list[PostRecord] = []
    malformed = 0
    for lineno, line in enumerate(lines, start=1):
        rec = _parse_post_line(line)
        if rec is None:
            malformed += 1
        else:
            _check_account_id(rec.account_id, f"{name}:{lineno}")
            records.append(rec)
    if lines and malformed * 2 > len(lines):
        raise FormatError(
            f"{malformed}/{len(lines)} lines malformed; input is not a posts file"
        )
    if malformed:
        logger.warning("ingest: %d/%d malformed lines skipped", malformed, len(lines))
    return IngestResult(records=records, malformed=malformed, total_lines=len(lines))


def filter_language(records: Iterable[PostRecord], tag: str) -> list[PostRecord]:
    """Keep records whose language_tag equals `tag` verbatim."""
    return [r for r in records if r.language_tag == tag]


def aggregate_by_account(
    posts: Iterable[PostRecord], statuses: Mapping[str, AccountStatus]
) -> list[AccountDocument]:
    """One document per distinct account, text joined in input order."""
    texts: dict[str, list[str]] = {}
    for post in posts:
        texts.setdefault(post.account_id, []).append(post.text)
    documents = []
    for account_id, parts in texts.items():
        status = statuses.get(account_id)
        if status is None:
            raise LabelingError(f"no status on record for account {account_id!r}")
        documents.append(
            AccountDocument(
                account_id=account_id,
                text=" ".join(parts),
                label=label_from_status(status),
            )
        )
    return documents


def _round_half_up(x: float) -> int:
    return int(x + 0.5)


def split(
    documents: list[AccountDocument], spec: SplitSpec
) -> tuple[list[AccountDocument], list[AccountDocument]]:
    """Deterministic seeded partition with |train| = round(fraction * n), neither side empty."""
    n = len(documents)
    if n < 2:
        raise DataError(f"need at least 2 documents to split, got {n}")
    k = _round_half_up(spec.train_fraction * n)
    if k in (0, n):
        raise DataError(f"train_fraction {spec.train_fraction} of {n} documents leaves the "
                        f"{'train' if k == 0 else 'test'} side empty")
    perm = np.random.default_rng(spec.seed).permutation(n)
    train = [documents[i] for i in perm[:k]]
    test = [documents[i] for i in perm[k:]]
    return train, test


def subsample_train(
    train: list[AccountDocument], fraction: float, seed: int
) -> list[AccountDocument]:
    """Seeded permutation prefix of size round(fraction * n).

    Smaller fractions nest inside larger ones for the same seed, so
    learning curves grow by adding data rather than resampling it.
    """
    ok, text = unit_fraction()
    if not ok(fraction):
        raise ValueError(f"fraction {text}, got {fraction}")
    if fraction == 1.0:
        return list(train)
    perm = np.random.default_rng(seed).permutation(len(train))
    k = _round_half_up(fraction * len(train))
    return [train[i] for i in perm[:k]]


def read_status_file(path: str | Path) -> dict[str, AccountStatus]:
    """Parse "account_id TAB status" lines; an unknown status or a repeated
    account id is rejected."""
    statuses: dict[str, AccountStatus] = {}
    art = formats.TextArtifact(path)
    for lineno, (account_id, raw) in art.rows("\t", 2, "'account_id<TAB>status'", "account id"):
        try:
            statuses[account_id] = AccountStatus(raw)
        except ValueError:
            raise art.error(lineno, f"unknown account status {raw!r}") from None
    return statuses


def write_documents(documents: Iterable[AccountDocument], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for doc in documents:
            fh.write(f"{doc.account_id}\t{doc.label}\t{doc.text}\n")


def read_documents(path: str | Path) -> list[AccountDocument]:
    """One document per account; a repeated account id is a FormatError."""
    documents = []
    art = formats.TextArtifact(path)
    for lineno, (account_id, label, text) in art.rows(
            "\t", 3, "'account_id<TAB>label<TAB>text'", "account id"):
        _check_account_id(account_id, f"{path}:{lineno}")
        if label not in ("0", "1"):
            raise art.error(lineno, f"expected label 0 or 1, found {label!r}")
        documents.append(AccountDocument(account_id=account_id, text=text, label=int(label)))
    return documents
