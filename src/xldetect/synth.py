"""Synthetic twin-language corpora with exact ground truth.

The source "language" samples documents from a seeded word-transition
structure (each word has a small friend set it tends to precede, giving
every word a distinguishable co-occurrence signature). The target
language shares that structure through a bijective token renaming, which
doubles as the ground-truth bilingual dictionary, but its documents are
sampled independently and there are fewer of them.

Class signal: positive-class documents replace a fraction of their fresh
word draws with short runs of signal-set words, so signal words appear
about signal_lift times more often there and co-occur with each other,
which clusters them in embedding space. Negative documents only ever see
isolated natural draws of signal words. With signal_lift = 1 the two
class-conditional token distributions are identical, so any classifier
is at chance.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import le

import numpy as np

from .corpus import AccountDocument
from .embedding import AliasSampler
from .errors import DataError
from .params import at_least, check, open01, param, positive, unit


@dataclass
class SyntheticConfig:
    vocab_size: int = param(2000, at_least(2))
    n_source_docs: int = param(4000, at_least(1))
    target_ratio: float = param(10.0, positive())  # source docs per target doc
    doc_len_min: int = param(30, at_least(1))
    doc_len_max: int = param(60, at_least(1))
    n_signal_words: int = param(40, at_least(0))
    signal_rank_start: int = param(100, at_least(0))
    signal_lift: float = param(40.0, at_least(1.0))
    positive_rate: float = param(0.3, open01())
    label_noise: float = param(0.0, unit(0.5))  # above 0.5 the labels invert
    zipf_exponent: float = param(0.5, at_least(0))
    n_friends: int = param(4, at_least(1))
    friend_prob: float = param(0.85, unit())
    signal_run_mean: float = param(3.0, at_least(1.0))  # mean length of injected signal runs
    code_switch_rate: float = param(0.0, unit())  # fraction of target tokens borrowed from source

    CROSS_RULES = (
        (("doc_len_min", "doc_len_max"), le, "{doc_len_min} must be <= {doc_len_max}"),
        (("signal_rank_start", "n_signal_words", "vocab_size"), lambda s, n, v: s + n <= v,
         "signal set {signal_rank_start} + {n_signal_words} must be <= {vocab_size}"),
    )

    def __post_init__(self):
        check(self)

    @property
    def n_target_docs(self) -> int:
        return max(1, int(self.n_source_docs / self.target_ratio + 0.5))


@dataclass
class SyntheticBilingual:
    source_docs: list[AccountDocument]
    target_docs: list[AccountDocument]
    dictionary: list[tuple[str, str]]
    signal_words: list[str]            # source-side naming


def _word_names(prefix: str, n: int) -> list[str]:
    width = len(str(n - 1))
    return [f"{prefix}{i:0{width}d}" for i in range(n)]


def generate_synthetic_bilingual(config: SyntheticConfig, seed: int) -> SyntheticBilingual:
    """Build paired corpora plus the exact renaming dictionary.

    Deterministic for a fixed (config, seed): structure, source sampling
    and target sampling each consume an independent child stream.
    """
    struct_seed, src_seed, tgt_seed = np.random.SeedSequence(seed).spawn(3)
    rng = np.random.default_rng(struct_seed)

    n = config.vocab_size
    ranks = np.arange(1, n + 1, dtype=np.float64)
    unigram = ranks ** (-config.zipf_exponent)
    unigram /= unigram.sum()
    sampler = AliasSampler(unigram)

    sig_ids = np.arange(
        config.signal_rank_start, config.signal_rank_start + config.n_signal_words
    )
    # friend chains avoid the signal set, so signal occupancy differs between
    # classes only through the injection channel and the lift ratio is exact
    non_sig = np.setdiff1d(np.arange(n), sig_ids)
    friends = non_sig[rng.integers(0, len(non_sig), size=(n, config.n_friends))]

    signal_mass = float(unigram[sig_ids].sum())
    # burst probability per fresh draw such that the expected signal-token
    # rate in positive documents is about signal_lift times the natural rate
    extra = (
        signal_mass * (config.signal_lift - 1.0)
        / (config.signal_run_mean - signal_mass)
    )
    if extra >= 1.0:
        raise DataError(
            f"signal_lift {config.signal_lift} unreachable: the signal set already "
            f"carries {signal_mass:.3f} of the unigram mass"
        )

    src_names = _word_names("s", n)
    tgt_names = _word_names("t", n)

    source_docs = _sample_docs(
        config, np.random.default_rng(src_seed), sampler, friends, sig_ids, extra,
        src_names, None, 0.0, config.n_source_docs, "src",
    )
    target_docs = _sample_docs(
        config, np.random.default_rng(tgt_seed), sampler, friends, sig_ids, extra,
        tgt_names, src_names, config.code_switch_rate, config.n_target_docs, "tgt",
    )
    dictionary = list(zip(src_names, tgt_names))
    return SyntheticBilingual(
        source_docs=source_docs,
        target_docs=target_docs,
        dictionary=dictionary,
        signal_words=[src_names[i] for i in sig_ids],
    )


def _sample_docs(config, rng, sampler, friends, sig_ids, extra, names, borrow_names,
                 borrow_rate, n_docs, id_prefix) -> list[AccountDocument]:
    docs = []
    n_sig = len(sig_ids)
    width = len(str(max(1, n_docs - 1)))
    run_continue = 1.0 - 1.0 / config.signal_run_mean
    for di in range(n_docs):
        length = int(rng.integers(config.doc_len_min, config.doc_len_max + 1))
        positive = bool(rng.random() < config.positive_rate)
        p_burst = extra if positive else 0.0

        fresh = sampler.sample(rng, length)
        sig_pick = sig_ids[rng.integers(0, n_sig, size=length)]
        friend_pick = rng.integers(0, config.n_friends, size=length)
        roll_friend = rng.random(length)
        roll_burst = rng.random(length)
        roll_run = rng.random(length)

        ids = np.empty(length, dtype=np.int64)
        cur = -1
        in_run = False
        for j in range(length):
            if in_run:
                ids[j] = sig_pick[j]
                in_run = roll_run[j] < run_continue
            elif cur >= 0 and roll_friend[j] < config.friend_prob:
                cur = friends[cur, friend_pick[j]]
                ids[j] = cur
            elif roll_burst[j] < p_burst:
                # injected signal run; the chain resumes afterwards
                ids[j] = sig_pick[j]
                in_run = roll_run[j] < run_continue
            else:
                cur = fresh[j]
                ids[j] = cur

        if borrow_names is not None and borrow_rate > 0.0:
            borrowed = rng.random(length) < borrow_rate
            tokens = [
                borrow_names[i] if b else names[i] for i, b in zip(ids, borrowed)
            ]
        else:
            tokens = [names[i] for i in ids]

        label = int(positive)
        if config.label_noise > 0.0 and rng.random() < config.label_noise:
            label = 1 - label
        docs.append(
            AccountDocument(
                account_id=f"{id_prefix}-{di:0{width}d}",
                text=" ".join(tokens),
                label=label,
            )
        )
    return docs
