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

import numpy as np

from .corpus import AccountDocument
from .embedding import AliasSampler
from .errors import DataError


@dataclass
class SyntheticConfig:
    vocab_size: int = 2000
    n_source_docs: int = 4000
    target_ratio: float = 10.0      # source docs per target doc
    doc_len_min: int = 30
    doc_len_max: int = 60
    n_signal_words: int = 40
    signal_rank_start: int = 100
    signal_lift: float = 40.0
    positive_rate: float = 0.3
    label_noise: float = 0.0
    zipf_exponent: float = 0.5
    n_friends: int = 4
    friend_prob: float = 0.85
    signal_run_mean: float = 3.0    # mean length of injected signal runs
    code_switch_rate: float = 0.0   # fraction of target tokens borrowed from source

    def __post_init__(self):
        if self.vocab_size < 2:
            raise ValueError(f"vocab_size must be >= 2, got {self.vocab_size}")
        if self.signal_rank_start + self.n_signal_words > self.vocab_size:
            raise ValueError(
                f"signal set (ranks {self.signal_rank_start}.."
                f"{self.signal_rank_start + self.n_signal_words}) exceeds vocab_size "
                f"{self.vocab_size}"
            )
        if self.n_source_docs < 1 or self.target_ratio <= 0:
            raise ValueError("need n_source_docs >= 1 and target_ratio > 0")
        if not 1 <= self.doc_len_min <= self.doc_len_max:
            raise ValueError("need 1 <= doc_len_min <= doc_len_max")
        if self.signal_lift < 1.0:
            raise ValueError(f"signal_lift must be >= 1, got {self.signal_lift}")
        if self.signal_run_mean < 1.0:
            raise ValueError(f"signal_run_mean must be >= 1, got {self.signal_run_mean}")
        if not 0.0 < self.positive_rate < 1.0:
            raise ValueError(f"positive_rate must be in (0,1), got {self.positive_rate}")
        if not 0.0 <= self.label_noise < 0.5:
            raise ValueError(f"label_noise must be in [0,0.5), got {self.label_noise}")
        if not 0.0 <= self.friend_prob < 1.0:
            raise ValueError(f"friend_prob must be in [0,1), got {self.friend_prob}")
        if not 0.0 <= self.code_switch_rate < 1.0:
            raise ValueError("code_switch_rate must be in [0,1)")

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
