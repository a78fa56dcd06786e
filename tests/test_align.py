import tracemalloc

import numpy as np
import pytest

from xldetect import align as align_module
from xldetect.align import (
    BilingualDictionary,
    OrthogonalMap,
    apply_map,
    csls_blocks,
    evaluate_translation,
    induce_dictionary,
    load_dictionary,
    load_map,
    merge_tables,
    procrustes,
    refine,
    save_dictionary,
    save_map,
)
from xldetect.embedding import VectorTable
from xldetect.errors import AlignmentError, FormatError


def random_orthogonal(d, rng):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def twin_tables(n=80, d=12, seed=0, noise=0.0):
    """Target = exact rotation of source, same frequency order."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    q = random_orthogonal(d, rng)
    y = x @ q.T
    if noise:
        y = y + noise * rng.standard_normal((n, d))
    src = VectorTable([f"s{i:03d}" for i in range(n)], x)
    tgt = VectorTable([f"t{i:03d}" for i in range(n)], y)
    truth = [(f"s{i:03d}", f"t{i:03d}") for i in range(n)]
    return src, tgt, q, truth


def wide_tables(seed):
    """600 source rows of a 5000-row twin pair: ns != nt, and against the
    5000 targets a block takes the 64-row floor."""
    src, tgt, q, truth = twin_tables(n=5000, d=8, seed=seed, noise=0.5)
    return VectorTable(src.words[:600], src.vectors[:600]), tgt, q, truth[:600]


def normalized(vectors):
    return vectors / np.linalg.norm(vectors, axis=1)[:, None]


def full_csls(mapped, tgt, csls_k):
    """The whole CSLS matrix from one cosine matrix."""
    cos = normalized(mapped.vectors) @ normalized(tgt.vectors).T
    r_src = np.sort(cos, axis=1)[:, -csls_k:].mean(axis=1)
    r_tgt = np.sort(cos, axis=0)[-csls_k:].mean(axis=0)
    return 2.0 * cos - r_src[:, None] - r_tgt[None, :]


def reference_pairs(mapped, tgt, csls_k):
    """Mutual CSLS nearest neighbors by a loop over sources, sorted by
    descending score: (-score, source id, target id)."""
    full = full_csls(mapped, tgt, csls_k)
    expected = []
    for i in range(full.shape[0]):
        j = int(full[i].argmax())
        if int(full[:, j].argmax()) == i:
            expected.append((-full[i, j], i, j))
    return sorted(expected)


class TestProcrustes:
    def test_identity_when_equal(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((30, 5))
        w = procrustes(x, x).w
        assert np.abs(w - np.eye(5)).max() <= 1e-10

    def test_recovers_planar_rotation(self):
        q = np.array([[0.0, -1.0], [1.0, 0.0]])
        x = np.array([[1.0, 0.0], [0.3, 2.0], [-1.5, 0.7]])
        y = x @ q.T
        w = procrustes(x, y).w
        assert np.abs(w - q).max() <= 1e-10

    def test_exact_recovery_random_rotation(self):
        rng = np.random.default_rng(2)
        d, n = 10, 200
        q = random_orthogonal(d, rng)
        x = rng.standard_normal((n, d))
        w = procrustes(x, x @ q.T).w
        assert np.linalg.norm(w - q) <= 1e-8

    def test_orthogonality_invariant(self):
        rng = np.random.default_rng(3)
        pairs = [(rng.standard_normal((50, 8)), rng.standard_normal((50, 8))) for _ in range(10)]
        # procrustes(I, m.T) fits to the cross-covariance m itself
        rank_deficient = np.diag([5.0, 1e-18, 0.0, 0.0, 0.0, 0.0])
        pairs += [(np.eye(6), rank_deficient), (np.eye(1), np.array([[-2.0]]))]
        x, y = rng.standard_normal((40, 6)), rng.standard_normal((40, 6))
        scaled = [procrustes(x * scale, y * scale).w for scale in (1e-12, 1.0, 1e12)]
        for w in [procrustes(x, y).w for x, y in pairs] + scaled:
            d = w.shape[0]
            assert np.abs(w.T @ w - np.eye(d)).max() <= 1e-6
            assert abs(abs(np.linalg.det(w)) - 1.0) <= 1e-6
        assert procrustes(np.eye(1), np.array([[-2.0]])).w[0, 0] == -1.0
        # the fit is scale-free: tiny and huge inputs give the unit-scale map
        assert np.abs(scaled[0] - scaled[1]).max() <= 1e-10
        assert np.abs(scaled[2] - scaled[1]).max() <= 1e-10

    def test_local_optimality(self):
        # random small orthogonal perturbations never improve the objective
        rng = np.random.default_rng(4)
        x = rng.standard_normal((60, 6))
        y = rng.standard_normal((60, 6))
        w = procrustes(x, y).w
        base = ((x @ w.T - y) ** 2).sum()
        for _ in range(100):
            g = rng.standard_normal((6, 6)) * 1e-2
            r = _expm_skew(g - g.T)
            perturbed = ((x @ (w @ r).T - y) ** 2).sum()
            assert base <= perturbed + 1e-9

    def test_n_below_d_warns(self):
        rng = np.random.default_rng(5)
        with pytest.warns(UserWarning):
            procrustes(rng.standard_normal((3, 6)), rng.standard_normal((3, 6)))

    def test_zero_cross_covariance(self):
        x = np.zeros((4, 3))
        y = np.zeros((4, 3))
        with pytest.raises(AlignmentError):
            procrustes(x, y)

    def test_overflowing_cross_covariance(self):
        x = np.eye(3)
        x[0, 0] = 1e200
        with pytest.raises(AlignmentError, match="non-finite cross-covariance"):
            procrustes(x, x)

    def test_map_validates_orthogonality(self):
        with pytest.raises(AlignmentError):
            OrthogonalMap(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_nan_map_rejected(self):
        with pytest.raises(AlignmentError, match="not orthogonal"):
            OrthogonalMap(np.full((2, 2), np.nan))


def _expm_skew(a):
    vals, vecs = np.linalg.eig(a)
    return np.real(vecs @ np.diag(np.exp(vals)) @ np.linalg.inv(vecs))


class TestApplyMap:
    def test_identity(self):
        src, _, _, _ = twin_tables()
        w = OrthogonalMap(np.eye(12))
        mapped = apply_map(w, src)
        assert (mapped.vectors == src.vectors).all()

    def test_norm_preservation(self):
        src, _, q, _ = twin_tables(seed=6)
        mapped = apply_map(OrthogonalMap(q), src)
        before = np.linalg.norm(src.vectors, axis=1)
        after = np.linalg.norm(mapped.vectors, axis=1)
        assert (np.abs(after - before) <= 1e-9 * np.maximum(1.0, before)).all()

    def test_inverse_recovers(self):
        src, _, q, _ = twin_tables(seed=7)
        omap = OrthogonalMap(q)
        back = apply_map(OrthogonalMap(q.T), apply_map(omap, src))
        assert np.abs(back.vectors - src.vectors).max() <= 1e-9

    def test_dim_mismatch(self):
        src, _, _, _ = twin_tables(d=12)
        with pytest.raises(ValueError):
            apply_map(OrthogonalMap(np.eye(5)), src)


def csls(x, y, r_y):
    """The one row of csls_blocks for a single query x."""
    (block,) = csls_blocks(np.atleast_2d(x), np.atleast_2d(y), np.asarray(r_y))
    return block[0]


class TestCsls:
    def test_identical_unit_vectors(self):
        x = np.array([1.0, 0.0])
        assert csls(x, x, [0.0])[0] == pytest.approx(2.0)

    def test_orthogonal_vectors(self):
        assert csls(np.array([1.0, 0.0]), np.array([0.0, 1.0]), [0.0])[0] == 0.0

    def test_hub_penalized(self):
        # same cosine to the query, but the hub sits in a dense neighborhood
        x = np.array([1.0, 0.0])
        hub = np.array([np.sqrt(0.5), np.sqrt(0.5)])
        loner = np.array([np.sqrt(0.5), -np.sqrt(0.5)])
        hub_score, loner_score = csls(x, np.stack([hub, loner]), [0.9, 0.1])
        assert hub_score < loner_score

    def test_zero_vector_rejected(self):
        zero = VectorTable(["a", "b"], np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
        ones = VectorTable(["c", "d"], np.ones((2, 3)))
        with pytest.raises(AlignmentError):
            induce_dictionary(zero, ones, top_k_vocab=2, csls_k=1)


class TestInduction:
    def test_twin_languages_self_mapping(self):
        src, tgt, q, truth = twin_tables(n=60, d=10, seed=8)
        mapped = apply_map(OrthogonalMap(q), src)
        induced = induce_dictionary(mapped, tgt, top_k_vocab=60, csls_k=5)
        assert dict(induced.pairs) == dict(truth)

    def test_top_k_one(self):
        src, tgt, q, truth = twin_tables(n=40, d=8, seed=9)
        mapped = apply_map(OrthogonalMap(q), src)
        induced = induce_dictionary(mapped, tgt, top_k_vocab=1, csls_k=1)
        assert induced.pairs == [truth[0]]

    def test_unrelated_spaces_report_few_pairs(self):
        rng = np.random.default_rng(10)
        a = VectorTable([f"a{i}" for i in range(50)], rng.standard_normal((50, 6)))
        b = VectorTable([f"b{i}" for i in range(50)], rng.standard_normal((50, 6)))
        induced = induce_dictionary(a, b, top_k_vocab=50, csls_k=5)
        # mutual neighbors still exist by chance, but far fewer than n
        assert len(induced) < 50

    def test_scores_descending(self):
        src, tgt, q, _ = twin_tables(n=30, d=6, seed=11, noise=0.05)
        mapped = apply_map(OrthogonalMap(q), src)
        induced = induce_dictionary(mapped, tgt, top_k_vocab=30, csls_k=3)
        assert len(induced) > 10
        assert induced.scores is not None and len(induced.scores) == len(induced)
        assert all(a >= b for a, b in zip(induced.scores, induced.scores[1:]))

    def test_matches_pairwise_reference(self):
        # against 1100 columns a block has 238 rows, so each table spans
        # five blocks of the search, the last one ragged (148 rows)
        assert align_module._block_rows(1100) == 238
        src, tgt, q, _ = twin_tables(n=1100, d=8, seed=13, noise=0.6)
        self.check_against_reference(src, tgt, q)

    def test_wide_target_matches_pairwise_reference(self):
        # 600 sources in 64-row blocks (the floor) against 5000 targets:
        # nine full blocks and one of 24 rows; the 5000 targets in
        # 436-row blocks against 600 sources: eleven and one of 204
        assert align_module._block_rows(5000) == 64
        assert align_module._block_rows(600) == 436
        src, tgt, q, _ = wide_tables(seed=22)
        self.check_against_reference(src, tgt, q)

    @staticmethod
    def check_against_reference(src, tgt, q):
        mapped = apply_map(OrthogonalMap(q), src)
        induced = induce_dictionary(mapped, tgt, top_k_vocab=len(tgt), csls_k=4)
        expected = reference_pairs(mapped, tgt, 4)
        assert 10 < len(expected) < len(src)
        assert induced.pairs == [(src.words[i], tgt.words[j]) for _, i, j in expected]
        assert np.abs(np.array(induced.scores) + [e[0] for e in expected]).max() <= 1e-12

    def test_empty_table_rejected(self):
        src, _, _, _ = twin_tables(n=5, d=3)
        empty = VectorTable([], np.empty((0, 3)))
        with pytest.raises(AlignmentError):
            induce_dictionary(src, empty)


class TestRefine:
    def test_zero_iterations_equals_plain_procrustes(self):
        src, tgt, _, truth = twin_tables(seed=12)
        seed_dict = BilingualDictionary(truth[:40])
        w0 = refine(src, tgt, seed_dict, iterations=0).w
        x = src.vectors[:40]
        y = tgt.vectors[:40]
        assert np.abs(w0 - procrustes(x, y).w).max() == 0.0

    def test_noisy_seed_dictionary_improves(self):
        src, tgt, q, truth = twin_tables(n=120, d=10, seed=13)
        # corrupt 20% of seed pairs
        rng = np.random.default_rng(0)
        pairs = list(truth[:60])
        for i in range(0, 60, 5):
            j = int(rng.integers(0, 120))
            pairs[i] = (pairs[i][0], f"t{j:03d}")
        seed_dict = BilingualDictionary(pairs)
        eval_dict = BilingualDictionary(truth[60:], role="eval")
        w_seed = refine(src, tgt, seed_dict, iterations=0)
        w_refined = refine(src, tgt, seed_dict, iterations=3, top_k_vocab=120)
        p_seed = evaluate_translation(w_seed, src, tgt, eval_dict, k=1)
        p_refined = evaluate_translation(w_refined, src, tgt, eval_dict, k=1)
        assert p_refined >= p_seed

    def test_exact_recovery_stable_across_iterations(self):
        src, tgt, q, truth = twin_tables(n=100, d=8, seed=14)
        seed_dict = BilingualDictionary(truth[:50])
        w = refine(src, tgt, seed_dict, iterations=3, top_k_vocab=100)
        assert np.linalg.norm(w.w - q) <= 1e-6

    def test_logged_precision_uses_csls_k(self, monkeypatch):
        # the p@1 logged per iteration scores with the same CSLS k as induction
        src, tgt, _, truth = twin_tables(n=60, d=6, seed=15)
        seen = []

        def spy(*args, **kwargs):
            seen.append(kwargs.get("csls_k"))
            return evaluate_translation(*args, **kwargs)

        monkeypatch.setattr(align_module, "evaluate_translation", spy)
        eval_dict = BilingualDictionary(truth[30:], role="eval")
        refine(src, tgt, BilingualDictionary(truth[:30]), iterations=2, eval_dict=eval_dict,
               csls_k=3)
        assert seen == [3, 3, 3]

    def test_empty_seed_dictionary(self):
        src, tgt, _, _ = twin_tables()
        with pytest.raises(AlignmentError):
            refine(src, tgt, BilingualDictionary([("nope", "nada")]), iterations=0)


class TestEvaluateTranslation:
    def test_perfect_twin(self):
        src, tgt, q, truth = twin_tables(n=50, d=8, seed=15)
        p1 = evaluate_translation(OrthogonalMap(q), src, tgt, BilingualDictionary(truth))
        assert p1 == 1.0

    def test_random_map_near_chance(self):
        src, tgt, _, truth = twin_tables(n=300, d=10, seed=16)
        rng = np.random.default_rng(3)
        w = OrthogonalMap(random_orthogonal(10, rng))
        p1 = evaluate_translation(w, src, tgt, BilingualDictionary(truth), k=1)
        assert p1 < 0.05  # chance is 1/300

    def test_p5_at_least_p1(self):
        src, tgt, q, truth = twin_tables(n=60, d=6, seed=17, noise=0.4)
        w = procrustes(src.vectors[:30], tgt.vectors[:30])
        d = BilingualDictionary(truth[30:])
        p1 = evaluate_translation(w, src, tgt, d, k=1)
        p5 = evaluate_translation(w, src, tgt, d, k=5)
        assert p5 >= p1

    def test_multiple_targets_one_query(self):
        src, tgt, q, truth = twin_tables(n=20, d=6, seed=18)
        pairs = list(truth) + [(truth[0][0], "t019")]  # extra translation option
        p1 = evaluate_translation(OrthogonalMap(q), src, tgt, BilingualDictionary(pairs))
        assert p1 == 1.0

    def test_empty_filtered_dict(self):
        src, tgt, q, _ = twin_tables()
        with pytest.raises(AlignmentError):
            evaluate_translation(OrthogonalMap(q), src, tgt, BilingualDictionary([("x", "y")]))

    @pytest.mark.parametrize("k", [1, 5])
    def test_matches_full_matrix_reference(self, k):
        # 300 queries against 5000 targets take 64-row blocks: four full
        # blocks and a ragged one of 44 rows
        src, tgt, q, truth = wide_tables(seed=23)
        omap = OrthogonalMap(q)
        p = evaluate_translation(omap, src, tgt, BilingualDictionary(truth[100:400]), k=k,
                                 csls_k=4)
        full = full_csls(apply_map(omap, src), tgt, 4)[100:400]
        top = np.argsort(-full, axis=1, kind="stable")[:, :k]
        hits = [i in row for i, row in zip(range(100, 400), top.tolist())]
        assert 0 < sum(hits) < len(hits)
        assert p == sum(hits) / len(hits)


class TestArgumentBounds:
    @pytest.mark.parametrize("kwargs", [{"top_k_vocab": 0}, {"csls_k": 0}, {"csls_k": -3}])
    def test_induce_dictionary(self, kwargs):
        src, tgt, _, _ = twin_tables(n=10, d=4)
        with pytest.raises(ValueError, match=f"{next(iter(kwargs))} must be >= 1"):
            induce_dictionary(src, tgt, **kwargs)

    @pytest.mark.parametrize("kwargs", [{"top_k_vocab": 0}, {"csls_k": 0}])
    def test_refine(self, kwargs):
        # rejected before the seed fit, even when no induction would run
        src, tgt, _, truth = twin_tables(n=10, d=4)
        with pytest.raises(ValueError, match=f"{next(iter(kwargs))} must be >= 1"):
            refine(src, tgt, BilingualDictionary(truth), iterations=0, **kwargs)

    @pytest.mark.parametrize("kwargs", [{"k": 0}, {"k": -1}, {"csls_k": 0}])
    def test_evaluate_translation(self, kwargs):
        src, tgt, q, truth = twin_tables(n=10, d=4)
        with pytest.raises(ValueError, match=f"{next(iter(kwargs))} must be >= 1"):
            evaluate_translation(OrthogonalMap(q), src, tgt, BilingualDictionary(truth), **kwargs)


def peak_mib(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


class TestMemory:
    """Retrieval holds a few similarity blocks at a time, not a strip of
    rows as wide as the other table: at 4000 rows a 1024-row strip alone
    would be 31 MiB, and the whole matrix 122 MiB."""

    N = 4000

    def limit_mib(self, src, tgt):
        block = align_module._block_rows(self.N) * self.N * 8
        return (2 * (src.vectors.nbytes + tgt.vectors.nbytes) + 5 * block) / 2**20

    def test_induce_dictionary(self):
        src, tgt, q, _ = twin_tables(n=self.N, d=16, seed=24, noise=0.3)
        mapped = apply_map(OrthogonalMap(q), src)
        peak = peak_mib(lambda: induce_dictionary(mapped, tgt, top_k_vocab=self.N, csls_k=10))
        assert peak < self.limit_mib(mapped, tgt)

    def test_evaluate_translation(self):
        src, tgt, q, truth = twin_tables(n=self.N, d=16, seed=25, noise=0.3)
        eval_dict = BilingualDictionary(truth)
        peak = peak_mib(lambda: evaluate_translation(OrthogonalMap(q), src, tgt, eval_dict, k=5))
        assert peak < self.limit_mib(src, tgt)


class TestMergeAndIO:
    def test_merge_disjoint(self):
        a = VectorTable(["x"], np.ones((1, 2)))
        b = VectorTable(["y"], np.zeros((1, 2)))
        merged = merge_tables(a, b)
        assert merged.words == ["x", "y"]

    def test_merge_collision_target_wins(self):
        a = VectorTable(["x"], np.ones((1, 2)))
        b = VectorTable(["x", "y"], np.full((2, 2), 7.0))
        merged = merge_tables(a, b)
        assert (merged.get("x") == 1.0).all()
        assert (merged.get("y") == 7.0).all()

    def test_map_round_trip(self, tmp_path):
        rng = np.random.default_rng(19)
        w = OrthogonalMap(random_orthogonal(9, rng))
        path = tmp_path / "map.txt"
        save_map(w, path)
        loaded = load_map(path)
        assert (loaded.w == w.w).all()

    def test_map_save_idempotent(self, tmp_path):
        rng = np.random.default_rng(20)
        w = OrthogonalMap(random_orthogonal(5, rng))
        p1, p2 = tmp_path / "m1.txt", tmp_path / "m2.txt"
        save_map(w, p1)
        save_map(load_map(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_map_bad_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("NOTAMAP 3\n", encoding="utf-8")
        with pytest.raises(FormatError):
            load_map(path)
        path.write_text("XLMAP1 0\n", encoding="utf-8")
        with pytest.raises(AlignmentError):
            load_map(path)

    def test_dictionary_file_round_trip(self, tmp_path):
        d = BilingualDictionary([("hello", "kamusta"), ("world", "mundo"), ("hello", "hi")])
        path = tmp_path / "dict.txt"
        save_dictionary(d, path)
        loaded = load_dictionary(path)
        assert loaded.pairs == d.pairs

    def test_dictionary_bad_line(self, tmp_path):
        path = tmp_path / "dict.txt"
        path.write_text("one two three\n", encoding="utf-8")
        with pytest.raises(FormatError):
            load_dictionary(path)

    def test_filtered_reports_drops(self):
        src, tgt, _, truth = twin_tables(n=10)
        d = BilingualDictionary(list(truth[:5]) + [("missing", "t001"), ("s001", "gone")])
        kept, dropped = d.filtered(src, tgt)
        assert dropped == 2 and len(kept.pairs) == 5
