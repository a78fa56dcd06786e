import pytest

from xldetect.corpus import (
    AccountDocument,
    AccountStatus,
    SplitSpec,
    aggregate_by_account,
    filter_language,
    ingest_posts,
    label_from_status,
    read_documents,
    read_status_file,
    split,
    subsample_train,
    tokenize,
    write_documents,
)
from xldetect.errors import DataError, FormatError, LabelingError


def docs(n):
    return [AccountDocument(f"u{i}", f"text {i}", i % 2) for i in range(n)]


class TestIngest:
    def test_well_formed_lines(self):
        lines = ["u1\ten\thello there", "u2\ttl\tkumusta", "u3\ten\tbye"]
        result = ingest_posts(lines)
        assert len(result.records) == 3
        assert result.malformed == 0
        assert result.records[0].account_id == "u1"
        assert result.records[1].language_tag == "tl"

    def test_missing_field_reported(self):
        lines = ["u1\ten\thello", "u2\ten", "u3\ten\tbye"]
        result = ingest_posts(lines)
        assert len(result.records) == 2
        assert result.malformed == 1

    def test_empty_input(self):
        result = ingest_posts([])
        assert result.records == []
        assert result.malformed == 0

    def test_mostly_malformed_raises(self):
        lines = ["garbage", "more garbage", "u1\ten\tok"]
        with pytest.raises(FormatError):
            ingest_posts(lines)

    def test_unreadable_path(self):
        with pytest.raises(OSError):
            ingest_posts("/nonexistent/posts.tsv")

    def test_file_counts_lines_as_read(self, tmp_path):
        path = tmp_path / "posts.tsv"
        path.write_bytes(b"u1\ten\thello\r\nbroken\n\nu2\ten\tbye\n")
        result = ingest_posts(path)
        assert [r.account_id for r in result.records] == ["u1", "u2"]
        assert (result.malformed, result.total_lines) == (2, 4)
        path.write_bytes(b"")
        assert ingest_posts(path).total_lines == 0

    def test_file_not_utf8(self, tmp_path):
        path = tmp_path / "posts.tsv"
        path.write_bytes(b"u1\ten\thello\nu2\ten\tbad \xff byte\n")
        with pytest.raises(FormatError, match=r"posts\.tsv:2: invalid UTF-8"):
            ingest_posts(path)

    def test_empty_text_is_malformed(self):
        result = ingest_posts(["u1\ten\t   ", "u2\ten\tok", "u3\ten\talso ok"])
        assert result.malformed == 1
        assert [r.account_id for r in result.records] == ["u2", "u3"]

    def test_filter_language(self):
        records = ingest_posts(["u1\ten\ta", "u2\ttl\tb"]).records
        assert [r.account_id for r in filter_language(records, "tl")] == ["u2"]


class TestTokenize:
    def test_preserves_urls_hashtags_mentions(self):
        assert tokenize("Vote #trump NOW http://x.co") == [
            "Vote", "#trump", "NOW", "http://x.co",
        ]

    def test_collapses_whitespace_runs(self):
        assert tokenize("a  b") == ["a", "b"]

    def test_empty(self):
        assert tokenize("") == []

    def test_no_lowercasing(self):
        assert tokenize("MiXeD CaSe") == ["MiXeD", "CaSe"]

    def test_round_trip_join(self):
        tokens = ["@user", "#tag", "http://x", "word."]
        assert tokenize(" ".join(tokens)) == tokens


class TestLabels:
    def test_suspended_positive(self):
        assert label_from_status(AccountStatus.SUSPENDED) == 1

    def test_not_found_negative(self):
        assert label_from_status(AccountStatus.NOT_FOUND) == 0

    def test_active_negative(self):
        assert label_from_status(AccountStatus.ACTIVE) == 0

    def test_all_variants_total(self):
        labels = [label_from_status(s) for s in AccountStatus]
        assert sorted(labels) == [0, 0, 0, 1]

    def test_unknown_status_rejected(self, tmp_path):
        path = tmp_path / "statuses.tsv"
        path.write_text("u1\tbanned\n", encoding="utf-8")
        with pytest.raises(FormatError, match=r"unknown account status 'banned'"):
            read_status_file(path)


class TestAggregate:
    def test_concatenation_in_input_order(self):
        posts = ingest_posts(["u1\ten\ta", "u2\ten\tb", "u1\ten\tc"]).records
        statuses = {"u1": AccountStatus.SUSPENDED, "u2": AccountStatus.ACTIVE}
        out = aggregate_by_account(posts, statuses)
        assert out == [
            AccountDocument("u1", "a c", 1),
            AccountDocument("u2", "b", 0),
        ]

    def test_single_post_identity(self):
        posts = ingest_posts(["u1\ten\tonly post"]).records
        out = aggregate_by_account(posts, {"u1": AccountStatus.ACTIVE})
        assert out[0].text == "only post"

    def test_missing_status_names_account(self):
        posts = ingest_posts(["ghost\ten\tboo"]).records
        with pytest.raises(LabelingError, match="ghost"):
            aggregate_by_account(posts, {})

    def test_word_multiset_preserved(self):
        posts = ingest_posts(["u1\ten\tx y", "u1\ten\ty z"]).records
        out = aggregate_by_account(posts, {"u1": AccountStatus.ACTIVE})
        assert sorted(tokenize(out[0].text)) == ["x", "y", "y", "z"]


class TestSplit:
    def test_sizes_and_disjointness(self):
        d = docs(10)
        train, test = split(d, SplitSpec(0.8, seed=7))
        assert len(train) == 8 and len(test) == 2
        ids = {x.account_id for x in train} | {x.account_id for x in test}
        assert ids == {x.account_id for x in d}
        assert not ({x.account_id for x in train} & {x.account_id for x in test})

    def test_deterministic(self):
        d = docs(10)
        assert split(d, SplitSpec(0.8, 3)) == split(d, SplitSpec(0.8, 3))

    def test_seed_changes_partition(self):
        d = docs(40)
        train_a, _ = split(d, SplitSpec(0.8, 1))
        train_b, _ = split(d, SplitSpec(0.8, 2))
        assert len(train_a) == len(train_b)
        assert {x.account_id for x in train_a} != {x.account_id for x in train_b}

    def test_union_is_exact_set(self):
        d = docs(13)
        for seed in range(5):
            train, test = split(d, SplitSpec(0.8, seed))
            assert sorted(x.account_id for x in train + test) == sorted(
                x.account_id for x in d
            )

    def test_too_few_documents(self):
        with pytest.raises(ValueError):
            split(docs(1), SplitSpec())

    @pytest.mark.parametrize("fraction, side", [(0.96, "test"), (0.04, "train")])
    def test_empty_side_rejected(self, fraction, side):
        with pytest.raises(DataError, match=f"^train_fraction {fraction} of 10 documents "
                                            f"leaves the {side} side empty$"):
            split(docs(10), SplitSpec(fraction, 3))


class TestSubsample:
    def test_size_and_subset(self):
        train = docs(100)
        sub = subsample_train(train, 0.1, seed=5)
        assert len(sub) == 10
        assert {x.account_id for x in sub} <= {x.account_id for x in train}

    def test_fraction_one_identity(self):
        train = docs(7)
        assert subsample_train(train, 1.0, seed=9) == train

    def test_prefix_nesting(self):
        train = docs(100)
        small = {x.account_id for x in subsample_train(train, 0.1, seed=4)}
        large = {x.account_id for x in subsample_train(train, 0.3, seed=4)}
        assert small <= large

    def test_bad_fraction(self):
        for f in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                subsample_train(docs(5), f, seed=0)


class TestFiles:
    def test_documents_round_trip(self, tmp_path):
        d = docs(5)
        path = tmp_path / "docs.tsv"
        write_documents(d, path)
        assert read_documents(path) == d

    def test_documents_not_utf8(self, tmp_path):
        path = tmp_path / "docs.tsv"
        path.write_bytes(b"a\t0\thello\nb\t1\tbad \xff byte\n")
        with pytest.raises(FormatError, match=r"docs\.tsv:2: invalid UTF-8"):
            read_documents(path)

    def test_documents_repeated_account(self, tmp_path):
        # one document per account, as aggregate_by_account writes them
        path = tmp_path / "docs.tsv"
        path.write_bytes(b"a1\t0\thello\nb\t1\tthere\na1\t1\tagain\n")
        with pytest.raises(FormatError, match=r"docs\.tsv:3: duplicate account id 'a1'"):
            read_documents(path)

    def test_documents_empty_account_id(self, tmp_path):
        # ingest and the status reader reject an empty account id too
        path = tmp_path / "docs.tsv"
        path.write_bytes(b"a1\t0\thello\n\t1\tthere\n")
        with pytest.raises(FormatError, match=r"docs\.tsv:2: empty account id$"):
            read_documents(path)

    def test_documents_account_id_with_space(self, tmp_path):
        # export-vectors labels doc_vectors.txt rows with the ids, space-separated
        path = tmp_path / "docs.tsv"
        path.write_bytes(b"a1\t0\thello\nu 1\t1\tthere\n")
        with pytest.raises(FormatError, match=r"docs\.tsv:2: account id 'u 1' contains whitespace$"):
            read_documents(path)

    def test_status_file(self, tmp_path):
        path = tmp_path / "statuses.tsv"
        path.write_text("u1\tsuspended\nu2\tactive\n", encoding="utf-8")
        statuses = read_status_file(path)
        assert statuses["u1"] is AccountStatus.SUSPENDED

    def test_status_file_unknown_status(self, tmp_path):
        path = tmp_path / "statuses.tsv"
        path.write_text("u1\tactive\nu2\tzombie\n", encoding="utf-8")
        with pytest.raises(FormatError, match=r"statuses\.tsv:2: unknown account status 'zombie'$"):
            read_status_file(path)

    def test_status_file_repeated_account_rejected(self, tmp_path):
        # the last status would silently win: u1 would read as not suspended
        path = tmp_path / "statuses.tsv"
        path.write_text("u1\tsuspended\nu2\tactive\nu1\tactive\n", encoding="utf-8")
        with pytest.raises(FormatError, match=r"statuses\.tsv:3: duplicate account id 'u1'"):
            read_status_file(path)
