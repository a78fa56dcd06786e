"""End-to-end pipeline tests through the command-line interface."""

import struct
from pathlib import Path

import pytest

from xldetect.align import load_dictionary, load_map
from xldetect.baselines import load_feature_vocab
from xldetect.classifier import load_classifier
from xldetect.cli import main
from xldetect.corpus import AccountDocument, read_documents
from xldetect.embedding import load_checkpoint, load_vectors
from xldetect.metrics import SCORES
from xldetect.report import read_report

REPO = Path(__file__).resolve().parent.parent
DEMO = REPO / "configs" / "demo.cfg"

SMALL_SYNTH = """
seed = 5
out_dir = {out}
synth.vocab_size = 300
synth.source_docs = 360
synth.target_ratio = 3.0
synth.doc_len_min = 15
synth.doc_len_max = 30
synth.signal_words = 20
synth.signal_rank_start = 100
synth.signal_lift = 12.0
embedding.corpus = {out}/source_documents.tsv
embedding.dim = 24
embedding.epochs = 2
embedding.min_count = 3
embedding.subwords = false
embedding.subsample_t = 0.01
embedding.window = 2
align.source_vectors = {out}/vectors.txt
align.target_vectors = {out}/target_vectors.txt
align.train_dict = {out}/dictionary.txt
align.iterations = 1
align.induce_top_k = 300
classifier.docs = {out}/target_documents.tsv
classifier.dim = 24
classifier.epochs = 10
classifier.subwords = false
classifier.out_model = classifier.bin
evaluate.docs = {out}/target_documents.tsv
baseline.docs = {out}/target_documents.tsv
baseline.kind = bow_tfidf
baseline.epochs = 20
sweep.docs = {out}/target_documents.tsv
sweep.fractions = 0.5,1.0
sweep.seeds = 1,2
sweep.kinds = monolingual
export.docs = {out}/target_documents.tsv
"""


def write_cfg(tmp_path, out_dir, text=SMALL_SYNTH):
    cfg = tmp_path / "pipeline.cfg"
    cfg.write_text(text.format(out=out_dir), encoding="utf-8")
    return str(cfg)


def run(cmd, cfg, *extra):
    return main([cmd, "--config", cfg, *extra])


def ingest_cfg(tmp_path, posts: bytes, statuses: bytes):
    """A config whose ingest reads these posts and statuses files from out/."""
    out = tmp_path / "out"
    out.mkdir()
    (out / "posts.tsv").write_bytes(posts)
    (out / "statuses.tsv").write_bytes(statuses)
    return write_cfg(tmp_path, out, SMALL_SYNTH + (
        "ingest.posts = {out}/posts.tsv\ningest.statuses = {out}/statuses.tsv\n"))


class TestPipeline:
    def test_full_synthetic_pipeline(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, out)
        assert run("synth", cfg) == 0
        source_docs = read_documents(out / "source_documents.tsv")
        target_docs = read_documents(out / "target_documents.tsv")
        assert len(source_docs) == 360 and len(target_docs) > 0
        assert len(load_dictionary(out / "dictionary.txt")) > 0

        assert run("train-embeddings", cfg) == 0
        vectors = load_vectors(out / "vectors.txt", expect_dim=24)
        assert load_checkpoint(out / "embedding.bin").to_table().words == vectors.words

        # target-side embeddings into a second artifact set
        tgt_text = SMALL_SYNTH.replace(
            "embedding.corpus = {out}/source_documents.tsv",
            "embedding.corpus = {out}/target_documents.tsv",
        ).replace(
            "embedding.out_vectors = vectors.txt",
            "",
        ) + "\nembedding.out_vectors = target_vectors.txt\nembedding.out_checkpoint = target_embedding.bin\n"
        cfg_tgt = tmp_path / "target.cfg"
        cfg_tgt.write_text(tgt_text.format(out=out), encoding="utf-8")
        assert run("train-embeddings", str(cfg_tgt)) == 0
        target_vectors = load_vectors(out / "target_vectors.txt", expect_dim=24)
        assert load_checkpoint(out / "target_embedding.bin").to_table().words == target_vectors.words

        assert run("align", cfg) == 0
        assert load_map(out / "map.txt").dim == 24
        assert load_vectors(out / "aligned_vectors.txt", expect_dim=24).words[
            :len(target_vectors)] == target_vectors.words

        assert run("train-classifier", cfg) == 0
        assert load_classifier(out / "classifier.bin").dim == 24

        assert run("evaluate", cfg) == 0
        report = read_report(out / "eval_report.txt")
        assert list(SCORES) == [k for k in report.sections["metrics.test"] if k in SCORES]
        assert report.sections["run"]["command"] == "evaluate"
        # config echo holds the full effective config
        assert report.sections["config"]["embedding.dim"] == "24"

        assert run("baseline", cfg) == 0
        baseline = read_report(out / "baseline_report.txt")
        assert all(score in baseline.sections["metrics.test"] for score in SCORES)
        features = load_feature_vocab(out / "features.tsv")
        assert len(features.features) == int(baseline.sections["data"]["features"])

        assert run("sweep", cfg) == 0
        sweep_report = read_report(out / "sweep_report.txt")
        curve = sweep_report.tables["curve"]
        assert curve.columns == ["fraction", "kind", "seed", "precision", "recall", "f1"]
        assert curve.columns[3:] == list(SCORES)
        assert len(curve.rows) == 4  # 2 fractions x 2 seeds x 1 kind
        assert sweep_report.tables["curve_means"].columns == [
            "fraction", "kind", *SCORES, "n"]
        # curve.csv is the report's curve table, line for line
        assert (out / "curve.csv").read_text(encoding="utf-8").splitlines() == [
            ",".join(row) for row in [curve.columns, *curve.rows]]

        assert run("export-vectors", cfg) == 0
        doc_vectors = load_vectors(out / "doc_vectors.txt", expect_dim=24)
        assert doc_vectors.words == [d.account_id for d in target_docs]

        manifest = (out / "manifest.tsv").read_text(encoding="utf-8").splitlines()
        header = manifest[0].split("\t")
        assert header[-1] == "wall_s"
        assert all(len(line.split("\t")) == len(header) for line in manifest[1:])
        commands = [line.split("\t")[0] for line in manifest[1:]]
        assert commands == [
            "synth", "train-embeddings", "train-embeddings", "align",
            "train-classifier", "evaluate", "baseline", "sweep", "export-vectors",
        ]

    def test_align_before_embeddings_is_dependency_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, out)
        assert run("synth", cfg) == 0
        code = run("align", cfg)
        assert code == 2
        err = capsys.readouterr().err
        assert "vectors.txt" in err and "train-embeddings" in err

    def test_invalid_config_exit_one(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("embedding.dim = -3\n", encoding="utf-8")
        assert main(["synth", "--config", str(cfg)]) == 1
        assert "embedding.dim" in capsys.readouterr().err

    def test_unknown_key_exit_one(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("embedding.dmi = 100\n", encoding="utf-8")
        assert main(["synth", "--config", str(cfg)]) == 1
        assert "embedding.dmi" in capsys.readouterr().err
        # an unknown flag is an argparse usage error
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--config", str(cfg), "--workers", "2"])
        assert exc.value.code == 2

    def test_missing_required_key_exit_one(self, tmp_path, capsys):
        cfg = tmp_path / "empty.cfg"
        cfg.write_text("", encoding="utf-8")
        assert main(["train-embeddings", "--config", str(cfg)]) == 1
        assert "embedding.corpus" in capsys.readouterr().err

    def test_seed_override_flag(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        cfg_a = write_cfg(tmp_path, out_a)
        assert run("synth", cfg_a, "--seed", "123") == 0
        cfg_b = tmp_path / "b.cfg"
        cfg_b.write_text(
            SMALL_SYNTH.format(out=out_b).replace("seed = 5", "seed = 123"),
            encoding="utf-8",
        )
        assert run("synth", str(cfg_b)) == 0
        assert (out_a / "source_documents.tsv").read_bytes() == (
            out_b / "source_documents.tsv"
        ).read_bytes()


    @pytest.mark.parametrize(
        "damaged", [b"x 2\nw 1 2\n", b"1 2\nw\xff 1 2\n"], ids=["bad-header", "not-utf8"]
    )
    def test_damaged_vectors_exit_two(self, tmp_path, capsys, damaged):
        out = tmp_path / "out"
        out.mkdir()
        cfg = write_cfg(tmp_path, out)
        (out / "vectors.txt").write_bytes(damaged)
        (out / "target_vectors.txt").write_bytes(b"1 2\nw 1 2\n")
        (out / "dictionary.txt").write_bytes(b"w w\n")
        assert run("align", cfg) == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and "vectors.txt:" in errors[0]
        assert "Traceback" not in err

    @pytest.mark.parametrize("iterations", [0, 1])
    def test_huge_vectors_exit_two(self, tmp_path, capsys, iterations):
        # finite values whose cross-covariance overflows to inf
        out = tmp_path / "out"
        out.mkdir()
        cfg = write_cfg(tmp_path, out, SMALL_SYNTH.replace(
            "align.iterations = 1", f"align.iterations = {iterations}"))
        vectors = b"3 2\nw 1e200 1\nu 1 0\nv 0 1\n"
        (out / "vectors.txt").write_bytes(vectors)
        (out / "target_vectors.txt").write_bytes(vectors)
        (out / "dictionary.txt").write_bytes(b"w w\nu u\nv v\n")
        assert run("align", cfg) == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and "non-finite cross-covariance" in errors[0]
        assert "Traceback" not in err

    def test_align_dims_differ_exit_two(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        cfg = write_cfg(tmp_path, out)
        (out / "vectors.txt").write_bytes(b"2 2\nw 1 0\nu 0 1\n")
        (out / "target_vectors.txt").write_bytes(b"2 3\nw 1 0 0\nu 0 1 0\n")
        (out / "dictionary.txt").write_bytes(b"w w\nu u\n")
        assert run("align", cfg) == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert errors == [f"error: cannot align {out / 'vectors.txt'} (dim 2) with "
                          f"{out / 'target_vectors.txt'} (dim 3): the dims differ"]
        assert "Traceback" not in err

    def test_align_records_eval_dict(self, tmp_path):
        # the evaluation dictionary align reads is its fourth manifest input
        out = tmp_path / "out"
        out.mkdir()
        cfg = write_cfg(tmp_path, out, SMALL_SYNTH + "align.eval_dict = eval_dict.txt\n")
        vectors = b"3 2\nw 1 0\nu 0 1\nv 1 1\n"
        (out / "vectors.txt").write_bytes(vectors)
        (out / "target_vectors.txt").write_bytes(vectors)
        (out / "dictionary.txt").write_bytes(b"w w\nu u\nv v\n")
        (out / "eval_dict.txt").write_bytes(b"w w\n")
        assert run("align", cfg) == 0
        row = (out / "manifest.tsv").read_text(encoding="utf-8").splitlines()[1].split("\t")
        assert row[4].split(";") == [str(out / name) for name in (
            "vectors.txt", "target_vectors.txt", "dictionary.txt", "eval_dict.txt")]

    def test_config_not_utf8_exit_one(self, tmp_path, capsys):
        cfg = tmp_path / "pipeline.cfg"
        cfg.write_bytes(b"seed = 5\nout_dir = \xff\n")
        assert run("synth", str(cfg)) == 1
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("config error:")]
        assert len(errors) == 1
        assert errors[0].startswith(f"config error: {cfg}:2: invalid UTF-8")
        assert "Traceback" not in err

    def test_bucket_count_beyond_u64_exit_one(self, tmp_path, capsys):
        # a count beyond MAX_BUCKETS is a config error, not an overflow in
        # the n-gram hashing kernel or a huge slot map
        out = tmp_path / "out"
        out.mkdir()
        docs = "".join(f"u{i}\t{i % 2}\talpha beta gamma\n" for i in range(10))
        (out / "target_documents.tsv").write_text(docs, encoding="utf-8")
        text = SMALL_SYNTH.replace("classifier.subwords = false", "classifier.subwords = true")
        cfg = write_cfg(tmp_path, out, text + f"classifier.buckets = {2**70}\n")
        assert run("train-classifier", cfg) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [f"config error: classifier.buckets must be in [1, 2^24] "
                                    f"(got {2**70})"]
        assert not (out / "manifest.tsv").exists()

    def test_stored_bucket_id_beyond_int64_exit_two(self, tmp_path, capsys):
        # a stored id of 2^63 + 5, which int64 cannot hold, under a damaged
        # head count of 2^64 - 1: the loader rejects the head, before
        # row_slots could size a slot map by the id
        out = tmp_path / "out"
        out.mkdir()
        docs = "".join(f"u{i}\t{i % 2}\talpha beta gamma\n" for i in range(10))
        (out / "target_documents.tsv").write_text(docs, encoding="utf-8")
        text = SMALL_SYNTH.replace("classifier.subwords = false", "classifier.subwords = true")
        cfg = write_cfg(tmp_path, out, text + "classifier.buckets = 50\n")
        assert run("train-classifier", cfg) == 0
        path = out / "classifier.bin"
        model = load_classifier(path)
        ids, sub = model.bucket_ids.tolist(), model.subwords

        def bucket_block(ids):
            return struct.pack("<BQQ", 1, model.bucket_seed, len(ids)) + struct.pack(
                f"<{len(ids)}Q", *ids)

        def head(buckets):
            return struct.pack("<IIQII", model.dim, len(model.vocab), buckets, sub.n_min, sub.n_max)

        data = path.read_bytes().replace(head(sub.buckets), head(2**64 - 1), 1)
        path.write_bytes(data.replace(bucket_block(ids), bucket_block(ids[:-1] + [2**63 + 5]), 1))
        assert run("evaluate", cfg) == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and "classifier.bin: bad subword head at byte 6" in errors[0]
        assert "Traceback" not in err

    def test_non_finite_classifier_weight_exit_two(self, tmp_path, capsys):
        # the file's last four bytes are the last output weight
        out = tmp_path / "out"
        out.mkdir()
        docs = "".join(f"u{i}\t{i % 2}\talpha beta gamma\n" for i in range(10))
        (out / "target_documents.tsv").write_text(docs, encoding="utf-8")
        cfg = write_cfg(tmp_path, out)
        assert run("train-classifier", cfg) == 0
        path = out / "classifier.bin"
        data = path.read_bytes()
        path.write_bytes(data[:-4] + struct.pack("<f", float("nan")))
        capsys.readouterr()
        assert run("evaluate", cfg) == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert errors == [f"error: {path}: non-finite value at byte {len(data) - 4}"]
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, line, message", [
        ("sweep", "sweep.seeds = -1",
         "sweep.seeds must be a non-empty list of seeds in [0, 2^64) (got (-1,))"),
        ("train-classifier", f"seed = {2**64}", f"seed must be in [0, 2^64) (got {2**64})"),
        ("sweep", "sweep.fractions = ,",
         "sweep.fractions must be a non-empty list of values in (0,1] (got ())"),
    ])
    def test_seed_or_sweep_list_out_of_range_exit_one(self, tmp_path, capsys, command, line,
                                                      message):
        # a seed the random streams cannot take, or a sweep with no cells,
        # is a config error before any stage work
        out = tmp_path / "out"
        out.mkdir()
        key = line.split(" =")[0]
        kept = [k for k in SMALL_SYNTH.splitlines() if k.split(" =")[0] != key]
        cfg = write_cfg(tmp_path, out, "\n".join(kept + [line, ""]))
        assert run(command, cfg) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [f"config error: {message}"]
        assert not (out / "manifest.tsv").exists()

    def test_posts_not_utf8_exit_two(self, tmp_path, capsys):
        cfg = ingest_cfg(tmp_path, b"u1\ten\thello\nu2\ten\tbad \xff\n",
                         b"u1\tactive\nu2\tsuspended\n")
        assert run("ingest", cfg) == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and "posts.tsv:2: invalid UTF-8" in errors[0]
        assert "Traceback" not in err

    def test_ingest_writes_documents(self, tmp_path):
        cfg = ingest_cfg(tmp_path, b"u1\ten\thello\nu2\ten\tbye\nu1\ten\tagain\n",
                         b"u1\tsuspended\nu2\tactive\n")
        assert run("ingest", cfg) == 0
        assert read_documents(tmp_path / "out" / "documents.tsv") == [
            AccountDocument("u1", "hello again", 1), AccountDocument("u2", "bye", 0)]

    def test_account_id_with_space_exit_two(self, tmp_path, capsys):
        # doc_vectors.txt labels its rows with the ids, so "u 1" could not be read back
        cfg = ingest_cfg(tmp_path, b"u1\ten\thello\nu 1\ten\tthere\n",
                         b"u1\tactive\nu 1\tsuspended\n")
        assert run("ingest", cfg) == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert errors == [f"error: {tmp_path / 'out' / 'posts.tsv'}:2: "
                          "account id 'u 1' contains whitespace"]
        assert not (tmp_path / "out" / "documents.tsv").exists()

    def test_unknown_status_exit_two(self, tmp_path, capsys):
        cfg = ingest_cfg(tmp_path, b"u1\ten\thello\nu2\ten\tbye\n", b"u1\tactive\nu2\tbanned\n")
        assert run("ingest", cfg) == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and "statuses.tsv:2: unknown account status 'banned'" in errors[0]
        assert not (tmp_path / "out" / "documents.tsv").exists()

    @pytest.mark.parametrize("command, edits, docs, message", [
        ("train-embeddings", [("embedding.min_count = 3", "embedding.min_count = 1000")],
         None, "empty vocabulary"),
        ("train-classifier",
         [("classifier.dim = 24", "classifier.dim = 24\nclassifier.min_count = 1000")],
         None, "empty vocabulary"),
        ("train-classifier", [], "u0\t1\talpha beta\n", "need at least 2 documents"),
        ("sweep", [], "u0\t1\talpha beta\n", "need at least 2 documents"),
        ("baseline", [], "".join(f"u{i}\t0\talpha beta\n" for i in range(10)),
         "both classes must be present"),
        ("synth", [("synth.signal_words = 20", "synth.signal_words = 100"),
                   ("synth.signal_lift = 12.0", "synth.signal_lift = 1000")],
         None, "unreachable"),
        ("export-vectors",
         [("export.docs = {out}/target_documents.tsv", "export.docs = {out}/empty.tsv")],
         None, "no documents to export"),
    ], ids=["vocab-embeddings", "vocab-classifier", "split-classifier", "split-sweep",
            "one-class-baseline", "synth-lift", "empty-export"])
    def test_data_error_exit_two(self, tmp_path, capsys, command, edits, docs, message):
        out = tmp_path / "out"
        out.mkdir()
        text = SMALL_SYNTH
        for old, new in edits:
            text = text.replace(old, new)
        cfg = write_cfg(tmp_path, out, text)
        docs = docs or "".join(f"u{i}\t{i % 2}\talpha beta gamma\n" for i in range(10))
        for name in ("source_documents.tsv", "target_documents.tsv"):
            (out / name).write_text(docs, encoding="utf-8")
        if command == "export-vectors":
            # a trained model, then a documents file that holds none
            assert run("train-classifier", cfg) == 0
            (out / "manifest.tsv").unlink()
            (out / "empty.tsv").write_text("", encoding="utf-8")
        assert run(command, cfg) == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and message in errors[0]
        assert "Traceback" not in err
        assert not (out / "manifest.tsv").exists()

    def test_diverged_training_exit_two(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        cfg = write_cfg(tmp_path, out, SMALL_SYNTH + "embedding.lr = 1000\n")
        docs = "".join(f"u{i}\t{i % 2}\talpha beta gamma alpha delta\n" for i in range(10))
        (out / "source_documents.tsv").write_text(docs, encoding="utf-8")
        assert run("train-embeddings", cfg) == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1
        head, _, magnitude = errors[0].rpartition(" ")
        assert head == "error: training diverged after epoch 0: parameter magnitude"
        # a plain number, not a numpy repr; past the 1e8 limit or NaN
        assert not float(magnitude) <= 1e8
        assert "Traceback" not in err
        assert not (out / "manifest.tsv").exists()

    @pytest.mark.parametrize("command, fraction, side", [
        ("evaluate", 0.96, "test"),
        ("baseline", 0.96, "test"),
        ("sweep", 0.96, "test"),
        ("train-classifier", 0.04, "train"),
        ("baseline", 0.04, "train"),
    ])
    def test_empty_split_side_exit_two(self, tmp_path, capsys, command, fraction, side):
        # 10 documents: round(0.96 * 10) = 10 leaves no test document, and
        # round(0.04 * 10) = 0 no training document
        out = tmp_path / "out"
        out.mkdir()
        docs = "".join(f"u{i}\t{i % 2}\talpha beta gamma\n" for i in range(10))
        (out / "target_documents.tsv").write_text(docs, encoding="utf-8")
        if command == "evaluate":
            assert run("train-classifier", write_cfg(tmp_path, out)) == 0
            (out / "manifest.tsv").unlink()
        cfg = write_cfg(tmp_path, out, SMALL_SYNTH + f"split.train_fraction = {fraction}\n")
        assert run(command, cfg) == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert errors == [f"error: train_fraction {fraction} of 10 documents leaves the "
                          f"{side} side empty"]
        assert "Traceback" not in err
        assert not (out / "manifest.tsv").exists()

    def test_tfidf_baseline_with_empty_document(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        cfg = write_cfg(tmp_path, out)
        words = ["alpha", "beta", "gamma", "delta", "omega"]
        lines = [
            f"acct{i}\t{i % 2}\t{'' if i == 0 else ' '.join(words[: 2 + i % 4])}\n"
            for i in range(40)
        ]
        (out / "target_documents.tsv").write_text("".join(lines), encoding="utf-8")
        # wherever the split puts the empty document, the stage succeeds
        for seed in range(1, 6):
            assert run("baseline", cfg, "--seed", str(seed)) == 0


    @pytest.mark.parametrize("command, key", [
        ("evaluate", "evaluate.model"),
        ("export-vectors", "export.model"),
        ("sweep", "sweep.pretrained"),
    ])
    def test_restated_artifact_key_is_unknown(self, tmp_path, capsys, command, key):
        # evaluate and export-vectors read classifier.out_model, and the
        # transfer sweep classifier.pretrained; no key restates them
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, out, SMALL_SYNTH + f"{key} = x\n")
        assert run(command, cfg) == 1
        errors = capsys.readouterr().err.splitlines()
        assert len(errors) == 1 and errors[0].startswith("config error: line ")
        assert errors[0].endswith(f"unknown key {key!r}")
        assert not out.exists()

    def test_transfer_sweep_needs_classifier_pretrained(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        docs = "".join(f"u{i}\t{i % 2}\talpha beta gamma\n" for i in range(10))
        (out / "target_documents.tsv").write_text(docs, encoding="utf-8")
        cfg = write_cfg(tmp_path, out, SMALL_SYNTH.replace(
            "sweep.kinds = monolingual", "sweep.kinds = monolingual,transfer"))
        assert run("sweep", cfg) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "config error: classifier.pretrained must be set for this command"]
        assert not (out / "manifest.tsv").exists()


class TestRunDirectory:
    def test_demo_with_out_reads_only_its_own_run(self, tmp_path, monkeypatch):
        # the nine commands in demo.cfg's header, run with --out from a
        # directory without demo_out/: every input a stage reads, and every
        # output it writes, lies under the --out directory
        commands = [line.split()[2:] for line in DEMO.read_text(encoding="utf-8").splitlines()
                    if line.startswith("#   xldetect ")]
        assert [c[0] for c in commands] == [
            "synth", "train-embeddings", "train-embeddings", "align", "train-classifier",
            "evaluate", "sweep", "baseline", "export-vectors"]
        cwd, out = tmp_path / "cwd", tmp_path / "run"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        for command, flag, config in commands:
            assert main([command, flag, str(REPO / config), "--out", str(out)]) == 0, command
        assert list(cwd.iterdir()) == []
        rows = [line.split("\t") for line in
                (out / "manifest.tsv").read_text(encoding="utf-8").splitlines()[1:]]
        assert [row[0] for row in rows] == [c[0] for c in commands]
        counts = [tuple(len([p for p in row[i].split(";") if p]) for i in (4, 5)) for row in rows]
        assert counts == [(0, 3), (1, 2), (1, 2), (3, 2), (2, 1), (2, 1), (2, 2), (1, 2), (2, 1)]
        paths = [p for row in rows for p in row[4].split(";") + row[5].split(";") if p]
        assert len(paths) == 30  # 14 inputs, 16 outputs
        assert all(Path(p).parent == out for p in paths), paths


class TestReproducibility:
    ARTIFACTS = (
        "source_documents.tsv", "target_documents.tsv", "dictionary.txt",
        "vectors.txt", "embedding.bin", "classifier.bin", "eval_report.txt",
    )

    def test_stage_rerun_byte_identical(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, out)
        for cmd in ("synth", "train-embeddings", "train-classifier", "evaluate"):
            assert run(cmd, cfg) == 0
        first = {name: (out / name).read_bytes() for name in self.ARTIFACTS}
        # re-run every stage with the identical config and seed
        for cmd in ("synth", "train-embeddings", "train-classifier", "evaluate"):
            assert run(cmd, cfg) == 0
        for name in self.ARTIFACTS:
            assert (out / name).read_bytes() == first[name], f"{name} not reproducible"
