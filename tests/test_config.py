import pytest

from xldetect.config import SCHEMA, validate_config
from xldetect.errors import ConfigError
from xldetect.vocab import MAX_BUCKETS


def write_config(tmp_path, text):
    path = tmp_path / "pipeline.cfg"
    path.write_text(text, encoding="utf-8")
    return path


class TestDefaults:
    def test_empty_file_yields_pure_defaults(self, tmp_path):
        cfg = validate_config(write_config(tmp_path, ""))
        assert cfg.seed == 13
        assert cfg["embedding.dim"] == 100
        assert cfg["classifier.epochs"] == 100
        assert cfg["baseline.max_features"] == 35000
        assert cfg["split.train_fraction"] == 0.8
        assert cfg["align.iterations"] == 5

    def test_comments_and_blank_lines(self, tmp_path):
        cfg = validate_config(write_config(tmp_path, "# comment\n\nseed = 7\n"))
        assert cfg.seed == 7

    def test_defaults_match_module_defaults(self):
        from xldetect.classifier import SupervisedConfig
        from xldetect.embedding import SkipgramConfig

        e = SkipgramConfig()
        assert SCHEMA["embedding.dim"][1] == e.dim
        assert SCHEMA["embedding.epochs"][1] == e.epochs
        assert SCHEMA["embedding.lr"][1] == e.initial_lr
        assert SCHEMA["embedding.window"][1] == e.window
        assert SCHEMA["embedding.negatives"][1] == e.negatives
        assert SCHEMA["embedding.subsample_t"][1] == e.subsample_t
        assert SCHEMA["embedding.min_count"][1] == e.min_count
        c = SupervisedConfig()
        assert SCHEMA["classifier.epochs"][1] == c.epochs
        assert SCHEMA["classifier.lr"][1] == c.initial_lr
        assert SCHEMA["classifier.min_count"][1] == c.min_count


class TestValidation:
    def test_negative_dim_names_key(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            validate_config(write_config(tmp_path, "embedding.dim = -1\n"))
        assert any("embedding.dim" in e for e in err.value.errors)

    def test_label_noise_range_matches_synth(self, tmp_path):
        # SyntheticConfig accepts [0, 0.5); above that the labels invert
        validate_config(write_config(tmp_path, "synth.label_noise = 0.49\n"))
        with pytest.raises(ConfigError) as err:
            validate_config(write_config(tmp_path, "synth.label_noise = 0.6\n"))
        assert any("synth.label_noise" in e for e in err.value.errors)

    def test_bucket_count_fits_the_model_head(self, tmp_path):
        # config admits exactly the bucket counts a model head loads with
        for prefix in ("embedding", "classifier"):
            cfg = validate_config(write_config(tmp_path, f"{prefix}.buckets = {MAX_BUCKETS}\n"))
            assert cfg[f"{prefix}.buckets"] == MAX_BUCKETS
            for value in (0, MAX_BUCKETS + 1, 2**64 - 1, 2**70):
                with pytest.raises(ConfigError) as err:
                    validate_config(write_config(tmp_path, f"{prefix}.buckets = {value}\n"))
                assert err.value.errors == [f"{prefix}.buckets must be in [1, 2^24] (got {value})"]

    def test_unknown_key_listed(self, tmp_path):
        # workers was a key once; training now has a single path
        for key, line in (("embedding.dmi", "embedding.dmi = 100\n"), ("workers", "workers = 2\n")):
            with pytest.raises(ConfigError) as err:
                validate_config(write_config(tmp_path, line))
            assert any(repr(key) in e for e in err.value.errors)

    def test_all_violations_reported(self, tmp_path):
        text = ("embedding.dim = -1\nclassifier.lr = 0\nnot.a.key = 3\n"
                "classifier.word_ngrams = 2\n")
        with pytest.raises(ConfigError) as err:
            validate_config(write_config(tmp_path, text))
        joined = "\n".join(err.value.errors)
        assert "embedding.dim" in joined
        assert "classifier.lr" in joined
        assert "not.a.key" in joined
        assert "classifier.word_ngrams must be 1: word n-grams are not supported" in joined

    def test_type_error_reported(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            validate_config(write_config(tmp_path, "embedding.dim = ten\n"))
        assert any("embedding.dim" in e for e in err.value.errors)

    def test_duplicate_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            validate_config(write_config(tmp_path, "seed = 1\nseed = 2\n"))
        assert any("duplicate" in e for e in err.value.errors)

    def test_cross_check_ngram_range(self, tmp_path):
        with pytest.raises(ConfigError):
            validate_config(
                write_config(tmp_path, "embedding.n_min = 5\nembedding.n_max = 3\n")
            )

    def test_bool_parsing(self, tmp_path):
        cfg = validate_config(write_config(tmp_path, "embedding.subwords = false\n"))
        assert cfg["embedding.subwords"] is False
        with pytest.raises(ConfigError):
            validate_config(write_config(tmp_path, "embedding.subwords = yes\n"))

    def test_list_parsing(self, tmp_path):
        cfg = validate_config(
            write_config(tmp_path, "sweep.fractions = 0.1,0.5,1.0\nsweep.seeds = 4,5\n")
        )
        assert cfg["sweep.fractions"] == (0.1, 0.5, 1.0)
        assert cfg["sweep.seeds"] == (4, 5)

    def test_sweep_kind_validated(self, tmp_path):
        with pytest.raises(ConfigError):
            validate_config(write_config(tmp_path, "sweep.kinds = bogus\n"))

    def test_seeds_fit_the_random_streams(self, tmp_path):
        # every seed, the stage seed and each sweep seed, must be a u64
        cfg = validate_config(write_config(
            tmp_path, f"seed = {2**64 - 1}\nsweep.seeds = 0,{2**64 - 1}\n"))
        assert cfg.seed == 2**64 - 1 and cfg["sweep.seeds"] == (0, 2**64 - 1)
        for value in (-1, 2**64):
            with pytest.raises(ConfigError) as err:
                validate_config(write_config(tmp_path, f"seed = {value}\n"))
            assert err.value.errors == [f"seed must be in [0, 2^64) (got {value})"]
            with pytest.raises(ConfigError) as err:
                validate_config(write_config(tmp_path, f"sweep.seeds = 1,{value}\n"))
            assert err.value.errors == [f"sweep.seeds must be a non-empty list of seeds in "
                                        f"[0, 2^64) (got (1, {value}))"]
        with pytest.raises(ConfigError) as err:
            validate_config(write_config(tmp_path, "seed = 4\n"), {"seed": -1})
        assert err.value.errors == ["seed must be in [0, 2^64) (got -1)"]

    @pytest.mark.parametrize("key", ["sweep.fractions", "sweep.seeds", "sweep.kinds"])
    @pytest.mark.parametrize("value", ["", ",", " , ,"])
    def test_empty_sweep_list_rejected(self, tmp_path, key, value):
        # an empty list would make a sweep with no cells and an empty report
        with pytest.raises(ConfigError) as err:
            validate_config(write_config(tmp_path, f"{key} = {value}\n"))
        assert len(err.value.errors) == 1
        assert err.value.errors[0].startswith(f"{key} must be a non-empty list of ")
        assert err.value.errors[0].endswith("(got ())")

    def test_sweep_entries_out_of_range_rejected(self, tmp_path):
        for line in ("sweep.fractions = 0.5,0\n", "sweep.fractions = 1.5\n",
                     "sweep.kinds = monolingual,bogus\n"):
            with pytest.raises(ConfigError) as err:
                validate_config(write_config(tmp_path, line))
            assert err.value.errors[0].startswith(line.split(" =")[0] + " must be")

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(ConfigError):
            validate_config(tmp_path / "missing.cfg")

    def test_not_utf8_names_line(self, tmp_path):
        path = tmp_path / "pipeline.cfg"
        path.write_bytes(b"# comment\nseed = 4\nout_dir = caf\xe9\n")
        with pytest.raises(ConfigError) as err:
            validate_config(path)
        assert len(err.value.errors) == 1
        assert err.value.errors[0].startswith(f"{path}:3: invalid UTF-8")

    def test_overrides_applied(self, tmp_path):
        cfg = validate_config(write_config(tmp_path, "seed = 4\n"), {"seed": 9})
        assert cfg.seed == 9


class TestHashAndEcho:
    def test_hash_stable(self, tmp_path):
        a = validate_config(write_config(tmp_path, "seed = 4\n"))
        b = validate_config(write_config(tmp_path, "seed = 4\n"))
        assert a.config_hash() == b.config_hash()

    def test_hash_changes_with_values(self, tmp_path):
        a = validate_config(write_config(tmp_path, "seed = 4\n"))
        b = validate_config(write_config(tmp_path, "seed = 5\n"))
        assert a.config_hash() != b.config_hash()

    def test_effective_lines_cover_schema(self, tmp_path):
        cfg = validate_config(write_config(tmp_path, ""))
        lines = cfg.effective_lines()
        assert len(lines) == len(SCHEMA)
        keys = {line.split("=", 1)[0] for line in lines}
        assert keys == set(SCHEMA)
