import pytest

from xldetect.errors import FormatError
from xldetect.metrics import SCORES, ConfusionMatrix, binary_metrics
from xldetect.report import (
    Report,
    metrics_section,
    parse_report,
    read_report,
    serialize_report,
    write_report,
)


def sample_report():
    report = Report()
    run = report.section("run")
    run["command"] = "evaluate"
    run["seed"] = "13"
    config = report.section("config")
    config["classifier.epochs"] = "100"
    config["classifier.lr"] = "1.0"
    report.sections["metrics.test"] = metrics_section(
        binary_metrics(ConfusionMatrix(tp=12, fp=5, fn=8, tn=75))
    )
    report.add_table(
        "curve",
        ["fraction", "kind", "seed", "precision", "recall", "f1"],
        [["0.1", "monolingual", "1", "0.5", "0.25", "0.3333333333333333"]],
    )
    return report


class TestRoundTrip:
    def test_parse_reserialize_byte_identical(self):
        text = serialize_report(sample_report())
        assert serialize_report(parse_report(text)) == text

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "report.txt"
        write_report(sample_report(), path)
        parsed = read_report(path)
        write_report(parsed, tmp_path / "again.txt")
        assert path.read_bytes() == (tmp_path / "again.txt").read_bytes()

    @pytest.mark.parametrize("char", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                                      "\u2028", "\u2029"])
    def test_other_line_breaks_round_trip(self, tmp_path, char):
        # serialize_report joins lines with "\n" only, so a character that
        # str.splitlines() also breaks on is part of a value or a cell
        report = sample_report()
        report.section("run")["out_dir"] = f"runs/a{char}b"
        report.add_table("names", ["name"], [[f"x{char}y"]])
        text = serialize_report(report)
        assert parse_report(text) == report
        path = tmp_path / "report.txt"
        write_report(report, path)
        assert read_report(path) == report

    def test_header_line(self):
        assert serialize_report(sample_report()).splitlines()[0] == "XLREPORT 1"


class TestConsistency:
    def test_metrics_recomputable_from_confusion(self):
        report = sample_report()
        section = report.sections["metrics.test"]
        recomputed = binary_metrics(ConfusionMatrix(
            tp=int(section["confusion.tp"]),
            fp=int(section["confusion.fp"]),
            fn=int(section["confusion.fn"]),
            tn=int(section["confusion.tn"]),
        ))
        assert repr(recomputed.precision) == section["precision"]
        assert repr(recomputed.recall) == section["recall"]
        assert repr(recomputed.f1) == section["f1"]

    def test_metric_fields_follow_score_declaration(self):
        section = metrics_section(binary_metrics(ConfusionMatrix(tp=1, fp=1, fn=1, tn=1)))
        assert [k for k in section if k in ("precision", "recall", "f1")] == list(SCORES)
        assert list(section)[-1] == "flags"

    def test_csv_lines_match_serialized_block(self):
        block = sample_report().tables["curve"]
        assert block.lines() == [
            "fraction,kind,seed,precision,recall,f1",
            "0.1,monolingual,1,0.5,0.25,0.3333333333333333"]
        text = serialize_report(sample_report())
        assert "```csv curve\n" + "\n".join(block.lines()) + "\n```\n" in text

    def test_curve_schema(self):
        report = sample_report()
        assert report.tables["curve"].columns == [
            "fraction", "kind", "seed", "precision", "recall", "f1",
        ]


class TestParsing:
    def test_rejects_wrong_header(self):
        with pytest.raises(FormatError):
            parse_report("NOTAREPORT\n")

    def test_file_errors_name_path(self, tmp_path):
        path = tmp_path / "report.txt"
        path.write_bytes(b"XLREPORT 1\n\n[run]\nseed=\xff\n")
        with pytest.raises(FormatError, match=r"report\.txt:4: invalid UTF-8"):
            read_report(path)
        path.write_bytes(b"XLREPORT 1\n\nstray\n")
        with pytest.raises(FormatError, match=r"report\.txt: cannot parse report line 3"):
            read_report(path)

    def test_rejects_unterminated_csv(self):
        text = "XLREPORT 1\n\n```csv curve\na,b\n1,2\n"
        with pytest.raises(FormatError):
            parse_report(text)

    def test_rejects_stray_line(self):
        with pytest.raises(FormatError):
            parse_report("XLREPORT 1\n\nstray line without section\n")

    def test_rejects_duplicate_section(self):
        with pytest.raises(FormatError):
            parse_report("XLREPORT 1\n\n[a]\nx=1\n\n[a]\ny=2\n")

    def test_value_with_equals_sign(self):
        report = Report()
        report.section("s")["key"] = "a=b=c"
        text = serialize_report(report)
        assert parse_report(text).sections["s"]["key"] == "a=b=c"

    def test_illegal_key_rejected_on_write(self):
        report = Report()
        report.section("s")["bad=key"] = "v"
        with pytest.raises(ValueError):
            serialize_report(report)

    @pytest.mark.parametrize("text", ["a\rb", "a\r\nb", "a\nb"])
    def test_line_break_rejected_on_write(self, tmp_path, text):
        # read_report reads in universal-newline mode, so "\r" would end a line
        for key, value in ((text, "v"), ("out_dir", text)):
            report = sample_report()
            report.section("run")[key] = value
            with pytest.raises(ValueError, match="illegal report key/value"):
                write_report(report, tmp_path / "report.txt")

    @pytest.mark.parametrize("cell", ["a,b", "a\rb", "a\nb"])
    def test_cell_that_cannot_read_back_rejected_on_write(self, tmp_path, cell):
        for columns, rows in (([cell], [["1"]]), (["name"], [[cell]])):
            report = sample_report()
            report.add_table("names", columns, rows)
            with pytest.raises(ValueError, match="illegal cell"):
                write_report(report, tmp_path / "report.txt")

    def test_table_width_validated(self):
        report = Report()
        with pytest.raises(ValueError):
            report.add_table("t", ["a", "b"], [["1"]])
