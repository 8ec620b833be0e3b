import csv
import io
import json
import os
import stat

import pytest

from minimt.reports import (
    EvalReport,
    EvalRow,
    RunManifest,
    publish,
    quality_efficiency_csv,
    sha256_file,
)


def row(direction="anu_Latn-bnu_Latn", bleu=50.0, chrf=60.123456789, tput=1234.5):
    return EvalRow(direction=direction, model_id="m1", bleu=bleu, chrf_pp=chrf,
                   throughput_tokens_per_sec=tput, total_seconds=2.5,
                   output_tokens=100, beam_size=3, batch_token_budget=1024)


class TestEvalReport:
    def test_aggregates_are_means_of_rows(self):
        report = EvalReport(rows=[
            row(direction="anu_Latn-bnu_Latn", bleu=40.0),
            row(direction="cnu_Latn-bnu_Latn", bleu=60.0),
            row(direction="bnu_Latn-anu_Latn", bleu=10.0),
        ])
        aggs = {a["group"]: a for a in report.aggregates()}
        assert aggs["*-bnu_Latn"]["bleu"] == pytest.approx(50.0, abs=1e-12)
        assert aggs["overall"]["bleu"] == pytest.approx(110.0 / 3, abs=1e-12)

    def test_empty_report_csv_is_header_only(self):
        assert EvalReport().to_csv().strip().count("\n") == 0

    def test_json_roundtrip_lossless(self):
        report = EvalReport(rows=[row(chrf=60.12345678901234)])
        back = EvalReport.from_json(report.to_json())
        assert back.rows[0].chrf_pp == report.rows[0].chrf_pp

    def test_json_csv_json_roundtrips_at_6_significant_digits(self):
        report = EvalReport(rows=[row()])
        parsed = list(csv.DictReader(io.StringIO(report.to_csv())))
        data_row = [p for p in parsed if p["kind"] == "row"][0]
        for col, value in (("bleu", report.rows[0].bleu),
                           ("chrf_pp", report.rows[0].chrf_pp)):
            assert float(data_row[col]) == pytest.approx(value, rel=1e-5)
            assert data_row[col] == format(value, ".6g")


def test_quality_efficiency_chart_csv():
    a = EvalReport(rows=[row(chrf=55.0, tput=1000.0)])
    b = EvalReport(rows=[row(chrf=54.0, tput=1300.0)])
    text = quality_efficiency_csv([("baseline", a), ("pruned", b)])
    lines = text.strip().split("\n")
    assert lines[0] == "model,chrf_pp,throughput_tokens_per_sec"
    assert lines[1].startswith("baseline,55")
    assert lines[2].startswith("pruned,54")


class TestRunManifest:
    def test_run_id_deterministic_and_content_sensitive(self, tmp_path):
        f = tmp_path / "in.txt"
        f.write_text("hello")
        m1 = RunManifest(command="filter", config={"a": 1}, seed=3)
        m1.add_input(f)
        m2 = RunManifest(command="filter", config={"a": 1}, seed=3)
        m2.add_input(f)
        assert m1.run_id == m2.run_id
        m3 = RunManifest(command="filter", config={"a": 2}, seed=3)
        assert m3.run_id != m1.run_id

    def test_write_includes_output_hashes(self, tmp_path):
        out = tmp_path / "out.txt"
        out.write_text("payload")
        m = RunManifest(command="x", config={}, seed=None, toolkit_version="0.1.0")
        m.add_output(out, "payload")
        publish({tmp_path / "manifest.json": m.to_json()})
        obj = json.loads((tmp_path / "manifest.json").read_text())
        assert obj["outputs"][str(out)] == sha256_file(out)
        assert obj["run_id"] == m.run_id


class TestPublish:
    def test_publishes_everything(self, tmp_path):
        paths = publish({tmp_path / "a.txt": "alpha \u00e9",
                         tmp_path / "sub" / "b.bin": b"\x00beta"})
        assert paths == [str(tmp_path / "a.txt"), str(tmp_path / "sub" / "b.bin")]
        assert (tmp_path / "a.txt").read_bytes() == "alpha \u00e9".encode("utf-8")
        assert (tmp_path / "sub" / "b.bin").read_bytes() == b"\x00beta"
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["a.txt", "b.bin", "sub"]

    def test_failure_leaves_no_partial_outputs(self, tmp_path):
        (tmp_path / "blocker").write_text("")
        with pytest.raises(OSError):
            publish({tmp_path / "a.txt": "alpha",
                     tmp_path / "blocker" / "b.txt": "beta"})
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker"]

    def test_failed_rename_leaves_no_temp_files(self, tmp_path):
        (tmp_path / "taken").mkdir()
        (tmp_path / "taken" / "keep").write_text("")
        with pytest.raises(OSError):
            publish({tmp_path / "a.txt": "alpha", tmp_path / "taken": "beta",
                     tmp_path / "c.txt": "gamma"})
        assert not (tmp_path / "c.txt").exists()
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["a.txt", "keep", "taken"]

    def test_files_get_the_mode_the_umask_gives(self, tmp_path):
        old = os.umask(0o022)
        try:
            publish({tmp_path / "a.txt": "alpha", tmp_path / "sub" / "b.bin": b"beta"})
        finally:
            os.umask(old)
        for p in (tmp_path / "a.txt", tmp_path / "sub" / "b.bin"):
            assert stat.S_IMODE(p.stat().st_mode) == 0o644
