"""The standalone experiment runner (python -m repro.tools.experiments)."""

import os

import pytest

from repro.tools.experiments import EXPERIMENTS, main, run_experiments


class TestRunner:
    def test_every_experiment_runs(self):
        """Each experiment produces a non-empty report with its tag."""
        collected = []
        reports = run_experiments(echo=collected.append)
        assert len(reports) == len(EXPERIMENTS)
        for name, text in zip(EXPERIMENTS, reports):
            assert text.lower().startswith(name.split("e")[0] + "e") or \
                name.upper() in text

    def test_selection(self):
        reports = run_experiments(["e6"], echo=lambda text: None)
        assert len(reports) == 1
        assert "extension effort" in reports[0]

    def test_unknown_experiment(self):
        with pytest.raises(SystemExit):
            run_experiments(["e99"], echo=lambda text: None)

    def test_out_dir_written(self, tmp_path):
        out = str(tmp_path / "reports")
        run_experiments(["e10"], out_dir=out, echo=lambda text: None)
        assert os.path.exists(os.path.join(out, "e10.txt"))
        with open(os.path.join(out, "e10.txt")) as handle:
            assert "redefining consistency" in handle.read()

    def test_main_entry(self, tmp_path, capsys):
        code = main(["e6", "--out", str(tmp_path)])
        assert code == 0
        captured = capsys.readouterr()
        assert "extension effort" in captured.out
        assert os.path.exists(str(tmp_path / "e6.txt"))


class TestReportContents:
    def test_e1_reports_full_match(self):
        text = run_experiments(["e1"], echo=lambda t: None)[0]
        assert "all rows match the paper: yes" in text

    def test_e5_reports_speedups(self):
        text = run_experiments(["e5"], echo=lambda t: None)[0]
        assert "delta" in text and "x)" in text

    def test_e8_reports_masked_fuel(self):
        text = run_experiments(["e8"], echo=lambda t: None)[0]
        assert "leaded" in text
        assert "consistency: True" in text

    def test_e9_detects_every_kind_with_repairs(self):
        text = run_experiments(["e9"], echo=lambda t: None)[0]
        assert text.count("detected: yes") == 5
        assert " 0 repair(s)" not in text

    def test_e11_cures_store_what_they_promise(self):
        text = run_experiments(["e11"], echo=lambda t: None)[0]
        conversion, masking, lazy = text.splitlines()[2:]
        assert "stored at cure 300/300" in conversion
        assert "stored at cure   0/300" in masking
        assert "stored at cure   0/300" in lazy
        assert text.count("leaded 300/300") == 3
